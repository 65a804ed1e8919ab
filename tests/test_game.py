"""The evaluation game: arena, solver, membership, bounded search."""

import gc
import random
import signal
from contextlib import contextmanager
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (depth_priorities, desk_lassos, lasso_arena,
                     reference_build_arena,
                     reference_closure, reference_contracted_arena,
                     reference_equiv_bounded, reference_inclusion_bounded,
                     reference_inclusion_sides, reference_occurrence_graph,
                     reference_resolved_arena, reference_solve_parity,
                     reference_start_arena, reference_word_graphs, spellings)
from rll import algebra, game
from rll.closure import DEAD_TOP, DEAD_ZERO, ClosureError, occurrence_graph
from rll.corpus import agreement_pairs, gen_alphabet, gen_expr, gen_lasso
from rll.game import (ABELARD, ELOISE, GameError, ParityGame,
                      WordGraph, batch_graphs, build_arena, equiv_bounded,
                      inclusion_bounded, lasso_graph, member_game,
                      solve_parity)
from rll.semantics import (Lasso, LassoColumns, enumerate_lassos,
                           lasso_normalize, member_oracle, parse_lasso,
                           print_lasso)
from rll.syntax import (Alphabet, Meet, Mu, Nu, Sum, Var, expr_size,
                        parse_expr)

AB = Alphabet.plain("a", "b")
IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"


def lasso(text, ab=AB):
    return parse_lasso(text, ab)


def search_graphs(ab, max_prefix, max_period, budget):
    """The word graphs of every lasso within the bounds, as one run of
    roots, each with its roots' lassos read back from the columns."""
    lassos = LassoColumns(ab)
    end = len([*enumerate_lassos(ab, max_prefix, max_period, lassos)])
    first = 0
    for g in batch_graphs(lassos, 0, end, budget):
        yield g, [*map(lassos.lasso, range(first, first + len(g.roots)))]
        first += len(g.roots)


class TestArena:
    def test_zero_deadlock(self):
        g = lasso_arena(parse_expr("0", AB), lasso("(a)"))
        assert len(g.owners) == 1
        assert g.owners[0] == ELOISE
        assert g.edges == ((),)

    def test_letter_mismatch_deadlock(self):
        g = lasso_arena(parse_expr("mu X. a.X", AB), lasso("(b)"))
        dead = [i for i, succs in enumerate(g.edges)
                if not succs and g.owners[i] == ELOISE]
        assert dead, "expected a reachable mismatch deadlock"

    def test_arena_shape_for_infinitely_many_as(self):
        """On (ab) each vertex's sum has one live move, the one that reads
        the vertex's letter, so the sum is no position. The mu then reads
        its way to the nu after the a and to itself after the b, binders of
        no higher priority, so it is no position either, and nor is the
        nu at the a, which stands for the nu after it. The arena is the nu
        at the b, whose move runs through (1, mu) and (0, mu) back to
        itself, and the start stands for it."""
        e = parse_expr(IA, AB)
        graph = occurrence_graph(e, AB)
        g = lasso_arena(e, lasso("(ab)"), graph)
        assert g.labels == ((1, graph.roots[0]),)
        assert g.edges == ((0,),) and g.starts == (0,)
        assert solve_parity(g).winner == (ELOISE,)

    def test_open_expression_rejected(self):
        with pytest.raises(GameError, match="^the evaluation game needs a "
                                            "closed expression$"):
            member_game(Var("X"), lasso("(a)"))


class TestActsReadOnMoves:
    """Each act's letter is read on the move into it: an act node is never
    a position, and every 0, top and letter mismatch is its owner's one
    shared deadlock, at no vertex. A start is resolved like any other
    pair, so a root that is an act or a constant stands for a position or
    a deadlock too."""

    def test_constant_roots_are_one_deadlock(self):
        for text, owner, winner, dead in (("0", ELOISE, ABELARD, DEAD_ZERO),
                                          ("top", ABELARD, ELOISE, DEAD_TOP)):
            g = lasso_arena(parse_expr(text, AB), lasso("(a)"))
            assert g.owners == (owner,) and g.edges == ((),)
            assert g.labels == ((None, dead),) and g.starts == (0,)
            assert solve_parity(g).winner == (winner,)

    def test_act_root(self):
        """The root a. reads its letter to the nu, which stands for itself:
        the start is the nu's position, or Eloise's deadlock on a b."""
        e = parse_expr("a.(nu X. a.X)", AB)
        graph = occurrence_graph(e, AB)
        nu, = graph.succs[graph.roots[0]]
        g = lasso_arena(e, lasso("(a)"), graph)
        assert g.labels == ((0, nu),)
        assert g.edges == ((0,),) and g.starts == (0,)
        assert solve_parity(g).winner == (ELOISE,)
        g = lasso_arena(e, lasso("b(a)"), graph)
        assert g.labels == ((None, DEAD_ZERO),)
        assert solve_parity(g).winner == (ABELARD,)

    def test_act_chains(self):
        """In a.b.a.X no act is a position: each act's slot goes on to the
        slot its letter leads to, and a wrong letter or a top ends the
        chain in a deadlock, for which the start then stands."""
        e = parse_expr("nu X. a.b.a.X", AB)
        graph = occurrence_graph(e, AB)
        g = lasso_arena(e, lasso("(aba)"), graph)
        assert g.labels == ((0, graph.roots[0]),) and g.edges == ((0,),)
        assert solve_parity(g).winner == (ELOISE,)
        e = parse_expr("a.b.a.top", AB)
        graph = occurrence_graph(e, AB)
        g = lasso_arena(e, lasso("ab(a)"), graph)
        assert g.labels == ((None, DEAD_TOP),)
        assert g.edges == ((),) and g.owners == (ABELARD,)
        assert solve_parity(g).winner[g.initial] == ELOISE
        g = lasso_arena(e, lasso("aa(a)"), graph)
        assert g.labels == ((None, DEAD_ZERO),)
        assert solve_parity(g).winner[g.initial] == ABELARD

    def test_two_moves_to_one_position(self):
        """Both moves of a.0 + b.0 on (a) end in Eloise's deadlock, the 0
        after a read and the mismatch, so the start stands for that
        deadlock, and Eloise loses. Both moves of X + a.X, where the vertex
        is its own successor, lead to the mu: the move repeats."""
        g = lasso_arena(parse_expr("a.0 + b.0", AB), lasso("(a)"))
        assert g.edges == ((),) and g.labels == ((None, DEAD_ZERO),)
        assert g.owners == (ELOISE,)
        assert solve_parity(g).winner == (ABELARD,)
        assert reference_solve_parity(g).winner == (ABELARD,)
        g = lasso_arena(parse_expr("mu X. (X + a.X)", AB), lasso("(a)"))
        assert g.edges == ((1,), (0, 0))
        assert solve_parity(g).winner == (ABELARD, ABELARD)
        assert reference_solve_parity(g).winner == (ABELARD, ABELARD)

    def test_abelard_refutes_by_a_wrong_letter(self):
        """The meet's only losing move for Eloise reads b on an a: Abelard
        would take it, into Eloise's deadlock, so the start stands for that
        deadlock."""
        e = parse_expr("(nu X. a.X) & b.top", AB)
        g = lasso_arena(e, lasso("(a)"))
        sol = solve_parity(g)
        assert g.labels[g.initial] == (None, DEAD_ZERO)
        assert sol.winner[g.initial] == ABELARD
        assert not member_oracle(e, lasso("(a)"))
        e = parse_expr("(nu X. a.X) & a.top", AB)
        g = lasso_arena(e, lasso("(a)"))
        assert solve_parity(g).winner[g.initial] == ELOISE

    def test_positions_and_deadlocks(self):
        """Acts and constants are never positions, and each deadlock
        appears once, with its owner and the neutral priority."""
        choices = deadlocks = 0
        for e, w in agreement_pairs(69, 4000):
            graph = occurrence_graph(e, w.alphabet)
            kinds = graph.kinds
            g = lasso_arena(e, w, graph)
            for j, (i, v) in enumerate(g.labels):
                if i is None:
                    deadlocks += 1
                    assert v in (DEAD_ZERO, DEAD_TOP) and not g.edges[j]
                    assert g.owners[j] == (ELOISE if v == DEAD_ZERO
                                           else ABELARD)
                    assert g.priorities[j] == max(graph.priority)
                else:  # no act or constant, the root's included
                    assert kinds[v] not in ("act", "zero", "top")
                    choices += kinds[v] in ("sum", "meet")
            assert len({l for l in g.labels if l[0] is None}) == \
                sum(l[0] is None for l in g.labels)
        assert choices > 400 and deadlocks > 1500, (choices, deadlocks)

    def test_word_graph_roots_match_the_per_lasso_reference(self):
        """Every root of a word graph gets the winner of its own lasso's
        game with a position per act."""
        rng = random.Random(73)
        for _ in range(100):
            ab = rng.choice((AB, Alphabet.plain("a", "b", "c")))
            e = gen_expr(rng, ab, rng.randint(1, 14))
            graph = occurrence_graph(e, ab)
            for g, roots in search_graphs(ab, 2, 2,
                                          rng.choice((1, 7, 10**6))):
                arena = build_arena(graph, g)
                won = solve_parity(arena).winner
                for k, w in enumerate(roots):
                    full = reference_build_arena(e, w, graph)
                    assert won[arena.starts[k]] == \
                        reference_solve_parity(full).winner[0], (e, w)


def _binder_nesting(e) -> int:
    """The largest number of binders on one root-to-leaf path."""
    if isinstance(e, (Mu, Nu)):
        return 1 + _binder_nesting(e.body)
    return max((_binder_nesting(getattr(e, f))
                for f in ("body", "left", "right") if hasattr(e, f)),
               default=0)


def _alternation_depth(e, above=None) -> int:
    """The most blocks of same-kind binders on one root-to-leaf path."""
    if isinstance(e, (Mu, Nu)):
        return (type(e) is not above) + _alternation_depth(e.body, type(e))
    return max((_alternation_depth(getattr(e, f), above)
                for f in ("body", "left", "right") if hasattr(e, f)),
               default=0)


class TestOccurrenceGraph:
    def test_node_counts_match_closure_on_paper_languages(self):
        counts = []
        for text in (IA, FB, f"({IA}) & ({FB})"):
            e = parse_expr(text, AB)
            for x in (e, algebra.complement(e, AB)):
                n = len(occurrence_graph(x, AB).kinds)
                assert n == len(reference_closure(x, AB))
                counts.append(n)
        assert counts == [5, 10, 7, 13, 13, 21]

    def test_variables_are_back_edges_to_binders(self):
        g = occurrence_graph(parse_expr(IA, AB), AB)
        assert g.kinds[g.roots[0]] == "nu"
        acts = {g.letters[i]: g.succs[i] for i, k in enumerate(g.kinds)
                if k == "act"}
        mu, = g.succs[g.roots[0]]
        assert acts == {"a": (g.roots[0],), "b": (mu,)}
        assert g.priority[g.roots[0]] == 0 and g.priority[mu] == 3

    def test_node_count_at_most_expr_size(self):
        rng = random.Random(61)
        for _ in range(300):
            ab = gen_alphabet(rng)
            e = gen_expr(rng, ab, rng.randint(1, 60))
            assert len(occurrence_graph(e, ab).kinds) <= expr_size(e)

    def test_distinct_priorities_bounded_by_nesting(self):
        rng = random.Random(62)
        for _ in range(300):
            ab = gen_alphabet(rng)
            e = gen_expr(rng, ab, rng.randint(1, 60))
            g = occurrence_graph(e, ab)
            assert len(set(g.priority)) <= 2 * _binder_nesting(e) + 2

    def test_same_kind_nested_binders_share_priority(self):
        g = occurrence_graph(parse_expr("mu X. mu Y. (a.X + b.Y)", AB), AB)
        mu_y, = g.succs[g.roots[0]]
        assert g.kinds[mu_y] == "mu"
        assert g.priority[g.roots[0]] == g.priority[mu_y] == 1

    def test_distinct_priorities_bounded_by_alternation(self):
        rng = random.Random(62)
        for _ in range(300):
            ab = gen_alphabet(rng)
            e = gen_expr(rng, ab, rng.randint(1, 60))
            g = occurrence_graph(e, ab)
            assert len(set(g.priority)) <= 2 * _alternation_depth(e) + 2

    def test_oracle_agreement_and_complement_law(self):
        for e, w in agreement_pairs(3031, 1000):
            g = member_game(e, w)
            assert g == member_oracle(e, w), \
                f"disagreement on {e} / {print_lasso(w)}"
            assert member_game(algebra.complement(e, w.alphabet), w) != g, \
                f"complement law broken on {e} / {print_lasso(w)}"

    def test_oracle_agreement_on_large_expressions(self):
        rng = random.Random(5150)
        for _ in range(60):
            ab = gen_alphabet(rng)
            e = gen_expr(rng, ab, rng.randint(50, 200))
            w = gen_lasso(rng, ab, 3, 4)
            assert member_game(e, w) == member_oracle(e, w), \
                f"disagreement on {e} / {print_lasso(w)}"

    def test_undeclared_letter_rejected(self):
        e = parse_expr("nu X. c.X", Alphabet.plain("a", "b", "c"))
        with pytest.raises(ClosureError):
            occurrence_graph(e, AB)


class TestSharedGraph:
    """One occurrence graph of several expressions, as the bounded search
    builds for its sides: closed binders with the same structure and level
    are one node, and each root keeps its own expression's winners."""

    def test_one_expression_graphs_are_unchanged(self):
        for e, w in agreement_pairs(74, 2000):
            got = occurrence_graph(e, w.alphabet)
            want = reference_occurrence_graph(e, w.alphabet)
            assert got._asdict() == want._asdict(), e
            assert occurrence_graph([e], w.alphabet) == got

    def test_roots_match_their_own_games(self):
        """Law-shaped pairs, unrelated pairs and a triple: every root's
        winner on every word root is its own game's and the oracle's."""
        rng = random.Random(75)
        shared = 0
        for _ in range(12):
            e, f, g = (gen_expr(rng, AB, rng.randint(1, 11))
                       for _ in range(3))
            for exprs in ([e, Sum(e, e)], [Meet(e, f), Meet(f, e)],
                          [e, Meet(e, Sum(e, f))],
                          [Sum(Sum(e, f), g), Sum(e, Sum(f, g))],
                          [e, f], [e, f, g]):
                graph = occurrence_graph(exprs, AB)
                own = [occurrence_graph(x, AB) for x in exprs]
                m = len(exprs)
                assert len(graph.roots) == m
                assert len(graph.kinds) <= sum(len(o.kinds) for o in own)
                shared += len(graph.kinds) < sum(len(o.kinds) for o in own)
                for words, roots in search_graphs(AB, 2, 3,
                                                  rng.choice((5, 10**6))):
                    arena = build_arena(graph, words)
                    won = solve_parity(arena).winner
                    assert len(arena.starts) == m * len(words.roots)
                    for k, w in enumerate(roots):
                        for x, (t, o) in enumerate(zip(exprs, own)):
                            ref = reference_contracted_arena(t, w, o)
                            start = arena.starts[k * m + x]
                            assert (won[start] == ELOISE) == \
                                member_game(t, w, o) == \
                                (reference_solve_parity(ref).winner[0]
                                 == ELOISE) == \
                                member_oracle(t, w), (t, w)
                    _assert_resolved(arena, graph, words, m)
        assert shared >= 50, shared

    def test_a_copy_adds_only_its_sum(self):
        ia = parse_expr(IA, AB)
        alone = occurrence_graph(ia, AB)
        both = occurrence_graph([ia, Sum(ia, ia)], AB)
        assert len(both.kinds) == len(alone.kinds) + 1
        assert both.succs[both.roots[1]] == (both.roots[0],)

    def test_levels_keep_copies_apart(self):
        """IA's closed nu at level 0 is merged with a copy under a nu, and
        not with a copy under a mu, where its level and priority differ."""
        ia = parse_expr(IA, AB)
        for text, nus, mus in ((f"nu Z. (({IA}) + a.Z)", 2, 1),
                               (f"mu Z. (({IA}) + a.Z)", 2, 3)):
            graph = occurrence_graph([ia, parse_expr(text, AB)], AB)
            assert graph.kinds.count("nu") == nus
            assert graph.kinds.count("mu") == mus
            assert sorted(p for p, k in zip(graph.priority, graph.kinds)
                          if k == "nu") == ([0, 0] if mus == 1 else [0, 2])

    def test_open_binders_are_not_merged(self):
        """A binder with a free variable is never looked up, under two
        binders or under one. Under two, a merged copy would answer for
        IA's X: wrong on a(b), aa(b) and ba(b)."""
        inner = "mu Y. (a.X + b.Y)"
        for texts in ([IA, f"nu X. (({inner}) + b.b.X)"],
                      [f"nu X. (({inner}) & ({inner}))", "top"]):
            exprs = [parse_expr(t, AB) for t in texts]
            graph = occurrence_graph(exprs, AB)
            for w in desk_lassos(AB):
                arena = build_arena(graph, lasso_graph(w))
                won = solve_parity(arena).winner
                for x, t in enumerate(exprs):
                    assert (won[arena.starts[x]] == ELOISE) == \
                        member_oracle(t, w), (t, w)
            assert graph.kinds.count("mu") == 2

    def test_an_expression_against_itself(self):
        """equiv e e and incl e e have one node for both roots: each word
        root's two starts are one position."""
        rng = random.Random(76)
        for _ in range(20):
            e = gen_expr(rng, AB, rng.randint(1, 10))
            graph = occurrence_graph([e, e], AB)
            assert graph.roots[0] == graph.roots[1]
            for words, roots in search_graphs(AB, 2, 2, 10**6):
                arena = build_arena(graph, words)
                won = solve_parity(arena).winner
                for k, w in enumerate(roots):
                    assert arena.starts[2 * k] == arena.starts[2 * k + 1]
                    assert (won[arena.starts[2 * k]] == ELOISE) == \
                        member_oracle(e, w), (e, w)
            assert equiv_bounded(e, e, AB, 2, 3) is None
            assert inclusion_bounded(e, e, AB, 3, 2) is None


class TestParityGame:
    """A game's owners, priorities and moves align, its initial position
    and starts must be positions, and the initial position is the first
    start; an arena needs a word root to start from."""

    @pytest.mark.parametrize("owners,priorities,edges", [
        ((ELOISE,), (0, 0), ((0,),)), ((ELOISE, ELOISE), (0, 0), ((0,),)),
        ((ELOISE,), (0,), ((0,), (0,)))])
    def test_arrays_must_align(self, owners, priorities, edges):
        with pytest.raises(GameError, match="^owners, priorities, edges "
                                            "must align$"):
            ParityGame(owners, priorities, edges, 0)

    def test_initial_must_be_a_position(self):
        for initial in (-1, 1):
            with pytest.raises(GameError):
                ParityGame((ELOISE,), (0,), ((0,),), initial)

    def test_starts_must_be_positions(self):
        for starts in ((0, 2), (0, -1)):
            with pytest.raises(GameError):
                ParityGame((ELOISE, ELOISE), (0, 0), ((1,), (0,)), 0, (),
                           starts)

    def test_a_word_graph_needs_a_root(self):
        e = parse_expr("nu X. a.X", AB)
        with pytest.raises(GameError):
            build_arena(occurrence_graph(e, AB), WordGraph("a", [0], []))

    def test_initial_is_the_first_start(self):
        with pytest.raises(GameError):
            ParityGame((ELOISE, ELOISE), (0, 0), ((1,), (0,)), 0, (), (1, 0))
        g = ParityGame((ELOISE, ELOISE), (0, 0), ((1,), (0,)), 1, (), (1, 0))
        assert g.initial == g.starts[0] == 1


class TestSolver:
    def test_abelard_self_loop_even(self):
        g = ParityGame((ABELARD,), (0,), ((0,),), 0)
        assert solve_parity(g).winner == (ELOISE,)

    def test_eloise_self_loop_odd(self):
        g = ParityGame((ELOISE,), (1,), ((0,),), 0)
        assert solve_parity(g).winner == (ABELARD,)

    def test_eloise_deadlock_loses(self):
        g = ParityGame((ELOISE,), (0,), ((),), 0)
        assert solve_parity(g).winner == (ABELARD,)

    def test_choice_into_good_loop(self):
        # Eloise chooses between an odd self-loop and an even one
        g = ParityGame((ELOISE, ELOISE, ELOISE), (5, 1, 2),
                       ((1, 2), (1,), (2,)), 0)
        sol = solve_parity(g)
        assert sol.winner[0] == ELOISE
        assert sol.strategy_eloise[0] == 2

    def test_winner_map_is_total_partition(self):
        rng = random.Random(4)
        for e, w in agreement_pairs(101, 60):
            g = lasso_arena(e, w)
            sol = solve_parity(g)
            assert len(sol.winner) == len(g.owners)
            assert set(sol.winner) <= {ELOISE, ABELARD}

    def test_priority_shift_invariance(self):
        for e, w in agreement_pairs(55, 40):
            g = lasso_arena(e, w)
            shifted = ParityGame(g.owners,
                                 tuple(p + 2 for p in g.priorities),
                                 g.edges, g.initial, g.labels)
            assert solve_parity(g).winner == solve_parity(shifted).winner

    def test_strategies_are_winning_on_simulated_plays(self):
        rng = random.Random(8)
        checked = 0
        for e, w in agreement_pairs(77, 25):
            g = lasso_arena(e, w)
            sol = solve_parity(g)
            for player, strat in ((ELOISE, sol.strategy_eloise),
                                  (ABELARD, sol.strategy_abelard)):
                region = sol.region(player)
                for start in sorted(region):
                    for _trial in range(3):
                        opp_choice = {
                            v: rng.choice(g.edges[v])
                            for v in range(len(g.owners))
                            if g.owners[v] != player and g.edges[v]}
                        _check_play(g, sol, player, strat, opp_choice, start)
                        checked += 1
        assert checked > 50


    def test_attractor_calls_counted(self):
        # no deadlocks and one priority: one attractor takes everything
        g = ParityGame((ABELARD, ELOISE), (0, 0), ((1,), (0,)), 0)
        assert solve_parity(g).attractor_calls == 1
        # each deadlock sweep is one more
        g = ParityGame((ABELARD, ELOISE, ELOISE), (1, 1, 1),
                       ((), (), (0, 1)), 0)
        assert solve_parity(g).attractor_calls == 2

    def test_alternation_levels_need_no_more_attractor_calls(self):
        """Alternation-level priorities against nesting-depth ones on the
        same arenas: never more attractor calls in total."""
        rng = random.Random(64)
        lassos = desk_lassos(AB, 2, 3)
        by_level = by_depth = differ = 0
        for _ in range(40):
            e = gen_expr(rng, AB, rng.randint(1, 14))
            graph = occurrence_graph(e, AB)
            depth = depth_priorities(graph)
            differ += depth != graph.priority
            for w in lassos:
                g = lasso_arena(e, w, graph)
                # the shared deadlocks, at no vertex, keep their priority
                deep = ParityGame(g.owners,
                                  tuple(p if i is None else depth[v]
                                        for (i, v), p in zip(g.labels,
                                                             g.priorities)),
                                  g.edges, g.initial, g.labels)
                level, nested = solve_parity(g), solve_parity(deep)
                assert level.winner == nested.winner
                by_level += level.attractor_calls
                by_depth += nested.attractor_calls
        assert differ and by_level <= by_depth


def _random_arena(rng: random.Random) -> ParityGame:
    """1-14 positions of random owners and priorities 0-6, each with 0-3
    distinct moves, so deadlocks of both owners occur."""
    n = rng.randint(1, 14)
    return ParityGame(
        tuple(rng.choice((ELOISE, ABELARD)) for _ in range(n)),
        tuple(rng.randint(0, 6) for _ in range(n)),
        tuple(tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
              for _ in range(n)), 0)


class TestAgainstReference:
    """The flat-array arena and solver against the dict-and-set ones they
    replaced (``tests/helpers.py``)."""

    def test_random_arena_winners(self):
        rng = random.Random(65)
        stuck = set()
        for _ in range(20000):
            g = _random_arena(rng)
            stuck.update(o for o, succ in zip(g.owners, g.edges) if not succ)
            assert solve_parity(g).winner == \
                reference_solve_parity(g).winner, g
        assert stuck == {ELOISE, ABELARD}

    def test_agreement_pair_arenas_and_winners(self):
        """Every position of the arena at a vertex is one of the dict-keyed
        arena with acts read on moves, with the same winner there, and
        every (lasso position, node) it shares with the arena that has a
        position per act has that winner too. A deadlock, which that arena
        has only where a move reaches it, is won by its owner's opponent,
        and the start's winner is that arena's start's."""
        shared = 0
        for e, w in agreement_pairs(66, 7500):
            g = lasso_arena(e, w)
            won = reference_solve_parity(g).winner
            assert solve_parity(g).winner == won, \
                f"winners differ on {e} / {print_lasso(w)}"
            ref = reference_contracted_arena(e, w)
            ref_winner = reference_solve_parity(ref).winner
            assert won[g.initial] == ref_winner[0], \
                f"the start differs on {e} / {print_lasso(w)}"
            ref_won = dict(zip(ref.labels, ref_winner))
            full = reference_build_arena(e, w)
            full_won = dict(zip(full.labels,
                                reference_solve_parity(full).winner))
            for label, winner in zip(g.labels, won):
                if label[0] is None:
                    assert winner == (ABELARD if label[1] == DEAD_ZERO
                                      else ELOISE), label
                    continue
                assert ref_won[label] == winner, \
                    f"{label} differs on {e} / {print_lasso(w)}"
                if label in full_won:
                    shared += 1
                    assert full_won[label] == winner, \
                        f"{label} differs on {e} / {print_lasso(w)}"
        assert shared > 5000, shared


def _assert_resolved(g: ParityGame, graph, words, m: int = 1):
    """No position, a start's included, is a non-binder with fewer than two
    distinct live moves at its vertex's letter, and each deadlock appears
    at most once: a sum or a meet is left a position only with two moves,
    neither of which reads a wrong letter or goes into a deadlock. No
    position is a binder whose move goes straight into a deadlock, and one
    whose move lands straight on a binder of no higher priority lies on a
    cycle of such positions, all of its priority. There are m starts per
    word root."""
    letters, succ = words.letters, words.successors
    neutral = max(graph.priority)
    dead = [v for i, v in g.labels if i is None]
    assert len(set(dead)) == len(dead)
    assert len(g.starts) == len(words.roots) * m
    for j, (i, v) in enumerate(g.labels):
        if i is None:
            continue
        kind = graph.kinds[v]
        if kind in ("mu", "nu"):
            (a, x), = graph.moves[v]
            if a is not None and a != letters[i]:
                x = DEAD_ZERO
            assert x >= 0, (j, x)
            if (graph.kinds[x] in ("mu", "nu")
                    and graph.priority[x] <= graph.priority[v]):
                k, seen = j, set()
                while k not in seen:  # one move each, back to j
                    seen.add(k)
                    k, = g.edges[k]
                    assert g.priorities[k] == g.priorities[j], (j, k)
                assert k == j, (j, k)
            continue
        assert kind in ("sum", "meet") and g.priorities[j] == neutral, j
        own, opp = ((DEAD_ZERO, DEAD_TOP) if kind == "sum"
                    else (DEAD_TOP, DEAD_ZERO))
        first = set()  # where each move goes before any is resolved
        for a, x in graph.moves[v]:
            if a is not None and a != letters[i]:
                x = DEAD_ZERO
            first.add(x if x < 0 else (i if a is None else succ[i], x))
        assert opp not in first and len(first - {own}) == 2, (j, first)
        assert len(g.edges[j]) == 2


class TestResolvedArena:
    """Each choice is resolved at its vertex's letter while the arena is
    built: against the arena with a position per reachable choice
    (``tests/helpers.py::reference_contracted_arena``) and the oracle."""

    def test_starts_match_reference_and_oracle(self):
        for e, w in agreement_pairs(78, 2000):
            graph = occurrence_graph(e, w.alphabet)
            g = lasso_arena(e, w, graph)
            ref = reference_contracted_arena(e, w, graph)
            want = member_oracle(e, w)
            assert (solve_parity(g).winner[g.initial] == ELOISE) == want, \
                f"{e} / {print_lasso(w)}"
            assert (reference_solve_parity(ref).winner[0] == ELOISE) == want
            _assert_resolved(g, graph, lasso_graph(w))

    def test_nested_choices_resolve_first(self):
        """A meet's sums resolve before it. On an a the left sum reaches
        Abelard's deadlock, which he never takes, and the right sum reads
        a: the meet is that read, back to the nu. On a b the left sum is
        Eloise's deadlock, which Abelard takes, so the meet, the nu and the
        start stand for that deadlock. Two sums that resolve alike leave
        their meet one move."""
        e = parse_expr("nu X. ((b.0 + a.top) & (a.X + b.0))", AB)
        graph = occurrence_graph(e, AB)
        g = lasso_arena(e, lasso("(a)"), graph)
        assert g.labels == ((0, graph.roots[0]),) and g.edges == ((0,),)
        assert solve_parity(g).winner == (ELOISE,)
        g = lasso_arena(e, lasso("(b)"), graph)
        assert g.labels == ((None, DEAD_ZERO),) and g.edges == ((),)
        assert solve_parity(g).winner == (ABELARD,)
        assert member_oracle(e, lasso("(a)"))
        assert not member_oracle(e, lasso("(b)"))
        # two sums that each leave the one move that reads a: the meet's
        # moves are one, so the meet is that move too
        e = parse_expr("nu X. ((a.X + b.0) & (a.X + b.top))", AB)
        g = lasso_arena(e, lasso("(a)"))
        assert g.edges == ((0,),) and solve_parity(g).winner == (ELOISE,)

    def test_paper_languages_halve_positions(self):
        """On the paper's languages and their complements, over long
        lassos, the arena keeps under half the reference's positions."""
        rng = random.Random(79)
        langs = [parse_expr(t, AB) for t in (IA, FB, f"({IA}) & ({FB})")]
        langs += [algebra.complement(e, AB) for e in langs]
        kept = full = 0
        for e in langs:
            for _ in range(4):
                w = gen_lasso(rng, AB, 20, 30)
                g = lasso_arena(e, w)
                ref = reference_contracted_arena(e, w)
                assert (solve_parity(g).winner[g.initial] ==
                        reference_solve_parity(ref).winner[0])
                kept += len(g.owners)
                full += len(ref.owners)
        assert 2 * kept < full, (kept, full)


def _assert_traps(g: ParityGame):
    """Each winning region is closed under its winner's strategy and under
    every move of the opponent."""
    sol = solve_parity(g)
    for player, strat in ((ELOISE, sol.strategy_eloise),
                          (ABELARD, sol.strategy_abelard)):
        for v in sol.region(player):
            if g.owners[v] == player:
                assert strat[v] in g.edges[v], (g, v)
                assert sol.winner[strat[v]] == player, (g, v)
            else:
                assert all(sol.winner[s] == player for s in g.edges[v]), \
                    (g, v)


class TestStrategyTraps:
    def test_random_arenas(self):
        rng = random.Random(67)
        for _ in range(3000):
            _assert_traps(_random_arena(rng))

    def test_agreement_pair_arenas(self):
        for e, w in agreement_pairs(68, 2000):
            _assert_traps(lasso_arena(e, w))


def _check_play(g, sol, player, strat, opp_choice, start):
    """Follow the strategy against a fixed positional opponent; the play must
    end in an opponent deadlock or loop with the right parity."""
    seen = {}
    trace = []
    pos = start
    while pos not in seen:
        seen[pos] = len(trace)
        trace.append(pos)
        if g.owners[pos] == player:
            if not g.edges[pos]:
                raise AssertionError(f"{player} deadlocked at {pos} "
                                     "inside its winning region")
            pos = strat[pos]
        else:
            if pos not in opp_choice:
                return  # opponent deadlocked: the player wins the finite play
            pos = opp_choice[pos]
    cycle = trace[seen[pos]:]
    low = min(g.priorities[v] for v in cycle)
    want_even = (player == ELOISE)
    assert (low % 2 == 0) == want_even, \
        f"cycle parity {low} wrong for {player} from {start}"


class TestMemberGame:
    def test_examples(self):
        ia = parse_expr(IA, AB)
        both = parse_expr(f"({IA}) & ({FB})", AB)
        assert member_game(ia, lasso("(ab)"))
        assert member_game(both, lasso("bb(a)"))
        assert not member_game(parse_expr("nu X. a.X", AB), lasso("(ab)"))

    def test_oracle_agreement_corpus(self):
        for e, w in agreement_pairs(2024, 400):
            assert member_game(e, w) == member_oracle(e, w), \
                f"disagreement on {e} / {print_lasso(w)}"


class TestNormalForm:
    """The game gives one verdict for every spelling of a word, on the
    spelling as typed and on its normal form."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=500, deadline=None)
    def test_spellings_agree(self, seed):
        rng = random.Random(seed)
        ab = gen_alphabet(rng)
        e = gen_expr(rng, ab, rng.randint(1, 12))
        w = gen_lasso(rng, ab, 3, 4)
        want = member_game(e, w)
        for s in spellings(w):
            assert member_game(e, s) == want
            assert member_game(e, lasso_normalize(s)) == want


class TestGarbage:
    def test_member_game_leaves_no_cyclic_garbage(self):
        """The graph builder and the solver free their working sets on
        return, so nothing is left for the cyclic collector."""
        exprs = [parse_expr(IA, AB), parse_expr(FB, AB)]
        exprs += [algebra.complement(e, AB) for e in exprs]
        w = lasso("ab" * 50 + "(" + "ab" * 200 + ")")
        gc.collect()
        gc.disable()
        try:
            for e in exprs:
                member_game(e, w)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBoundedSearch:
    def test_equiv_finds_first_witness(self):
        e = parse_expr("nu X. a.X", AB)
        top = parse_expr("top", AB)
        w = equiv_bounded(e, top, AB, 1, 2)
        assert w is not None and print_lasso(w) == "(b)"

    def test_equiv_reflexive(self):
        e = parse_expr(IA, AB)
        assert equiv_bounded(e, e, AB, 2, 2) is None

    def test_equiv_fb_equals_meet_over_two_letters(self):
        fb = parse_expr(FB, AB)
        both = parse_expr(f"({IA}) & ({FB})", AB)
        assert equiv_bounded(fb, both, AB, 2, 3) is None

    def test_double_complement_no_difference(self):
        rng = random.Random(12)
        for _ in range(15):
            e = gen_expr(rng, AB, rng.randint(1, 7))
            cc = algebra.complement(algebra.complement(e, AB), AB)
            assert equiv_bounded(e, cc, AB, 2, 2) is None

    def test_inclusion_examples(self):
        nuax = parse_expr("nu X. a.X", AB)
        ia = parse_expr(IA, AB)
        assert inclusion_bounded(nuax, ia, AB, 2, 2) is None
        w = inclusion_bounded(parse_expr("top", AB), nuax, AB, 1, 1)
        assert w is not None and print_lasso(w) == "(b)"
        zero = parse_expr("0", AB)
        assert inclusion_bounded(zero, nuax, AB, 2, 2) is None


def _search_pairs(seed: int, rounds: int):
    """Seeded (expression, expression, alphabet, bounds) cases: random
    pairs over ``a b`` and ``a b c``, the lattice-law pairs and the two
    usually separating pairs of the ``bounded-search`` benchmark, and pairs
    that first differ on a b after k >= 3 a's, so on a longer lasso."""
    rng = random.Random(seed)
    abc = Alphabet.plain("a", "b", "c")
    eventually_b = parse_expr("mu X. (b.top + a.X)", AB)
    for _ in range(rounds):
        for ab in (AB, abc):
            e, f = (gen_expr(rng, ab, rng.randint(1, 12)) for _ in range(2))
            most = (3, 4) if ab is AB else (2, 3)
            yield e, f, ab, (rng.randint(0, most[0]), rng.randint(1, most[1]))
        e, f, g = (gen_expr(rng, AB, rng.choice((6, 8, 10, 7, 9, 11)))
                   for _ in range(3))
        for left, right in [(e, Sum(e, e)), (Meet(e, f), Meet(f, e)),
                            (e, Meet(e, Sum(e, f))),
                            (Sum(Sum(e, f), g), Sum(e, Sum(f, g))),
                            (Meet(e, f), e), (e, Sum(e, f)), (e, f),
                            (Sum(e, f), e)]:
            yield left, right, AB, rng.choice(((3, 4), (4, 3)))
        k = rng.randint(3, 5)  # b within the first k letters
        within = parse_expr(" + ".join("a." * i + "b.top" for i in range(k)),
                            AB)
        e = gen_expr(rng, AB, rng.randint(1, 6))
        for left, right in [(within, eventually_b),
                            (eventually_b, within),
                            (Sum(e, within), Sum(e, eventually_b)),
                            (Meet(e, eventually_b), Meet(e, within))]:
            yield left, right, AB, rng.choice(((3, 4), (4, 3)))


def _outcome(search, *args):
    try:
        return search(*args)
    except GameError as err:
        return str(err)


def _assert_within_reference(g: ParityGame, ref: ParityGame, starts: int):
    """Every position of g at a vertex is one of ref, with the same winner
    there, and each deadlock is won by its owner's opponent: ref has a
    deadlock only where a move reaches it, and g also where a start stands
    for it. ref's first ``starts`` positions are its starts, and each
    start's winner in g, read at the position it stands for, is ref's."""
    won = solve_parity(g).winner
    ref_won = solve_parity(ref).winner
    by_label = dict(zip(ref.labels, ref_won))
    for label, winner in zip(g.labels, won):
        if label[0] is None:
            assert winner == (ABELARD if label[1] == DEAD_ZERO
                              else ELOISE), label
        else:
            assert by_label[label] == winner, label
    assert len(g.starts) == starts and g.initial == g.starts[0]
    assert [won[j] for j in g.starts] == [*ref_won[:starts]]


@contextmanager
def _alarm(seconds: int = 10):
    """Raise TimeoutError in the block after ``seconds``: a chain of slots
    that went round a cycle of bypassed binders without closing it would
    never end."""

    def stop(signum, frame):
        raise TimeoutError("the arena's chain of slots did not end")

    handler = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def _assert_oracle(text: str, lassos):
    """The game's verdict is the oracle's on each lasso, under an alarm."""
    e = parse_expr(text, AB)
    with _alarm():
        for w in lassos:
            assert member_game(e, w) == member_oracle(e, w), \
                (text, print_lasso(w))


class TestBypassedBinders:
    """Binders that stand for a deadlock or for a binder of no higher
    priority, against the arena in which every binder the game reaches is
    a position (``tests/helpers.py::reference_resolved_arena``)."""

    def test_agreement_pairs(self):
        kept = full = 0
        for e, w in agreement_pairs(80, 2000):
            graph, words = occurrence_graph(e, w.alphabet), lasso_graph(w)
            g = build_arena(graph, words)
            ref = reference_resolved_arena(graph, words)
            _assert_within_reference(g, ref, 1)
            kept += len(g.owners)
            full += len(ref.owners)
        assert 4 * kept < 3 * full, (kept, full)

    def test_search_batches(self):
        """The two-expression games of the bounded searches' batches, one
        start per word root and side."""
        kept = full = 0
        for e, f, ab, bounds in _search_pairs(70, 8):
            graph = occurrence_graph([e, f], ab)
            for words, _roots in search_graphs(ab, *bounds, 10**6):
                g = build_arena(graph, words)
                ref = reference_resolved_arena(graph, words)
                _assert_within_reference(g, ref, 2 * len(words.roots))
                kept += len(g.owners)
                full += len(ref.owners)
        assert 4 * kept < 3 * full, (kept, full)

    def test_cycles_around_the_period(self):
        """Both nus read their way to a nu of the same priority after
        every letter, so the chains of slots run round the period."""
        rng = random.Random(81)
        lassos = [lasso("(b)"), lasso("(ab)"), lasso("b(aaa)")]
        for _ in range(40):
            period = "".join(rng.choice("ab")
                             for _ in range(rng.randint(1, 300)))
            prefix = "".join(rng.choice("ab")
                             for _ in range(rng.randint(0, 3)))
            lassos.append(lasso(f"{prefix}({period})"))
        _assert_oracle("nu X. nu Y. (a.X + b.Y)", lassos)
        _assert_oracle("b.(nu X. nu Y. (a.X + b.Y))", lassos)

    def test_cycle_inside_one_vertex(self):
        _assert_oracle("mu X. mu Y. (X + a.Y)", [lasso("(a)")])
        _assert_oracle("a.(mu X. mu Y. mu Z. X)", [lasso("(a)")])

    def test_binder_into_a_deadlock(self):
        _assert_oracle("mu X. 0", [lasso("(a)")])
        _assert_oracle("a.(nu X. b.X) + b.top", [lasso("(a)")])
        e = parse_expr("a.(mu X. 0)", AB)
        graph = occurrence_graph(e, AB)
        mu, = graph.succs[graph.roots[0]]
        g = lasso_arena(e, lasso("(a)"), graph)
        assert g.labels == ((None, DEAD_ZERO),) and g.starts == (0,)
        ref = reference_resolved_arena(graph, lasso_graph(lasso("(a)")))
        assert ref.labels == ((0, graph.roots[0]), (0, mu), (None, DEAD_ZERO))


class TestStartsStandForSlots:
    """Each start stands for the position or deadlock its slot resolves
    to, against the arena in which every start is a position of its own
    (``tests/helpers.py::reference_start_arena``)."""

    def test_agreement_pairs(self):
        kept = full = 0
        for e, w in agreement_pairs(80, 2000):
            graph, words = occurrence_graph(e, w.alphabet), lasso_graph(w)
            g = build_arena(graph, words)
            ref = reference_start_arena(graph, words)
            _assert_within_reference(g, ref, 1)
            kept += len(g.owners)
            full += len(ref.owners)
        assert 3 * kept < 2 * full, (kept, full)

    def test_search_batches(self):
        """The two-expression games of the bounded searches' batches, two
        starts per word root, where most starts stand for another slot."""
        kept = full = 0
        for e, f, ab, bounds in _search_pairs(70, 8):
            graph = occurrence_graph([e, f], ab)
            for words, _roots in search_graphs(ab, *bounds, 10**6):
                g = build_arena(graph, words)
                ref = reference_start_arena(graph, words)
                _assert_within_reference(g, ref, 2 * len(words.roots))
                kept += len(g.owners)
                full += len(ref.owners)
        assert 3 * kept < full, (kept, full)

    def test_starts_into_a_deadlock(self):
        for text, w, dead in (("0", "(a)", DEAD_ZERO),
                              ("top", "(a)", DEAD_TOP),
                              ("a.0", "(b)", DEAD_ZERO)):
            _assert_oracle(text, [lasso(w)])
            g = lasso_arena(parse_expr(text, AB), lasso(w))
            assert g.labels == ((None, dead),) and g.starts == (0,)

    def test_starts_into_a_cycle(self):
        """The nu's body reads its way to the nu after each letter, and nu
        Y's to itself on the b: the start's chain of slots closes a cycle
        of bypassed binders, at the start's own slot or at nu Y's."""
        for text, w, closed in (("nu X. (a.X + b.X)", "(ab)", (0, 0)),
                                ("nu X. nu Y. (a.X + b.Y)", "(b)", (0, 1))):
            _assert_oracle(text, [lasso(w)])
            g = lasso_arena(parse_expr(text, AB), lasso(w))
            assert g.labels == (closed,) and g.edges == ((0,),)
            assert g.starts == (0,)

    def test_an_expression_against_itself(self):
        """Both starts of a word root are one slot, so one position."""
        for text, w in (("0", "(a)"), ("top", "(a)"), ("a.0", "(b)"),
                        ("nu X. (a.X + b.X)", "(ab)"),
                        ("nu X. nu Y. (a.X + b.Y)", "(b)"), (IA, "a(b)")):
            e = parse_expr(text, AB)
            graph = occurrence_graph([e, e], AB)
            with _alarm():
                g = build_arena(graph, lasso_graph(lasso(w)))
                won = solve_parity(g).winner
            assert g.starts[0] == g.starts[1] == g.initial, text
            assert (won[g.initial] == ELOISE) == member_oracle(e, lasso(w))

    def test_search_whose_starts_are_deadlocks_or_cycles(self):
        """top against nu X. (a.X + b.X): every start stands for Abelard's
        deadlock or closes a cycle of bypassed binders."""
        top = parse_expr("top", AB)
        e = parse_expr("nu X. (a.X + b.X)", AB)
        with _alarm():
            assert equiv_bounded(top, e, AB, 6, 6) is None


class TestSearchMatchesReference:
    """The word-graph batches against the per-lasso search they replaced
    (``tests/helpers.py``): the same first counterexample, or None."""

    def test_same_first_counterexample(self):
        found = late = 0
        for e, f, ab, bounds in _search_pairs(70, 8):
            for search, reference in (
                    (equiv_bounded, reference_equiv_bounded),
                    (inclusion_bounded, reference_inclusion_bounded)):
                got = search(e, f, ab, *bounds)
                assert got == reference(e, f, ab, *bounds), (e, f, bounds)
                if got is not None:
                    found += 1
                    late += got.length >= 4
        assert found >= 60 and late >= 20, (found, late)

    def test_split_batches_and_refusals(self, monkeypatch):
        """With small caps a length class is split into several word graphs,
        and a batch whose length times an expression's own nodes passes
        MAX_ARENA is refused at the same lasso, e's size checked before
        f's, with the per-lasso game's message. Where incl does not refuse,
        its answer is also that of the search for e & complement(f)."""
        rng = random.Random(71)
        refused = witnessed = 0
        for e, f, ab, bounds in _search_pairs(72, 6):
            witness = reference_inclusion_bounded(e, f, ab, *bounds)
            with monkeypatch.context() as patch:
                patch.setattr(game, "MAX_ARENA", rng.randint(1, 150))
                patch.setattr(game, "BATCH_SLOTS", rng.randint(1, 200))
                for search, reference in (
                        (equiv_bounded, reference_equiv_bounded),
                        (inclusion_bounded, reference_inclusion_sides)):
                    got = _outcome(search, e, f, ab, *bounds)
                    assert got == _outcome(reference, e, f, ab, *bounds), \
                        (e, f, bounds)
                    refused += isinstance(got, str)
            if not isinstance(got, str):
                assert got == witness, (e, f, bounds)
                witnessed += 1
        assert refused >= 30 and witnessed >= 30, (refused, witnessed)

    def test_own_graphs_only_where_the_cap_may_refuse(self, monkeypatch):
        """An expression's own graph is built, to count its nodes, only
        where its size times the longest length passes MAX_ARENA. Each
        refusal still counts the graph's nodes, not the expression's."""
        e = parse_expr("a.top + a.top", AB)  # 5 terms, 3 graph nodes
        f = parse_expr("a.top", AB)  # 2 terms, 2 graph nodes
        real, built = game.occurrence_graph, []
        for cap, own in ((10**6, []), (15, [e]), (7, [e, f])):
            with monkeypatch.context() as patch:
                patch.setattr(game, "MAX_ARENA", cap)
                want = _outcome(reference_equiv_bounded, e, f, AB, 2, 2)
                patch.setattr(game, "occurrence_graph",
                              lambda x, ab: built.append(x) or real(x, ab))
                got = _outcome(equiv_bounded, e, f, AB, 2, 2)
            assert got == want, cap
            assert built == [*own, [e, f]], cap
            built.clear()
        assert want == ("the arena needs 3 x 3 slots (lasso letters x "
                        "graph nodes), more than 7")

    def test_one_game_per_batch(self, monkeypatch):
        """Without a separating lasso, equiv and incl each solve one game
        per length class, on the graph of both sides."""
        solved = []
        monkeypatch.setattr(game, "solve_parity",
                            lambda g: solved.append(g) or solve_parity(g))
        e = parse_expr(IA, AB)
        assert equiv_bounded(e, Sum(e, e), AB, 3, 4) is None
        assert len(solved) == 7
        solved.clear()
        assert inclusion_bounded(e, Sum(e, e), AB, 4, 3) is None
        assert len(solved) == 7


class TestSearchOverThreeLetters:
    """The batches built over the enumeration's columns against the
    per-lasso reference search, over ``a b c``: random pairs, and pairs
    equal or included by lattice laws, which try every lasso."""

    def test_same_first_counterexample(self):
        rng = random.Random(74)
        abc = Alphabet.plain("a", "b", "c")
        found = none = 0
        for _ in range(10):
            e, f = (gen_expr(rng, abc, rng.randint(1, 10)) for _ in range(2))
            bounds = rng.choice(((2, 2), (2, 3), (3, 2)))
            for left, right in ((e, f), (f, e), (e, Sum(e, e)),
                                (Meet(e, f), e)):
                for search, reference in (
                        (equiv_bounded, reference_equiv_bounded),
                        (inclusion_bounded, reference_inclusion_bounded)):
                    got = search(left, right, abc, *bounds)
                    assert got == reference(left, right, abc, *bounds), \
                        (left, right, bounds)
                    found += got is not None
                    none += got is None
        assert found >= 10 and none >= 30, (found, none)


class TestOneResolvedPerSearch:
    """Every batch of a search reads and fills one set of the graph's
    resolved tables, which ``_first_separating`` passes to ``build_arena``."""

    @pytest.mark.parametrize("slots", [game.BATCH_SLOTS, 64, 1])
    def test_each_pair_resolved_once(self, monkeypatch, slots):
        """``_settle`` resolves each (letter, node) pair at most once per
        search, counted by the moves it fills, also where small batches
        split a length class into several games that share the tables.
        Which nodes are positions may depend on the order they are first
        needed, so each start's winner is compared, with the oracle's
        verdict on its root's lasso, not whole arenas."""
        cases = [(search, e, f, ab, bounds, reference(e, f, ab, *bounds))
                 for e, f, ab, bounds in _search_pairs(73, 2)
                 for search, reference in (
                     (equiv_bounded, reference_equiv_bounded),
                     (inclusion_bounded, reference_inclusion_bounded))]
        real_settle, real_build = game._settle, game.build_arena
        resolved, lengths = [], []

        def settle(graph, letter, step, moves, s):
            unset = [v for v, m in enumerate(moves) if m is None]
            code = real_settle(graph, letter, step, moves, s)
            resolved.extend((letter, v) for v in unset
                            if moves[v] is not None)
            return code

        def build(graph, words, shared):
            g = real_build(graph, words, shared)
            won = solve_parity(g).winner
            for k, r in enumerate(words.roots):
                w = vertex_lasso(words, r, ab)
                for x, side in enumerate((e, f)):
                    assert (won[g.starts[2 * k + x]] == ELOISE) == \
                        member_oracle(side, w), (side, w)
            lengths.append(w.length)  # the length class of the batch
            return g

        monkeypatch.setattr(game, "BATCH_SLOTS", slots)
        monkeypatch.setattr(game, "_settle", settle)
        monkeypatch.setattr(game, "build_arena", build)
        split = 0
        for search, e, f, ab, bounds, want in cases:  # build reads e, f, ab
            resolved.clear()
            lengths.clear()
            assert search(e, f, ab, *bounds) == want, (e, f, bounds)
            assert resolved and len(resolved) == len(set(resolved)), (e, f)
            split += len(lengths) > len(set(lengths))
        assert slots == game.BATCH_SLOTS or split >= 20, split


def vertex_lasso(g, i, ab) -> Lasso:
    """The lasso that vertex i of the word graph g reads: the letters up
    to the first vertex its walk meets again, then those of the cycle."""
    met, j = {}, i
    while j not in met:
        met[j] = len(met)
        j = g.successors[j]
    word = [g.letters[x] for x in met]
    return Lasso(tuple(word[:met[j]]), tuple(word[met[j]:]), ab)


class TestWordGraph:
    """The word graphs of enumerated lassos: roots in enumeration order, and
    every vertex a normal lasso whose successor is its tail."""

    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    def test_vertices_are_normal_tails(self, letters):
        ab = Alphabet.plain(*letters)
        for bounds in [(0, 1), (1, 2), (2, 3), (3, 3), (4, 4)]:
            if len(letters) == 3 and bounds == (4, 4):
                continue  # 2,040 lassos; (3, 3) already has 372
            lassos = desk_lassos(ab, *bounds)
            enumerated = set(lassos)
            for budget in (1, 9, 10**6):
                found = []
                for g, roots in search_graphs(ab, *bounds, budget):
                    words = [vertex_lasso(g, i, ab)
                             for i in range(len(g.letters))]
                    assert len(set(words)) == len(words)
                    assert len(words) <= budget or len(g.roots) == 1
                    assert [words[r] for r in g.roots] == roots
                    found += roots
                    for w, s in zip(words, g.successors):
                        assert w in enumerated and lasso_normalize(w) == w
                        u, v = w.prefix, w.period
                        raw = Lasso(u[1:], v, ab) if u else Lasso(v[1:], v, ab)
                        assert words[s] == lasso_normalize(raw)
                assert found == lassos

    def test_lasso_case_is_one_root(self):
        w = lasso("ab(bab)")
        g = lasso_graph(w)
        assert tuple(g.letters) == tuple("abbab")
        assert list(g.successors) == [w.succ(i) for i in range(5)]
        assert list(g.roots) == [0]

    def test_roots_lead_the_arena(self):
        """Root k's start is ``starts[k]``, the first of them position 0,
        and the winner there is the lasso's membership."""
        ab = Alphabet.plain("a", "b")
        for text in (IA, FB, f"({IA}) & ({FB})", "nu X. a.X"):
            e = parse_expr(text, ab)
            graph = occurrence_graph(e, ab)
            for g, roots in search_graphs(ab, 2, 3, 10**6):
                arena = build_arena(graph, g)
                winners = solve_parity(arena).winner
                assert arena.initial == arena.starts[0] == 0
                assert len(arena.starts) == len(g.roots)
                for k, w in enumerate(roots):
                    assert (winners[arena.starts[k]] == ELOISE) == \
                        member_oracle(e, w)


class TestWordGraphMatchesReference:
    """The graphs built over the enumeration's columns against the
    tuple-walking builder (``tests/helpers.py``): graph by graph, the same
    roots' words in order, and the same vertices, each with its letter and
    its successor's word, however they are numbered; over the whole
    enumeration as one run of roots and over each length's batch as the
    search takes it."""

    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    def test_same_graphs(self, letters):
        ab = Alphabet.plain(*letters)
        for max_prefix in range(5):
            for max_period in range(1, 5):
                lassos = LassoColumns(ab)
                lengths = [*enumerate_lassos(ab, max_prefix, max_period,
                                             lassos)]
                words = [*map(lassos.lasso, range(len(lengths)))]
                runs, first = [(0, len(lengths))], 0
                for _, batch in groupby(lengths):
                    runs.append((first, first + len([*batch])))
                    first = runs[-1][1]
                for budget in (1, 7, 10**6):
                    for first, end in runs:
                        got = list(batch_graphs(lassos, first, end, budget))
                        want = list(reference_word_graphs(words[first:end],
                                                          budget))
                        assert len(got) == len(want)
                        for g, (h, seen) in zip(got, want):
                            read = [vertex_lasso(g, x, ab)
                                    for x in range(len(g.letters))]
                            read = [(w.prefix, w.period) for w in read]
                            assert [read[r] for r in g.roots] == \
                                [seen[r] for r in h.roots]
                            assert sorted(zip(read, g.letters,
                                              map(read.__getitem__,
                                                  g.successors))) == \
                                sorted(zip(seen, h.letters,
                                           map(seen.__getitem__,
                                               h.successors)))
                            assert len(seen) <= budget or len(g.roots) == 1
