"""The evaluation game: arena, solver, membership, bounded search."""

import random

import pytest

from rll import algebra
from rll.closure import ClosureError, fl_closure, occurrence_graph
from rll.corpus import agreement_pairs, gen_alphabet, gen_expr, gen_lasso
from rll.game import (ABELARD, ELOISE, Counterexample, GameError, ParityGame,
                      build_arena, equiv_bounded, inclusion_bounded,
                      member_game, solve_parity)
from rll.semantics import member_oracle, parse_lasso, print_lasso
from rll.syntax import Alphabet, Mu, Nu, Sum, Var, expr_size, parse_expr

AB = Alphabet.plain("a", "b")
IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"


def lasso(text, ab=AB):
    return parse_lasso(text, ab)


class TestArena:
    def test_zero_deadlock(self):
        g = build_arena(parse_expr("0", AB), lasso("(a)"))
        assert len(g.owners) == 1
        assert g.owners[0] == ELOISE
        assert g.edges == ((),)

    def test_letter_mismatch_deadlock(self):
        g = build_arena(parse_expr("mu X. a.X", AB), lasso("(b)"))
        dead = [i for i, succs in enumerate(g.edges)
                if not succs and g.owners[i] == ELOISE]
        assert dead, "expected a reachable mismatch deadlock"

    def test_arena_shape_for_infinitely_many_as(self):
        e = parse_expr(IA, AB)
        w = lasso("(ab)")
        g = build_arena(e, w)
        assert len(g.owners) <= 2 * 5  # reachable part of positions x members
        # exactly one Eloise choice node (the sum) per lasso position
        choices = [i for i, succs in enumerate(g.edges)
                   if len(succs) == 2 and g.owners[i] == ELOISE]
        lasso_positions = {g.labels[i][0] for i in choices}
        assert len(choices) == 2 and lasso_positions == {0, 1}

    def test_open_expression_rejected(self):
        with pytest.raises(GameError):
            build_arena(Var("X"), lasso("(a)"))


def _binder_nesting(e) -> int:
    """The largest number of binders on one root-to-leaf path."""
    if isinstance(e, (Mu, Nu)):
        return 1 + _binder_nesting(e.body)
    return max((_binder_nesting(getattr(e, f))
                for f in ("body", "left", "right") if hasattr(e, f)),
               default=0)


class TestOccurrenceGraph:
    def test_node_counts_match_closure_on_paper_languages(self):
        counts = []
        for text in (IA, FB, f"({IA}) & ({FB})"):
            e = parse_expr(text, AB)
            for x in (e, algebra.complement(e, AB)):
                n = len(occurrence_graph(x, AB).kinds)
                assert n == len(fl_closure(x, AB).members)
                counts.append(n)
        assert counts == [5, 10, 7, 13, 13, 21]

    def test_variables_are_back_edges_to_binders(self):
        g = occurrence_graph(parse_expr(IA, AB), AB)
        assert g.kinds[g.root] == "nu"
        acts = {g.letters[i]: g.succs[i] for i, k in enumerate(g.kinds)
                if k == "act"}
        mu, = g.succs[g.root]
        assert acts == {"a": (g.root,), "b": (mu,)}
        assert g.priority[g.root] == 0 and g.priority[mu] == 3

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

    def test_oracle_agreement_and_complement_law(self):
        for e, w in agreement_pairs(3031, 1000):
            g = member_game(e, w)
            assert g == member_oracle(e, w), \
                f"disagreement on {e} / {print_lasso(w)}"
            assert member_game(algebra.complement(e, w.alphabet), w) != g, \
                f"complement law broken on {e} / {print_lasso(w)}"

    def test_oracle_agreement_on_large_expressions(self):
        # beyond the reach of the closure, which takes seconds at this size
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
            g = build_arena(e, w)
            sol = solve_parity(g)
            assert len(sol.winner) == len(g.owners)
            assert set(sol.winner) <= {ELOISE, ABELARD}

    def test_priority_shift_invariance(self):
        for e, w in agreement_pairs(55, 40):
            g = build_arena(e, w)
            shifted = ParityGame(g.owners,
                                 tuple(p + 2 for p in g.priorities),
                                 g.edges, g.initial, g.labels)
            assert solve_parity(g).winner == solve_parity(shifted).winner

    def test_strategies_are_winning_on_simulated_plays(self):
        rng = random.Random(8)
        checked = 0
        for e, w in agreement_pairs(77, 25):
            g = build_arena(e, w)
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


class TestBoundedSearch:
    def test_equiv_finds_first_witness(self):
        e = parse_expr("nu X. a.X", AB)
        top = parse_expr("top", AB)
        cex = equiv_bounded(e, top, AB, 1, 2)
        assert cex is not None and print_lasso(cex.lasso) == "(b)"

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
        cex = inclusion_bounded(parse_expr("top", AB), nuax, AB, 1, 1)
        assert cex is not None and print_lasso(cex.lasso) == "(b)"
        zero = parse_expr("0", AB)
        assert inclusion_bounded(zero, nuax, AB, 2, 2) is None
