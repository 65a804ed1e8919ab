"""Fischer-Ladner closure: members, edges, priorities."""

import gc
import random
import time

import pytest

from helpers import fl_successors, reference_closure, reference_priorities
from rll import algebra
from rll.closure import (ClosureError, _printed, assign_priorities,
                         export_dot, fl_closure, closure_with_priorities,
                         format_closure)
from rll.corpus import gen_alphabet, gen_expr
from rll.syntax import (Act, Alphabet, Mu, Nu, Sum, Var, ZERO, alpha_eq,
                        alpha_key, expr_size, parse_expr, print_expr)

AB = Alphabet.plain("a", "b")
ABC = Alphabet.plain("a", "b", "c")
IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"


def members_of(text, ab=AB):
    return fl_closure(parse_expr(text, ab), ab)


class TestClosureExamples:
    def test_simple_mu(self):
        c = members_of("mu X. a.X")
        assert len(c.members) == 2
        assert alpha_eq(c.members[1], Act("a", c.members[0]))

    def test_zero_has_no_edges(self):
        c = members_of("0")
        assert c.members == (ZERO,)
        assert c.edges == ()

    def test_infinitely_many_as(self):
        ia = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        c = fl_closure(ia, AB)
        g = parse_expr("mu Y. (a.(nu X. mu Y. (a.X + b.Y)) + b.Y)", AB)
        expected = [ia, g, Sum(Act("a", ia), Act("b", g)), Act("a", ia),
                    Act("b", g)]
        assert len(c.members) == 5
        got = {alpha_key(m) for m in c.members}
        assert got == {alpha_key(e) for e in expected}

    def test_open_expression_rejected(self):
        with pytest.raises(ClosureError):
            fl_closure(Var("X"), AB)

    def test_format_is_stable(self):
        c1 = closure_with_priorities(parse_expr("nu X. a.X + b.0", AB), AB)
        c2 = closure_with_priorities(parse_expr("nu X. a.X + b.0", AB), AB)
        assert format_closure(c1) == format_closure(c2)


class TestPriorities:
    def test_single_member(self):
        c = closure_with_priorities(ZERO, AB)
        assert c.priority == (0,)

    def test_simple_mu_priorities(self):
        c = closure_with_priorities(parse_expr("mu X. a.X", AB), AB)
        by_member = dict(zip(c.members, c.priority))
        mu = c.members[0]
        assert by_member[mu] == 1  # mu-member, smallest rank, odd
        assert by_member[Act("a", mu)] == 2

    def test_parity_and_monotonicity_on_corpus(self):
        rng = random.Random(42)
        for _ in range(150):
            e = gen_expr(rng, AB, rng.randint(1, 12))
            c = closure_with_priorities(e, AB)
            for i, m in enumerate(c.members):
                if isinstance(m, Mu):
                    assert c.priority[i] % 2 == 1
                else:
                    assert c.priority[i] % 2 == 0
            assert len(set(c.priority)) == len(c.priority)  # injective
            for (i, j) in c.subformula_pairs:
                assert c.priority[i] <= c.priority[j]
                if i != j:
                    assert c.priority[i] < c.priority[j]


class TestClosureInvariants:
    def test_soundness_and_minimality_on_corpus(self):
        rng = random.Random(7)
        keys_cache = {}
        for _ in range(150):
            e = gen_expr(rng, AB, rng.randint(1, 12))
            c = fl_closure(e, AB)
            keys = {alpha_key(m) for m in c.members}
            # soundness: every decomposition target is a member
            for m in c.members:
                for _kind, tgt in fl_successors(m):
                    assert alpha_key(tgt) in keys
            # minimality: every member is reachable from the root
            reach = {0}
            frontier = [0]
            succs = {}
            for (src, dst, _k) in c.edges:
                succs.setdefault(src, []).append(dst)
            while frontier:
                v = frontier.pop()
                for w in succs.get(v, []):
                    if w not in reach:
                        reach.add(w)
                        frontier.append(w)
            assert reach == set(range(len(c.members)))

    def test_linear_bound(self):
        rng = random.Random(99)
        for _ in range(200):
            e = gen_expr(rng, AB, rng.randint(1, 15))
            c = fl_closure(e, AB)
            assert len(c.members) <= expr_size(e) + 1


class TestAgainstReference:
    """The keyed walk against the tree-substituting closure it replaced."""

    def test_same_closure_on_paper_languages_and_corpus(self):
        corpus = []
        for text in (IA, FB, f"({IA}) & ({FB})"):
            e = parse_expr(text, AB)
            corpus += [(e, AB), (algebra.complement(e, AB), AB)]
        rng = random.Random(2024)
        for _ in range(300):
            ab = gen_alphabet(rng)
            corpus.append((gen_expr(rng, ab, rng.randint(1, 20)), ab))
        for e, ab in corpus:
            got = closure_with_priorities(e, ab)
            want = assign_priorities(reference_closure(e, ab))
            assert format_closure(got) == format_closure(want)
            assert export_dot(got) == export_dot(want)
            assert got.subformula_pairs == want.subformula_pairs
            assert got.priority == want.priority

    def test_priorities_match_reference(self):
        """The heap-ordered ranks against the per-rank rescan they
        replaced."""
        rng = random.Random(808)
        for _ in range(200):
            ab = gen_alphabet(rng)
            c = fl_closure(gen_expr(rng, ab, rng.randint(1, 40)), ab)
            assert assign_priorities(c) == reference_priorities(c)

    def test_errors_match_reference(self):
        for e in (Var("X"), Act("c", Var("X")), Mu("X", Act("c", Var("X")))):
            with pytest.raises(ClosureError) as got:
                fl_closure(e, AB)
            with pytest.raises(ClosureError) as want:
                reference_closure(e, AB)
            assert str(got.value) == str(want.value)


class TestScaling:
    def test_size_100_closure_under_a_second(self):
        # the reference takes seconds on this expression
        rng = random.Random(5)
        for _ in range(11):
            e = gen_expr(rng, ABC, 100)
        start = time.perf_counter()
        closure_with_priorities(e, ABC)
        assert time.perf_counter() - start < 1.0


class TestListingBound:
    def test_bound_covers_every_printed_member(self):
        """The listing cap reads a bound that no member's text exceeds."""
        rng = random.Random(17)
        for _ in range(80):
            ab = gen_alphabet(rng)
            c = fl_closure(gen_expr(rng, ab, rng.randint(1, 40)), ab)
            memo: dict = {}
            for t in (c.root, *c.members):
                assert len(print_expr(t)) <= _printed(t, memo)


class TestGarbage:
    def test_closure_leaves_no_cyclic_garbage(self):
        """The walk's recursive helpers are unbound on return, so nothing
        is left for the cyclic collector."""
        exprs = [parse_expr(IA, AB), parse_expr(FB, AB)]
        exprs += [algebra.complement(e, AB) for e in exprs]
        gc.collect()
        gc.disable()
        try:
            for e in exprs:
                export_dot(closure_with_priorities(e, AB))
            assert gc.collect() == 0
        finally:
            gc.enable()
