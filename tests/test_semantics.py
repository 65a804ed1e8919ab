"""Lassos and the fixpoint evaluator (the membership oracle)."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from rll.algebra import complement
from rll.corpus import gen_expr, gen_lasso
from rll.semantics import (Lasso, SemanticsError, enumerate_lassos,
                           eval_multl, eval_rll, lasso_normalize,
                           member_oracle, models, parse_lasso, print_lasso)
from rll.syntax import (Alphabet, And, FVar, Meet, MuF, Mu, Next, Nu, NuF, Or,
                        Prop, Sum, Var, parse_expr, parse_formula)

AB = Alphabet.plain("a", "b")
P1 = Alphabet.powerset("P")


def lasso(text, ab=AB):
    return parse_lasso(text, ab)


class TestLasso:
    def test_positions_and_wrap(self):
        w = lasso("ab(ba)")
        assert w.length == 4
        assert [w.letter_at(i) for i in range(4)] == ["a", "b", "b", "a"]
        assert w.succ(3) == 2  # wraps to the period start

    def test_parse_print_roundtrip(self):
        for text in ["(a)", "ab(ba)", "b(ab)", "(abab)"]:
            assert print_lasso(lasso(text)) == text

    def test_powerset_format(self):
        ab = Alphabet.powerset("P", "Q")
        w = parse_lasso("{P}{P,Q}({})", ab)
        assert w.prefix == ("{P}", "{P,Q}")
        assert w.period == ("{}",)

    def test_empty_period_rejected(self):
        with pytest.raises(Exception):
            lasso("ab()")

    def test_foreign_letter_rejected(self):
        with pytest.raises(Exception):
            lasso("c(a)")


class TestNormalize:
    def test_examples(self):
        assert print_lasso(lasso_normalize(lasso("aa(a)"))) == "(a)"
        assert print_lasso(lasso_normalize(lasso("ab(ab)"))) == "(ab)"
        assert print_lasso(lasso_normalize(lasso("(abab)"))) == "(ab)"

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_normal_form_denotes_same_word(self, seed):
        rng = random.Random(seed)
        w = gen_lasso(rng, AB, 3, 4)
        n = lasso_normalize(w)
        span = 2 * (w.length + n.length)
        assert w.unroll(span) == n.unroll(span)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_pumped_variants_share_normal_form(self, seed):
        rng = random.Random(seed)
        w = gen_lasso(rng, AB, 2, 3)
        rotated = Lasso(w.prefix + (w.period[0],),
                        w.period[1:] + (w.period[0],), AB)
        doubled = Lasso(w.prefix, w.period * 2, AB)
        assert lasso_normalize(w) == lasso_normalize(rotated)
        assert lasso_normalize(w) == lasso_normalize(doubled)

    def test_membership_invariant_under_normalization(self):
        rng = random.Random(3)
        for _ in range(150):
            e = gen_expr(rng, AB, rng.randint(1, 10))
            w = gen_lasso(rng, AB, 3, 4)
            assert member_oracle(e, w) == member_oracle(e, lasso_normalize(w))


class TestEnumerate:
    def test_order_starts_with_unit_periods(self):
        got = [print_lasso(w) for w in enumerate_lassos(AB, 1, 2)]
        assert got[:2] == ["(a)", "(b)"]
        assert len(got) == len(set(got))
        # all listed lassos are in normal form
        for w in enumerate_lassos(AB, 1, 2):
            assert lasso_normalize(w) == w


class TestEvalRll:
    def test_nu_ax_on_pure_a(self):
        e = parse_expr("nu X. a.X", AB)
        assert eval_rll(e, lasso("(a)")) == {0}

    def test_nu_ax_on_ab(self):
        e = parse_expr("nu X. a.X", AB)
        assert eval_rll(e, lasso("(ab)")) == frozenset()

    def test_mu_x_x_is_empty(self):
        e = parse_expr("mu X. X", AB)
        for w in ["(a)", "ab(ba)"]:
            assert eval_rll(e, lasso(w)) == frozenset()

    def test_nu_x_x_is_full(self):
        e = parse_expr("nu X. X", AB)
        w = lasso("ab(ba)")
        assert eval_rll(e, w) == frozenset(range(4))

    def test_constants(self):
        w = lasso("a(b)")
        assert eval_rll(parse_expr("0", AB), w) == frozenset()
        assert eval_rll(parse_expr("top", AB), w) == frozenset(range(2))

    def test_unbound_variable(self):
        with pytest.raises(SemanticsError):
            eval_rll(Var("X"), lasso("(a)"))

    def test_member_examples(self):
        ia = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        fb = parse_expr("mu X. (b.X + a.X + a.(nu Y. a.Y))", AB)
        assert member_oracle(ia, lasso("(ab)"))
        assert not member_oracle(ia, lasso("a(b)"))
        assert member_oracle(fb, lasso("(a)"))
        assert not member_oracle(fb, lasso("(ab)"))

    def test_member_needs_closed(self):
        with pytest.raises(SemanticsError):
            member_oracle(Var("X"), lasso("(a)"))


class TestSemanticLaws:
    def test_monotonicity(self):
        rng = random.Random(17)
        for _ in range(80):
            e = gen_expr(rng, AB, rng.randint(1, 9), bound=("Z",))
            w = gen_lasso(rng, AB, 2, 3)
            positions = list(range(w.length))
            small = frozenset(p for p in positions if rng.random() < 0.4)
            extra = frozenset(p for p in positions if rng.random() < 0.4)
            big = small | extra
            assert eval_rll(e, w, {"Z": small}) <= eval_rll(e, w, {"Z": big})

    def test_lattice_clauses(self):
        rng = random.Random(23)
        for _ in range(60):
            f = gen_expr(rng, AB, rng.randint(1, 7))
            g = gen_expr(rng, AB, rng.randint(1, 7))
            w = gen_lasso(rng, AB, 2, 3)
            ef, eg = eval_rll(f, w), eval_rll(g, w)
            assert eval_rll(Sum(f, g), w) == ef | eg
            assert eval_rll(Meet(f, g), w) == ef & eg

    def test_fixpoints_are_extremal_by_enumeration(self):
        # brute force over all candidate sets on words with <= 4 positions
        rng = random.Random(31)
        from itertools import chain, combinations
        for _ in range(60):
            body = gen_expr(rng, AB, rng.randint(1, 6), bound=("X",))
            w = gen_lasso(rng, AB, 2, 2)
            n = w.length
            universe = list(range(n))
            subsets = [frozenset(c) for c in chain.from_iterable(
                combinations(universe, k) for k in range(n + 1))]
            op = {s: eval_rll(body, w, {"X": s}) for s in subsets}
            prefixed = [s for s in subsets if op[s] <= s]
            postfixed = [s for s in subsets if s <= op[s]]
            lfp = frozenset.intersection(*prefixed)
            gfp = frozenset.union(*postfixed) if postfixed else frozenset()
            assert eval_rll(Mu("X", body), w) == lfp
            assert eval_rll(Nu("X", body), w) == gfp
            assert lfp in prefixed  # the least prefixed point is prefixed
            assert gfp in postfixed or not postfixed

    def test_fixpoint_equations_hold(self):
        rng = random.Random(37)
        from rll.syntax import substitute
        for _ in range(60):
            body = gen_expr(rng, AB, rng.randint(1, 7), bound=("X",))
            w = gen_lasso(rng, AB, 2, 3)
            for fix in (Mu("X", body), Nu("X", body)):
                s = eval_rll(fix, w)
                assert eval_rll(body, w, {"X": s}) == s


class TestEvalMultl:
    def test_prop_clause(self):
        w = parse_lasso("({}{P})", P1)
        assert eval_multl(Prop("P"), w) == {1}

    def test_always_p(self):
        phi = parse_formula("nu X. (P & O X)", P1)
        assert models(phi, parse_lasso("({P})", P1))
        assert not models(phi, parse_lasso("({P}{})", P1))

    def test_eventually_p_positions(self):
        phi = MuF("X", Or(Prop("P"), Next(FVar("X"))))
        w = parse_lasso("{}{}({P})", P1)
        assert eval_multl(phi, w) == {0, 1, 2}

    def test_needs_powerset(self):
        with pytest.raises(SemanticsError):
            eval_multl(Prop("P"), lasso("(a)"))

    def test_negprop_is_complementary(self):
        w = parse_lasso("{P}{}({P}{})", P1)
        pos = eval_multl(Prop("P"), w)
        neg = eval_multl(parse_formula("~P", P1), w)
        assert pos | neg == frozenset(range(w.length))
        assert pos & neg == frozenset()


class TestMemoRelease:
    """The evaluators leave no cyclic garbage behind for the collector."""

    def _garbage_after(self, run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    def test_eval_rll(self):
        e = complement(parse_expr("nu X. mu Y. (a.X + b.Y)", AB), AB)
        w = Lasso(tuple("ab" * 48), tuple("b" * 400), AB)
        assert self._garbage_after(lambda: eval_rll(e, w)) < 50

    def test_eval_multl(self):
        phi = parse_formula("nu X. mu Y. ((P & O X) | O Y)", P1)
        w = Lasso(("{P}", "{}") * 48, ("{}",) * 400, P1)
        assert self._garbage_after(lambda: eval_multl(phi, w)) < 50
