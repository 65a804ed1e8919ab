"""Complementation and the muLTL translations."""

import random

import pytest

from helpers import (desk_lassos, reference_complement,
                     reference_negate_formula, reference_to_multl,
                     reference_to_rll)
from rll import algebra
from rll.corpus import agreement_pairs, gen_expr
from rll.game import member_game
from rll.semantics import member_oracle, models, parse_lasso
from rll.syntax import (Act, Alphabet, AlphabetError, And, FVar, Meet, Mu,
                        MuF, NegProp, Next, Nu, NuF, Or, Prop, Sum, TOP, Top,
                        Var, ZERO, alpha_eq, negate_formula, parse_expr,
                        parse_formula, parse_formula_file, print_expr)

AB = Alphabet.plain("a", "b")
P1 = Alphabet.powerset("P")
PQ = Alphabet.powerset("P", "Q")


class TestComplement:
    def test_nu_ax_example(self):
        got = algebra.complement(parse_expr("nu X. a.X", AB), AB)
        assert alpha_eq(got, parse_expr("mu X. (a.X + b.top)", AB))

    def test_variable_fixed(self):
        assert algebra.complement(Var("X"), AB) == Var("X")

    def test_sum_dualizes_to_meet(self):
        e, f = Var("X"), Act("a", TOP)
        got = algebra.complement(Sum(e, f), AB)
        assert got == Meet(algebra.complement(e, AB),
                           algebra.complement(f, AB))

    def test_constants(self):
        assert algebra.complement(ZERO, AB) == TOP
        assert algebra.complement(TOP, AB) == ZERO

    def test_single_letter_action(self):
        ab = Alphabet.plain("a")
        got = algebra.complement(Act("a", TOP), ab)
        assert got == Sum(Act("a", ZERO), ZERO)

    def test_complement_law_on_corpus(self):
        for e, w in agreement_pairs(77, 300):
            m = member_game(e, w)
            mc = member_game(algebra.complement(e, w.alphabet), w)
            assert m != mc

    def test_double_complement_semantics(self):
        for e, w in agreement_pairs(78, 200):
            cc = algebra.complement(algebra.complement(e, w.alphabet),
                                    w.alphabet)
            assert member_oracle(e, w) == member_oracle(cc, w)

    def test_structural_commutation(self):
        rng = random.Random(9)
        for _ in range(60):
            f = gen_expr(rng, AB, rng.randint(1, 6), bound=("X",))
            g = gen_expr(rng, AB, rng.randint(1, 6), bound=("X",))
            c = lambda t: algebra.complement(t, AB)
            assert c(Sum(f, g)) == Meet(c(f), c(g))
            assert c(Meet(f, g)) == Sum(c(f), c(g))
            assert c(Mu("X", f)) == Nu("X", c(f))
            assert c(Nu("X", f)) == Mu("X", c(f))


class TestToMultl:
    def test_action_clause(self):
        got = algebra.to_multl(Act("{P}", Var("X")), PQ)
        assert got == And(Prop("P"), And(NegProp("Q"), Next(FVar("X"))))

    def test_sum_is_disjunction(self):
        e, f = Var("X"), Var("Y")
        got = algebra.to_multl(Sum(e, f), PQ)
        assert got == Or(FVar("X"), FVar("Y"))

    def test_binders_homomorphic(self):
        got = algebra.to_multl(Mu("X", Var("X")), PQ)
        assert got == MuF("X", FVar("X"))

    def test_constants_use_fixpoints(self):
        assert alpha_eq(algebra.to_multl(ZERO, PQ), MuF("X", FVar("X")))
        assert alpha_eq(algebra.to_multl(TOP, PQ), NuF("X", FVar("X")))

    def test_binders_named_as_propositions_are_renamed(self):
        """Over props X0 X1 every binder of gen_expr at depth 0 or 1 clashes;
        the formula prints and parses back, and means what the expression
        means."""
        ab = Alphabet.powerset("X0", "X1")
        rng = random.Random(45)
        lassos = desk_lassos(ab, 1, 2)
        renamed = 0
        for _ in range(150):
            e = gen_expr(rng, ab, rng.randint(2, 8))
            phi = algebra.to_multl(e, ab)
            renamed += "X0_1" in print_expr(phi)
            text = f"{ab.header()}\n{print_expr(phi)}\n"
            assert parse_formula_file(text) == (ab, phi)
            for w in rng.sample(lassos, 6):
                assert models(phi, w) == member_oracle(e, w)
        assert renamed > 20

    def test_renaming_keeps_free_and_other_variables(self):
        ab = Alphabet.powerset("X", "X_1")
        e = parse_expr("mu X. (X + mu X. {X}.X) + mu X_2. X_2 & Y", ab)
        assert print_expr(algebra.to_multl(e, ab)) == (
            "mu X_3. X_3 | (mu X_3. X & (~X_1 & O X_3)) | (mu X_2. X_2 & Y)")
        assert algebra.to_multl(parse_expr("X", ab), ab) == FVar("X")

    def test_empty_basis_action_is_bare_next(self):
        ab = Alphabet.powerset()
        got = algebra.to_multl(Act("{}", TOP), ab)
        assert isinstance(got, Next)

    def test_needs_powerset(self):
        with pytest.raises(AlphabetError):
            algebra.to_multl(TOP, AB)


class TestToRll:
    def test_prop_single_summand(self):
        got = algebra.to_rll(Prop("P"), P1)
        assert got == Act("{P}", TOP)

    def test_next_sums_all_letters(self):
        phi = Next(FVar("Z"))
        got = algebra.to_rll(phi, P1)
        assert got == Sum(Act("{}", Var("Z")), Act("{P}", Var("Z")))

    def test_bottom(self):
        from rll.syntax import BOT
        assert algebra.to_rll(BOT, P1) == ZERO

    def test_negprop(self):
        got = algebra.to_rll(NegProp("P"), P1)
        assert got == Act("{}", TOP)

    def test_needs_powerset(self):
        with pytest.raises(AlphabetError, match="translation from muLTL "
                           "needs a powerset alphabet"):
            algebra.to_rll(Prop("P"), AB)


class TestTranslationLaws:
    def test_adequacy(self):
        # membership of e implies membership of its formula translation
        for seed, ab in ((41, P1), (42, PQ)):
            for e, w in agreement_pairs(seed, 150, alphabet=ab):
                if member_oracle(e, w):
                    assert models(algebra.to_multl(e, ab), w)

    def test_roundtrip_compatibility(self):
        for seed, ab in ((43, P1), (44, PQ)):
            for e, w in agreement_pairs(seed, 150, alphabet=ab):
                rt = algebra.to_rll(algebra.to_multl(e, ab), ab)
                assert member_oracle(rt, w) == member_oracle(e, w)


def formula_text(rng: random.Random, size: int, bound: tuple = ()) -> str:
    """A random formula text over {P,Q} that uses !, -> and <->."""
    if size <= 1:
        return rng.choice(["P", "Q", "~P", "~Q", "ff", "tt", *bound * 2])
    pick = rng.choice(["!", "O", "mu", "nu"] + ["|", "&", "->", "<->"] *
                      (size >= 3))
    if pick in ("!", "O"):
        return f"{pick} ({formula_text(rng, size - 1, bound)})"
    if pick in ("mu", "nu"):
        var = f"Z{len(bound)}"
        return f"{pick} {var}. {formula_text(rng, size - 1, bound + (var,))}"
    left = rng.randint(1, size - 2)
    return (f"({formula_text(rng, left, bound)}) {pick} "
            f"({formula_text(rng, size - 1 - left, bound)})")


class TestMatchesReference:
    """Each constructor map over rebuild against the isinstance walk it
    replaced, compared by ==."""

    def test_complement(self):
        rng = random.Random(131)
        for ab in (AB, Alphabet.plain("a", "b", "c"), PQ):
            for _ in range(300):
                bound = rng.choice([(), ("X0", "X1")])
                e = gen_expr(rng, ab, rng.randint(1, 40), bound)
                assert algebra.complement(e, ab) == reference_complement(e, ab)

    def test_translations_and_negation(self):
        rng = random.Random(132)
        for ab in (P1, PQ):
            for _ in range(300):
                bound = rng.choice([(), ("X0", "X1")])
                e = gen_expr(rng, ab, rng.randint(1, 10), bound)
                phi = algebra.to_multl(e, ab)
                assert phi == reference_to_multl(e, ab)
                assert algebra.to_rll(phi, ab) == reference_to_rll(phi, ab)
                assert negate_formula(phi) == reference_negate_formula(phi)

    def test_parsed_formulas(self):
        rng = random.Random(133)
        for _ in range(300):
            text = formula_text(rng, rng.randint(1, 10),
                                rng.choice([(), ("Y",)]))
            phi = parse_formula(text, PQ)
            assert negate_formula(phi) == reference_negate_formula(phi)
            assert algebra.to_rll(phi, PQ) == reference_to_rll(phi, PQ)

    def test_other_family_is_type_error(self):
        e = parse_expr("mu X. ({P}.X + top)", PQ)
        phi = parse_formula("nu Z. (P & O Z)", PQ)
        for fn in (algebra.complement, reference_complement, algebra.to_multl,
                   reference_to_multl):
            with pytest.raises(TypeError):
                fn(phi, PQ)
        for fn in (algebra.to_rll, reference_to_rll):
            with pytest.raises(TypeError):
                fn(e, PQ)
        for fn in (negate_formula, reference_negate_formula):
            with pytest.raises(TypeError):
                fn(e)
