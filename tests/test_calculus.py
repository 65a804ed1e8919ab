"""Proof checking: equational and Hilbert tiers, Boolean steps, generator."""

import functools
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (PROOF_DIR, desk_lassos, mutants, proof_paths,
                     reference_bool_taut, reference_bool_variables,
                     reference_prop_variables, reference_propositional_valid)
from rll import algebra, calculus, syntax
from rll.calculus import (RULES, CalculusError, Claim, Derivation,
                          HypContext, Step, Verdict,
                          bool_taut, boolean_variables, check_derivation,
                          derivation_from_json,
                          derivation_to_json, derive_complement,
                          load_proof_file, maximal_atoms, propositional_valid)
from rll.corpus import gen_alphabet, gen_expr
from rll.semantics import eval_multl, eval_rll, member_oracle
from rll.syntax import (Act, Alphabet, And, BOT, FVar, Meet, Mu, MuF,
                        MuLtlFormula, Next, Nu, NuF, Or, ParseError, Prop, Sum,
                        TOP, TT, Var, ZERO, alpha_eq, free_vars, implies,
                        negate_formula, parse_expr, parse_formula, print_expr)

AB = Alphabet.plain("a", "b")
PQ = Alphabet.powerset("P", "Q")


def estep(sid, rel, lhs, rhs, rule, subst=None, premises=None, hyp=None,
          ab=AB):
    return Step(sid, Claim(rel, parse_expr(lhs, ab), parse_expr(rhs, ab)),
                rule, subst or {}, premises or [], hyp)


def rll_d(steps, tier="strict"):
    return Derivation("rll", tier, AB, steps)


class TestSystemMismatch:
    """check_derivation checks a derivation in the system it names, and a
    step's claim must be of that system: checked as rll, a muLTL step is
    rejected, and checked as multl, an equational step is."""

    def test_check_rll_on_a_multl_derivation(self):
        taut = Step("s1", parse_formula("P | ~P", PQ), "taut", {}, [])
        assert check_derivation(
            Derivation("multl", "strict", PQ, [taut])).accepted
        assert check_derivation(
            Derivation("rll", "strict", PQ, [taut])) == Verdict.rejected(
                "s1", "expected an equational claim")

    def test_formula_claim_in_an_equational_derivation(self):
        d = rll_d([Step("s1", parse_formula("P | ~P", PQ), "refl", {}, [])])
        assert check_derivation(d) == Verdict.rejected(
            "s1", "expected an equational claim")

    def test_check_multl_on_an_equational_derivation(self):
        eq = estep("s1", "eq", "a.top + 0", "a.top", "plus_zero",
                   {"e": "a.top"})
        assert check_derivation(rll_d([eq])).accepted
        assert check_derivation(
            Derivation("multl", "strict", AB, [eq])) == Verdict.rejected(
                "s1", "expected a formula claim")


class TestRllRules:
    def test_axiom_instance(self):
        d = rll_d([estep("s1", "eq", "a.top + 0", "a.top", "plus_zero",
                         {"e": "a.top"})])
        assert check_derivation(d).accepted

    def test_axiom_stated_as_leq_matches_definitionally(self):
        # prefix can be stated either as e(mu) <= mu or as its + equation
        d = rll_d([estep("s1", "eq", "a.(mu X. a.X) + mu X. a.X",
                         "mu X. a.X", "prefix", {"X": "X", "e": "a.X"})])
        assert check_derivation(d).accepted

    def test_wrong_axiom_instance_rejected(self):
        d = rll_d([estep("s1", "eq", "a.top + 0", "0", "plus_zero",
                         {"e": "a.top"})])
        v = check_derivation(d)
        assert not v.accepted and v.step == "s1"

    def test_act_disjoint_needs_distinct_letters(self):
        d = rll_d([estep("s1", "eq", "a.0 & a.top", "0", "act_disjoint",
                         {"a": "a", "b": "a", "e": "0", "f": "top"})])
        assert not check_derivation(d).accepted

    def test_top_partition_exact_order(self):
        d = rll_d([estep("s1", "eq", "top", "a.top + b.top",
                         "top_partition")])
        assert check_derivation(d).accepted
        d2 = rll_d([estep("s1", "eq", "top", "b.top + a.top",
                          "top_partition")])
        assert not check_derivation(d2).accepted

    def test_trans_mismatch_rejected(self):
        d = rll_d([
            estep("s1", "eq", "a.0", "a.0", "refl"),
            estep("s2", "eq", "b.0", "b.0", "refl"),
            estep("s3", "eq", "a.0", "b.0", "trans", premises=["s1", "s2"]),
        ])
        v = check_derivation(d)
        assert not v.accepted and v.step == "s3"

    def test_cong_requires_one_hole(self):
        d = rll_d([
            estep("s1", "eq", "0 + top", "top + 0", "plus_comm",
                  {"e": "0", "f": "top"}),
            estep("s2", "eq", "(0 + top) + (0 + top)",
                  "(top + 0) + (top + 0)", "cong",
                  {"context": "H + H", "hole": "H"}, ["s1"]),
        ])
        assert not check_derivation(d).accepted

    def test_unknown_rule(self):
        d = rll_d([estep("s1", "eq", "0", "0", "hocus_pocus")])
        v = check_derivation(d)
        assert not v.accepted and "unknown rule" in v.reason

    @pytest.mark.parametrize("rule", ["taut", "mp", "nec"])
    def test_hilbert_rule_is_unknown(self, rule):
        d = rll_d([estep("s1", "eq", "0", "0", "refl"),
                   estep("s2", "eq", "0", "0", rule, premises=["s1"])],
                  tier="extended")
        assert check_derivation(d) == Verdict(False, "s2",
                                              f"unknown rule {rule!r}")

    def test_duplicate_step_id(self):
        d = rll_d([estep("s1", "eq", "0", "0", "refl"),
                   estep("s1", "eq", "top", "top", "refl")])
        assert not check_derivation(d).accepted

    def test_premise_must_precede(self):
        d = rll_d([estep("s1", "eq", "top", "0 + top", "sym",
                         premises=["s2"]),
                   estep("s2", "eq", "0 + top", "top", "refl")])
        assert not check_derivation(d).accepted

    def test_hyp_outside_context_rejected(self):
        d = rll_d([estep("s1", "leq", "top", "X + Y", "hyp")])
        assert not check_derivation(d).accepted

    def test_bool_taut_needs_extended_tier(self):
        d = rll_d([estep("s1", "leq", "a.top", "a.top + b.top", "bool_taut")])
        assert not check_derivation(d).accepted
        d.tier = "extended"
        assert check_derivation(d).accepted

    def test_empty_derivation_rejected(self):
        assert check_derivation(rll_d([])) == Verdict(False, "-",
                                                      "empty derivation")

    def test_sym_needs_its_premise(self):
        d = rll_d([estep("s1", "eq", "top", "top", "sym")])
        assert check_derivation(d) == Verdict(False, "s1",
                                       "sym needs exactly 1 premise(s)")

    def test_bool_taut_atoms(self):
        """Atoms come as a list of texts, each parsed; one that does not
        parse rejects the step and quotes the parser."""
        def with_atoms(*atoms):
            return rll_d([estep("s1", "leq", "a.top", "a.top + b.top",
                                "bool_taut", {"atoms": list(atoms)})],
                         tier="extended")
        assert check_derivation(with_atoms("a.top", "b.top")).accepted
        d = with_atoms()
        d.steps[0].subst["atoms"] = "a.top"
        assert check_derivation(d) == Verdict(False, "s1",
                                       "atoms must be a list of expressions")
        v = check_derivation(with_atoms("a.top", "b.("))
        assert (v.accepted, v.step) == (False, "s1")
        assert v.reason.startswith("bad atom: ")
        with pytest.raises(ParseError) as err:
            parse_expr("b.(", AB)
        assert v.reason == f"bad atom: {err.value}"

    def test_induction_example_zero_below_everything(self):
        d = rll_d([
            estep("s1", "leq", "E", "E", "refl"),
            estep("s2", "leq", "mu X. X", "E", "induction",
                  {"X": "X", "e": "X", "f": "E"}, ["s1"]),
        ])
        assert check_derivation(d).accepted

    def test_induction_wrong_premise(self):
        d = rll_d([
            estep("s1", "leq", "E", "top", "refl"),
            estep("s2", "leq", "mu X. X", "E", "induction",
                  {"X": "X", "e": "X", "f": "E"}, ["s1"]),
        ])
        assert not check_derivation(d).accepted


class TestDuality:
    def _duality(self, fresh, concl_lhs="top",
                 concl_rhs="(mu V. a.V) + (nu W. a.W)"):
        hyp_steps = [
            estep("h1", "leq", "top", "V + W", "hyp"),
            estep("h2", "leq", "a.top", "a.(V + W)", "mono",
                  {"context": "a.H", "hole": "H"}, ["h1"]),
            estep("h3", "eq", "a.(V + W)", "a.V + a.W", "act_plus",
                  {"a": "a", "e": "V", "f": "W"}),
            estep("h4", "leq", "a.top", "a.V + a.W", "trans",
                  premises=["h2", "h3"]),
            estep("h5", "eq", "top", "a.top + b.top", "top_partition"),
            # over {a,b} this gets stuck without more work; keep it simple:
        ]
        return hyp_steps

    def test_freshness_violation(self):
        # conclusion mentions the hypothetical variable V freely
        hyp = HypContext(["V", "W"], [
            estep("h1", "leq", "top", "V + W", "hyp")])
        d = rll_d([Step("s1", Claim("leq", TOP,
                                    Sum(Mu("V", Var("V")),
                                        Sum(Nu("W", Var("W")), Var("V")))),
                        "duality_plus",
                        {"X": "V", "Y": "W", "e": "V", "f": "W"}, [], hyp)])
        v = check_derivation(d)
        assert not v.accepted

    def test_minimal_duality_instance(self):
        # top <= X + Y |- top <= X + Y, so top <= mu X. X + nu Y. Y
        hyp = HypContext(["V", "W"], [
            estep("h1", "leq", "top", "V + W", "hyp")])
        d = rll_d([Step("s1", Claim("leq", TOP, Sum(Mu("V", Var("V")),
                                                    Nu("W", Var("W")))),
                        "duality_plus",
                        {"X": "V", "Y": "W", "e": "V", "f": "W"}, [], hyp)])
        assert check_derivation(d).accepted

    def test_meet_duality_instance(self):
        hyp = HypContext(["V", "W"], [
            estep("h1", "leq", "V & W", "0", "hyp")])
        d = rll_d([Step("s1", Claim("leq", Meet(Mu("V", Var("V")),
                                                Nu("W", Var("W"))), ZERO),
                        "duality_meet",
                        {"X": "V", "Y": "W", "e": "V", "f": "W"}, [], hyp)])
        assert check_derivation(d).accepted

    def test_fresh_variable_cited_from_outside_rejected(self):
        # an outer step about V must not be citable inside a context fresh in V
        outer = estep("s1", "leq", "V", "V", "refl")
        hyp = HypContext(["V", "W"], [
            estep("h1", "leq", "V", "V", "trans", premises=["s1", "s1"])])
        d = rll_d([outer,
                   Step("s2", Claim("leq", TOP, Sum(Mu("V", Var("V")),
                                                    Nu("W", Var("W")))),
                        "duality_plus",
                        {"X": "V", "Y": "W", "e": "V", "f": "W"}, [], hyp)])
        v = check_derivation(d)
        assert not v.accepted and "hypothetical variable" in v.reason

    def test_hyp_block_only_on_duality_rules(self):
        d = rll_d([estep("s1", "leq", "top", "top", "refl",
                         hyp=HypContext(["X"], []))])
        v = check_derivation(d)
        assert not v.accepted and v.step == "s1"
        assert v.reason == ("only duality rules take a hypothetical "
                            "sub-derivation")
        d = Derivation("multl", "strict", PQ, [Step(
            "s1", parse_formula("P | ~P", PQ), "taut", {}, [],
            HypContext(["X"], []))])
        assert not check_derivation(d).accepted


class TestBoolTaut:
    def test_spec_example_with_complement_identification(self):
        t = parse_expr("nu X. a.X", AB)
        tc = algebra.complement(t, AB)
        s = parse_expr("b.top", AB)
        premises = [Claim("leq", TOP, Sum(t, tc)),
                    Claim("leq", Meet(t, tc), ZERO),
                    Claim("leq", TOP, Sum(t, s))]
        claim = Claim("leq", tc, s)
        assert bool_taut(claim, premises, [t, tc, s], AB)

    def test_distributivity_is_valid(self):
        e, f, g = (parse_expr(t, AB) for t in ("a.top", "b.top", "a.0"))
        claim = Claim("eq", Meet(e, Sum(f, g)), Sum(Meet(e, f), Meet(e, g)))
        assert bool_taut(claim, [], None, AB)

    def test_weakening_is_invalid(self):
        t, s = parse_expr("a.top", AB), parse_expr("b.top", AB)
        assert not bool_taut(Claim("leq", TOP, t),
                             [Claim("leq", TOP, Sum(t, s))], None, AB)

    def test_open_atom_rejected(self):
        with pytest.raises(CalculusError):
            bool_taut(Claim("leq", Var("X"), Var("X")), [], None, AB)

    def test_missing_atom_rejected(self):
        t = parse_expr("a.top", AB)
        with pytest.raises(CalculusError):
            bool_taut(Claim("leq", t, t), [], [parse_expr("b.top", AB)], AB)

    def test_agrees_with_bruteforce(self):
        # independent re-implementation: direct enumeration with explicit
        # complement pairing discovered the same way a reader would
        rng = random.Random(2718)
        pool = [parse_expr(t, AB) for t in
                ("a.top", "b.top", "nu X. a.X", "mu X. (a.X + b.top)",
                 "a.0", "b.(mu Y. b.Y)")]

        def rand_claim():
            return Claim(rng.choice(["eq", "leq"]),
                         *(_lattice_term(rng, pool, TOP, ZERO, Sum, Meet)
                           for _ in "lr"))

        for _ in range(200):
            claim = rand_claim()
            premises = [rand_claim() for _ in range(rng.randint(0, 2))]
            got = bool_taut(claim, premises, None, AB)
            assert got == _brute_bool(claim, premises), \
                f"bool_taut mismatch on {claim}"


def _brute_bool(claim, premises):
    """Test-side brute force: enumerate 0/1 values for the maximal non-lattice
    subterms, forcing syntactic complements to opposite values."""
    from rll.syntax import alpha_key

    atoms = []
    keys = []

    def collect(t):
        from rll.syntax import Meet as M, Sum as S, Top as T, Zero as Z
        if isinstance(t, (S, M)):
            collect(t.left)
            collect(t.right)
        elif isinstance(t, (T, Z)):
            pass
        elif alpha_key(t) not in keys:
            keys.append(alpha_key(t))
            atoms.append(t)

    for c in [claim] + premises:
        collect(c.lhs)
        collect(c.rhs)

    pairs = []
    for i, a in enumerate(atoms):
        for j in range(i + 1, len(atoms)):
            ka = alpha_key(algebra.complement(a, AB))
            kb = alpha_key(algebra.complement(atoms[j], AB))
            if ka == keys[j] or kb == keys[i]:
                pairs.append((i, j))

    def ev(t, val):
        from rll.syntax import Meet as M, Sum as S, Top as T, Zero as Z
        if isinstance(t, S):
            return ev(t.left, val) or ev(t.right, val)
        if isinstance(t, M):
            return ev(t.left, val) and ev(t.right, val)
        if isinstance(t, T):
            return True
        if isinstance(t, Z):
            return False
        return val[keys.index(alpha_key(t))]

    def sat(c, val):
        l, r = ev(c.lhs, val), ev(c.rhs, val)
        return l == r if c.rel == "eq" else (not l or r)

    for bits in itertools.product([False, True], repeat=len(atoms)):
        val = list(bits)
        if any(val[i] == val[j] for i, j in pairs):
            continue
        if all(sat(p, val) for p in premises) and not sat(claim, val):
            return False
    return True


def _outcome(fn, *args):
    """fn's value, or its CalculusError's message."""
    try:
        return fn(*args)
    except CalculusError as err:
        return str(err)


def _lattice_term(rng, pool, top, bottom, join, meet, depth=0):
    """A random join/meet term of depth at most 3 over the pool's terms and
    the two constants."""
    r = rng.random()
    if depth > 2 or r < 0.4:
        return rng.choice(pool + [top, bottom])
    left = _lattice_term(rng, pool, top, bottom, join, meet, depth + 1)
    right = _lattice_term(rng, pool, top, bottom, join, meet, depth + 1)
    return join(left, right) if r < 0.7 else meet(left, right)


class TestBooleanVariables:
    """The one atom grouping against the two it replaced, on seeded atom
    lists: the same variable numbers and signs, and the same verdicts."""

    def test_expression_atoms(self):
        rng = random.Random(41)
        verdicts = set()
        for ab in (AB, Alphabet.plain("a", "b", "c")):
            dual = functools.partial(algebra.complement, alphabet=ab)
            for _ in range(300):
                pool = [gen_expr(rng, ab, rng.randint(1, 6))
                        for _ in range(rng.randint(1, 5))]
                pool += [dual(e) for e in pool if rng.random() < 0.6]
                atoms = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
                assert boolean_variables(atoms, dual) == \
                    reference_bool_variables(atoms, ab)

                def claim():
                    if rng.random() < 0.3:
                        e = rng.choice(atoms)
                        return Claim("leq", TOP, Sum(e, dual(e)))
                    return Claim(rng.choice(["eq", "leq"]),
                                 *(_lattice_term(rng, atoms, TOP, ZERO, Sum,
                                                 Meet) for _ in "lr"))

                c, prems = claim(), [claim() for _ in range(rng.randint(0, 2))]
                found = maximal_atoms([s for x in (c, *prems)
                                       for s in (x.lhs, x.rhs)])
                for given, ref in ((atoms, atoms), (None, found)):
                    got = _outcome(bool_taut, c, prems, given, ab)
                    if any(all(not alpha_eq(a, b) for b in ref)
                           for a in found):
                        assert got.startswith("subterm ")  # not listed
                        continue
                    assert got == _outcome(reference_bool_taut, c, prems,
                                           ref, ab)
                    verdicts.add(got)
        assert {True, False} <= verdicts

    def test_formula_atoms(self):
        rng = random.Random(42)
        verdicts = set()
        opaque = [FVar("Z"), Next(FVar("Z")), Prop("P"), parse_formula("~Q", PQ)]
        for _ in range(400):
            pool = [algebra.to_multl(gen_expr(rng, PQ, rng.randint(1, 4)), PQ)
                    for _ in range(rng.randint(1, 3))]
            pool += rng.sample(opaque, rng.randint(0, 2))
            pool += [negate_formula(phi) for phi in pool if rng.random() < 0.6]
            phis = [_lattice_term(rng, pool, TT, BOT, Or, And)
                    for _ in range(rng.randint(1, 3))]
            assert boolean_variables(maximal_atoms(phis), negate_formula) == \
                reference_prop_variables(phis)
            # the others, if any, as premises: the antecedent of an implication
            claim = phis[0] if len(phis) == 1 else implies(
                functools.reduce(And, phis[1:]), phis[0])
            got = _outcome(propositional_valid, claim)
            assert got == _outcome(reference_propositional_valid, claim)
            verdicts.add(got)
        assert {True, False} <= verdicts


class TestMultl:
    def fstep(self, sid, text, rule, subst=None, premises=None):
        return Step(sid, parse_formula(text, PQ), rule,
                    subst or {}, premises or [])

    def multl_d(self, steps):
        return Derivation("multl", "strict", PQ, steps)

    def test_mu_axiom_instance(self):
        d = self.multl_d([self.fstep(
            "s1", "(P | O (mu X. (P | O X))) -> mu X. (P | O X)", "mu_axiom",
            {"X": "X", "phi": "P | O X"})])
        assert check_derivation(d).accepted

    def test_taut(self):
        d = self.multl_d([self.fstep("s1", "(P & O Q) -> (O Q | ~P)", "taut")])
        assert check_derivation(d).accepted

    def test_taut_rejects_contingency(self):
        d = self.multl_d([self.fstep("s1", "P | Q", "taut")])
        assert not check_derivation(d).accepted

    def test_mp(self):
        d = self.multl_d([
            self.fstep("s1", "P | ~P", "taut"),
            self.fstep("s2", "(P | ~P) -> (tt | Q)", "taut"),
            self.fstep("s3", "tt | Q", "mp", premises=["s1", "s2"]),
        ])
        assert check_derivation(d).accepted

    def test_mp_wrong_minor_rejected(self):
        d = self.multl_d([
            self.fstep("s1", "Q | ~Q", "taut"),
            self.fstep("s2", "(P | ~P) -> (tt | Q)", "taut"),
            self.fstep("s3", "tt | Q", "mp", premises=["s1", "s2"]),
        ])
        v = check_derivation(d)
        assert not v.accepted and v.step == "s3"

    def test_nec(self):
        d = self.multl_d([
            self.fstep("s1", "P | ~P", "taut"),
            self.fstep("s2", "O (P | ~P)", "nec", premises=["s1"]),
        ])
        assert check_derivation(d).accepted

    def test_nu_rule(self):
        d = self.multl_d([
            self.fstep("s1", "tt", "taut"),
            self.fstep("s2", "O tt", "nec", premises=["s1"]),
            self.fstep("s3", "O tt -> (tt -> (tt & O tt))", "taut"),
            self.fstep("s4", "tt -> (tt & O tt)", "mp",
                       premises=["s2", "s3"]),
            self.fstep("s5", "tt -> nu X. (tt & O X)", "nu_rule",
                       {"X": "X", "phi": "tt & O X", "psi": "tt"},
                       premises=["s4"]),
        ])
        assert check_derivation(d).accepted

    @pytest.mark.parametrize("rule", ["refl", "trans", "bool_taut",
                                      "duality_plus"])
    def test_equational_rule_is_unknown(self, rule):
        hyp = (HypContext(["X", "Y"], [self.fstep("h1", "P | ~P", "taut")])
               if rule == "duality_plus" else None)
        d = Derivation("multl", "extended", PQ, [
            self.fstep("s1", "P | ~P", "taut"),
            Step("s2", parse_formula("P | ~P", PQ), rule,
                 {"X": "X", "Y": "Y", "e": "X", "f": "Y"}, ["s1", "s1"],
                 hyp)])
        assert check_derivation(d) == Verdict(False, "s2",
                                              f"unknown rule {rule!r}")

    def test_unknown_tier_rejected(self):
        """Both checkers refuse a tier they do not know."""
        for d in (self.multl_d([self.fstep("s1", "P | ~P", "taut")]),
                  rll_d([estep("s1", "eq", "0", "0", "refl")])):
            assert check_derivation(d).accepted
            d.tier = "bogus"
            assert check_derivation(d) == Verdict(False, "-",
                                                  "unknown tier 'bogus'")

    def test_propositional_valid_treats_fixpoints_opaquely(self):
        phi = parse_formula("(mu X. (P | O X)) | !(mu X. (P | O X))", PQ)
        assert propositional_valid(phi)
        psi = parse_formula("(mu X. (P | O X)) | !(mu Y. (Q | O Y))", PQ)
        assert not propositional_valid(psi)


def _claim(text, ab):
    """A formula over PQ, or over AB an equational claim "l = r" or
    "l <= r"."""
    if ab is PQ:
        return parse_formula(text, ab)
    rel, sym = ("leq", " <= ") if " <= " in text else ("eq", " = ")
    lhs, rhs = text.split(sym)
    return Claim(rel, parse_expr(lhs, ab), parse_expr(rhs, ab))


# Accepted and rejected instances of every rule of the table, written out by
# hand: (rule, subst, premises, claim, wrong claims), each premise a (claim,
# rule, subst) step. A wrong claim is a claim, or a list of claims, each
# maybe with its own premises; a structural rule needs claims whose every
# side is wrong on its own.
BOOL = "bool_taut"
INSTANCES = [
    ("plus_zero", {"e": "a.top"}, [], "a.top + 0 = a.top", "a.top + 0 = 0"),
    ("plus_assoc", {"e": "a.top", "f": "b.top", "g": "0"}, [],
     "a.top + (b.top + 0) = (a.top + b.top) + 0",
     "a.top + (b.top + 0) = (b.top + a.top) + 0"),
    ("plus_comm", {"e": "a.top", "f": "b.0"}, [], "a.top + b.0 = b.0 + a.top",
     "a.top + b.0 = a.top + b.0"),
    ("plus_idem", {"e": "b.top"}, [], "b.top + b.top = b.top",
     "b.top + b.top = b.top + b.top"),
    ("plus_absorb", {"e": "a.top", "f": "b.top"}, [],
     "a.top + a.top & b.top = a.top", "a.top + b.top & a.top = a.top"),
    ("plus_dist", {"e": "a.top", "f": "b.top", "g": "0"}, [],
     "a.top + b.top & 0 = (a.top + b.top) & (a.top + 0)",
     "a.top + b.top & 0 = (a.top + b.top) & 0"),
    ("meet_top", {"e": "a.0"}, [], "a.0 & top = a.0", "a.0 & top = top"),
    ("meet_assoc", {"e": "a.top", "f": "b.top", "g": "top"}, [],
     "a.top & (b.top & top) = (a.top & b.top) & top",
     "a.top & (b.top & top) = (b.top & a.top) & top"),
    ("meet_comm", {"e": "a.top", "f": "top"}, [], "a.top & top = top & a.top",
     "a.top & top = a.top"),
    ("meet_idem", {"e": "b.top"}, [], "b.top & b.top = b.top",
     "b.top & b.top = top"),
    ("meet_absorb", {"e": "a.top", "f": "b.top"}, [],
     "a.top & (a.top + b.top) = a.top", "a.top & (b.top + a.top) = a.top"),
    ("meet_dist", {"e": "a.top", "f": "b.top", "g": "top"}, [],
     "a.top & (b.top + top) = a.top & b.top + a.top & top",
     "a.top & (b.top + top) = a.top & b.top + top"),
    ("act_zero", {"a": "b"}, [], "b.0 = 0", "a.0 = 0"),
    ("act_plus", {"a": "a", "e": "top", "f": "b.top"}, [],
     "a.(top + b.top) = a.top + a.b.top", "a.(top + b.top) = a.top + b.top"),
    ("act_meet", {"a": "b", "e": "top", "f": "a.top"}, [],
     "b.(top & a.top) = b.top & b.a.top", "b.(top & a.top) = b.top & a.top"),
    ("act_disjoint", {"a": "a", "b": "b", "e": "top", "f": "a.top"}, [],
     "a.top & b.a.top = 0", "a.top & b.a.top = a.top"),
    ("top_partition", {}, [], "top = a.top + b.top", "top = b.top + a.top"),
    ("zero_def", {}, [], "0 = mu X. X", "0 = nu X. X"),
    ("top_def", {}, [], "top = nu Y. Y", "top = mu Y. Y"),
    ("prefix", {"X": "X", "e": "a.X + b.top"}, [],
     "a.(mu X. a.X + b.top) + b.top <= mu X. a.X + b.top",
     "a.(mu X. a.X + b.top) <= mu X. a.X + b.top"),
    ("postfix", {"X": "X", "e": "a.X"}, [], "nu X. a.X <= a.(nu X. a.X)",
     "nu X. a.X <= b.(nu X. a.X)"),
    ("induction", {"X": "X", "e": "a.X", "f": "top"},
     [("a.top <= top", BOOL, {})], "mu X. a.X <= top", "mu X. a.X <= 0"),
    ("coinduction", {"X": "X", "e": "a.X", "f": "0"},
     [("0 <= a.0", BOOL, {})], "0 <= nu X. a.X", "top <= nu X. a.X"),
    ("duality_plus", {"X": "V", "Y": "W", "e": "V", "f": "W"},
     [("top <= V + W", "hyp", {})], "top <= (mu V. V) + nu W. W",
     "top <= (mu V. V) + mu W. W"),
    ("duality_meet", {"X": "V", "Y": "W", "e": "V", "f": "W"},
     [("V & W <= 0", "hyp", {})], "(mu V. V) & nu W. W <= 0",
     "(nu V. V) & nu W. W <= 0"),
    ("sym", {}, [("a.top + b.top = b.top + a.top", "plus_comm",
                  {"e": "a.top", "f": "b.top"})],
     "b.top + a.top = a.top + b.top", "top = a.top + b.top"),
    ("eq_weaken", {}, [("b.top + b.top = b.top", "plus_idem", {"e": "b.top"})],
     "b.top + b.top <= b.top", "b.top + b.top <= top"),
    ("leq_def_intro", {},
     [("b.top + b.top = b.top", "plus_idem", {"e": "b.top"})],
     "b.top <= b.top",
     ["b.top <= top", "a.top <= b.top",
      ([("a.top + b.top = b.top + a.top", "plus_comm",
          {"e": "a.top", "f": "b.top"})], "a.top <= b.top")]),
    ("leq_def_elim", {}, [("a.top <= top", BOOL, {})], "a.top + top = top",
     ["a.top + b.top = b.top", "a.top + top = b.top"]),
    ("next_or", {"phi": "P", "psi": "~Q"}, [], "O (P | ~Q) <-> (O P | O ~Q)",
     "O (P | ~Q) <-> (O P & O ~Q)"),
    ("next_and", {"phi": "P", "psi": "Q"}, [], "O (P & Q) <-> (O P & O Q)",
     "O (P & Q) <-> (O P | O Q)"),
    ("mu_axiom", {"X": "X", "phi": "P | O X"}, [],
     "(P | O (mu X. (P | O X))) -> mu X. (P | O X)",
     "(mu X. (P | O X)) -> (P | O (mu X. (P | O X)))"),
    ("nu_axiom", {"X": "X", "phi": "P & O X"}, [],
     "(nu X. (P & O X)) -> (P & O (nu X. (P & O X)))",
     "(P & O (nu X. (P & O X))) -> nu X. (P & O X)"),
    ("mu_rule", {"X": "X", "phi": "P | O X", "psi": "tt"},
     [("(P | O tt) -> tt", "taut", {})], "(mu X. (P | O X)) -> tt",
     "(mu X. (P | O X)) -> ff"),
    ("nu_rule", {"X": "X", "phi": "tt | O X", "psi": "tt"},
     [("tt -> (tt | O tt)", "taut", {})], "tt -> nu X. (tt | O X)",
     "tt -> mu X. (tt | O X)"),
    ("nec", {}, [("P | ~P", "taut", {})], "O (P | ~P)", "O O (P | ~P)"),
    ("mp", {}, [("P | ~P", "taut", {}), ("(P | ~P) -> (tt | Q)", "taut", {})],
     "tt | Q", "Q"),
]


MULTL_RULES = {"next_or", "next_and", "mu_axiom", "nu_axiom", "mu_rule",
               "nu_rule", "nec", "mp"}


def _rule_derivation(rule, subst, premises, claim):
    """A derivation whose last step s applies rule to premise steps p1, p2,
    or, for a duality rule, closes a sub-derivation that cites its
    hypothesis."""
    ab = PQ if rule in MULTL_RULES else AB
    steps = [Step(f"p{k}", _claim(text, ab), r, dict(sub))
             for k, (text, r, sub) in enumerate(premises, 1)]
    if rule.startswith("duality"):
        steps = [Step("s", _claim(claim, ab), rule, dict(subst), [],
                      HypContext([subst["X"], subst["Y"]], steps))]
    else:
        steps.append(Step("s", _claim(claim, ab), rule, dict(subst),
                          [s.sid for s in steps]))
    tier = "extended" if any(r == BOOL for _t, r, _s in premises) else "strict"
    return Derivation("multl" if ab is PQ else "rll", tier, ab, steps)


class TestRuleTable:
    """Every rule of the table against an instance written out by hand."""

    def test_every_rule_has_an_instance(self):
        assert sorted(row[0] for row in INSTANCES) == sorted(RULES)

    @pytest.mark.parametrize("row", INSTANCES, ids=[r[0] for r in INSTANCES])
    def test_accepted_and_rejected(self, row):
        rule, subst, premises, good, bad = row
        d = _rule_derivation(rule, subst, premises, good)
        assert check_derivation(d).accepted, check_derivation(d)
        for wrong in [bad] if isinstance(bad, str) else bad:
            prems, claim = wrong if isinstance(wrong, tuple) else (premises,
                                                                   wrong)
            v = check_derivation(_rule_derivation(rule, subst, prems, claim))
            assert not v.accepted and v.step == "s", v
            assert f"does not match the {rule} instance: expected " in v.reason
        concl = d.steps[-1].claim
        if isinstance(concl, MuLtlFormula):
            for w in desk_lassos(PQ, 1, 2):
                assert eval_multl(concl, w) == set(range(w.length))
        elif not free_vars(concl.lhs) | free_vars(concl.rhs):
            for w in desk_lassos(AB):
                left, right = eval_rll(concl.lhs, w), eval_rll(concl.rhs, w)
                assert left == right if concl.rel == "eq" else left <= right


def _pinned_mutant_digests(line) -> dict:
    """Per corpus, the shipped proofs and six seeded complement derivations,
    the number of mutants and the hash of line(label, verdict) over them,
    in a fixed order."""
    rng = random.Random(3)
    generated = []
    for _ in range(6):
        ab = gen_alphabet(rng, 2)
        generated += derive_complement(gen_expr(rng, ab, 3), ab)
    out = {}
    for corpus, ds in (("shipped", map(load_proof_file, proof_paths())),
                       ("generated", generated)):
        digest, count = hashlib.sha256(), 0
        for d in ds:
            for label, m in mutants(d):
                digest.update(line(label, check_derivation(m)).encode())
                count += 1
        out[corpus] = (count, digest.hexdigest())
    return out


class TestProofCorpus:
    def test_ships_at_least_six(self):
        assert len(proof_paths()) >= 6

    @pytest.mark.parametrize("path", proof_paths())
    def test_accepted(self, path):
        d = load_proof_file(path)
        v = check_derivation(d)
        assert v.accepted, f"{path}: {v}"

    @pytest.mark.parametrize("path", proof_paths())
    def test_mutations_rejected(self, path):
        d = load_proof_file(path)
        count = 0
        for label, m in mutants(d):
            v = check_derivation(m)
            assert not v.accepted, f"{path} mutant {label} slipped through"
            count += 1
        assert count > 0, f"no mutants generated for {path}"

    def test_mutant_verdicts_pinned(self):
        """Every mutant of the shipped proofs and of seeded complement
        derivations is rejected at the same step as when each rule's
        instance was built by its own code, pinned by hash. The generated
        derivations are pinned apart: their steps are the generator's."""
        assert _pinned_mutant_digests(
            lambda label, v: f"{label} {v.accepted} {v.step}\n") == {
            "shipped": (145, "0491e1f9f36d41d212e2bb1f78632e5e"
                             "3d5d1668b17cb48eae0e3dbbd98dfcee"),
            "generated": (801, "d7e6fd1e8d263f58c2a3c1ddd791c4e8"
                               "40b2ec73450595f849cd0ca56a9967f1")}

    def test_mutant_reasons_pinned(self):
        """The same mutants are rejected for the same reason, word for word,
        as when each system had its own checker."""
        assert _pinned_mutant_digests(
            lambda label, v: f"{label} {v.accepted} {v.step} {v.reason}\n"
        ) == {
            "shipped": (145, "c23af2f5f88b599bd7a25e3cb5a51729"
                             "d804be83feebd228c33d78d88e2dbcb5"),
            "generated": (801, "e4e965f799834470a26387896ec02508"
                               "87fdb14831b1975c6d36a0841be1be95")}

    def test_json_roundtrip(self):
        for path in proof_paths():
            d = load_proof_file(path)
            again = derivation_from_json(
                json.loads(json.dumps(derivation_to_json(d))))
            assert check_derivation(again).accepted

    def test_shipped_proofs_match_the_builder_byte_for_byte(self):
        """Rebuilt in memory, every derivation of scripts/build_proofs.py
        prints exactly as the file it wrote under proofs/."""
        path = os.path.join(PROOF_DIR, os.pardir, "scripts", "build_proofs.py")
        spec = importlib.util.spec_from_file_location("build_proofs", path)
        build_proofs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(build_proofs)
        assert len(build_proofs.PROOFS) == 8
        for name, build in build_proofs.PROOFS.items():
            text = json.dumps(derivation_to_json(build(), shared=False),
                              indent=1) + "\n"
            with open(os.path.join(PROOF_DIR, name), encoding="utf-8") as fh:
                assert fh.read() == text, name

    def test_checking_leaves_no_cyclic_garbage(self):
        ds = [load_proof_file(path) for path in proof_paths()]
        ds += derive_complement(parse_expr("nu X. mu Y. (a.X + b.Y)", AB), AB)
        gc.collect()
        gc.disable()
        try:
            for d in ds:
                assert check_derivation(d).accepted
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_loading_leaves_no_cyclic_garbage(self):
        texts = [json.dumps(derivation_to_json(d)) for d in derive_complement(
            parse_expr("nu X. mu Y. (a.X + b.Y)", AB), AB)]
        gc.collect()
        gc.disable()
        try:
            for path in proof_paths():
                load_proof_file(path)
            for text in texts:
                derivation_from_json(json.loads(text))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_soundness_spot_check(self):
        """Accepted equational derivations with closed conclusions never
        contradict the semantics on desk-scale lassos."""
        for path in proof_paths():
            d = load_proof_file(path)
            if d.system != "rll":
                continue
            concl = d.steps[-1].claim
            if free_vars(concl.lhs) or free_vars(concl.rhs):
                continue
            for w in desk_lassos(d.alphabet):
                ml = member_oracle(concl.lhs, w)
                mr = member_oracle(concl.rhs, w)
                if concl.rel == "eq":
                    assert ml == mr, f"{path} contradicts semantics on {w}"
                else:
                    assert (not ml) or mr, \
                        f"{path} contradicts semantics on {w}"


def _texts_and_terms(raw_steps, steps):
    """Each claim text of a proof's JSON with the term it loaded as."""
    for raw, step in zip(raw_steps, steps):
        claim = raw["claim"]
        if "formula" in claim:
            yield claim["formula"], step.claim
        else:
            yield claim["lhs"], step.claim.lhs
            yield claim["rhs"], step.claim.rhs
        if step.hyp is not None:
            yield from _texts_and_terms(raw["hyp"]["steps"], step.hyp.steps)


class TestParseMemo:
    """Each text of a derivation is parsed alone, where it is read: equal
    texts load as equal terms, and a bad subst text rejects each step that
    reads it."""

    def _proof(self, *substs):
        return {"system": "rll", "tier": "strict", "alphabet": ["a", "b"],
                "steps": [{"id": f"s{i}", "claim": {"rel": "eq",
                                                    "lhs": "b.top + 0",
                                                    "rhs": "b.top"},
                           "rule": "plus_zero", "subst": {"e": e}}
                          for i, e in enumerate(substs, 1)]}

    def test_equal_claim_texts_load_as_one_term(self):
        d = derivation_from_json(self._proof("b.top", "b.top"))
        s1, s2 = (s.claim for s in d.steps)
        assert s1 == s2
        assert check_derivation(d).accepted

    def test_shipped_proofs_load_each_text_once_per_call(self):
        """Each claim text loads as its parse alone; an equal text, in the
        same load or in another, as an equal term."""
        for path in proof_paths():
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            first, second = (derivation_from_json(data) for _ in range(2))
            parse = parse_formula if first.system == "multl" else parse_expr
            terms = {}
            for text, t in _texts_and_terms(data["steps"], first.steps):
                assert terms.setdefault(text, t) == t == parse(
                    text, first.alphabet)
            for text, t in _texts_and_terms(data["steps"], second.steps):
                assert t == terms[text]

    def test_bad_subst_term_cited_twice(self):
        reason = ("bad expression in subst['e']: expected ')', found '' "
                  "(at position 6)")
        for substs, step in [(("b.top", "b.(top", "b.(top"), "s2"),
                             (("b.top", "b.top", "b.(top"), "s3")]:
            d = derivation_from_json(self._proof(*substs))
            for _ in range(2):
                assert check_derivation(d) == Verdict.rejected(step, reason)


def _pinned_corpus():
    """Both derivations of each of 100 seeded expressions."""
    rng = random.Random(2505)
    for _ in range(100):
        ab = gen_alphabet(rng, 3)
        yield from derive_complement(gen_expr(rng, ab, rng.randint(1, 10)), ab)


def _step_count(steps) -> int:
    return sum(1 + (_step_count(s.hyp.steps) if s.hyp else 0) for s in steps)


class TestDeriveComplement:
    def test_conclusions_have_the_right_shape(self):
        e = parse_expr("nu X. mu Y. (a.X + b.Y)", AB)
        dp, dm = derive_complement(e, AB)
        ec = algebra.complement(e, AB)
        cp, cm = dp.steps[-1].claim, dm.steps[-1].claim
        assert cp.rel == "leq" and alpha_eq(cp.lhs, TOP)
        assert alpha_eq(cp.rhs, Sum(e, ec))
        assert cm.rel == "leq" and alpha_eq(cm.rhs, ZERO)
        assert alpha_eq(cm.lhs, Meet(e, ec))

    def test_seeded_corpus_accepted(self):
        rng = random.Random(501)
        for _ in range(40):
            ab = AB if rng.random() < 0.7 else Alphabet.plain("a")
            e = gen_expr(rng, ab, rng.randint(1, 8))
            dp, dm = derive_complement(e, ab)
            assert check_derivation(dp).accepted, print_expr(e)
            assert check_derivation(dm).accepted, print_expr(e)

    def test_open_expression_rejected(self):
        with pytest.raises(CalculusError):
            derive_complement(Var("X"), AB)

    def test_shadowed_binders_accepted(self):
        """Seeded expressions with every binder named X, so that each inner
        binder shadows the outer ones (gen_expr never shadows)."""
        rng = random.Random(36)
        same = {C: C for C in (syntax.Zero, syntax.Top, syntax.Act, Sum, Meet)}
        for _ in range(40):
            ab = gen_alphabet(rng, 3)
            e = syntax.rebuild(gen_expr(rng, ab, rng.randint(2, 12)), {
                **same, Var: lambda name: Var("X"),
                Mu: lambda var, body: Mu("X", body),
                Nu: lambda var, body: Nu("X", body)})
            for d in derive_complement(e, ab):
                assert check_derivation(d).accepted, print_expr(e)

    @pytest.mark.parametrize("letters", ["a", "ab", "abc"])
    @pytest.mark.parametrize("text", [
        "mu X. a.(nu X. b.X + X) + X",  # a shadowed binder, then the outer X
        "nu Xc. mu X. a.Xc + b.X",  # a name that X's prime would take
        "mu H. a.0 + b.H",  # the name a context's hole would take
    ])
    def test_hand_cases_accepted(self, text, letters):
        ab = Alphabet.plain(*letters)
        e = parse_expr(text if "b" in letters else text.replace("b.", "a."),
                       ab)
        for d in derive_complement(e, ab):
            assert check_derivation(d).accepted

    @pytest.mark.parametrize("text", [
        "mu X. a.top",  # binders whose body does not name their variable
        "nu X. b.0",
        "nu X. X",  # a nu's hypothesis, turned, as its whole body
        "mu X. nu Y. X",  # a mu's hypothesis asked turned
        "(a.0 & b.top) & (0 & top)",  # meets under meets
        "a.top",  # pull_front at letter index 0, 1 and 2 over a b c
        "b.0",
        "c.top + 0",
    ])
    def test_walk_cases_accepted(self, text):
        """Over each of a, a b and a b c that declares the case's letters."""
        letters = {t.letter for t in syntax.subexpressions(
            parse_expr(text, Alphabet.plain(*"abc"))) if isinstance(t, Act)}
        checked = 0
        for names in ("a", "ab", "abc"):
            if letters <= set(names):
                ab = Alphabet.plain(*names)
                for d in derive_complement(parse_expr(text, ab), ab):
                    assert check_derivation(d).accepted, (text, names)
                checked += 1
        assert checked

    @pytest.mark.parametrize("prop, text", [
        ("V0", "mu X. {V0}.X + {}.top"),
        ("H", "{H}.top + {}.0"),
        ("Xc", "mu X. {Xc}.X + {}.top"),
    ])
    def test_fresh_names_avoid_propositions(self, prop, text):
        """A binder's fresh pair and a context's hole are no proposition's
        name, which the checker would refuse as a variable."""
        ab = Alphabet.powerset(prop)
        for d in derive_complement(parse_expr(text, ab), ab):
            assert check_derivation(d).accepted

    def test_complement_derivations_survive_json(self):
        e = parse_expr("mu X. (a.X & nu Y. (b.Y + X))", AB)
        for d in derive_complement(e, AB):
            again = derivation_from_json(
                json.loads(json.dumps(derivation_to_json(d))))
            assert check_derivation(again).accepted

    def test_powerset_derivations_survive_json(self):
        """An rll derivation over a powerset alphabet is written with its
        propositions as "props", in both forms, and reads back as itself."""
        ab = Alphabet.powerset("P")
        for d in derive_complement(parse_expr("mu X. {P}.X + {}.top", ab), ab):
            for shared in (True, False):
                data = json.loads(json.dumps(derivation_to_json(
                    d, shared=shared)))
                assert data["props"] == ["P"] and "alphabet" not in data
                again = derivation_from_json(data)
                assert again.alphabet == ab
                assert check_derivation(again).accepted

    def test_rll_proof_takes_alphabet_or_props(self):
        data = derivation_to_json(derive_complement(TOP, AB)[0])
        with pytest.raises(CalculusError, match="an rll proof has "
                           "'alphabet' or 'props', not both"):
            derivation_from_json({**data, "props": ["P"]})

    def test_output_pinned(self):
        """Both derivations of 100 seeded expressions hash as they did
        when each case first proved the law the way round its rule gives
        it."""
        digest = hashlib.sha256()
        for d in _pinned_corpus():
            digest.update(json.dumps(derivation_to_json(
                d, shared=False)).encode())
        assert digest.hexdigest() == (
            "c741b31099caf412e28491b45d64788f9d7ad540de6a7606b40197be96f5b6c6")

    def test_conclusions_pinned(self):
        """The same corpus concludes, claim for claim, as when each law
        wrote out both cases of each De Morgan pair, in at most the 9,089
        steps, hypothetical ones included, that it takes now (10,193 when
        one case of each pair was the other conjugated by swaps)."""
        digest, steps = hashlib.sha256(), 0
        for d in _pinned_corpus():
            digest.update(json.dumps(
                derivation_to_json(d)["steps"][-1]["claim"]).encode())
            steps += _step_count(d.steps)
        assert digest.hexdigest() == (
            "36a218f8db68e6e0274060f0f4ae69ec6c0569839025f4618dfc7354fe7d5dd8")
        assert steps <= 9089

    def test_generated_mutations_rejected(self):
        e = parse_expr("nu X. a.X", AB)
        dp, _dm = derive_complement(e, AB)
        bad = [m for label, m in mutants(dp)
               if check_derivation(m).accepted]
        assert not bad


def _corpus_88():
    """Both derivations of each of 4 seeded expressions of each size 10,
    12, ..., 30 over a b."""
    rng = random.Random(5)
    for size in range(10, 31, 2):
        for _ in range(4):
            yield from derive_complement(gen_expr(rng, AB, size), AB)


def _written(d: Derivation, shared: bool) -> Derivation:
    return derivation_from_json(json.loads(json.dumps(
        derivation_to_json(d, shared=shared))))


def _claims(steps) -> list:
    """Each step's id and claim, hypothetical steps after their step."""
    out = []
    for s in steps:
        out.append((s.sid, s.claim))
        if s.hyp is not None:
            out += _claims(s.hyp.steps)
    return out


def test_corpus_88_step_count():
    """The 88 derivations take 16,172 steps, hypothetical ones included
    (18,384 when one case of each De Morgan pair was the other conjugated
    by swaps, 19,388 when each fixpoint also renamed its binders and
    restated its claim)."""
    assert sum(_step_count(d.steps) for d in _corpus_88()) <= 16172


def _contexts(steps):
    """Each context's step list, the top level first."""
    yield steps
    for s in steps:
        if s.hyp is not None:
            yield from _contexts(s.hyp.steps)


@pytest.mark.parametrize("corpus", [_pinned_corpus, _corpus_88])
def test_no_step_uncited(corpus):
    """Every generated step is a premise of a later step, or the last step
    of its context: no hypothesis of a binder whose body never names it,
    and no swap of one."""
    for d in corpus():
        contexts = list(_contexts(d.steps))
        cited = {sid for steps in contexts for s in steps
                 for sid in s.premises}
        assert [s.sid for steps in contexts for s in steps[:-1]
                if s.sid not in cited] == []


class TestSharedTerms:
    """The shared form, which lists each distinct subterm once and names it
    by index, against the text form: the same claims and the same
    verdicts."""

    @pytest.mark.parametrize("corpus", [_pinned_corpus, _corpus_88])
    def test_forms_load_and_check_alike(self, corpus):
        for d in corpus():
            shared, text = _written(d, True), _written(d, False)
            assert _claims(shared.steps) == _claims(text.steps) == \
                _claims(d.steps)
            assert check_derivation(shared) == check_derivation(text) == \
                Verdict.ok()

    @pytest.mark.parametrize("start", [0, 100, 198])
    def test_mutants_written_both_ways_get_one_verdict(self, start):
        """The in-memory mutants of both derivations of one expression of
        the pinned corpus."""
        for d in itertools.islice(_pinned_corpus(), start, start + 2):
            for label, m in mutants(d):
                assert check_derivation(_written(m, True)) == \
                    check_derivation(_written(m, False)), label

    def test_conclusion_stays_text(self):
        for d in itertools.islice(_pinned_corpus(), 20):
            data = derivation_to_json(d)
            last = data["steps"][-1]["claim"]
            assert all(type(last[side]) is str for side in ("lhs", "rhs"))
            assert last == derivation_to_json(d, shared=False)["steps"][-1][
                "claim"]
            assert all(type(x) is int for step in data["steps"][:-1]
                       for x in (step["claim"]["lhs"], step["claim"]["rhs"]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32), size=st.integers(1, 30),
           formula=st.booleans(), open_=st.booleans())
    def test_one_claim_table_round_trip(self, seed, size, formula, open_):
        """A random term, as the only indexed claim of a proof, loads equal
        to itself and to its text parsed."""
        rng = random.Random(seed)
        bound = ("Z",) if open_ else ()
        if formula:
            ab, parse = PQ, parse_formula
            t = algebra.to_multl(gen_expr(rng, PQ, size, bound), PQ)
            claim, system = t, "multl"
        else:
            ab, parse = gen_alphabet(rng, 3), parse_expr
            t = gen_expr(rng, ab, size, bound)
            claim, system = Claim("eq", t, t), "rll"
        d = Derivation(system, "strict", ab, [Step("s1", claim, "refl"),
                                              Step("s2", claim, "refl")])
        data = json.loads(json.dumps(derivation_to_json(d)))
        # one entry per distinct subterm
        assert len(data["terms"]) == len(set(syntax.subexpressions(t)))
        assert type(data["steps"][0]["claim"]["formula" if formula
                                              else "lhs"]) is int
        loaded = derivation_from_json(data).steps[0].claim
        got = loaded if formula else loaded.lhs
        assert got == t == parse(print_expr(t), ab)

    def test_writer_keeps_under_the_cap(self, monkeypatch):
        """A derivation whose shared form names more than MAX_PROOF_NODES
        nodes by index is written as text, which the loader reads."""
        d = next(_pinned_corpus())
        monkeypatch.setattr(calculus, "MAX_PROOF_NODES", 50)
        data = derivation_to_json(d)
        assert data == derivation_to_json(d, shared=False)
        assert _claims(derivation_from_json(data).steps) == _claims(d.steps)
        # and the loader heeds the cap the writer read: 31 + 31 nodes
        with pytest.raises(CalculusError, match="MAX_PROOF_NODES = 50 "):
            derivation_from_json({
                "system": "rll", "alphabet": ["a"],
                "terms": [["zero"]] + [["sum", k, k] for k in range(4)],
                "steps": [{"id": "s1", "rule": "refl", "claim": {
                    "rel": "eq", "lhs": 4, "rhs": 4}}]})

    def test_output_pinned(self):
        """Both derivations of the pinned corpus, in the shared form."""
        digest = hashlib.sha256()
        for d in _pinned_corpus():
            digest.update(json.dumps(derivation_to_json(d)).encode())
        assert digest.hexdigest() == (
            "a3d30bee4040b28001822722336f6f6c86d8bd09458671a6e86492d9be3701d5")
