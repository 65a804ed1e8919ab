#!/usr/bin/env python3
"""Regenerate the machine-checked derivations shipped under proofs/.

Every file this script writes must be accepted by `rll check`; the test suite
re-checks them and runs the mutation suite against them.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rll.calculus import (Claim, Derivation, HypContext, Step,
                          check_derivation, derivation_to_json)
from rll.syntax import (Alphabet, And, FVar, Next, NuF, Or, Prop, implies,
                        iff, negate_formula, parse_expr)

OUT = os.path.join(os.path.dirname(__file__), "..", "proofs")

AB = Alphabet.plain("a", "b")


def E(text: str):
    return parse_expr(text, AB)


def rll_deriv(steps, tier="strict") -> Derivation:
    return Derivation("rll", tier, AB, steps)


def step(sid, rel, lhs, rhs, rule, subst=None, premises=None, hyp=None):
    return Step(sid, Claim(rel, E(lhs), E(rhs)), rule, subst or {},
                premises or [], hyp)


def zero_le_e() -> Derivation:
    # 0 <= e, by induction from e <= e (e a free variable)
    return rll_deriv([
        step("s1", "leq", "E", "E", "refl"),
        step("s2", "leq", "mu X. X", "E", "induction",
             {"X": "X", "e": "X", "f": "E"}, ["s1"]),
        step("s3", "eq", "0", "mu X. X", "zero_def"),
        step("s4", "leq", "0", "E", "trans", premises=["s3", "s2"]),
    ])


def e_le_top() -> Derivation:
    return rll_deriv([
        step("s1", "leq", "E", "E", "refl"),
        step("s2", "leq", "E", "nu X. X", "coinduction",
             {"X": "X", "e": "X", "f": "E"}, ["s1"]),
        step("s3", "eq", "top", "nu X. X", "top_def"),
        step("s4", "eq", "nu X. X", "top", "sym", premises=["s3"]),
        step("s5", "leq", "E", "top", "trans", premises=["s2", "s4"]),
    ])


def mu_fixpoint_unfold() -> Derivation:
    # mu X. a.X <= a.(mu X. a.X): induction after one functoriality step
    return rll_deriv([
        step("s1", "leq", "a.(mu X. a.X)", "mu X. a.X", "prefix",
             {"X": "X", "e": "a.X"}),
        step("s2", "leq", "a.(a.(mu X. a.X))", "a.(mu X. a.X)", "mono",
             {"context": "a.H", "hole": "H"}, ["s1"]),
        step("s3", "leq", "mu X. a.X", "a.(mu X. a.X)", "induction",
             {"X": "X", "e": "a.X", "f": "a.(mu X. a.X)"}, ["s2"]),
    ])


def nu_fixpoint_fold() -> Derivation:
    # a.(nu X. a.X) <= nu X. a.X, the dual argument
    return rll_deriv([
        step("s1", "leq", "nu X. a.X", "a.(nu X. a.X)", "postfix",
             {"X": "X", "e": "a.X"}),
        step("s2", "leq", "a.(nu X. a.X)", "a.(a.(nu X. a.X))", "mono",
             {"context": "a.H", "hole": "H"}, ["s1"]),
        step("s3", "leq", "a.(nu X. a.X)", "nu X. a.X", "coinduction",
             {"X": "X", "e": "a.X", "f": "a.(nu X. a.X)"}, ["s2"]),
    ])


# e := nu X. a.X, so e^c = mu X. (a.X + b.top); f := e^c + b.top
E_TXT = "nu X. a.X"
EC_TXT = "mu X. (a.X + b.top)"
F_TXT = f"({EC_TXT}) + b.top"


def complement_adjunction_fwd() -> Derivation:
    # from e^c <= f conclude top <= e + f (via top <= e + e^c)
    return Derivation("rll", "extended", AB, [
        step("s1", "leq", EC_TXT, F_TXT, "bool_taut"),
        step("s2", "leq", "top", f"({E_TXT}) + {EC_TXT}", "bool_taut"),
        step("s3", "leq", "top", f"({E_TXT}) + ({F_TXT})", "bool_taut",
             premises=["s2", "s1"]),
    ])


def complement_adjunction_bwd() -> Derivation:
    # from top <= e + f conclude e^c <= f, by the meet/distribution chain
    ec, e, f = f"({EC_TXT})", f"({E_TXT})", f"({F_TXT})"
    return Derivation("rll", "extended", AB, [
        step("t1", "leq", "top", f"{e} + {f}", "bool_taut"),
        step("t2", "leq", f"top & {ec}", f"{ec} & ({e} + {f})", "bool_taut",
             premises=["t1"]),
        step("t3", "leq", ec, f"({ec} & {e}) + ({ec} & {f})", "bool_taut",
             premises=["t2"]),
        step("t4", "leq", ec, f"{ec} & {f}", "bool_taut", premises=["t3"]),
        step("t5", "leq", ec, f, "bool_taut", premises=["t4"]),
    ])


def action_monotone() -> Derivation:
    # a.0 <= a.top: a functoriality instance derived from the homomorphism
    # axiom, mimicking the inductive argument for letter contexts
    return rll_deriv([
        step("s1", "eq", "0 + top", "top + 0", "plus_comm",
             {"e": "0", "f": "top"}),
        step("s2", "eq", "top + 0", "top", "plus_zero", {"e": "top"}),
        step("s3", "eq", "0 + top", "top", "trans", premises=["s1", "s2"]),
        step("s4", "leq", "0", "top", "leq_def_intro", premises=["s3"]),
        step("s5", "eq", "0 + top", "top", "leq_def_elim", premises=["s4"]),
        step("s6", "eq", "a.(0 + top)", "a.top", "cong",
             {"context": "a.H", "hole": "H"}, ["s5"]),
        step("s7", "eq", "a.(0 + top)", "a.0 + a.top", "act_plus",
             {"a": "a", "e": "0", "f": "top"}),
        step("s8", "eq", "a.0 + a.top", "a.(0 + top)", "sym", premises=["s7"]),
        step("s9", "eq", "a.0 + a.top", "a.top", "trans",
             premises=["s8", "s6"]),
        step("s10", "leq", "a.0", "a.top", "leq_def_intro", premises=["s9"]),
    ])


def until_next_distribution() -> Derivation:
    """O(P U Q) -> (O P) U (O Q), with U the greatest-fixpoint until macro."""
    ab = Alphabet.powerset("P", "Q")
    P, Q = Prop("P"), Prop("Q")
    u_body = Or(Q, And(P, Next(FVar("X"))))
    u = NuF("X", u_body)                       # P U Q
    unf = Or(Q, And(P, Next(u)))               # its unfolding
    nu2_body = Or(Next(Q), And(Next(P), Next(FVar("Y"))))
    rhs = NuF("Y", nu2_body)                   # (O P) U (O Q)

    def fstep(sid, formula, rule, subst=None, premises=None):
        return Step(sid, formula, rule, subst or {}, premises or [])

    from rll.syntax import print_expr as pf

    a1 = Next(Or(negate_formula(u), unf))      # O(U -> unfolding)
    b1 = Or(Next(negate_formula(u)), Next(unf))
    c1 = Next(unf)
    d1 = Or(Next(Q), Next(And(P, Next(u))))
    e1 = Next(And(P, Next(u)))
    f1 = And(Next(P), Next(Next(u)))
    target = implies(Next(u), Or(Next(Q), And(Next(P), Next(Next(u)))))

    steps = [
        fstep("t1", implies(u, unf), "nu_axiom",
              {"X": "X", "phi": pf(u_body)}),
        fstep("t2", Next(implies(u, unf)), "nec", premises=["t1"]),
        fstep("t3", iff(a1, b1), "next_or",
              {"phi": pf(negate_formula(u)), "psi": pf(unf)}),
        fstep("t4", implies(iff(a1, b1), implies(a1, b1)), "taut"),
        fstep("t5", implies(a1, b1), "mp", premises=["t3", "t4"]),
        fstep("t6", b1, "mp", premises=["t2", "t5"]),
        fstep("t7", iff(c1, d1), "next_or",
              {"phi": pf(Q), "psi": pf(And(P, Next(u)))}),
        fstep("t8", implies(iff(c1, d1), implies(c1, d1)), "taut"),
        fstep("t9", implies(c1, d1), "mp", premises=["t7", "t8"]),
        fstep("t10", iff(e1, f1), "next_and",
              {"phi": pf(P), "psi": pf(Next(u))}),
        fstep("t11", implies(iff(e1, f1), implies(e1, f1)), "taut"),
        fstep("t12", implies(e1, f1), "mp", premises=["t10", "t11"]),
        fstep("t13", implies(b1, implies(implies(c1, d1),
                                         implies(implies(e1, f1), target))),
              "taut"),
        fstep("t14", implies(implies(c1, d1),
                             implies(implies(e1, f1), target)),
              "mp", premises=["t6", "t13"]),
        fstep("t15", implies(implies(e1, f1), target), "mp",
              premises=["t9", "t14"]),
        fstep("t16", target, "mp", premises=["t12", "t15"]),
        fstep("t17", implies(Next(u), rhs), "nu_rule",
              {"X": "Y", "phi": pf(nu2_body), "psi": pf(Next(u))}),
    ]
    # the nu rule needs its premise registered; t16 is exactly it
    steps[-1].premises = ["t16"]
    return Derivation("multl", "strict", ab, steps)


PROOFS = {
    "zero_le_e.json": zero_le_e,
    "e_le_top.json": e_le_top,
    "mu_fixpoint_unfold.json": mu_fixpoint_unfold,
    "nu_fixpoint_fold.json": nu_fixpoint_fold,
    "complement_adjunction_fwd.json": complement_adjunction_fwd,
    "complement_adjunction_bwd.json": complement_adjunction_bwd,
    "action_monotone.json": action_monotone,
    "until_next_distribution.json": until_next_distribution,
}


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    bad = 0
    for name, build in PROOFS.items():
        d = build()
        verdict = check_derivation(d)
        status = "ok" if verdict.accepted else f"REJECTED: {verdict}"
        print(f"{name}: {status}")
        if not verdict.accepted:
            bad += 1
            continue
        path = os.path.join(OUT, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(derivation_to_json(d, shared=False), fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
