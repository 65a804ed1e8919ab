"""Shared helpers for the test suite: desk-scale word sets, corpus access,
and the derivation mutation machinery."""

from __future__ import annotations

import copy
import os

from rll.calculus import Claim, Derivation, FormulaClaim, Step, bool_taut
from rll.semantics import enumerate_lassos
from rll.syntax import (Expr, Mu, MuF, MuLtlFormula, NegProp, Nu, NuF, Prop,
                        Var, alpha_eq, free_vars, negate_formula,
                        parse_expr, parse_formula, subexpressions)

PROOF_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "proofs")


def proof_paths() -> list[str]:
    return sorted(os.path.join(PROOF_DIR, n) for n in os.listdir(PROOF_DIR)
                  if n.endswith(".json"))


def desk_lassos(alphabet, max_prefix=2, max_period=2):
    return list(enumerate_lassos(alphabet, max_prefix, max_period))


# ---------------------------------------------------------------------------
# Mutation suite: single-step mutations that a sound checker must reject
# ---------------------------------------------------------------------------

def _rename_binder(e: Expr):
    """Rename the first binder whose variable actually occurs, at the binder
    only (occurrences keep the old name), which breaks alpha-equivalence."""
    if isinstance(e, (Mu, Nu)) and e.var in free_vars(e.body):
        return type(e)(e.var + "_mut", e.body)
    for attr in ("body", "left", "right"):
        child = getattr(e, attr, None)
        if child is not None and isinstance(child, Expr):
            new = _rename_binder(child)
            if new is not None:
                return _replace_child(e, attr, new)
    return None


def _replace_child(e, attr, new):
    kwargs = {f: getattr(e, f) for f in e.__dataclass_fields__}
    kwargs[attr] = new
    return type(e)(**kwargs)


def _rename_free(e: Expr):
    fv = sorted(free_vars(e))
    if not fv:
        return None
    from rll.syntax import substitute
    return substitute(e, fv[0], Var(fv[0] + "_mut"))


def _mutate_formula(phi: MuLtlFormula) -> MuLtlFormula:
    """The universal formula mutation: negate the claim."""
    return negate_formula(phi)


def _walk_steps(steps, path=()):
    for i, s in enumerate(steps):
        yield path + (i,), s
        if s.hyp is not None:
            yield from _walk_steps(s.hyp.steps, path + (i, "hyp"))


def _get_step(d: Derivation, path) -> Step:
    steps = d.steps
    it = iter(path)
    for key in it:
        if key == "hyp":
            continue
        step = steps[key]
        steps_candidate = step.hyp.steps if step.hyp is not None else None
        steps = steps_candidate if steps_candidate is not None else steps
    return step


def mutants(d: Derivation):
    """Yield (label, mutated derivation) pairs, each differing from d in one
    step's claim, one of its subst entries or its hyp.fresh, in a way the
    checker must reject."""
    for path, step in _walk_steps(d.steps):
        claim = step.claim
        if isinstance(claim, Claim):
            if not alpha_eq(claim.lhs, claim.rhs):
                swapped = Claim(claim.rel, claim.rhs, claim.lhs)
                if step.rule == "bool_taut" and _still_bool_valid(d, path, swapped):
                    pass  # a valid lattice fact either way; not a counterexample
                else:
                    yield f"{step.sid}:swap", _with_claim(d, path, swapped)
            mutated = _mutate_expr_claim(claim)
            if mutated is not None and not (
                    step.rule == "bool_taut" and _still_bool_valid(d, path, mutated)):
                yield f"{step.sid}:rename", _with_claim(d, path, mutated)
        else:
            yield (f"{step.sid}:negate",
                   _with_claim(d, path, FormulaClaim(_mutate_formula(claim.formula))))
        for key in step.subst:
            value = _mutate_subst(d, step, key)
            if value is not None:
                yield (f"{step.sid}:subst[{key}]", _with_step(
                    d, path, lambda s: s.subst.update({key: value})))
        if step.hyp is not None:
            yield (f"{step.sid}:fresh",
                   _with_step(d, path, lambda s: s.hyp.fresh.reverse()))


def _mutate_subst(d: Derivation, step: Step, key: str):
    """A changed subst[key] that changes the rule instance, or None: another
    letter for a letter; a new name for a hole, or for a binder that binds an
    occurrence; 0 (ff for a formula) for an expression, or top (tt) if it is
    0 (ff) already. The atoms of a bool_taut step name its Boolean
    variables, not an instance, and are left alone."""
    value = step.subst[key]
    if key in ("a", "b"):
        others = [c for c in d.alphabet.letters if c != value]
        return others[0] if others else None
    if key in ("X", "Y", "hole"):
        body = step.subst.get("e", step.subst.get("phi"))
        parse = parse_formula if d.system == "multl" else parse_expr
        if key == "X" and not step.rule.startswith("duality") and \
                value not in free_vars(parse(body, d.alphabet)):
            return None  # renaming a vacuous binder keeps the instance
        return value + "_mut"
    if key == "atoms":
        return None
    zero, top = ("ff", "tt") if d.system == "multl" else ("0", "top")
    return top if value == zero else zero


def _mutate_expr_claim(claim: Claim):
    new_lhs = _rename_binder(claim.lhs)
    if new_lhs is not None:
        return Claim(claim.rel, new_lhs, claim.rhs)
    new_rhs = _rename_binder(claim.rhs)
    if new_rhs is not None:
        return Claim(claim.rel, claim.lhs, new_rhs)
    new_lhs = _rename_free(claim.lhs)
    if new_lhs is not None and not alpha_eq(new_lhs, claim.lhs):
        return Claim(claim.rel, new_lhs, claim.rhs)
    return None


def _still_bool_valid(d: Derivation, path, claim: Claim) -> bool:
    """Whether a mutated bool_taut claim is still a two-element-valid
    consequence of its premises (then it is not a counterexample mutant)."""
    step = _get_step(d, path)
    prems = []
    for _p, s in _walk_steps(d.steps):
        if s.sid in step.premises and isinstance(s.claim, Claim):
            prems.append(s.claim)
    try:
        return bool_taut(claim, prems, None, d.alphabet)
    except Exception:
        return False


def _with_claim(d: Derivation, path, claim) -> Derivation:
    return _with_step(d, path, lambda s: setattr(s, "claim", claim))


def _with_step(d: Derivation, path, edit) -> Derivation:
    """A copy of d with edit applied to the step at path."""
    m = copy.deepcopy(d)
    steps = m.steps
    target = None
    for key in path:
        if key == "hyp":
            steps = target.hyp.steps
            continue
        target = steps[key]
    edit(target)
    return m
