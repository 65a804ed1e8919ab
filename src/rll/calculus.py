"""Proof checking for the equational calculus and the muLTL Hilbert system,
plus a generator for complement derivations.

A derivation is data, not search: an ordered list of steps, each carrying a
claim, a rule name, an instantiation, premise ids, and optionally a
hypothetical sub-derivation (for the quantifier-free duality rules).

The rules are data too. ``RULES`` states each rule once, in the paper's
notation: premises, then the conclusion, separated by `` / ``. A claim is
``e = f`` or ``e <= f``, or a muLTL formula with ``->``/``<->`` only at the
top, applied after instantiation; the side ``e[f/X]`` substitutes f for X.
Metavariables are ``X Y`` (binders), ``a b`` (letters) and ``e f g phi psi``
(terms); a rule's parameters are those it names, in that order, and other
names are fixed. ``_instance`` builds every instance, for the checker and
the generator. Rules instantiated from a step's ``subst`` match claims up to
bound-variable renaming, an inequation e <= f read as its defining equation
e+f = f. The structural rules ``sym``, ``eq_weaken``, ``leq_def_intro``,
``leq_def_elim``, ``nec`` and ``mp`` read their metavariables off the claims'
bare sides and compare relation and sides exactly. A mismatch prints the
expected instance next to the claim found.

A derivation is stored as JSON (``derivation_to_json``,
``derivation_from_json``). A claim side, formula or subst term is either
text or the index of an entry in an optional top-level ``"terms"`` list,
which holds each distinct subterm once: a constructor and its fields, a
subterm as the index of an earlier entry, e.g. ``["act", "a", 3]``,
``["sum", 1, 2]``, ``["mu", "X", 5]``, ``["var", "X"]`` or ``["zero"]``.
The loader builds the list in one forward pass, with no parser, and refuses
an entry that the parser would not have read. Entries share subterms, so a
few can name a term of exponential size: a proof whose claims and subst
terms name more than ``MAX_PROOF_NODES`` tree nodes by index is refused
before any step is checked. A text is parsed alone, where it is read: a
claim side or formula when the proof is loaded, a subst term or atom when a
step reads it. The table is the one way to share terms: texts share no
subterms, not even equal ones. The writer lists terms by index by default,
unless that passes the cap, and keeps the conclusion as text; with
``shared=False`` it writes every term as text, as the shipped proofs are.

Two tiers: "strict" admits the lattice/homomorphism/partition axioms, the
fixpoint rules, the duality rules and structural reasoning; "extended" also
admits bool_taut steps, which decide quasi-equations over closed atoms in the
two-element lattice (sound because closed expressions provably form a Boolean
algebra, with e^c recognized as the Boolean negation of e).
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Optional, Union

from . import algebra
from .syntax import (BOTTOMS, IDENT, JOINS, KEYWORDS, LATTICE, MEETS, TOPS,
                     VARS, Act, Alphabet, And, BINDERS, Bot, Expr, FVar, Meet,
                     Mu, MuF, MuLtlFormula, NegProp, Next, Nu, NuF, Or, Prop,
                     RllError, Sum, TOP, Term, Top, TopF, Var, ZERO, Zero,
                     alpha_eq, alpha_key, free_vars, fresh_name, implies, iff,
                     negate_formula, parse_expr, parse_formula, print_expr,
                     rebuild, subexpressions, substitute, sum_of)


class CalculusError(RllError):
    pass


# ---------------------------------------------------------------------------
# Derivation data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    rel: str  # "eq" | "leq"
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.rel not in ("eq", "leq"):
            raise CalculusError(f"bad claim relation {self.rel!r}")

    def as_equation(self) -> tuple[Expr, Expr]:
        """e <= f read definitionally as e+f = f."""
        if self.rel == "leq":
            return Sum(self.lhs, self.rhs), self.rhs
        return self.lhs, self.rhs


AnyClaim = Union[Claim, MuLtlFormula]  # a muLTL claim is its formula


@dataclass
class HypContext:
    fresh: list[str]
    steps: list["Step"]


@dataclass
class Step:
    sid: str
    claim: AnyClaim
    rule: str
    subst: dict = field(default_factory=dict)
    premises: list[str] = field(default_factory=list)
    hyp: Optional[HypContext] = None


@dataclass
class Derivation:
    system: str  # "rll" | "multl"
    tier: str  # "strict" | "extended"
    alphabet: Alphabet
    steps: list[Step]


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: Optional[str] = None
    reason: Optional[str] = None

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def rejected(step: str, reason: str) -> "Verdict":
        return Verdict(False, step, reason)


def claims_match(a: Claim, b: Claim) -> bool:
    la, ra = a.as_equation()
    lb, rb = b.as_equation()
    return alpha_eq(la, lb) and alpha_eq(ra, rb)


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _json(value, kind: type, what: str):
    """value, checked to be of the JSON kind; a CalculusError otherwise."""
    if not isinstance(value, kind):
        raise CalculusError(f"{what} must be {_JSON_KINDS[kind]}")
    return value


def _missing(owner: str, err: KeyError) -> CalculusError:
    """The error for a JSON object, owner, that lacks the field err names."""
    return CalculusError(f"{owner} has no {err.args[0]!r} field")


def _strings(value, what: str) -> list[str]:
    for item in _json(value, list, what):
        if not isinstance(item, str):
            raise CalculusError(f"each entry of {what} must be a string")
    return list(value)


# the constructors of a "terms" entry, per system: each one's node type and
# the kind of each field after its name: "t" the index of an earlier entry,
# "v" a variable, "l" a letter, "p" a proposition
_ENTRIES = {
    "rll": {"zero": (Zero, ""), "top": (Top, ""), "var": (Var, "v"),
            "act": (Act, "lt"), "sum": (Sum, "tt"), "meet": (Meet, "tt"),
            "mu": (Mu, "vt"), "nu": (Nu, "vt")},
    "multl": {"ff": (Bot, ""), "tt": (TopF, ""), "var": (FVar, "v"),
              "prop": (Prop, "p"), "neg": (NegProp, "p"), "next": (Next, "t"),
              "or": (Or, "tt"), "and": (And, "tt"), "mu": (MuF, "vt"),
              "nu": (NuF, "vt")}}
_ENTRY_OF = {cls: (name, tuple(f.name for f in fields(cls)))
             for entries in _ENTRIES.values()
             for name, (cls, _kinds) in entries.items()}
_NAME_KINDS = {"v": "a variable name", "l": "a declared letter",
               "p": "a declared proposition"}
_TERM_TYPES = (Expr, MuLtlFormula)

# Tree nodes of the claim sides and subst terms that one proof names by
# index. A table is a DAG, so a few entries can name a term too large for
# the checker's walks. A complement derivation of a 30-node expression
# names about 14,000, of a 120-node one about 105,000.
MAX_PROOF_NODES = 2_000_000


def _name_ok(kind: str, x, ab: Alphabet) -> bool:
    """Whether x is a name of the kind, as the parser would read it."""
    if type(x) is not str:
        return False
    if kind == "l":
        return x in ab.letter_set
    if kind == "p":
        return x in ab.props
    return (IDENT.fullmatch(x) is not None and x not in KEYWORDS
            and x not in (ab.props or ()))


def _term_table(entries, system: str, ab: Alphabet
                ) -> tuple[list[Term], list[int]]:
    """The terms of a proof's "terms" list and the tree size of each, built
    in one pass, each entry from earlier ones; a CalculusError names the
    first entry that the parser would not have read. A size past
    MAX_PROOF_NODES is stored as MAX_PROOF_NODES + 1, so that a long
    doubling table holds no huge integers."""
    shapes = _ENTRIES[system]
    table: list[Term] = []
    sizes: list[int] = []
    for k, entry in enumerate(_json(entries, list, "terms")):
        head = entry[0] if isinstance(entry, list) and entry else None
        shape = shapes.get(head) if isinstance(head, str) else None
        if shape is None:
            raise CalculusError(f"terms[{k}] must be a list that begins "
                                f"with one of {', '.join(shapes)}")
        cls, kinds = shape
        if len(entry) != len(kinds) + 1:
            raise CalculusError(f"terms[{k}]: {head!r} takes {len(kinds)} "
                                "field(s)")
        args, size = [], 1
        for kind, x in zip(kinds, entry[1:]):
            if kind == "t":
                if type(x) is not int or not 0 <= x < k:
                    raise CalculusError(f"terms[{k}]: a subterm must be the "
                                        "index of an earlier entry")
                args.append(table[x])
                size += sizes[x]
            elif _name_ok(kind, x, ab):
                args.append(x)
            else:
                raise CalculusError(f"terms[{k}]: {x!r} is not "
                                    f"{_NAME_KINDS[kind]}")
        table.append(cls(*args))
        sizes.append(min(size, MAX_PROOF_NODES + 1))  # a small int
    return table, sizes


def derivation_from_json(data: dict) -> Derivation:
    """The derivation derivation_to_json wrote, in either form; CalculusError
    on JSON of another shape.

    A claim side, formula or subst term is a text, parsed alone, or an
    index into the optional top-level "terms" list, whose entries are built
    in one forward pass with no parser (see ``_term_table``). A subst text
    is parsed when a step reads it, so a bad one rejects that step; every
    other fault of the JSON is a CalculusError. So is a proof whose terms
    named by index sum to more than MAX_PROOF_NODES tree nodes. An rll
    proof lists its letters as "alphabet" or, for a powerset alphabet, its
    propositions as "props", not both; a muLTL proof, its propositions as
    "alphabet"."""
    _json(data, dict, "a proof")
    try:
        system = data["system"]
        key = "props" if system == "rll" and "props" in data else "alphabet"
        names, steps = data[key], data["steps"]
    except KeyError as err:
        raise _missing("the proof", err) from None
    tier = data.get("tier", "strict")
    if system not in ("rll", "multl"):
        raise CalculusError(f"unknown proof system {system!r}")
    if tier not in ("strict", "extended"):
        raise CalculusError(f"unknown tier {tier!r}")
    if key == "props" and "alphabet" in data:
        raise CalculusError("an rll proof has 'alphabet' or 'props', not both")
    names = _strings(names, key)
    ab = (Alphabet.powerset(*names) if system == "multl" or key == "props"
          else Alphabet.plain(*names))
    parse = _SYSTEMS[system][1]
    table, sizes = _term_table(data.get("terms", []), system, ab)
    named = 0  # tree nodes of the terms named by index so far

    def side(value, what: str) -> Term:
        """A claim side or subst term: a text, parsed, or a table index."""
        nonlocal named
        if isinstance(value, str):
            return parse(value, ab)
        if type(value) is not int or not 0 <= value < len(table):
            raise CalculusError(f"{what} must be a text or the index of a "
                                "terms entry")
        named += sizes[value]
        if named > MAX_PROOF_NODES:
            raise CalculusError("the terms named by index exceed the cap of "
                                f"MAX_PROOF_NODES = {MAX_PROOF_NODES} nodes")
        return table[value]

    def load_step(s) -> Step:
        _json(s, dict, "each step")
        try:
            sid, claim, rule = s["id"], s["claim"], s["rule"]
        except KeyError as err:
            raise _missing("a step", err) from None
        _json(claim, dict, "a claim")
        try:
            if system == "multl":
                formula = claim["formula"]
            else:
                rel, lhs, rhs = claim["rel"], claim["lhs"], claim["rhs"]
        except KeyError as err:
            raise _missing("a claim", err) from None
        if system == "multl":
            parsed: AnyClaim = side(formula, "a formula")
        else:
            parsed = Claim(rel, side(lhs, "claim 'lhs'"),
                           side(rhs, "claim 'rhs'"))
        subst = dict(_json(s.get("subst") or {}, dict, "subst"))
        for key, val in subst.items():
            if key == "atoms":
                _strings(val, "subst 'atoms'")
            elif key in ("X", "Y", "hole", "a", "b"):  # names, not terms
                _json(val, str, f"subst {key!r}")
            elif not isinstance(val, str):  # a text is parsed when read
                subst[key] = side(val, f"subst {key!r}")
        hyp = s.get("hyp")
        if hyp is not None:
            _json(hyp, dict, "hyp")
            try:
                fresh, hsteps = hyp["fresh"], hyp["steps"]
            except KeyError as err:
                raise _missing("hyp", err) from None
            hyp = HypContext(_strings(fresh, "hyp 'fresh'"),
                             [load_step(t) for t in
                              _json(hsteps, list, "hyp 'steps'")])
        return Step(_json(sid, str, "a step id"), parsed,
                    _json(rule, str, "a rule"), subst,
                    _strings(s.get("premises") or [], "premises"), hyp)

    # load_step refers to itself; unbinding it frees the closure on return
    try:
        return Derivation(system, tier, ab,
                          [load_step(s) for s in _json(steps, list, "steps")])
    finally:
        del load_step


def _entry(t: Term, table: list, index: dict) -> int:
    """The index of t's entry in table, appended after its subterms' if it
    has none yet; index maps each node seen, by id, and each entry, by its
    fields, to its index."""
    k = index.get(id(t))
    if k is None:
        name, attrs = _ENTRY_OF[type(t)]
        values = [getattr(t, a) for a in attrs]
        key = (name, *[x if type(x) is str else _entry(x, table, index)
                       for x in values])
        k = index.get(key)
        if k is None:
            k = index[key] = len(table)
            table.append(list(key))
        index[id(t)] = k
    return k


def derivation_to_json(d: Derivation, *, shared: bool = True) -> dict:
    """d as JSON that derivation_from_json reads back.

    The shared form lists each distinct subterm once, in a top-level
    "terms" list: an entry is a constructor's name and its fields, a
    subterm as the index of an earlier entry, e.g. ``["act", "a", 3]``,
    ``["sum", 1, 2]``, ``["mu", "X", 5]``, ``["var", "X"]`` or
    ``["zero"]`` (muLTL: ``ff tt var prop neg next or and mu nu``). Each
    claim side, formula and subst term is then the index of its entry,
    except the claim of the last top-level step, the derivation's
    conclusion, which stays text. ``shared=False`` writes every term as
    text. The loader refuses a shared form whose terms named by index pass
    MAX_PROOF_NODES tree nodes, so such a derivation is written as text
    whatever ``shared`` says. The alphabet is written as the loader reads
    it, an rll proof's powerset alphabet as its "props"."""
    ab = d.alphabet
    key = "props" if d.system == "rll" and ab.props is not None else "alphabet"
    names = list(ab.letters if ab.props is None else ab.props)
    table: list[list] = []
    index: dict = {}
    named: list[int] = []  # the entry of each term written by index

    def put(t: Term, text: bool = False):
        if text or not shared:
            return print_expr(t)
        named.append(_entry(t, table, index))
        return named[-1]

    def dump_step(s: Step, last: bool = False) -> dict:
        if isinstance(s.claim, MuLtlFormula):
            claim = {"formula": put(s.claim, last)}
        else:
            claim = {"rel": s.claim.rel, "lhs": put(s.claim.lhs, last),
                     "rhs": put(s.claim.rhs, last)}
        out = {"id": s.sid, "claim": claim, "rule": s.rule}
        if s.subst:
            out["subst"] = {key: put(val) if isinstance(val, _TERM_TYPES)
                            else val for key, val in s.subst.items()}
        if s.premises:
            out["premises"] = s.premises
        if s.hyp is not None:
            out["hyp"] = {"fresh": s.hyp.fresh,
                          "steps": [dump_step(t) for t in s.hyp.steps]}
        return out

    steps = [dump_step(s, k == len(d.steps) - 1) for k, s in enumerate(d.steps)]
    if shared:  # the tree nodes the loader will sum against the cap
        sizes = _term_table(table, d.system, ab)[1]
        if sum(sizes[k] for k in named) > MAX_PROOF_NODES:
            return derivation_to_json(d, shared=False)
    out = {"system": d.system, "tier": d.tier, key: names}
    if shared:
        out["terms"] = table
    out["steps"] = steps
    return out


def load_proof_file(path: str) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once per level
            raise CalculusError("JSON nested too deeply") from None
    return derivation_from_json(data)


# ---------------------------------------------------------------------------
# The rules as data
# ---------------------------------------------------------------------------

RULES = {
    # lattice axioms
    "plus_zero": "e + 0 = e",
    "plus_assoc": "e + (f + g) = (e + f) + g",
    "plus_comm": "e + f = f + e",
    "plus_idem": "e + e = e",
    "plus_absorb": "e + e & f = e",
    "plus_dist": "e + f & g = (e + f) & (e + g)",
    "meet_top": "e & top = e",
    "meet_assoc": "e & (f & g) = (e & f) & g",
    "meet_comm": "e & f = f & e",
    "meet_idem": "e & e = e",
    "meet_absorb": "e & (e + f) = e",
    "meet_dist": "e & (f + g) = e & f + e & g",
    # letters are homomorphisms with disjoint images; Sigma is the sum of
    # a.top over the alphabet's letters, in order
    "act_zero": "a.0 = 0",
    "act_plus": "a.(e + f) = a.e + a.f",
    "act_meet": "a.(e & f) = a.e & a.f",
    "act_disjoint": "a.e & b.f = 0",
    "top_partition": "top = Sigma",
    # fixpoints
    "zero_def": "0 = mu Z. Z",
    "top_def": "top = nu Z. Z",
    "prefix": "e[mu X. e/X] <= mu X. e",
    "postfix": "nu X. e <= e[nu X. e/X]",
    "induction": "e[f/X] <= f / mu X. e <= f",
    "coinduction": "f <= e[f/X] / f <= nu X. e",
    # duality: the hypothesis, the sub-derivation's last claim, the conclusion
    "duality_plus": "top <= X + Y / top <= e + f / top <= (mu X. e) + nu Y. f",
    "duality_meet": "X & Y <= 0 / e & f <= 0 / (mu X. e) & nu Y. f <= 0",
    # structural
    "sym": "e = f / f = e",
    "eq_weaken": "e = f / e <= f",
    "leq_def_intro": "e + f = f / e <= f",
    "leq_def_elim": "e <= f / e + f = f",
    # the muLTL Hilbert system
    "next_or": "O (phi | psi) <-> O phi | O psi",
    "next_and": "O (phi & psi) <-> O phi & O psi",
    "mu_axiom": "phi[mu X. phi/X] -> mu X. phi",
    "nu_axiom": "nu X. phi -> phi[nu X. phi/X]",
    "mu_rule": "phi[psi/X] -> psi / mu X. phi -> psi",
    "nu_rule": "psi -> phi[psi/X] / psi -> nu X. phi",
    "nec": "phi / O phi",
    "mp": "phi / phi -> psi / psi",
}

# rules whose metavariables are their claims' bare sides, not subst entries
_FROM_SIDES = frozenset({"sym", "eq_weaken", "leq_def_intro", "leq_def_elim",
                         "nec", "mp"})
_VOCABULARY = ("X", "Y", "a", "b", "e", "f", "g", "phi", "psi")


def _parse_rule(text: str) -> tuple[tuple[str, tuple], ...]:
    """Each claim of a rule as its relation ("" for a bare formula) and its
    one or two sides, a side e[f/X] as the tuple (e, f, "X")."""
    claims = []
    for part in text.split(" / "):
        rel = next((r for r in ("<->", "->", "<=", "=") if f" {r} " in part),
                   "")
        parse, ab = ((parse_expr, Alphabet.plain("a", "b")) if rel in ("=", "<=")
                     else (parse_formula, Alphabet.powerset()))
        sides = []
        for side in part.split(f" {rel} ") if rel else [part]:
            m = re.fullmatch(r"(\w+)\[(.+)/(\w+)\]", side)
            sides.append((parse(m[1], ab), parse(m[2], ab), m[3]) if m
                         else parse(side, ab))
        claims.append((rel, tuple(sides)))
    return tuple(claims)


_SCHEMAS = {rule: _parse_rule(text) for rule, text in RULES.items()}
_PARAMS = {rule: tuple(m for m in _VOCABULARY if m in re.findall(r"\w+", text))
           for rule, text in RULES.items()}
# each rule's system: the table's, by its conclusion's relation, and the
# rules the checker states in code
_SYSTEM = {**{rule: "rll" if schemas[-1][0] in ("=", "<=") else "multl"
              for rule, schemas in _SCHEMAS.items()},
           **dict.fromkeys(("refl", "trans", "cong", "mono", "hyp",
                            "bool_taut"), "rll"), "taut": "multl"}
_CLAIM = {"=": partial(Claim, "eq"), "<=": partial(Claim, "leq"),
          "->": implies, "<->": iff, "": lambda phi: phi}


def _fill(t: Term, p: dict) -> Term:
    """The schema term t with p's values for its metavariables: names and
    letters are strings, terms are terms."""
    if isinstance(t, VARS):
        v = p.get(t.name, t.name)
        return type(t)(v) if isinstance(v, str) else v
    if isinstance(t, Act):
        return Act(p[t.letter], _fill(t.body, p))
    if isinstance(t, Next):
        return Next(_fill(t.body, p))
    if isinstance(t, LATTICE):
        return type(t)(_fill(t.left, p), _fill(t.right, p))
    if isinstance(t, BINDERS):
        return type(t)(p.get(t.var, t.var), _fill(t.body, p))
    return t


def _instance(rule: str, p: dict, alphabet: Alphabet) -> list[AnyClaim]:
    """The claims of rule's instance under the metavariable values p,
    premises first and the conclusion last."""
    if rule == "act_disjoint" and p["a"] == p["b"]:
        raise CalculusError("act_disjoint needs two distinct letters")
    if rule == "top_partition":
        p = {**p, "Sigma": sum_of([Act(a, TOP) for a in alphabet.letters])}
    return [_CLAIM[rel](*(
        substitute(_fill(t[0], p), p[t[2]], _fill(t[1], p))
        if isinstance(t, tuple) else _fill(t, p) for t in sides))
        for rel, sides in _SCHEMAS[rule]]


def _sides(c: AnyClaim) -> tuple:
    return (c,) if isinstance(c, MuLtlFormula) else (c.lhs, c.rhs)


def _bare_sides(rule: str, claims: list[AnyClaim]) -> dict:
    """Each metavariable that stands as a whole side of a claim of the rule,
    bound to that side of the claim found."""
    p: dict = {}
    for (_rel, schema), c in zip(_SCHEMAS[rule], claims):
        if len(_sides(c)) == len(schema):
            for t, side in zip(schema, _sides(c)):
                if isinstance(t, VARS):
                    p.setdefault(t.name, side)
    return p


def _show(c: AnyClaim) -> str:
    if isinstance(c, MuLtlFormula):
        return print_expr(c)
    rel = "=" if c.rel == "eq" else "<="
    return f"{print_expr(c.lhs)} {rel} {print_expr(c.rhs)}"


def _match(role: str, found: AnyClaim, want: AnyClaim, rule: str,
           exact: bool = False):
    """found must be want: up to renaming and the definitional reading of
    <=, or with relation and sides compared exactly."""
    if isinstance(want, MuLtlFormula):
        ok = alpha_eq(found, want)
    elif exact:
        ok = (found.rel == want.rel and alpha_eq(found.lhs, want.lhs)
              and alpha_eq(found.rhs, want.rhs))
    else:
        ok = claims_match(found, want)
    if not ok:
        raise CalculusError(f"{role} does not match the {rule} instance: "
                            f"expected {_show(want)}, found {_show(found)}")


# ---------------------------------------------------------------------------
# Boolean-oracle steps
# ---------------------------------------------------------------------------

def maximal_atoms(terms: list[Term]) -> list[Term]:
    """Maximal subterms whose head is not a lattice operation or constant,
    deduplicated up to renaming, in first-occurrence order."""
    seen: dict[str, Term] = {}

    def walk(t: Term):
        if isinstance(t, LATTICE):
            walk(t.left)
            walk(t.right)
        elif not isinstance(t, (BOTTOMS, TOPS)):
            seen.setdefault(alpha_key(t), t)

    try:
        for t in terms:
            walk(t)
    finally:
        del walk  # walk refers to itself; unbinding it breaks that cycle
    return list(seen.values())


MAX_ATOMS = 16  # Boolean variables of one truth table


def boolean_variables(atoms: list[Term], dual: Callable[[Term], Term]
                      ) -> tuple[dict[str, tuple[int, bool]], int]:
    """The truth table's variables: each atom's alpha key -> (index, sign),
    and their number. Atoms are taken in order; an atom not yet assigned
    gets a new variable, and the first later unassigned atom that is its
    dual, either way round, gets the same variable negated."""
    keys = [alpha_key(a) for a in atoms]
    duals = [alpha_key(dual(a)) for a in atoms]
    var_of: dict[str, tuple[int, bool]] = {}
    nvars = 0
    for i, key in enumerate(keys):
        if key in var_of:
            continue
        var_of[key] = (nvars, True)
        for j in range(i + 1, len(keys)):
            if keys[j] not in var_of and (keys[j] == duals[i]
                                          or duals[j] == key):
                var_of[keys[j]] = (nvars, False)
                break
        nvars += 1
    return var_of, nvars


def _skeleton_value(var_of: dict[str, tuple[int, bool]],
                    assign: tuple[bool, ...], t: Term) -> bool:
    """Truth of a lattice skeleton whose maximal atoms are the Boolean
    variables var_of maps by alpha key to (index, sign)."""
    if isinstance(t, JOINS):
        return (_skeleton_value(var_of, assign, t.left)
                or _skeleton_value(var_of, assign, t.right))
    if isinstance(t, MEETS):
        return (_skeleton_value(var_of, assign, t.left)
                and _skeleton_value(var_of, assign, t.right))
    if isinstance(t, BOTTOMS):
        return False
    if isinstance(t, TOPS):
        return True
    idx, sign = var_of[alpha_key(t)]
    return assign[idx] if sign else not assign[idx]


def _truth_table(claim, premises: list, atoms: list[Term], dual: Callable,
                 noun: str, holds: Callable) -> bool:
    """Whether every assignment of the atoms' Boolean variables that
    satisfies the premises satisfies the claim; ``holds(c, value)`` decides
    one claim, given ``value``, the truth of a skeleton under the
    assignment."""
    var_of, nvars = boolean_variables(atoms, dual)
    if nvars > MAX_ATOMS:  # a limit, not a verdict: no step catches it
        raise RllError(f"{nvars} {noun} atoms exceed the cap of {MAX_ATOMS}")
    for assign in itertools.product((False, True), repeat=nvars):
        value = partial(_skeleton_value, var_of, assign)
        if all(holds(p, value) for p in premises) and not holds(claim, value):
            return False
    return True


def bool_taut(claim: Claim, premises: list[Claim], atoms: Optional[list[Expr]],
              alphabet: Alphabet) -> bool:
    """Validity of (premises => claim) in the two-element bounded distributive
    lattice, treating the given closed atoms as Boolean variables, with the
    syntactic complement of an atom identified as its negation.

    Raises CalculusError on open atoms or subterms missing from the atom
    list, and RllError on more than MAX_ATOMS Boolean variables.
    """
    sides = [s for c in [claim] + premises for s in (c.lhs, c.rhs)]
    found = maximal_atoms(sides)
    if atoms is None:
        atoms = found
    else:
        keys = {alpha_key(a) for a in atoms}
        for t in found:
            if alpha_key(t) not in keys:
                raise CalculusError(
                    f"subterm {print_expr(t)} is not among the atoms")
    for t in atoms:
        if free_vars(t):
            raise CalculusError(f"open atom {print_expr(t)}")

    def holds(c: Claim, value: Callable[[Expr], bool]) -> bool:
        l, r = value(c.lhs), value(c.rhs)
        return l == r if c.rel == "eq" else (not l) or r

    return _truth_table(claim, premises, atoms,
                        partial(algebra.complement, alphabet=alphabet),
                        "Boolean", holds)


def propositional_valid(claim: MuLtlFormula) -> bool:
    """Truth-table validity treating maximal non-propositional subformulas as
    opaque atoms, a formula and its negation complementary."""
    return _truth_table(claim, [], maximal_atoms([claim]),
                        negate_formula, "propositional",
                        lambda phi, value: value(phi))


# ---------------------------------------------------------------------------
# The checker, for both systems
# ---------------------------------------------------------------------------

@dataclass
class _Frame:
    steps: dict[str, AnyClaim] = field(default_factory=dict)
    fresh: frozenset = frozenset()
    hypothesis: Optional[AnyClaim] = None


class _FailureAt(Exception):
    """A step's CalculusError, raised as (step id, reason)."""


def _want(n: int, prems: list, rule: str):
    if len(prems) != n:
        raise CalculusError(f"{rule} needs exactly {n} premise(s)")


# per system: its claim type, its parser, and what the messages call a
# claim and a term
_SYSTEMS = {"rll": (Claim, parse_expr, "an equational claim", "expression"),
            "multl": (MuLtlFormula, parse_formula, "a formula claim",
                      "formula")}


class _Checker:
    """The walk over a derivation's steps, for either system. A step fails
    with a CalculusError. A subst term or atom given as text is parsed
    alone, each time a step reads it; terms are shared only by the proof's
    "terms" table."""

    def __init__(self, d: Derivation):
        self.d = d
        self.alphabet = d.alphabet
        self.frames: list[_Frame] = [_Frame()]
        (self.claim_type, self.parse, self.claim_noun,
         self.term_noun) = _SYSTEMS[d.system]

    def expect(self, c: AnyClaim) -> AnyClaim:
        if not isinstance(c, self.claim_type):
            raise CalculusError(f"expected {self.claim_noun}")
        return c

    # -- substitution-field access --------------------------------------
    def sub(self, step: Step, key: str):
        """subst[key], read as what its key names: a variable name (X, Y,
        hole), a letter (a, b) or a term, given as one or as text."""
        if key not in step.subst:
            raise CalculusError(f"rule {step.rule} needs subst entry {key!r}")
        raw = step.subst[key]
        if key in ("X", "Y", "hole"):
            if not _name_ok("v", raw, self.alphabet):
                raise CalculusError(f"bad variable name in subst[{key!r}]")
        elif key in ("a", "b"):
            if not _name_ok("l", raw, self.alphabet):
                raise CalculusError(f"undeclared letter in subst[{key!r}]")
        elif isinstance(raw, _TERM_TYPES):
            return raw
        else:
            try:
                return self.parse(raw, self.alphabet)
            except RllError as err:
                raise CalculusError(
                    f"bad {self.term_noun} in subst[{key!r}]: {err}")
        return raw

    def params(self, step: Step) -> dict:
        return {key: self.sub(step, key) for key in _PARAMS[step.rule]}

    def check_instance(self, step: Step, prems: list[AnyClaim]):
        """A step by a rule of the table: its instance, from subst or from
        the claims' bare sides, must match the premises and the claim."""
        rule = step.rule
        _want(len(_SCHEMAS[rule]) - 1, prems, rule)
        claims = [self.expect(c) for c in (*prems, step.claim)]
        exact = rule in _FROM_SIDES
        p = _bare_sides(rule, claims) if exact else self.params(step)
        wants = _instance(rule, p, self.alphabet)
        for k, (found, want) in enumerate(zip(claims, wants), 1):
            role = "claim" if k == len(claims) else f"premise {k}"
            _match(role, found, want, rule, exact)

    # -- scope ----------------------------------------------------------
    def resolve(self, sid: str) -> AnyClaim:
        for depth in range(len(self.frames) - 1, -1, -1):
            claim = self.frames[depth].steps.get(sid)
            if claim is not None:
                self._check_escape(claim, depth)
                return claim
        raise CalculusError(f"premise {sid!r} is not in scope")

    def _check_escape(self, claim: AnyClaim, depth: int):
        """Fresh variables of frames inside `depth` must not occur in a claim
        cited from outside (the eigenvariable condition)."""
        inner = self.frames[depth + 1:]
        fv = frozenset().union(*map(free_vars, _sides(claim))) if inner else ()
        for frame in inner:
            leaked = frame.fresh & fv
            if leaked:
                raise CalculusError("cited claim mentions hypothetical "
                                    f"variable {sorted(leaked)[0]!r}")

    def register(self, step: Step):
        for frame in self.frames:
            if step.sid in frame.steps:
                raise CalculusError(f"duplicate step id {step.sid!r}")
        self.frames[-1].steps[step.sid] = step.claim

    # -- main walk --------------------------------------------------------
    def run(self) -> Verdict:
        if self.d.tier not in ("strict", "extended"):
            return Verdict.rejected("-", f"unknown tier {self.d.tier!r}")
        try:
            self.check_steps(self.d.steps)
        except _FailureAt as err:
            return Verdict.rejected(*err.args)
        except CalculusError as err:
            return Verdict.rejected("-", str(err))
        return Verdict.ok()

    def check_steps(self, steps: list[Step]) -> AnyClaim:
        if not steps:
            raise CalculusError("empty derivation")
        last: Optional[AnyClaim] = None
        for step in steps:
            try:
                if step.hyp is not None and \
                        step.rule not in ("duality_plus", "duality_meet"):
                    raise CalculusError("only duality rules take a "
                                        "hypothetical sub-derivation")
                prems = [self.resolve(sid) for sid in step.premises]
                self.check_step(step, prems)
                self.register(step)
            except CalculusError as err:
                raise _FailureAt(step.sid, str(err))
            last = step.claim
        return last

    # -- one step ---------------------------------------------------------
    def check_step(self, step: Step, prems: list[AnyClaim]):
        claim = self.expect(step.claim)
        rule = step.rule
        if _SYSTEM.get(rule) != self.d.system:
            raise CalculusError(f"unknown rule {rule!r}")
        if rule in ("duality_plus", "duality_meet"):
            _want(0, prems, rule)
            self._check_duality(step, claim)
        elif rule in _SCHEMAS:
            self.check_instance(step, prems)
        elif rule == "refl":
            _want(0, prems, rule)
            if not alpha_eq(claim.lhs, claim.rhs):
                raise CalculusError("refl needs identical sides")
        elif rule == "trans":
            _want(2, prems, rule)
            p1, p2 = self.expect(prems[0]), self.expect(prems[1])
            if not alpha_eq(p1.rhs, p2.lhs):
                raise CalculusError("premises do not chain")
            want_rel = "eq" if p1.rel == p2.rel == "eq" else "leq"
            if claim.rel != want_rel:
                raise CalculusError(f"conclusion relation must be {want_rel}")
            if not (alpha_eq(claim.lhs, p1.lhs) and alpha_eq(claim.rhs, p2.rhs)):
                raise CalculusError("conclusion does not match the chain")
        elif rule in ("cong", "mono"):
            # cong: a one-hole context applied to an equation; mono: any
            # context applied to an equation or inequation, giving <=
            _want(1, prems, rule)
            p = self.expect(prems[0])
            ctx, hole = self.sub(step, "context"), self.sub(step, "hole")
            if rule == "cong" and (p.rel != "eq" or _hole_count(ctx, hole) != 1):
                raise CalculusError("cong needs an equation and a one-hole "
                                    "context")
            _match("claim", claim, Claim(
                "eq" if rule == "cong" else "leq", substitute(ctx, hole, p.lhs),
                substitute(ctx, hole, p.rhs)), rule, exact=True)
        elif rule == "hyp":
            _want(0, prems, rule)
            for depth in range(len(self.frames) - 1, -1, -1):
                hypo = self.frames[depth].hypothesis
                if hypo is not None and claims_match(claim, self.expect(hypo)):
                    self._check_escape(hypo, depth)
                    return
            raise CalculusError("claim matches no hypothesis in scope")
        elif rule == "bool_taut":
            if self.d.tier != "extended":
                raise CalculusError("bool_taut needs the extended tier")
            atoms = None
            if "atoms" in step.subst:
                raw = step.subst["atoms"]
                if not isinstance(raw, list):
                    raise CalculusError("atoms must be a list of expressions")
                try:
                    atoms = [self.parse(a, self.alphabet) for a in raw]
                except RllError as err:
                    raise CalculusError(f"bad atom: {err}")
            eprems = [self.expect(p) for p in prems]
            if not bool_taut(claim, eprems, atoms, self.alphabet):
                raise CalculusError("not valid in the two-element lattice")
        else:  # taut
            _want(0, prems, rule)
            if not propositional_valid(claim):
                raise CalculusError("not a propositional tautology")

    def _check_duality(self, step: Step, claim: Claim):
        """The conclusion, then the sub-derivation under the hypothesis, in a
        frame whose X and Y are fresh."""
        if step.hyp is None:
            raise CalculusError("duality needs a hypothetical sub-derivation")
        p = self.params(step)
        x, y = p["X"], p["Y"]
        if step.hyp.fresh != [x, y]:
            raise CalculusError("hyp.fresh must declare exactly the rule's X, Y")
        if x == y:
            raise CalculusError("the fresh variables must be distinct")
        if {x, y} & (free_vars(claim.lhs) | free_vars(claim.rhs)):
            raise CalculusError("hypothetical variable occurs free in the "
                                "conclusion")
        hypo, sub_goal, concl = _instance(step.rule, p, self.alphabet)
        _match("claim", claim, concl, step.rule)
        self.frames.append(_Frame(fresh=frozenset({x, y}), hypothesis=hypo))
        try:
            last = self.check_steps(step.hyp.steps)
        finally:
            self.frames.pop()
        _match("last claim of the sub-derivation", self.expect(last), sub_goal,
               step.rule)


def _hole_count(ctx: Expr, hole: str) -> int:
    if isinstance(ctx, Var):
        return 1 if ctx.name == hole else 0
    if isinstance(ctx, Act):
        return _hole_count(ctx.body, hole)
    if isinstance(ctx, (Sum, Meet)):
        return _hole_count(ctx.left, hole) + _hole_count(ctx.right, hole)
    if isinstance(ctx, (Mu, Nu)):
        return 0 if ctx.var == hole else _hole_count(ctx.body, hole)
    return 0


def check_derivation(d: Derivation) -> Verdict:
    """Check a derivation in the system it names, equational (rll) or
    Hilbert-style (multl): accepted, or rejected at a named step."""
    return _Checker(d).run()


# ---------------------------------------------------------------------------
# Complement-derivation generator
# ---------------------------------------------------------------------------

class _ComplementGen:
    """One induction on a closed expression e for either complement law;
    the laws top <= e + e^c and e & e^c <= 0 are lattice duals.

    The walk goes down e beside ec, which is e^c with each bound name X
    renamed once to a fresh X' (``derivation``), so each claim law(t, tc)
    is built from the two subterms as they stand: sums against meets, a.f
    against a.f' + (the other letters), a binder against its dual. A
    fixpoint wraps the inductive step in the law's duality rule on the pair
    (X, X'); a body that names X proves it by the rule's hypothesis
    (``hyps``). A claim is restated only where a context would not end
    with its conclusion, and at the root, which states e^c unprimed.

    Each case proves the law the way its rule gives it: law(t, tc), or
    law(tc, t), "turned". The law's own constant and lattice node (``own``)
    are proved as they stand and their De Morgan duals turned, from turned
    children; acts and mus as they stand; a nu and its hypothesis turned,
    as its complement takes the rule's mu slot. ``gen`` turns a result with
    ``swap`` only where its parent asked for the other way, so no swap
    undoes another.

    A subclass supplies ``law`` and ``sides``, which build and split the
    law's claim, ``swap``, which proves law(fc, f) from law(f, fc),
    ``duality``, its rule, ``own``, and the cases: ``constant`` and
    ``glue`` for the own kinds, ``glue_act`` for letters. A proved claim is
    the Step that states it."""

    duality: str
    own: tuple[type, type]

    def __init__(self, alphabet: Alphabet):
        self.ab = alphabet
        self.counter = itertools.count(1)
        self.stack: list[list[Step]] = [[]]  # one step list per open context
        self.hyps: dict = {}  # X -> (the step of its hypothesis, turned)

    # -- structural steps -------------------------------------------------
    def emit(self, rule: str, claim: Claim, premises: list[str] = (),
             subst: Optional[dict] = None,
             hyp: Optional[HypContext] = None) -> Step:
        step = Step(f"s{next(self.counter)}", claim, rule, dict(subst or {}),
                    list(premises), hyp)
        self.stack[-1].append(step)
        return step

    def ax(self, name: str, **params) -> Step:
        """An axiom instance, its claim built from the rule table, with its
        letters and expressions as its subst."""
        return self.emit(name, _instance(name, params, self.ab)[-1],
                         subst=params)

    def refl(self, e: Expr) -> Step:
        return self.emit("refl", Claim("eq", e, e))

    def sym(self, s: Step) -> Step:
        return self.emit("sym", Claim("eq", s.claim.rhs, s.claim.lhs), [s.sid])

    def tr(self, s1: Step, s2: Step) -> Step:
        rel = "eq" if s1.claim.rel == s2.claim.rel == "eq" else "leq"
        return self.emit("trans", Claim(rel, s1.claim.lhs, s2.claim.rhs),
                         [s1.sid, s2.sid])

    def chain(self, *steps: Step) -> Step:
        acc = steps[0]
        for s in steps[1:]:
            acc = self.tr(acc, s)
        return acc

    def lift(self, rule: str, s: Step, ctx) -> Step:
        """A cong (=) or mono (<=) step applying the one-hole context ctx, a
        function of the hole, to both sides of s."""
        lhs, rhs = ctx(s.claim.lhs), ctx(s.claim.rhs)
        hole = fresh_name("H", free_vars(lhs) | free_vars(rhs)
                          | set(self.ab.props or ()))
        return self.emit(rule, Claim("eq" if rule == "cong" else "leq",
                                     lhs, rhs), [s.sid],
                         {"context": ctx(Var(hole)), "hole": hole})

    def weaken(self, s: Step) -> Step:
        return self.emit("eq_weaken", Claim("leq", s.claim.lhs, s.claim.rhs),
                         [s.sid])

    def by_def(self, s: Step, lhs: Expr, rhs: Expr) -> Step:
        return self.emit("leq_def_intro", Claim("leq", lhs, rhs), [s.sid])

    def restate(self, s: Step, goal: Claim) -> Step:
        """Re-emit an alpha-variant claim as a stated step (via trans with a
        refl), so that it sits last in its context, with goal's binder
        names."""
        r = self.refl(goal.rhs)
        return self.emit("trans", goal, [s.sid, r.sid])

    # -- the induction ----------------------------------------------------
    def gen(self, t: Expr, tc: Expr, turn: bool = False) -> Step:
        """law(t, tc), or law(tc, t) where turn is set; tc is t's complement
        with its names primed."""
        if isinstance(t, Var):
            s, turned = self.hyps[t.name]
        elif isinstance(t, (Zero, Top)):
            s, turned = self.constant(), not isinstance(t, self.own)
        elif isinstance(t, (Sum, Meet)):
            turned = not isinstance(t, self.own)
            s = self.glue(self.gen(t.left, tc.left, turned),
                          self.gen(t.right, tc.right, turned))
        elif isinstance(t, Act):
            s, turned = self.glue_act(self.gen(t.body, tc.left.body),
                                      t.letter), False
        else:
            s, turned = self.gen_fix(t, tc), isinstance(t, Nu)
        return self.swap(s) if turned != turn else s

    def gen_fix(self, t: Expr, tc: Expr) -> Step:
        """law(t, tc) for a mu, law(tc, t) for a nu: the rule's mu comes
        first, so a nu's complement takes the mu slot."""
        turned = isinstance(t, Nu)
        m, n = (tc, t) if turned else (t, tc)
        outer = self.hyps.get(t.var)
        self.stack.append([])
        if t.var in free_vars(t.body):
            self.hyps[t.var] = (
                self.emit("hyp", self.law(Var(m.var), Var(n.var))), turned)
        inner = self.gen(t.body, tc.body, turned)
        self.hyps[t.var] = outer
        if not self.stack[-1] or self.stack[-1][-1] is not inner:
            self.restate(inner, inner.claim)
        return self.emit(self.duality, self.law(m, n),
                         subst={"X": m.var, "Y": n.var, "e": m.body,
                                "f": n.body},
                         hyp=HypContext([m.var, n.var], self.stack.pop()))

    def derivation(self, e: Expr) -> Derivation:
        # each X' avoids e's names, the propositions and the other primes
        names = {s.var for s in subexpressions(e) if isinstance(s, (Mu, Nu))}
        taken, prime = {*names, *(self.ab.props or ())}, {}
        for v in sorted(names):
            prime[v] = fresh_name(v + "c", taken)
            taken.add(prime[v])

        def primed(make):
            return lambda var, *body: make(prime[var], *body)

        ec = algebra.complement(e, self.ab)
        last = self.gen(e, rebuild(ec, {
            Zero: Zero, Top: Top, Act: Act, Sum: Sum, Meet: Meet,
            Var: primed(Var), Mu: primed(Mu), Nu: primed(Nu)}))
        goal = self.law(e, ec)
        if last.claim != goal:
            self.restate(last, goal)
        return Derivation("rll", "extended", self.ab, self.stack[0])


class _PlusLaw(_ComplementGen):
    """top <= e + e^c."""
    duality = "duality_plus"
    own = (Top, Sum)

    def law(self, f: Expr, fc: Expr) -> Claim:
        return Claim("leq", TOP, Sum(f, fc))

    def sides(self, c: Claim) -> tuple[Expr, Expr]:
        return c.rhs.left, c.rhs.right

    def swap(self, s: Step) -> Step:
        f, fc = self.sides(s.claim)
        return self.tr(s, self.ax("plus_comm", e=f, f=fc))

    def constant(self) -> Step:
        # top <= top + 0
        return self.weaken(self.sym(self.ax("plus_zero", e=TOP)))

    def leq_plus_left(self, f: Expr, g: Expr) -> Step:
        # f <= f + g
        d1 = self.ax("plus_assoc", e=f, f=f, g=g)
        d3 = self.lift("cong", self.ax("plus_idem", e=f), lambda z: Sum(z, g))
        return self.by_def(self.tr(d1, d3), f, Sum(f, g))

    def leq_plus_right(self, g: Expr, f: Expr) -> Step:
        # g <= f + g
        return self.tr(self.leq_plus_left(g, f),
                       self.ax("plus_comm", e=g, f=f))

    def glb(self, su: Step, sv: Step) -> Step:
        # from top <= u and top <= v: top <= u & v
        v = sv.claim.rhs
        c1 = self.ax("meet_comm", e=TOP, f=v)
        c2 = self.ax("meet_top", e=v)
        c3 = self.sym(self.tr(c1, c2))
        c5 = self.lift("mono", su, lambda z: Meet(z, v))
        return self.chain(sv, c3, c5)

    def pull_front(self, terms: list[Expr], idx: int) -> Step:
        """sum(terms) = terms[idx] + sum(terms without idx), 0 < idx."""
        if len(terms) == 2:
            return self.ax("plus_comm", e=terms[0], f=terms[1])
        t0, rest = terms[0], terms[1:]
        ti = terms[idx]
        sprime = sum_of(rest[:idx - 1] + rest[idx:])
        r3 = self.ax("plus_assoc", e=t0, f=ti, g=sprime)
        if idx > 1:  # else sum(terms) is already t0 + (ti + sprime)
            r1 = self.pull_front(rest, idx - 1)
            r3 = self.tr(self.lift("cong", r1, lambda z: Sum(t0, z)), r3)
        r5 = self.lift("cong", self.ax("plus_comm", e=t0, f=ti),
                       lambda z: Sum(z, sprime))
        r7 = self.sym(self.ax("plus_assoc", e=ti, f=t0, g=sprime))
        return self.chain(r3, r5, r7)

    def glue(self, s1: Step, s2: Step) -> Step:
        f, fc = self.sides(s1.claim)
        g, gc = self.sides(s2.claim)
        a2 = self.lift("mono", self.leq_plus_left(f, g), lambda z: Sum(z, fc))
        a3 = self.tr(s1, a2)
        a5 = self.lift("mono", self.leq_plus_right(g, f), lambda z: Sum(z, gc))
        a6 = self.tr(s2, a5)
        a7 = self.glb(a3, a6)
        a9 = self.sym(self.ax("plus_dist", e=Sum(f, g), f=fc, g=gc))
        return self.tr(a7, a9)

    def glue_act(self, s1: Step, a: str) -> Step:
        f, fc = self.sides(s1.claim)
        af, afc = Act(a, f), Act(a, fc)
        c1 = self.lift("mono", s1, lambda z: Act(a, z))
        c2 = self.ax("act_plus", a=a, e=f, f=fc)
        c3 = self.tr(c1, c2)
        c4 = self.ax("top_partition")
        letters = self.ab.letters
        rest = [Act(c, TOP) for c in letters if c != a]
        if not rest:
            c5 = self.tr(c4, c3)
            c6 = self.sym(self.ax("plus_zero", e=afc))
            c8 = self.lift("cong", c6, lambda z: Sum(af, z))
            return self.tr(c5, c8)
        idx = letters.index(a)  # Sigma is a.top + r already where idx is 0
        c6 = c4 if idx == 0 else self.tr(
            c4, self.pull_front([Act(c, TOP) for c in letters], idx))
        r = sum_of(rest)
        c7 = self.lift("mono", c3, lambda z: Sum(z, r))
        c8 = self.tr(c6, c7)
        c10 = self.sym(self.ax("plus_assoc", e=af, f=afc, g=r))
        return self.tr(c8, c10)


class _MeetLaw(_ComplementGen):
    """e & e^c <= 0."""
    duality = "duality_meet"
    own = (Zero, Meet)

    def law(self, f: Expr, fc: Expr) -> Claim:
        return Claim("leq", Meet(f, fc), ZERO)

    def sides(self, c: Claim) -> tuple[Expr, Expr]:
        return c.lhs.left, c.lhs.right

    def swap(self, s: Step) -> Step:
        f, fc = self.sides(s.claim)
        return self.tr(self.ax("meet_comm", e=fc, f=f), s)

    def constant(self) -> Step:
        # 0 & top <= 0
        return self.weaken(self.ax("meet_top", e=ZERO))

    def meet_left(self, f: Expr, g: Expr) -> Step:
        # f & g <= f
        f1 = self.ax("plus_comm", e=Meet(f, g), f=f)
        f3 = self.tr(f1, self.ax("plus_absorb", e=f, f=g))
        return self.by_def(f3, Meet(f, g), f)

    def meet_right(self, f: Expr, g: Expr) -> Step:
        # f & g <= g
        return self.tr(self.ax("meet_comm", e=f, f=g), self.meet_left(g, f))

    def sum_zero(self, su: Step, sv: Step) -> Step:
        # from u <= 0 and v <= 0: u + v <= 0
        v = sv.claim.lhs
        m1 = self.lift("mono", su, lambda z: Sum(z, v))
        m2 = self.ax("plus_comm", e=ZERO, f=v)
        m3 = self.ax("plus_zero", e=v)
        return self.chain(m1, m2, m3, sv)

    def rest_zero(self, af: Expr, a: str, rest: list[Expr]) -> Step:
        """af & sum(rest) = 0, where rest are b.top actions with b != a."""
        head = rest[0]
        if len(rest) == 1:
            return self.ax("act_disjoint", a=a, b=head.letter, e=af.body,
                           f=TOP)
        tail = sum_of(rest[1:])
        g1 = self.ax("meet_dist", e=af, f=head, g=tail)
        g2 = self.ax("act_disjoint", a=a, b=head.letter, e=af.body, f=TOP)
        g3 = self.lift("cong", g2, lambda z: Sum(z, Meet(af, tail)))
        g4 = self.rest_zero(af, a, rest[1:])
        g5 = self.lift("cong", g4, lambda z: Sum(ZERO, z))
        g6 = self.ax("plus_zero", e=ZERO)
        return self.chain(g1, g3, g5, g6)

    def glue(self, s1: Step, s2: Step) -> Step:
        f, fc = self.sides(s1.claim)
        g, gc = self.sides(s2.claim)
        e2 = self.lift("mono", self.meet_left(f, g), lambda z: Meet(z, fc))
        e3 = self.tr(e2, s1)
        e5 = self.lift("mono", self.meet_right(f, g), lambda z: Meet(z, gc))
        e6 = self.tr(e5, s2)
        e7 = self.sum_zero(e3, e6)
        e8 = self.ax("meet_dist", e=Meet(f, g), f=fc, g=gc)
        return self.tr(e8, e7)

    def glue_act(self, s1: Step, a: str) -> Step:
        f, fc = self.sides(s1.claim)
        af, afc = Act(a, f), Act(a, fc)
        f1 = self.lift("mono", s1, lambda z: Act(a, z))
        f3 = self.sym(self.ax("act_meet", a=a, e=f, f=fc))
        f4 = self.tr(f3, f1)
        f5 = self.ax("act_zero", a=a)
        f6 = self.tr(f4, f5)
        rest = [Act(c, TOP) for c in self.ab.letters if c != a]
        if not rest:
            f7 = self.ax("plus_zero", e=afc)
            f8 = self.lift("cong", f7, lambda z: Meet(af, z))
            return self.tr(f8, f6)
        r = sum_of(rest)
        f7 = self.ax("meet_dist", e=af, f=afc, g=r)
        f8 = self.rest_zero(af, a, rest)
        f9 = self.lift("cong", f8, lambda z: Sum(Meet(af, afc), z))
        f10 = self.ax("plus_zero", e=Meet(af, afc))
        f12 = self.chain(f7, f9, f10)
        return self.tr(f12, f6)


def derive_complement(e: Expr, alphabet: Alphabet) -> tuple[Derivation, Derivation]:
    """Machine-checkable derivations of top <= e + e^c and e & e^c <= 0 for a
    closed expression, by one induction on e serving both dual laws: lattice
    glue for sums and meets, the homomorphism/partition/distributivity chain
    for letters, and the quantifier-free duality rules wrapping the inductive
    step at fixpoints."""
    if free_vars(e):
        raise CalculusError("complement derivations need a closed expression")
    return (_PlusLaw(alphabet).derivation(e),
            _MeetLaw(alphabet).derivation(e))
