"""Lasso words and the finite-lattice fixpoint evaluator.

A lasso u(v) denotes the ultimately periodic word u v^omega. Its distinct
tails are indexed by the positions 0..|u|+|v|-1, with the successor of the
last position wrapping to |u|. Expression and formula semantics restricted to
these tails are computed by Kleene iteration in the finite lattice of position
sets; on a lattice of n positions every fixpoint converges within n+1 rounds,
so the iterates realize the ordinal approximants exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .syntax import (Act, Alphabet, And, Bot, Expr, FVar, Meet, Mu, MuF,
                     MuLtlFormula, NegProp, Next, Nu, NuF, Or, ParseError,
                     Prop, RllError, Sum, Top, TopF, Var, Zero, free_fvars,
                     free_vars)


class SemanticsError(RllError):
    pass


PositionSet = frozenset


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic word u v^omega with nonempty period v."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]
    alphabet: Alphabet

    def __post_init__(self):
        if not self.period:
            raise SemanticsError("lasso period must be nonempty")
        for letter in self.prefix + self.period:
            if letter not in self.alphabet.letters:
                raise SemanticsError(f"letter {letter!r} is not in the alphabet")

    @property
    def length(self) -> int:
        return len(self.prefix) + len(self.period)

    def letter_at(self, i: int) -> str:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[i - len(self.prefix)]

    def succ(self, i: int) -> int:
        return i + 1 if i < self.length - 1 else len(self.prefix)

    def unroll(self, n: int) -> tuple[str, ...]:
        """The first n letters of the denoted omega-word."""
        out = []
        i = 0
        for _ in range(n):
            out.append(self.letter_at(i))
            i = self.succ(i)
        return tuple(out)


def parse_lasso(text: str, alphabet: Alphabet) -> Lasso:
    """Parse the lasso format u(v), letters juxtaposed, e.g. ab(ba) or {P}({}).
    """
    letters = sorted(alphabet.letters, key=len, reverse=True)

    def scan(chunk: str, offset: int) -> list[str]:
        out = []
        i = 0
        while i < len(chunk):
            if chunk[i].isspace():
                i += 1
                continue
            if chunk[i] == "{":
                j = chunk.find("}", i)
                if j < 0:
                    raise ParseError("unterminated powerset letter", offset + i)
                name = chunk[i:j + 1].replace(" ", "")
                if name not in alphabet.letters:
                    raise SemanticsError(f"letter {name!r} is not in the alphabet")
                out.append(name)
                i = j + 1
                continue
            for letter in letters:
                if chunk.startswith(letter, i):
                    out.append(letter)
                    i += len(letter)
                    break
            else:
                raise ParseError(f"no letter matches here: {chunk[i:]!r}",
                                 offset + i)
        return out

    text = text.strip()
    open_i = text.find("(")
    if open_i < 0 or not text.endswith(")"):
        raise ParseError("lasso must have the form u(v)", 0)
    prefix = scan(text[:open_i], 0)
    period = scan(text[open_i + 1:-1], open_i + 1)
    if not period:
        raise ParseError("lasso period must be nonempty", open_i)
    return Lasso(tuple(prefix), tuple(period), alphabet)


def print_lasso(w: Lasso) -> str:
    return "".join(w.prefix) + "(" + "".join(w.period) + ")"


def lasso_normalize(w: Lasso) -> Lasso:
    """Canonical form: fold the prefix into the period, then take the
    primitive root of the period. Two lassos denote the same omega-word iff
    their normal forms are equal."""
    prefix, period = list(w.prefix), list(w.period)
    while prefix and prefix[-1] == period[-1]:
        period = [period[-1]] + period[:-1]
        prefix.pop()
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    return Lasso(tuple(prefix), tuple(period), w.alphabet)


def enumerate_lassos(alphabet: Alphabet, max_prefix: int,
                     max_period: int) -> Iterator[Lasso]:
    """All normalized lassos with |u| <= max_prefix, 1 <= |v| <= max_period,
    in length-lexicographic order: ascending |u|+|v|, then ascending |u|, then
    lexicographic by alphabet order."""
    from itertools import product

    letters = alphabet.letters
    for total in range(1, max_prefix + max_period + 1):
        for plen in range(0, min(max_prefix, total - 1) + 1):
            vlen = total - plen
            if vlen > max_period:
                continue
            for u in product(letters, repeat=plen):
                for v in product(letters, repeat=vlen):
                    w = Lasso(u, v, alphabet)
                    if lasso_normalize(w) == w:
                        yield w


Env = Mapping[str, PositionSet]


def eval_rll(e: Expr, w: Lasso, env: Optional[Env] = None) -> PositionSet:
    """Positions i such that the i-th tail of w lies in the language of e.

    Fixpoints are computed by Kleene iteration: mu from the empty set, nu from
    the full set of positions.
    """
    env = dict(env) if env else {}
    missing = free_vars(e) - set(env)
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    n = w.length
    full = frozenset(range(n))
    memo: dict = {}

    def go(t: Expr, env: dict[str, PositionSet]) -> PositionSet:
        fv = free_vars(t)
        key = (t, frozenset((v, env[v]) for v in fv))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Var):
            res = env[t.name]
        elif isinstance(t, Zero):
            res = frozenset()
        elif isinstance(t, Top):
            res = full
        elif isinstance(t, Act):
            body = go(t.body, env)
            res = frozenset(i for i in range(n)
                            if w.letter_at(i) == t.letter and w.succ(i) in body)
        elif isinstance(t, Sum):
            res = go(t.left, env) | go(t.right, env)
        elif isinstance(t, Meet):
            res = go(t.left, env) & go(t.right, env)
        elif isinstance(t, (Mu, Nu)):
            cur = frozenset() if isinstance(t, Mu) else full
            while True:
                nxt = go(t.body, {**env, t.var: cur})
                if nxt == cur:
                    break
                cur = nxt
            res = cur
        else:
            raise TypeError(f"not an expression: {t!r}")
        memo[key] = res
        return res

    # go refers to itself; unbinding it breaks that cycle, so its memo is
    # freed on return rather than by the cyclic collector
    try:
        return go(e, env)
    finally:
        del go


def member_oracle(e: Expr, w: Lasso) -> bool:
    """Membership of the lasso word in L(e), via the fixpoint evaluator."""
    if free_vars(e):
        raise SemanticsError("membership needs a closed expression")
    return 0 in eval_rll(e, w)


def eval_multl(phi: MuLtlFormula, w: Lasso,
               env: Optional[Env] = None) -> PositionSet:
    """Positions of w satisfying phi, for powerset alphabets."""
    if w.alphabet.props is None:
        raise SemanticsError("muLTL semantics needs a powerset alphabet")
    env = dict(env) if env else {}
    missing = free_fvars(phi) - set(env)
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    n = w.length
    full = frozenset(range(n))
    props_at = [w.alphabet.letter_props(w.letter_at(i)) for i in range(n)]
    memo: dict = {}

    def go(t: MuLtlFormula, env: dict[str, PositionSet]) -> PositionSet:
        fv = free_fvars(t)
        key = (t, frozenset((v, env[v]) for v in fv))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, Bot):
            res = frozenset()
        elif isinstance(t, TopF):
            res = full
        elif isinstance(t, Prop):
            res = frozenset(i for i in range(n) if t.name in props_at[i])
        elif isinstance(t, NegProp):
            res = frozenset(i for i in range(n) if t.name not in props_at[i])
        elif isinstance(t, FVar):
            res = env[t.name]
        elif isinstance(t, Or):
            res = go(t.left, env) | go(t.right, env)
        elif isinstance(t, And):
            res = go(t.left, env) & go(t.right, env)
        elif isinstance(t, Next):
            body = go(t.body, env)
            res = frozenset(i for i in range(n) if w.succ(i) in body)
        elif isinstance(t, (MuF, NuF)):
            cur = frozenset() if isinstance(t, MuF) else full
            while True:
                nxt = go(t.body, {**env, t.var: cur})
                if nxt == cur:
                    break
                cur = nxt
            res = cur
        else:
            raise TypeError(f"not a formula: {t!r}")
        memo[key] = res
        return res

    try:
        return go(phi, env)
    finally:
        del go


def models(phi: MuLtlFormula, w: Lasso) -> bool:
    """w satisfies phi, i.e. position 0 does."""
    if free_fvars(phi):
        raise SemanticsError("satisfaction needs a closed formula")
    return 0 in eval_multl(phi, w)
