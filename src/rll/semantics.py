"""Lasso words and the finite-lattice fixpoint evaluator.

A lasso u(v) denotes the ultimately periodic word u v^omega. Its distinct
tails are indexed by the positions 0..|u|+|v|-1, with the successor of the
last position wrapping to |u|. Expression and formula semantics restricted to
these tails are computed by Kleene iteration in the finite lattice of position
sets, each set held as an integer bit mask with bit i for position i; on a
lattice of n positions every fixpoint converges within n+1 rounds, so the
iterates realize the ordinal approximants exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .syntax import (BINDERS, BOTTOMS, JOINS, MEETS, MUS, PREFIXES, TOPS, VARS,
                     Act, Alphabet, Expr, MuLtlFormula, NegProp, Next,
                     ParseError, Prop, RllError, Term, free_vars,
                     parse_braced_letter)


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
                out.append(parse_braced_letter(chunk[i:j + 1], alphabet,
                                               offset + i))
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

    lead = len(text) - len(text.lstrip())  # positions count from text
    text = text.strip()
    open_i = text.find("(")
    if open_i < 0 or not text.endswith(")"):
        raise ParseError("lasso must have the form u(v)", 0)
    prefix = scan(text[:open_i], lead)
    period = scan(text[open_i + 1:-1], lead + open_i + 1)
    if not period:
        raise ParseError("lasso period must be nonempty", lead + open_i)
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


MAX_LASSOS = 2**20  # candidate words (u, v) that enumerate_lassos may try


def _words(k: int, least: int, most: int) -> int:
    """The sum of k^n for least <= n <= most, exact up to MAX_LASSOS."""
    if k == 1:
        return most - least + 1
    most = min(most, MAX_LASSOS.bit_length())  # k^n > MAX_LASSOS from here
    return (k ** (most + 1) - k ** least) // (k - 1)


def enumerate_lassos(alphabet: Alphabet, max_prefix: int,
                     max_period: int) -> Iterator[Lasso]:
    """All normalized lassos with |u| <= max_prefix, 1 <= |v| <= max_period,
    in length-lexicographic order: ascending |u|+|v|, then ascending |u|, then
    lexicographic by alphabet order. A bound that admits no lasso, or
    bounds that would try over MAX_LASSOS words, is a SemanticsError."""
    from itertools import product

    for name, bound, least in (("max-prefix", max_prefix, 0),
                               ("max-period", max_period, 1)):
        if bound < least:
            raise SemanticsError(
                f"{name} must be at least {least}, not {bound}")
    letters = alphabet.letters
    k = len(letters)
    if _words(k, 0, max_prefix) * _words(k, 1, max_period) > MAX_LASSOS:
        raise SemanticsError(f"max-prefix {max_prefix} and max-period "
                             f"{max_period} would try over {MAX_LASSOS} lassos")
    # u(v) is normal iff u is empty or ends in another letter than v, and
    # v is primitive: for no proper divisor d of |v| is v a power of v[:d]
    for total in range(1, max_prefix + max_period + 1):
        for plen in range(0, min(max_prefix, total - 1) + 1):
            vlen = total - plen
            if vlen > max_period:
                continue
            divisors = [d for d in range(1, vlen) if vlen % d == 0]
            for u in product(letters, repeat=plen):
                last = u[-1] if u else None
                for v in product(letters, repeat=vlen):
                    if v[-1] != last and all(v[:d] * (vlen // d) != v
                                             for d in divisors):
                        yield Lasso(u, v, alphabet)


Env = Mapping[str, PositionSet]


def _mask(positions: Iterable[int]) -> int:
    """The bit mask of a set of positions: bit i set iff i is in it."""
    return sum(1 << i for i in positions)


def _kleene(term: Term, w: Lasso, env: Optional[Env],
            local: Callable[[Term], int]) -> PositionSet:
    """Positions of w where the expression or formula ``term`` holds.

    Position sets are bit masks: bit i stands for position i, so bottom is 0,
    top is all n bits, and join and meet are ``|`` and ``&``. ``local`` gives
    the mask of what a node's own test admits: for a prefix node the
    positions it may step from, for a literal the positions where it holds.
    A prefix node's body mask is moved one position back, and the bit of the
    period's first position also lands on the last position, whose successor
    it is. Fixpoints are computed by Kleene iteration: mu from the empty set,
    nu from the full set of positions.
    """
    n, start = w.length, len(w.prefix)
    full, last = (1 << n) - 1, n - 1
    masks = {v: _mask(s) & full for v, s in (env or {}).items()}
    missing = free_vars(term) - set(masks)
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    memo: dict = {}  # keyed on id(t), as hashing a term walks all of it

    def go(t: Term, env: dict[str, int]) -> int:
        key = (id(t), frozenset((v, env[v]) for v in free_vars(t)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, VARS):
            res = env[t.name]
        elif isinstance(t, BOTTOMS):
            res = 0
        elif isinstance(t, TOPS):
            res = full
        elif isinstance(t, PREFIXES):
            body = go(t.body, env)
            res = local(t) & ((body >> 1) | (((body >> start) & 1) << last))
        elif isinstance(t, JOINS):
            res = go(t.left, env) | go(t.right, env)
        elif isinstance(t, MEETS):
            res = go(t.left, env) & go(t.right, env)
        elif isinstance(t, BINDERS):
            cur = 0 if isinstance(t, MUS) else full
            while True:
                nxt = go(t.body, {**env, t.var: cur})
                if nxt == cur:
                    break
                cur = nxt
            res = cur
        else:
            res = local(t)
        memo[key] = res
        return res

    # go refers to itself; unbinding it breaks that cycle, so its memo is
    # freed on return rather than by the cyclic collector
    try:
        res = go(term, masks)
    finally:
        del go
    return frozenset(i for i, bit in enumerate(reversed(bin(res)[2:]))
                     if bit == "1")


def eval_rll(e: Expr, w: Lasso, env: Optional[Env] = None) -> PositionSet:
    """Positions i such that the i-th tail of w lies in the language of e."""
    with_letter: dict[str, int] = {}
    for i in range(w.length):
        letter = w.letter_at(i)
        with_letter[letter] = with_letter.get(letter, 0) | 1 << i

    def local(t: Term) -> int:
        if isinstance(t, Act):
            return with_letter.get(t.letter, 0)
        raise TypeError(f"not an expression: {t!r}")

    return _kleene(e, w, env, local)


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
    n = w.length
    props_at = [w.alphabet.letter_props(w.letter_at(i)) for i in range(n)]

    def local(t: Term) -> int:
        if isinstance(t, Next):
            return (1 << n) - 1
        if isinstance(t, Prop):
            return _mask(i for i in range(n) if t.name in props_at[i])
        if isinstance(t, NegProp):
            return _mask(i for i in range(n) if t.name not in props_at[i])
        raise TypeError(f"not a formula: {t!r}")

    return _kleene(phi, w, env, local)


def models(phi: MuLtlFormula, w: Lasso) -> bool:
    """w satisfies phi, i.e. position 0 does."""
    if free_vars(phi):
        raise SemanticsError("satisfaction needs a closed formula")
    return 0 in eval_multl(phi, w)
