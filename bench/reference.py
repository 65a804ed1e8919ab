"""Reference semantics for the benchmark, written apart from ``rll``.

Expressions are plain tuples:

    ("zero",)  ("top",)  ("var", X)  ("act", letter, body)
    ("sum", left, right)  ("meet", left, right)  ("mu", X, body)  ("nu", X, body)

A lasso is a pair of strings ``(prefix, period)`` of one-character letters,
denoting ``prefix period^omega``. Membership is computed by Kleene iteration
in the lattice of sets of lasso positions, with sets held as bit masks: mu
iterates up from the empty set, nu down from the full set. This module also
holds the benchmark's own printer and parser for the ``rll`` expression
syntax, its syntactic complement, and its enumeration of normalised lassos in
length-lexicographic order.

Run it as a script to check the evaluator against a hand-written table of the
paper's example languages.
"""

from __future__ import annotations

import itertools
import re
import sys

ZERO = ("zero",)
TOP = ("top",)

# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------


def show(e) -> str:
    """The expression in ``rll`` syntax, with every sum, meet and binder
    parenthesised."""
    kind = e[0]
    if kind == "zero":
        return "0"
    if kind == "top":
        return "top"
    if kind == "var":
        return e[1]
    if kind == "act":
        body = show(e[2])
        return f"{e[1]}.{body}" if e[2][0] in ("zero", "top", "var", "act") \
            else f"{e[1]}.({body})"
    if kind in ("sum", "meet"):
        op = " + " if kind == "sum" else " & "
        return "(" + show(e[1]) + op + show(e[2]) + ")"
    return f"({kind} {e[1]}. {show(e[2])})"


_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([+&.()0]))")


def parse(text: str):
    """Parse ``rll`` expression syntax: binders reach as far right as
    possible, ``&`` binds tighter than ``+``, and ``a.e`` tightest."""
    toks: list[str] = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        toks.append(m.group(1) or m.group(2))
        pos = m.end()
    toks.append("")
    at = 0

    def peek(k=0):
        return toks[at + k]

    def take(expected=None):
        nonlocal at
        tok = toks[at]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        at += 1
        return tok

    def expr():
        if peek() in ("mu", "nu"):
            return binder()
        return chain("+", "sum", meet)

    def binder():
        kind = take()
        var = take()
        take(".")
        return (kind, var, expr())

    def chain(sym, kind, operand):
        e = operand()
        while peek() == sym:
            take()
            if peek() in ("mu", "nu"):
                return (kind, e, binder())
            e = (kind, e, operand())
        return e

    def meet():
        return chain("&", "meet", act)

    def act():
        if peek(1) == "." and peek() not in ("mu", "nu"):
            letter = take()
            take(".")
            return ("act", letter, act())
        return atom()

    def atom():
        tok = take()
        if tok == "0":
            return ZERO
        if tok == "top":
            return TOP
        if tok == "(":
            e = expr()
            take(")")
            return e
        if tok and (tok[0].isalpha() or tok[0] == "_"):
            return ("var", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    e = expr()
    take("")
    return e


def complement(e, letters: str):
    """The syntactic dual: letters against the rest of the alphabet, sums
    against meets, mu against nu, 0 against top; variables stay."""
    kind = e[0]
    if kind == "zero":
        return TOP
    if kind == "top":
        return ZERO
    if kind == "var":
        return e
    if kind == "act":
        out = ("act", e[1], complement(e[2], letters))
        for other in letters:
            if other != e[1]:
                out = ("sum", out, ("act", other, TOP))
        return out
    if kind == "sum":
        return ("meet", complement(e[1], letters), complement(e[2], letters))
    if kind == "meet":
        return ("sum", complement(e[1], letters), complement(e[2], letters))
    return ("nu" if kind == "mu" else "mu", e[1], complement(e[2], letters))


def free_vars(e) -> frozenset:
    kind = e[0]
    if kind == "var":
        return frozenset((e[1],))
    if kind == "act":
        return free_vars(e[2])
    if kind in ("sum", "meet"):
        return free_vars(e[1]) | free_vars(e[2])
    if kind in ("mu", "nu"):
        return free_vars(e[2]) - {e[1]}
    return frozenset()


# ---------------------------------------------------------------------------
# lassos
# ---------------------------------------------------------------------------

def show_lasso(w) -> str:
    return f"{w[0]}({w[1]})"


def read_lasso(text: str):
    prefix, rest = text.strip().split("(", 1)
    if not rest.endswith(")"):
        raise ValueError(f"not a lasso: {text!r}")
    return prefix, rest[:-1]


def is_normal(prefix: str, period: str) -> bool:
    """A lasso is in normal form when its prefix cannot be folded into the
    period (the last letters differ) and its period is primitive."""
    if prefix and prefix[-1] == period[-1]:
        return False
    n = len(period)
    return all(period != period[:d] * (n // d)
               for d in range(1, n) if n % d == 0)


def lassos(letters: str, max_prefix: int, max_period: int):
    """Normalised lassos with |u| <= max_prefix and 1 <= |v| <= max_period,
    ordered by |u|+|v|, then |u|, then lexicographically in alphabet order."""
    for total in range(1, max_prefix + max_period + 1):
        for plen in range(0, min(max_prefix, total - 1) + 1):
            vlen = total - plen
            if vlen > max_period:
                continue
            for u in itertools.product(letters, repeat=plen):
                for v in itertools.product(letters, repeat=vlen):
                    u_s, v_s = "".join(u), "".join(v)
                    if is_normal(u_s, v_s):
                        yield u_s, v_s


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class Compiled:
    """An expression flattened into numbered nodes, with each node's free
    variables, ready to be evaluated on many lassos."""

    def __init__(self, e):
        self.nodes: list[tuple] = []  # (kind, arg, child indices)
        self.free: list[tuple] = []
        self.root = self._add(e)

    def _add(self, e) -> int:
        kind = e[0]
        if kind in ("zero", "top"):
            node, fv = (kind, None, ()), ()
        elif kind == "var":
            node, fv = (kind, e[1], ()), (e[1],)
        elif kind == "act":
            k = self._add(e[2])
            node, fv = (kind, e[1], (k,)), self.free[k]
        elif kind in ("sum", "meet"):
            k1, k2 = self._add(e[1]), self._add(e[2])
            node = (kind, None, (k1, k2))
            fv = tuple(sorted(set(self.free[k1]) | set(self.free[k2])))
        else:
            k = self._add(e[2])
            node = (kind, e[1], (k,))
            fv = tuple(v for v in self.free[k] if v != e[1])
        self.nodes.append(node)
        self.free.append(fv)
        return len(self.nodes) - 1

    def positions(self, w, env=None) -> int:
        """Bit mask of the positions i whose tail of w lies in the
        language; ``env`` maps free variables to bit masks."""
        prefix, period = w
        word = prefix + period
        n = len(word)
        succ = [i + 1 for i in range(n - 1)] + [len(prefix)]
        full = (1 << n) - 1
        nodes, free = self.nodes, self.free
        memo: dict = {}

        def go(k: int, env: dict) -> int:
            key = (k,) + tuple(env[v] for v in free[k])
            hit = memo.get(key)
            if hit is not None:
                return hit
            kind, arg, kids = nodes[k]
            if kind == "zero":
                res = 0
            elif kind == "top":
                res = full
            elif kind == "var":
                res = env[arg]
            elif kind == "act":
                body = go(kids[0], env)
                res = 0
                for i in range(n):
                    if word[i] == arg and body >> succ[i] & 1:
                        res |= 1 << i
            elif kind == "sum":
                res = go(kids[0], env) | go(kids[1], env)
            elif kind == "meet":
                res = go(kids[0], env) & go(kids[1], env)
            else:
                cur = 0 if kind == "mu" else full
                while True:
                    nxt = go(kids[0], {**env, arg: cur})
                    if nxt == cur:
                        break
                    cur = nxt
                res = cur
            memo[key] = res
            return res

        return go(self.root, dict(env or {}))

    def member(self, w) -> bool:
        return bool(self.positions(w) & 1)


def member(e, w) -> bool:
    return Compiled(e).member(w)


def first_difference(left, right, lasso_list, include_only=False):
    """The first lasso on which membership differs (or, with include_only,
    which lies in left but not in right), or None."""
    cl, cr = Compiled(left), Compiled(right)
    for w in lasso_list:
        a, b = cl.member(w), cr.member(w)
        if (a and not b) if include_only else (a != b):
            return w
    return None


# ---------------------------------------------------------------------------
# the hand-written table
# ---------------------------------------------------------------------------

IA = "nu X. mu Y. (a.X + b.Y)"                      # infinitely many a
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"            # finitely many b
IA_AND_FB = f"({IA}) & ({FB})"

# (expression, lasso, member?) over the alphabet a b, decided by hand
TABLE = [
    ("0", "(a)", False),
    ("top", "(b)", True),
    ("a.top", "a(b)", True),
    ("a.top", "(b)", False),
    ("b.a.top", "ba(b)", True),
    ("a.top & b.top", "(a)", False),
    ("a.top + b.top", "(b)", True),
    ("nu X. a.X", "(a)", True),
    ("nu X. a.X", "aab(a)", False),
    ("mu X. a.X", "(a)", False),
    ("mu X. (b.X + a.top)", "bbb(a)", True),
    ("mu X. (b.X + a.top)", "(b)", False),
    ("nu X. (b.X + a.top)", "(b)", True),
    (IA, "(ab)", True),
    (IA, "(ba)", True),
    (IA, "b(ab)", True),
    (IA, "bbb(a)", True),
    (IA, "a(b)", False),
    (IA, "(b)", False),
    (FB, "(a)", True),
    (FB, "ab(a)", True),
    (FB, "bbbb(a)", True),
    (FB, "(ab)", False),
    (FB, "(b)", False),
    (FB, "a(ba)", False),
    (IA_AND_FB, "bb(a)", True),
    (IA_AND_FB, "(a)", True),
    (IA_AND_FB, "(ab)", False),
    (IA_AND_FB, "(b)", False),
    ("nu X. mu Y. (b.X + a.Y)", "(ab)", True),       # infinitely many b
    ("nu X. mu Y. (b.X + a.Y)", "bb(a)", False),
]


def selfcheck() -> list[str]:
    """Problems found when checking the evaluator, the printer/parser round
    trip and the complement against the table; empty when all hold."""
    problems = []
    for text, lasso_text, expected in TABLE:
        e = parse(text)
        w = read_lasso(lasso_text)
        if member(e, w) != expected:
            problems.append(f"{text} on {lasso_text}: expected {expected}")
        if parse(show(e)) != e:
            problems.append(f"{text}: printing and parsing differ")
        if member(complement(e, "ab"), w) == expected:
            problems.append(f"complement of {text} on {lasso_text}")
    return problems


if __name__ == "__main__":
    found = selfcheck()
    for p in found:
        print("FAIL", p)
    print(f"{len(TABLE)} table rows, {len(found)} problem(s)")
    sys.exit(1 if found else 0)
