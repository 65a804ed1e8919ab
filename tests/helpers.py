"""Shared helpers for the test suite: desk-scale word sets, corpus access, the
symbol-loop reference tokenizer, the recursive-descent reference parsers, the
tree-substituting reference closure, the one-expression reference occurrence
graph, the set-based reference game, the flat arena whose binders are all
positions, the one whose starts are all positions, and nesting-depth
priorities, the frozenset reference evaluators and the memoised bit-mask ones,
the character-scanning lasso reader with the rebuilding normaliser and the
per-position masks, the per-lasso reference bounded searches, their normalising
enumerator and the tuple-walking word-graph builder, the isinstance-walk
reference translations, the two Boolean-variable groupings of the truth tables,
the proof loader that parses each text alone, the derivation mutation
machinery, and the CLI entry point that builds every subcommand's parser on
every call."""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Optional

from rll import __version__, algebra, cli
from rll.calculus import (Claim, Derivation, Step,
                          _skeleton_value, bool_taut, maximal_atoms)
from rll.closure import (DEAD_TOP, DEAD_ZERO, ClosureError, OccurrenceGraph,
                         occurrence_graph)
from rll.game import (ABELARD, ELOISE, GameError, ParityGame, Solution,
                      WordGraph, _settle, build_arena, lasso_graph,
                      member_game)
from rll.semantics import (Lasso, LassoColumns, SemanticsError,
                           enumerate_lassos, lasso_normalize, quoted)
from rll.syntax import (BINDERS, BOT, BOTTOMS, JOINS, KEYWORDS, MEETS, MUS,
                        PREFIXES, TOP, TOPS, TT, VARS, ZERO, Act, Alphabet,
                        AlphabetError, And, Bot, Expr, FVar, Meet, Mu, MuF,
                        MuLtlFormula, NegProp, Next, Nu, NuF, Or, ParseError,
                        Prop, RllError, Sum, Term, Top, TopF, Var, Zero,
                        alpha_eq, alpha_key, and_of, free_vars, iff, implies,
                        negate_formula, parse_braced_letter, parse_expr,
                        parse_formula, subexpressions, subset_letter_name,
                        substitute, sum_of)

PROOF_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "proofs")


def proof_paths() -> list[str]:
    return sorted(os.path.join(PROOF_DIR, n) for n in os.listdir(PROOF_DIR)
                  if n.endswith(".json"))


def desk_lassos(alphabet, max_prefix=2, max_period=2) -> list[Lasso]:
    """The enumerated lassos in order, each read back from the columns."""
    columns = LassoColumns(alphabet)
    n = len([*enumerate_lassos(alphabet, max_prefix, max_period, columns)])
    return [*map(columns.lasso, range(n))]


def lasso_arena(e: Expr, w: Lasso,
                graph: Optional[OccurrenceGraph] = None) -> ParityGame:
    """``build_arena`` over the lasso's word graph, on ``graph``, the
    occurrence graph of e, or on one built here."""
    if graph is None:
        graph = occurrence_graph(e, w.alphabet)
    return build_arena(graph, lasso_graph(w))


def spellings(w: Lasso) -> list[Lasso]:
    """Other lassos for w's word: the period pumped into the prefix
    (u v^k (v)), the period doubled (u (vv)), and the period rotated by
    moving its first j letters into the prefix."""
    u, v = w.prefix, w.period
    out = [Lasso(u + v * k, v, w.alphabet) for k in (1, 2)]
    out.append(Lasso(u, v * 2, w.alphabet))
    out += [Lasso(u + v[:j], v[j:] + v[:j], w.alphabet)
            for j in range(1, len(v) + 1)]
    return out


# ---------------------------------------------------------------------------
# Reference tokenizer: a character loop that tries each symbol in turn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SYMBOLS = ["<->", "->", "+", "&", "|", "~", "!", ".", "(", ")", "{", "}", ",",
            ";", "0"]


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, i))
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Reference parsers: recursive descent with one function per precedence
# level, written once per syntax. A clash of a bound variable with a
# proposition reports the variable's position (it reported position 0).
# ---------------------------------------------------------------------------

class _RefTokens:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.pos)
        return self.next()


def _ref_letter(ts: _RefTokens, alphabet: Alphabet) -> str:
    """A letter token: an identifier, or {P,Q} in powerset mode."""
    tok = ts.peek()
    if tok.kind == "{":
        ts.next()
        names = []
        if ts.peek().kind != "}":
            names.append(ts.expect("ident").value)
            while ts.peek().kind == ",":
                ts.next()
                names.append(ts.expect("ident").value)
        ts.expect("}")
        if alphabet.props is None:
            raise AlphabetError("powerset letter used with a plain alphabet")
        for p in names:
            if p not in alphabet.props:
                raise AlphabetError(f"undeclared proposition {p!r}")
        in_order = tuple(p for p in alphabet.props if p in names)
        return subset_letter_name(in_order)
    if tok.kind == "ident":
        return ts.next().value
    raise ParseError(f"expected a letter, found {tok.value!r}", tok.pos)


def reference_parse_expr(text: str, alphabet: Alphabet,
                         require_closed: bool = False) -> Expr:
    """Parse an RLL expression.

    Grammar (binders weakest and maximally right, & tighter than +, a.e
    tightest): ``0 | top | IDENT | LETTER.e | e+e | e&e | (mu|nu) X. e | (e)``.
    """
    ts = _RefTokens(reference_tokenize(text))
    e = _ref_expr(ts, alphabet)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.pos)
    if require_closed and free_vars(e):
        names = ", ".join(sorted(free_vars(e)))
        raise ParseError(f"expression is not closed (free: {names})", 0)
    return e


def _ref_expr(ts: _RefTokens, ab: Alphabet) -> Expr:
    tok = ts.peek()
    if tok.kind == "ident" and tok.value in ("mu", "nu"):
        return _ref_binder(ts, ab)
    return _ref_sum(ts, ab)


def _ref_binder(ts: _RefTokens, ab: Alphabet) -> Expr:
    kw = ts.next().value
    var = _ref_var_name(ts)
    ts.expect(".")
    body = _ref_expr(ts, ab)
    return Mu(var, body) if kw == "mu" else Nu(var, body)


def _ref_var_name(ts: _RefTokens) -> str:
    tok = ts.expect("ident")
    if tok.value in KEYWORDS:
        raise ParseError(f"keyword {tok.value!r} cannot be a variable", tok.pos)
    return tok.value


def _ref_sum(ts: _RefTokens, ab: Alphabet) -> Expr:
    e = _ref_meet(ts, ab)
    while ts.peek().kind == "+":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return Sum(e, _ref_binder(ts, ab))  # trailing binder, max right
        e = Sum(e, _ref_meet(ts, ab))
    return e


def _ref_meet(ts: _RefTokens, ab: Alphabet) -> Expr:
    e = _ref_act(ts, ab)
    while ts.peek().kind == "&":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return Meet(e, _ref_binder(ts, ab))
        e = Meet(e, _ref_act(ts, ab))
    return e


def _ref_act(ts: _RefTokens, ab: Alphabet) -> Expr:
    tok = ts.peek()
    if tok.kind == "{" or (tok.kind == "ident"
                           and ts.tokens[ts.i + 1].kind == "."
                           and tok.value not in ("mu", "nu")):
        pos = tok.pos
        letter = _ref_letter(ts, ab)
        if letter not in ab.letters:
            raise AlphabetError(f"undeclared letter {letter!r} at position {pos}")
        ts.expect(".")
        return Act(letter, _ref_act(ts, ab))
    return _ref_atom(ts, ab)


def _ref_atom(ts: _RefTokens, ab: Alphabet) -> Expr:
    tok = ts.peek()
    if tok.kind == "0":
        ts.next()
        return ZERO
    if tok.kind == "(":
        ts.next()
        e = _ref_expr(ts, ab)
        ts.expect(")")
        return e
    if tok.kind == "ident":
        if tok.value == "top":
            ts.next()
            return TOP
        return Var(_ref_var_name(ts))
    raise ParseError(f"expected an expression, found {tok.value!r}", tok.pos)


def reference_parse_formula(text: str, alphabet: Alphabet,
                            require_closed: bool = False) -> MuLtlFormula:
    """Parse a muLTL formula over a powerset alphabet into NNF."""
    if alphabet.props is None:
        raise AlphabetError("formulas need an alphabet with a proposition basis")
    ts = _RefTokens(reference_tokenize(text))
    phi = _ref_formula(ts, alphabet)
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.pos)
    if require_closed and free_vars(phi):
        names = ", ".join(sorted(free_vars(phi)))
        raise ParseError(f"formula is not closed (free: {names})", 0)
    return phi


def _ref_formula(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    tok = ts.peek()
    if tok.kind == "ident" and tok.value in ("mu", "nu"):
        return _ref_fbinder(ts, ab)
    return _ref_iff(ts, ab)


def _ref_fbinder(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    kw = ts.next().value
    var = _ref_var_name(ts)
    if var in ab.props:
        raise ParseError(f"variable {var!r} clashes with a proposition",
                         ts.tokens[ts.i - 1].pos)
    ts.expect(".")
    body = _ref_formula(ts, ab)
    return MuF(var, body) if kw == "mu" else NuF(var, body)


def _ref_iff(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    phi = _ref_impl(ts, ab)
    while ts.peek().kind == "<->":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return iff(phi, _ref_fbinder(ts, ab))
        phi = iff(phi, _ref_impl(ts, ab))
    return phi


def _ref_impl(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    phi = _ref_or(ts, ab)
    if ts.peek().kind == "->":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return implies(phi, _ref_fbinder(ts, ab))
        return implies(phi, _ref_impl(ts, ab))  # right-associative
    return phi


def _ref_or(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    phi = _ref_and(ts, ab)
    while ts.peek().kind == "|":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return Or(phi, _ref_fbinder(ts, ab))
        phi = Or(phi, _ref_and(ts, ab))
    return phi


def _ref_and(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    phi = _ref_funary(ts, ab)
    while ts.peek().kind == "&":
        ts.next()
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.value in ("mu", "nu"):
            return And(phi, _ref_fbinder(ts, ab))
        phi = And(phi, _ref_funary(ts, ab))
    return phi


def _ref_funary(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    tok = ts.peek()
    if tok.kind == "ident" and tok.value == "O":
        ts.next()
        return Next(_ref_funary(ts, ab))
    if tok.kind == "~":
        ts.next()
        name = ts.expect("ident")
        if name.value not in ab.props:
            raise AlphabetError(f"undeclared proposition {name.value!r}")
        return NegProp(name.value)
    if tok.kind == "!":
        ts.next()
        return negate_formula(_ref_funary(ts, ab))
    return _ref_fatom(ts, ab)


def _ref_fatom(ts: _RefTokens, ab: Alphabet) -> MuLtlFormula:
    tok = ts.peek()
    if tok.kind == "(":
        ts.next()
        phi = _ref_formula(ts, ab)
        ts.expect(")")
        return phi
    if tok.kind == "ident":
        if tok.value == "ff":
            ts.next()
            return BOT
        if tok.value == "tt":
            ts.next()
            return TT
        name = _ref_var_name(ts)
        return Prop(name) if name in ab.props else FVar(name)
    raise ParseError(f"expected a formula, found {tok.value!r}", tok.pos)



# ---------------------------------------------------------------------------
# Reference closure: members are built by substituting whole binders and
# deduplicated by alpha key. Super-polynomial, but plainly the definition.
# ---------------------------------------------------------------------------

def reference_closure(e: Expr, alphabet: Alphabet) -> list[Expr]:
    """The members of the closure of a closed expression, root first, found
    breadth-first under one-step decomposition: a.f steps to f, sums and
    meets to their parts, and a fixpoint to its unfolding."""
    if free_vars(e):
        raise ClosureError("closure is only defined for closed expressions")
    for sub in subexpressions(e):
        if isinstance(sub, Act) and sub.letter not in alphabet.letters:
            raise ClosureError(f"undeclared letter {sub.letter!r}")
    members: list[Expr] = [e]
    keys = {alpha_key(e)}
    for m in members:  # grows while walked
        if isinstance(m, (Mu, Nu)):
            parts = [substitute(m.body, m.var, m)]
        else:
            parts = [getattr(m, f) for f in ("body", "left", "right")
                     if hasattr(m, f)]
        for t in parts:
            if alpha_key(t) not in keys:
                keys.add(alpha_key(t))
                members.append(t)
    return members


# ---------------------------------------------------------------------------
# Reference occurrence graph: the one-expression walk as it was before graphs
# of several roots, which merges no binder.
# ---------------------------------------------------------------------------

_DEADLOCK = {"zero": DEAD_ZERO, "top": DEAD_TOP}


def reference_occurrence_graph(e: Expr, alphabet: Alphabet
                               ) -> OccurrenceGraph:
    """The occurrence graph of one closed expression, built in one pass,
    with ``roots`` its one root."""
    kinds: list[str] = []
    letters: list[Optional[str]] = []
    succs: list[tuple[int, ...]] = []
    enter: list[tuple[Optional[str], int]] = []  # the move into each node
    moves: list[tuple[tuple[Optional[str], int], ...]] = []
    level: dict[int, int] = {}  # binder node -> its alternation level
    shared: dict[tuple, int] = {}
    declared = frozenset(alphabet.letters)

    def new(kind: str, letter: Optional[str], succ: tuple[int, ...]) -> int:
        i = len(kinds)
        kinds.append(kind)
        letters.append(letter)
        succs.append(succ)
        if letter is not None:  # an act is read on the move into it
            body = succ[0]
            enter.append((letter, _DEADLOCK.get(kinds[body], body)))
            moves.append((enter[i],))
        else:
            enter.append((None, _DEADLOCK.get(kind, i)))
            moves.append(tuple(enter[s] for s in succ))
        return i

    def go(t: Expr, scope: dict[str, int], up: int) -> int:
        if isinstance(t, Var):
            if t.name not in scope:
                raise ClosureError(
                    "closure is only defined for closed expressions")
            return scope[t.name]
        if isinstance(t, (Mu, Nu)):
            i = new("mu" if isinstance(t, Mu) else "nu", None, ())
            level[i] = 0 if up < 0 else level[up] + (kinds[up] != kinds[i])
            body = go(t.body, {**scope, t.var: i}, i)
            succs[i] = (body,)
            moves[i] = (enter[body],)
            return i
        if isinstance(t, Act):
            if t.letter not in declared:
                raise ClosureError(f"undeclared letter {t.letter!r}")
            key = ("act", t.letter, (go(t.body, scope, up),))
        elif isinstance(t, (Sum, Meet)):
            kind = "sum" if isinstance(t, Sum) else "meet"
            pair = (go(t.left, scope, up), go(t.right, scope, up))
            key = (kind, None, pair if pair[0] != pair[1] else pair[:1])
        elif isinstance(t, Zero):
            key = ("zero", None, ())
        elif isinstance(t, Top):
            key = ("top", None, ())
        else:
            raise TypeError(f"not an expression: {t!r}")
        i = shared.get(key)
        if i is None:
            i = shared[key] = new(*key)
        return i

    root = go(e, {}, -1)
    neutral = 2 * (max(level.values()) + 1) if level else 0
    priority = tuple(2 * level[i] + (kinds[i] == "mu") if i in level
                     else neutral for i in range(len(kinds)))
    return OccurrenceGraph(tuple(kinds), tuple(letters), tuple(succs),
                           priority, tuple(moves), (root,))


# ---------------------------------------------------------------------------
# Reference game: the arena keyed by tuples in a dict, the flat arena in
# which every binder is a position, and the set-based Zielonka solver that
# the flat-array ones replaced.
# ---------------------------------------------------------------------------

_OWNER = {"act": ELOISE, "zero": ELOISE, "sum": ELOISE, "mu": ELOISE,
          "nu": ELOISE, "top": ABELARD, "meet": ABELARD}


def reference_build_arena(e: Expr, w: Lasso,
                          graph: Optional[OccurrenceGraph] = None
                          ) -> ParityGame:
    """The reachable evaluation-game arena for (w, e), its positions keyed
    by (lasso position, graph node) tuples in a dict."""
    if graph is None:
        if free_vars(e):
            raise GameError("the evaluation game needs a closed expression")
        graph = occurrence_graph(e, w.alphabet)
    kinds, letters, succs = graph.kinds, graph.letters, graph.succs
    priority = graph.priority
    word = [w.letter_at(i) for i in range(w.length)]
    nxt = [w.succ(i) for i in range(w.length)]

    order: list[tuple[int, int]] = [(0, graph.roots[0])]
    index: dict[tuple[int, int], int] = {order[0]: 0}
    owners: list[int] = []
    prios: list[int] = []
    edges: list[tuple[int, ...]] = []
    for i, v in order:  # grows while it is walked: breadth-first
        kind = kinds[v]
        owners.append(_OWNER[kind])
        prios.append(priority[v])
        if kind == "act":
            targets = [(nxt[i], succs[v][0])] if word[i] == letters[v] else []
        else:
            targets = [(i, s) for s in succs[v]]
        moves = []
        for pos in targets:
            j = index.get(pos)
            if j is None:
                j = index[pos] = len(order)
                order.append(pos)
            moves.append(j)
        edges.append(tuple(moves))
    return ParityGame(tuple(owners), tuple(prios), tuple(edges), 0,
                      tuple(order))


def reference_contracted_arena(e: Expr, w: Lasso,
                               graph: Optional[OccurrenceGraph] = None
                               ) -> ParityGame:
    """The arena of ``reference_build_arena`` with every act read on the
    move into it, its positions keyed by (lasso position, graph node) in a
    dict. An act node is a position only as the root or as the body of an
    act. Every 0, top and letter mismatch is one of two shared deadlocks,
    keyed (None, -1) for Eloise's and (None, -2) for Abelard's, which take
    the neutral priority and are added when first reached."""
    if graph is None:
        if free_vars(e):
            raise GameError("the evaluation game needs a closed expression")
        graph = occurrence_graph(e, w.alphabet)
    kinds, letters, succs = graph.kinds, graph.letters, graph.succs
    word = [w.letter_at(i) for i in range(w.length)]
    nxt = [w.succ(i) for i in range(w.length)]
    deadlock = {"zero": (None, -1), "top": (None, -2)}

    def land(i: int, v: int) -> tuple:
        """Where a move to node v at lasso position i ends."""
        return deadlock.get(kinds[v], (i, v))

    def read(i: int, v: int) -> tuple:
        """Where the act node v, read at lasso position i, leads."""
        if word[i] != letters[v]:
            return deadlock["zero"]
        return land(nxt[i], succs[v][0])

    order: list[tuple] = [(0, graph.roots[0])]
    index: dict[tuple, int] = {order[0]: 0}
    owners: list[int] = []
    prios: list[int] = []
    edges: list[tuple[int, ...]] = []
    for i, v in order:  # grows while it is walked: breadth-first
        if i is None:  # a shared deadlock
            owners.append(ELOISE if v == -1 else ABELARD)
            prios.append(max(graph.priority))
            targets = []
        else:
            owners.append(_OWNER[kinds[v]])
            prios.append(graph.priority[v])
            if kinds[v] == "act":
                targets = [read(i, v)]
            else:
                targets = [read(i, s) if kinds[s] == "act" else land(i, s)
                           for s in succs[v]]
        moves = []
        for pos in targets:
            j = index.get(pos)
            if j is None:
                j = index[pos] = len(order)
                order.append(pos)
            moves.append(j)
        edges.append(tuple(moves))
    return ParityGame(tuple(owners), tuple(prios), tuple(edges), 0,
                      tuple(order))


_REF_DEADLOCKS = {"act": (DEAD_ZERO, DEAD_TOP), "zero": (DEAD_ZERO, DEAD_TOP),
                  "sum": (DEAD_ZERO, DEAD_TOP), "top": (DEAD_TOP, DEAD_ZERO),
                  "meet": (DEAD_TOP, DEAD_ZERO)}


def _reference_settle(graph: OccurrenceGraph, letter: str, step: list,
                      moves: list, s: int) -> int:
    """Resolve the non-binder node s at a vertex that reads the letter, as
    ``game._settle`` did when every binder was a position: ``step`` holds
    each binder as its own slot code from the start."""
    kinds, n = graph.kinds, len(step)
    todo = [s]
    while todo:
        v = todo.pop()
        codes = []
        for a, x in graph.moves[v]:
            if a is not None:
                x = DEAD_ZERO if a != letter else x if x < 0 else n + x
            elif x >= 0:
                if step[x] is None:
                    todo += (v, x)
                    break
                x = step[x]
            codes.append(x)
        else:
            moves[v] = codes = (*codes,)
            own, opponent = _REF_DEADLOCKS[kinds[v]]
            if opponent in codes:
                step[v] = opponent
                continue
            x = codes[0] if codes else own
            if len(codes) == 2:
                y = codes[1]
                if x == own or x == y:
                    x = y
                elif y != own:
                    x = v
            step[v] = x
    return step[s]


def reference_resolved_arena(graph: OccurrenceGraph, words: WordGraph
                             ) -> ParityGame:
    """The flat-array arena of ``game.build_arena`` as it was while every
    binder the game reached was a position: only non-binders are resolved
    at their vertex's letter, and a chain of slots ends at the first
    binder. Same arguments, start numbering and labels."""
    nodes, m = len(graph.kinds), len(graph.roots)
    word, nxt, roots = words
    at = [i for i in roots for _ in graph.roots]
    node = [*graph.roots] * len(roots)
    index = [-1] * (len(word) * nodes + 2)
    for k in range(len(at) - 1, -1, -1):
        index[at[k] * nodes + node[k]] = k
    binders = [v if k == "mu" or k == "nu" else None
               for v, k in enumerate(graph.kinds)]
    tables = {c: ([*binders], [None] * nodes) for c in set(word)}
    steps = [tables[c][0] for c in word]
    codes = [tables[c][1] for c in word]
    edges: list[tuple[int, ...]] = []
    for i, v in zip(at, node):
        if i is None:
            edges.append(())
            continue
        out = codes[i][v]
        if out is None:
            if steps[i][v] != v:
                _reference_settle(graph, word[i], steps[i], codes[i], v)
                out = codes[i][v]
            else:
                (a, x), = graph.moves[v]
                if a is not None:
                    x = (DEAD_ZERO if a != word[i] else x if x < 0
                         else nodes + x)
                out = codes[i][v] = (x,)
        moves = []
        for code in out:
            t = i
            if code >= nodes:
                t, code = nxt[i], code - nodes
            slot = t * nodes + code if code >= 0 else code
            j = index[slot]
            if j < 0:
                chain = []
                while True:
                    s = code
                    if s >= 0:
                        code = steps[t][s]
                        if code is None:
                            code = _reference_settle(graph, word[t],
                                                     steps[t], codes[t], s)
                    if code == s:
                        j = index[slot] = len(at)
                        at.append(t if s >= 0 else None)
                        node.append(s)
                        break
                    chain.append(slot)
                    if code >= nodes:
                        t, code = nxt[t], code - nodes
                    slot = t * nodes + code if code >= 0 else code
                    j = index[slot]
                    if j >= 0:
                        break
                for slot in chain:
                    index[slot] = j
            moves.append(j)
        edges.append(tuple(moves))
    owner = [*map(_OWNER.__getitem__, graph.kinds), ABELARD, ELOISE]
    neutral = max(graph.priority)
    priority = [*graph.priority, neutral, neutral]
    return ParityGame(tuple(owner[v] for v in node),
                      tuple(priority[v] for v in node),
                      tuple(edges), 0, tuple(zip(at, node)))


def reference_start_arena(graph: OccurrenceGraph, words: WordGraph
                          ) -> ParityGame:
    """The flat-array arena of ``game.build_arena`` as it was while every
    start was a position of its own: the start of word root k and
    expression root x is position k * m + x, labelled with those roots and
    keeping every move of its root, and every other pair is resolved by
    ``game._settle`` and its chain of slots as in ``build_arena``. Same
    arguments and labels; its ``starts`` are its first positions, one per
    word root and expression root."""
    nodes, m = len(graph.kinds), len(graph.roots)
    word, nxt, roots = words
    at = [i for i in roots for _ in graph.roots]
    node = [*graph.roots] * len(roots)
    index = [-1] * (len(word) * nodes + 2)
    for k in range(len(at) - 1, -1, -1):  # the first start keeps the slot
        index[at[k] * nodes + node[k]] = k
    tables = {c: ([None] * nodes, [None] * nodes) for c in set(word)}
    steps = [tables[c][0] for c in word]
    codes = [tables[c][1] for c in word]
    edges: list[tuple[int, ...]] = []
    for i, v in zip(at, node):
        if i is None:
            edges.append(())
            continue
        out = codes[i][v]
        if out is None:  # a start's root, not yet resolved
            _settle(graph, word[i], steps[i], codes[i], v)
            out = codes[i][v]
        moves = []
        for code in out:
            t = i
            if code >= nodes:
                t, code = nxt[i], code - nodes
            slot = t * nodes + code if code >= 0 else code
            j = index[slot]
            if j < 0:
                chain = []
                while True:
                    s = code
                    if s >= 0:
                        code = steps[t][s]
                        if code is None:
                            code = _settle(graph, word[t], steps[t],
                                           codes[t], s)
                    if code == s or j == -2:
                        j = index[slot] = len(at)
                        at.append(t if s >= 0 else None)
                        node.append(s)
                        break
                    index[slot] = -2
                    chain.append(slot)
                    if code >= nodes:
                        t, code = nxt[t], code - nodes
                    slot = t * nodes + code if code >= 0 else code
                    j = index[slot]
                    if j >= 0:
                        break
                for slot in chain:
                    index[slot] = j
            moves.append(j)
        edges.append(tuple(moves))
    owner = [*map(_OWNER.__getitem__, graph.kinds), ABELARD, ELOISE]
    neutral = max(graph.priority)
    priority = [*graph.priority, neutral, neutral]
    return ParityGame(tuple(owner[v] for v in node),
                      tuple(priority[v] for v in node), tuple(edges), 0,
                      tuple(zip(at, node)), tuple(range(len(roots) * m)))


def _attractor(g: ParityGame, preds: list[list[int]], alive: set[int],
               target: set[int], player: int
               ) -> tuple[set[int], dict[int, int]]:
    """Least set containing target from which player forces reaching it;
    opponent positions with no live successors join vacuously."""
    out_count = {v: sum(1 for s in g.edges[v] if s in alive) for v in alive}
    attr = set(target)
    strategy: dict[int, int] = {}
    queue = list(target)
    # opponent deadlocks join the attractor of any target
    for v in alive:
        if v not in attr and g.owners[v] != player and out_count[v] == 0:
            attr.add(v)
            queue.append(v)
    while queue:
        t = queue.pop()
        for p in preds[t]:
            if p not in alive or p in attr:
                continue
            if g.owners[p] == player:
                attr.add(p)
                strategy[p] = t
                queue.append(p)
            else:
                out_count[p] -= 1
                if out_count[p] == 0:
                    attr.add(p)
                    queue.append(p)
    return attr, strategy


def reference_solve_parity(g: ParityGame) -> Solution:
    """Zielonka's recursive algorithm on sets, min-parity convention."""
    n = len(g.owners)
    preds: list[list[int]] = [[] for _ in range(n)]
    for v, succs in enumerate(g.edges):
        for s in succs:
            preds[s].append(v)

    winner: list[Optional[int]] = [None] * n
    strat: dict[int, dict[int, int]] = {ELOISE: {}, ABELARD: {}}

    def opp(p: int) -> int:
        return ABELARD if p == ELOISE else ELOISE

    def mark(region: set[int], player: int, strategy: dict[int, int]):
        for v in region:
            winner[v] = player
        for v, t in strategy.items():
            if v in region:
                strat[player][v] = t

    def zielonka(alive: set[int]):
        """Classify a deadlock-free total subgame."""
        if not alive:
            return
        d = min(g.priorities[v] for v in alive)
        sigma = ELOISE if d % 2 == 0 else ABELARD
        target = {v for v in alive if g.priorities[v] == d}
        attr, astrat = _attractor(g, preds, alive, target, sigma)
        rest = alive - attr
        zielonka(rest)
        losing = {v for v in rest if winner[v] == opp(sigma)}
        if not losing:
            # sigma wins everywhere: attractor strategy into the top
            # priority, any live move from there
            mark(attr, sigma, astrat)
            for v in attr:
                if g.owners[v] == sigma and v not in strat[sigma]:
                    for s in g.edges[v]:
                        if s in alive:
                            strat[sigma][v] = s
                            break
            return
        battr, bstrat = _attractor(g, preds, alive, losing, opp(sigma))
        mark(battr - losing, opp(sigma), bstrat)
        for v in alive - battr:
            winner[v] = None
        zielonka(alive - battr)

    alive = set(range(n))
    dead_e, stratg_e = _attractor(g, preds, alive, set(), ELOISE)
    mark(dead_e, ELOISE, stratg_e)
    alive -= dead_e
    dead_a, stratg_a = _attractor(g, preds, alive, set(), ABELARD)
    mark(dead_a, ABELARD, stratg_a)
    alive -= dead_a
    # zielonka refers to itself; unbinding it breaks that cycle, so the
    # arena's working sets are freed on return, not by the cyclic collector
    try:
        zielonka(alive)
    finally:
        del zielonka
    assert all(w is not None for w in winner)
    return Solution(tuple(winner), strat[ELOISE], strat[ABELARD])


def depth_priorities(graph: OccurrenceGraph) -> tuple[int, ...]:
    """Node priorities by nesting depth d, the number of binders above a
    binder: 2d for nu, 2d+1 for mu, one neutral value above these for other
    nodes. A node that reaches a binder other than through it lies on the
    binder's path from the root, so a breadth-first walk first meets each
    binder from its parent, and counts the binders above it on the way."""
    binder = [k in ("mu", "nu") for k in graph.kinds]
    above = {graph.roots[0]: 0}  # node -> binders above it, on its first path
    order = [graph.roots[0]]
    for v in order:  # grows while walked
        for s in graph.succs[v]:
            if s not in above:
                above[s] = above[v] + binder[v]
                order.append(s)
    depth = {v: d for v, d in above.items() if binder[v]}
    neutral = 2 * (max(depth.values()) + 1) if depth else 0
    return tuple(2 * depth[v] + (graph.kinds[v] == "mu") if v in depth
                 else neutral for v in range(len(graph.kinds)))


# ---------------------------------------------------------------------------
# Reference lasso steps: the character scanner, the fold that rebuilds the
# period at each step, and the masks built by an OR at each position, which
# the findall reader, the counted folds and the translated byte code
# replaced.
# ---------------------------------------------------------------------------

def reference_parse_lasso(text: str, alphabet: Alphabet) -> Lasso:
    """A lasso u(v), read one position at a time: whitespace skipped, a
    braced letter read as an expression reads it, otherwise the longest
    plain letter that matches."""
    letters: list[str] = []

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
            if not letters:
                letters.extend(sorted(alphabet.letters, key=len, reverse=True))
            for letter in letters:
                if chunk.startswith(letter, i):
                    out.append(letter)
                    i += len(letter)
                    break
            else:
                raise ParseError(f"no letter matches here: {quoted(chunk[i:])}",
                                 offset + i)
        return out

    lead = len(text) - len(text.lstrip())
    text = text.strip()
    open_i = text.find("(")
    if open_i < 0 or not text.endswith(")"):
        raise ParseError("lasso must have the form u(v)", 0)
    prefix = scan(text[:open_i], lead)
    period = scan(text[open_i + 1:-1], lead + open_i + 1)
    if not period:
        raise ParseError("lasso period must be nonempty", lead + open_i)
    return Lasso(tuple(prefix), tuple(period), alphabet)


def reference_lasso_normalize(w: Lasso) -> Lasso:
    """Fold the prefix into the period one letter at a time, rebuilding the
    period at each fold, then take the period's primitive root."""
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


def reference_letter_masks(w: Lasso) -> dict[str, int]:
    """Each letter's mask, ORing the bit of each of its positions."""
    masks: dict[str, int] = {}
    for i, letter in enumerate(w.prefix + w.period):
        masks[letter] = masks.get(letter, 0) | 1 << i
    return masks


# ---------------------------------------------------------------------------
# Reference bounded search: one game per enumerated lasso, over lassos
# enumerated by normalising every candidate, which the word-graph batches and
# the tuple test of normality replaced.
# ---------------------------------------------------------------------------

def reference_enumerate_lassos(alphabet: Alphabet, max_prefix: int,
                               max_period: int) -> Iterator[Lasso]:
    """Every candidate u(v) within the bounds, in length-lexicographic order,
    that ``lasso_normalize`` leaves as it is."""
    for name, bound, least in (("max-prefix", max_prefix, 0),
                               ("max-period", max_period, 1)):
        if bound < least:
            raise SemanticsError(
                f"{name} must be at least {least}, not {bound}")
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


def reference_equiv_bounded(e: Expr, f: Expr, alphabet: Alphabet,
                            max_prefix: int, max_period: int
                            ) -> Optional[Lasso]:
    """The first lasso, in enumeration order, whose games for e and f have
    different winners, each lasso with its own two arenas."""
    ge = occurrence_graph(e, alphabet)
    gf = occurrence_graph(f, alphabet)
    for w in reference_enumerate_lassos(alphabet, max_prefix, max_period):
        if member_game(e, w, ge) != member_game(f, w, gf):
            return w
    return None


def reference_inclusion_bounded(e: Expr, f: Expr, alphabet: Alphabet,
                                max_prefix: int, max_period: int
                                ) -> Optional[Lasso]:
    """The first lasso, in enumeration order, whose own game for
    e & complement(f) Eloise wins."""
    witness = Meet(e, algebra.complement(f, alphabet))
    gw = occurrence_graph(witness, alphabet)
    for w in reference_enumerate_lassos(alphabet, max_prefix, max_period):
        if member_game(witness, w, gw):
            return w
    return None


def reference_inclusion_sides(e: Expr, f: Expr, alphabet: Alphabet,
                              max_prefix: int, max_period: int
                              ) -> Optional[Lasso]:
    """The first lasso, in enumeration order, that e's game accepts and
    f's rejects, each lasso with its own two arenas. Both are built for
    every lasso, e's first, so a length that f's arena refuses is refused
    even where e rejects."""
    ge = occurrence_graph(e, alphabet)
    gf = occurrence_graph(f, alphabet)
    for w in reference_enumerate_lassos(alphabet, max_prefix, max_period):
        in_e, in_f = member_game(e, w, ge), member_game(f, w, gf)
        if in_e and not in_f:
            return w
    return None


def _reference_tail(word: tuple) -> tuple:
    """The normal lasso of a normal lasso's first tail."""
    u, v = word
    return (u[1:], v) if u else ((), v[1:] + v[:1])


def _reference_fresh(word: tuple, index: dict) -> dict:
    """The tails of word, itself first, up to the first one in index or
    already met, in order (a dict, for its order and its fast lookup)."""
    fresh: dict = {}
    while word not in index and word not in fresh:
        fresh[word] = None
        word = _reference_tail(word)
    return fresh


def reference_word_graphs(lassos, budget: int
                          ) -> Iterator[tuple[WordGraph, list[tuple]]]:
    """The normal lassos, in order, as the roots of word graphs over them
    and their tails, with each vertex's (prefix, period), walked as tuples:
    the builder that per-search lasso indices and a tail column replaced.
    A graph takes consecutive roots while it has at most ``budget``
    vertices, and at least one root."""
    words: list[tuple] = []
    index: dict[tuple, int] = {}
    letters: list[str] = []
    succ: list[int] = []
    roots: list[int] = []
    for w in lassos:
        root = (w.prefix, w.period)
        fresh = _reference_fresh(root, index)
        if roots and len(words) + len(fresh) > budget:
            yield WordGraph(letters, succ, roots), words
            words, index, letters, succ, roots = [], {}, [], [], []
            fresh = _reference_fresh(root, index)
        for word in fresh:
            index[word] = len(words)
            words.append(word)
        for u, v in fresh:
            letters.append(u[0] if u else v[0])
            succ.append(index[_reference_tail((u, v))])
        roots.append(index[root])
    if roots:
        yield WordGraph(letters, succ, roots), words


# ---------------------------------------------------------------------------
# Reference evaluators: Kleene iteration over frozensets of positions, which
# the bit-mask evaluators replaced.
# ---------------------------------------------------------------------------

def _reference_kleene(term: Term, w: Lasso, env, local) -> frozenset:
    env = dict(env) if env else {}
    missing = free_vars(term) - set(env)
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    full = frozenset(range(w.length))
    succ = [w.succ(i) for i in range(w.length)]
    memo: dict = {}

    def go(t: Term, env: dict) -> frozenset:
        key = (t, frozenset((v, env[v]) for v in free_vars(t)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(t, VARS):
            res = env[t.name]
        elif isinstance(t, BOTTOMS):
            res = frozenset()
        elif isinstance(t, TOPS):
            res = full
        elif isinstance(t, PREFIXES):
            body = go(t.body, env)
            res = frozenset(i for i in local(t) if succ[i] in body)
        elif isinstance(t, JOINS):
            res = go(t.left, env) | go(t.right, env)
        elif isinstance(t, MEETS):
            res = go(t.left, env) & go(t.right, env)
        elif isinstance(t, BINDERS):
            cur = frozenset() if isinstance(t, MUS) else full
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

    try:
        return go(term, env)
    finally:
        del go


def reference_eval_rll(e: Expr, w: Lasso, env=None) -> frozenset:
    with_letter: dict[str, list[int]] = {}
    for i in range(w.length):
        with_letter.setdefault(w.letter_at(i), []).append(i)

    def local(t):
        if isinstance(t, Act):
            return with_letter.get(t.letter, ())
        raise TypeError(f"not an expression: {t!r}")

    return _reference_kleene(e, w, env, local)


def reference_eval_multl(phi: MuLtlFormula, w: Lasso, env=None) -> frozenset:
    n = w.length
    props_at = [w.alphabet.letter_props(w.letter_at(i)) for i in range(n)]

    def local(t):
        if isinstance(t, Next):
            return range(n)
        if isinstance(t, Prop):
            return frozenset(i for i in range(n) if t.name in props_at[i])
        if isinstance(t, NegProp):
            return frozenset(i for i in range(n) if t.name not in props_at[i])
        raise TypeError(f"not a formula: {t!r}")

    return _reference_kleene(phi, w, env, local)


# ---------------------------------------------------------------------------
# Reference bit-mask evaluators: the recursive Kleene walk with a memo keyed
# on the node's id and the masks of its free variables, which the compiled
# program with one slot per node replaced.
# ---------------------------------------------------------------------------

def _reference_mask_kleene(term: Term, w: Lasso, env, local) -> frozenset:
    n, start = w.length, len(w.prefix)
    full, last = (1 << n) - 1, n - 1
    masks = {v: sum(1 << i for i in s) & full
             for v, s in (env or {}).items()}
    missing = free_vars(term) - set(masks)
    if missing:
        raise SemanticsError(f"unbound variables: {', '.join(sorted(missing))}")
    memo: dict = {}

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

    try:
        res = go(term, masks)
    finally:
        del go
    return frozenset(i for i, bit in enumerate(reversed(bin(res)[2:]))
                     if bit == "1")


def reference_mask_eval_rll(e: Expr, w: Lasso, env=None) -> frozenset:
    with_letter: dict[str, int] = {}
    for i in range(w.length):
        letter = w.letter_at(i)
        with_letter[letter] = with_letter.get(letter, 0) | 1 << i

    def local(t):
        if isinstance(t, Act):
            return with_letter.get(t.letter, 0)
        raise TypeError(f"not an expression: {t!r}")

    return _reference_mask_kleene(e, w, env, local)


def reference_mask_eval_multl(phi: MuLtlFormula, w: Lasso,
                              env=None) -> frozenset:
    n = w.length
    props_at = [w.alphabet.letter_props(w.letter_at(i)) for i in range(n)]

    def local(t):
        if isinstance(t, Next):
            return (1 << n) - 1
        if isinstance(t, Prop):
            return sum(1 << i for i in range(n) if t.name in props_at[i])
        if isinstance(t, NegProp):
            return sum(1 << i for i in range(n) if t.name not in props_at[i])
        raise TypeError(f"not a formula: {t!r}")

    return _reference_mask_kleene(phi, w, env, local)


# ---------------------------------------------------------------------------
# Reference translations: one isinstance walk per map, which the constructor
# tables over syntax.rebuild replaced.
# ---------------------------------------------------------------------------

def reference_complement(e: Expr, alphabet: Alphabet) -> Expr:
    if isinstance(e, Var):
        return e
    if isinstance(e, Zero):
        return TOP
    if isinstance(e, Top):
        return ZERO
    if isinstance(e, Act):
        others = [Act(b, TOP) for b in alphabet.letters if b != e.letter]
        return Sum(Act(e.letter, reference_complement(e.body, alphabet)),
                   sum_of(others))
    if isinstance(e, Sum):
        return Meet(reference_complement(e.left, alphabet),
                    reference_complement(e.right, alphabet))
    if isinstance(e, Meet):
        return Sum(reference_complement(e.left, alphabet),
                   reference_complement(e.right, alphabet))
    if isinstance(e, Mu):
        return Nu(e.var, reference_complement(e.body, alphabet))
    if isinstance(e, Nu):
        return Mu(e.var, reference_complement(e.body, alphabet))
    raise TypeError(f"not an expression: {e!r}")


def reference_to_multl(e: Expr, alphabet: Alphabet) -> MuLtlFormula:
    if alphabet.props is None:
        raise AlphabetError("translation to muLTL needs a powerset alphabet")
    if isinstance(e, Var):
        return FVar(e.name)
    if isinstance(e, Zero):
        return MuF("X", FVar("X"))
    if isinstance(e, Top):
        return NuF("X", FVar("X"))
    if isinstance(e, Act):
        present = alphabet.letter_props(e.letter)
        literals: list[MuLtlFormula] = [
            Prop(p) if p in present else NegProp(p) for p in alphabet.props]
        return and_of(literals + [Next(reference_to_multl(e.body, alphabet))])
    if isinstance(e, Sum):
        return Or(reference_to_multl(e.left, alphabet),
                  reference_to_multl(e.right, alphabet))
    if isinstance(e, Meet):
        return And(reference_to_multl(e.left, alphabet),
                   reference_to_multl(e.right, alphabet))
    if isinstance(e, Mu):
        return MuF(e.var, reference_to_multl(e.body, alphabet))
    if isinstance(e, Nu):
        return NuF(e.var, reference_to_multl(e.body, alphabet))
    raise TypeError(f"not an expression: {e!r}")


def reference_to_rll(phi: MuLtlFormula, alphabet: Alphabet) -> Expr:
    if alphabet.props is None:
        raise AlphabetError("translation from muLTL needs a powerset alphabet")
    if isinstance(phi, Bot):
        return ZERO
    if isinstance(phi, TopF):
        return TOP
    if isinstance(phi, Prop):
        return sum_of([Act(a, TOP) for a in alphabet.letters
                       if phi.name in alphabet.letter_props(a)])
    if isinstance(phi, NegProp):
        return sum_of([Act(a, TOP) for a in alphabet.letters
                       if phi.name not in alphabet.letter_props(a)])
    if isinstance(phi, FVar):
        return Var(phi.name)
    if isinstance(phi, Or):
        return Sum(reference_to_rll(phi.left, alphabet),
                   reference_to_rll(phi.right, alphabet))
    if isinstance(phi, And):
        return Meet(reference_to_rll(phi.left, alphabet),
                    reference_to_rll(phi.right, alphabet))
    if isinstance(phi, Next):
        body = reference_to_rll(phi.body, alphabet)
        return sum_of([Act(a, body) for a in alphabet.letters])
    if isinstance(phi, MuF):
        return Mu(phi.var, reference_to_rll(phi.body, alphabet))
    if isinstance(phi, NuF):
        return Nu(phi.var, reference_to_rll(phi.body, alphabet))
    raise TypeError(f"not a formula: {phi!r}")


def reference_negate_formula(phi: MuLtlFormula) -> MuLtlFormula:
    if isinstance(phi, Bot):
        return TT
    if isinstance(phi, TopF):
        return BOT
    if isinstance(phi, Prop):
        return NegProp(phi.name)
    if isinstance(phi, NegProp):
        return Prop(phi.name)
    if isinstance(phi, FVar):
        return phi
    if isinstance(phi, Or):
        return And(reference_negate_formula(phi.left),
                   reference_negate_formula(phi.right))
    if isinstance(phi, And):
        return Or(reference_negate_formula(phi.left),
                  reference_negate_formula(phi.right))
    if isinstance(phi, Next):
        return Next(reference_negate_formula(phi.body))
    if isinstance(phi, MuF):
        return NuF(phi.var, reference_negate_formula(phi.body))
    if isinstance(phi, NuF):
        return MuF(phi.var, reference_negate_formula(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# The Boolean-variable groupings of bool_taut and propositional_valid, each
# with its own truth table, as they were before the two shared one grouping
# ---------------------------------------------------------------------------

def reference_bool_variables(atoms: list[Expr], alphabet: Alphabet
                             ) -> tuple[dict, int]:
    """Each atom grouped with the first other unassigned atom that is its
    complement, or whose complement it is; complements recomputed per pair."""
    keys = [alpha_key(a) for a in atoms]
    var_of: dict[str, tuple[int, bool]] = {}
    nvars = 0
    for i, a in enumerate(atoms):
        if keys[i] in var_of:
            continue
        comp_key = alpha_key(algebra.complement(a, alphabet))
        partner = None
        for j in range(len(atoms)):
            if j != i and keys[j] not in var_of:
                if keys[j] == comp_key or \
                        alpha_key(algebra.complement(atoms[j], alphabet)) == keys[i]:
                    partner = j
                    break
        var_of[keys[i]] = (nvars, True)
        if partner is not None:
            var_of[keys[partner]] = (nvars, False)
        nvars += 1
    return var_of, nvars


def reference_prop_variables(phis: list[MuLtlFormula]) -> tuple[dict, int]:
    """The maximal non-lattice subformulas, each grouped with an earlier one
    that is its negation."""
    var_of: dict[str, tuple[int, bool]] = {}
    nvars = 0
    for atom in maximal_atoms(phis):
        neg = var_of.get(alpha_key(negate_formula(atom)))
        if neg is None:
            var_of[alpha_key(atom)] = (nvars, True)
            nvars += 1
        else:
            var_of[alpha_key(atom)] = (neg[0], not neg[1])
    return var_of, nvars


def _reference_truth_table(claim, premises, var_of, nvars, holds) -> bool:
    for assign in product((False, True), repeat=nvars):
        def value(t, assign=assign):
            return _skeleton_value(var_of, assign, t)
        if all(holds(p, value) for p in premises) and not holds(claim, value):
            return False
    return True


def reference_bool_taut(claim: Claim, premises: list[Claim],
                        atoms: list[Expr], alphabet: Alphabet) -> bool:
    """bool_taut's truth table over a given list of closed atoms."""
    var_of, nvars = reference_bool_variables(atoms, alphabet)
    if nvars > 16:
        raise RllError(f"{nvars} Boolean atoms exceed the cap of 16")

    def holds(c, value):
        l, r = value(c.lhs), value(c.rhs)
        return l == r if c.rel == "eq" else (not l) or r

    return _reference_truth_table(claim, premises, var_of, nvars, holds)


def reference_propositional_valid(claim: MuLtlFormula) -> bool:
    var_of, nvars = reference_prop_variables([claim])
    if nvars > 16:
        raise RllError(f"{nvars} propositional atoms exceed the cap of 16")
    return _reference_truth_table(claim, [], var_of, nvars,
                                  lambda phi, value: value(phi))


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
    return substitute(e, fv[0], Var(fv[0] + "_mut"))


def _mutate_formula(phi: MuLtlFormula) -> MuLtlFormula:
    """The universal formula mutation: negate the claim."""
    return negate_formula(phi)


def _walk_steps(steps, path=(), visible=()):
    """(path, step, the steps in scope before it), in checking order."""
    visible = list(visible)
    for i, s in enumerate(steps):
        yield path + (i,), s, visible[:]
        if s.hyp is not None:
            yield from _walk_steps(s.hyp.steps, path + (i, "hyp"), visible)
        visible.append(s)


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
    for path, step, visible in _walk_steps(d.steps):
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
                   _with_claim(d, path, _mutate_formula(claim)))
        for key in step.subst:
            value = _mutate_subst(d, step, key)
            if value is not None:
                yield (f"{step.sid}:subst[{key}]", _with_step(
                    d, path, lambda s: s.subst.update({key: value})))
        if step.hyp is not None:
            yield (f"{step.sid}:fresh",
                   _with_step(d, path, lambda s: s.hyp.fresh.reverse()))
        yield from _premise_mutants(d, path, step, visible)


def _premise_mutants(d: Derivation, path, step: Step, visible: list[Step]):
    """The step's two distinct premises reversed, and each premise
    re-pointed to the nearest earlier step in scope with another claim,
    unless the cited claims still prove the step: a still-valid bool_taut,
    or mono given an eq with the premise's sides."""
    edits = []
    if len(step.premises) == 2 and step.premises[0] != step.premises[1]:
        edits.append(("reverse", lambda s: s.premises.reverse()))
    cited = {s.sid: _claim_key(s.claim) for s in visible}
    for k, sid in enumerate(step.premises):
        other = next((s for s in reversed(visible) if sid in cited
                      and _claim_key(s.claim) != cited[sid]), None)
        if other is None or (step.rule == "mono" and other.claim.rel == "eq"
                             and _claim_key(other.claim)[1:] ==
                             cited[sid][1:]):
            continue
        edits.append((f"premise[{k}]->{other.sid}", lambda s, k=k,
                      o=other.sid: s.premises.__setitem__(k, o)))
    for label, edit in edits:
        m = _with_step(d, path, edit)
        if not (step.rule == "bool_taut"
                and _still_bool_valid(m, path, step.claim)):
            yield f"{step.sid}:{label}", m


def _claim_key(c) -> tuple:
    if isinstance(c, Claim):
        return c.rel, alpha_key(c.lhs), alpha_key(c.rhs)
    return ("formula", alpha_key(c))


def _mutate_subst(d: Derivation, step: Step, key: str):
    """A changed subst[key] that changes the rule instance, or None: another
    letter for a letter; a new name for a hole, or for a binder that binds an
    occurrence; 0 (ff for a formula) for an expression, or top (tt) if it is
    0 (ff) already, each a term or text as the value was. The atoms of a
    bool_taut step name its Boolean variables, not an instance, and are
    left alone."""
    value = step.subst[key]
    parse = parse_formula if d.system == "multl" else parse_expr
    if key in ("a", "b"):
        others = [c for c in d.alphabet.letters if c != value]
        return others[0] if others else None
    if key in ("X", "Y", "hole"):
        body = step.subst.get("e", step.subst.get("phi"))
        if isinstance(body, str):
            body = parse(body, d.alphabet)
        if key == "X" and not step.rule.startswith("duality") and \
                value not in free_vars(body):
            return None  # renaming a vacuous binder keeps the instance
        return value + "_mut"
    if key == "atoms":
        return None
    zero, top = ("ff", "tt") if d.system == "multl" else ("0", "top")
    if not isinstance(value, str):
        zero, top = parse(zero, d.alphabet), parse(top, d.alphabet)
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
    for _p, s, _v in _walk_steps(d.steps):
        if s.sid in step.premises and isinstance(s.claim, Claim):
            prems.append(s.claim)
    try:
        return bool_taut(claim, prems, None, d.alphabet)
    except Exception:
        return False


def _with_claim(d: Derivation, path, claim) -> Derivation:
    return _with_step(d, path, lambda s: setattr(s, "claim", claim))


def _with_step(d: Derivation, path, edit) -> Derivation:
    """A copy of d with edit applied to the step at path. Only the steps on
    the path and the lists holding them are copied; claims are immutable and
    shared."""
    m = replace(d, steps=list(d.steps))
    steps = m.steps
    target = None
    for key in path:
        if key == "hyp":
            steps = target.hyp.steps
            continue
        s = steps[key]
        hyp = s.hyp and replace(s.hyp, fresh=list(s.hyp.fresh),
                                steps=list(s.hyp.steps))
        target = steps[key] = replace(s, subst=dict(s.subst),
                                      premises=list(s.premises), hyp=hyp)
    edit(target)
    return m


# ---------------------------------------------------------------------------
# CLI: the full argparse tree, built on every call
# ---------------------------------------------------------------------------

def reference_build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rll",
        description="omega-regular languages as right-linear lattice "
                    "mu/nu-expressions")
    ap.add_argument("--version", action="version", version=f"rll {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--alphabet", help="expected plain alphabet, e.g. 'a b'")
        p.add_argument("--props", help="expected proposition basis, e.g. 'P Q'")

    p = sub.add_parser("parse", help="parse and reprint an expression file")
    p.add_argument("file")
    p.add_argument("--formula", action="store_true",
                   help="parse a muLTL formula file instead")
    common(p)
    p.set_defaults(fn=cli.cmd_parse)

    p = sub.add_parser("closure", help="print the occurrence graph")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cli.cmd_closure)

    p = sub.add_parser("apa-dot", help="print the automaton in DOT format")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cli.cmd_apa_dot)

    p = sub.add_parser("member", help="lasso membership (game and/or oracle)")
    p.add_argument("file")
    p.add_argument("lasso")
    p.add_argument("--via", choices=["game", "oracle", "both"], default="both")
    common(p)
    p.set_defaults(fn=cli.cmd_member)

    p = sub.add_parser("oracle-member",
                       help="lasso membership via the fixpoint oracle")
    p.add_argument("file")
    p.add_argument("lasso")
    common(p)
    p.set_defaults(fn=cli.cmd_member, via="oracle")

    p = sub.add_parser("complement", help="print the complement expression")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cli.cmd_complement)

    p = sub.add_parser("translate", help="translate between RLL and muLTL")
    p.add_argument("--to", choices=["ltl", "rll"], required=True)
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cli.cmd_translate)

    p = sub.add_parser("equiv", help="bounded equivalence search")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-period", type=int, default=3)
    common(p)
    p.set_defaults(fn=cli.cmd_equiv)

    p = sub.add_parser("incl", help="bounded inclusion search")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-prefix", type=int, default=2)
    p.add_argument("--max-period", type=int, default=3)
    common(p)
    p.set_defaults(fn=cli.cmd_incl)

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("file")
    p.set_defaults(fn=cli.cmd_check)

    p = sub.add_parser("selftest", help="run the built-in example suites")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--pairs", type=int, default=300)
    p.set_defaults(fn=cli.cmd_selftest)

    return ap


def reference_main(argv=None) -> int:
    args = reference_build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except cli.CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except cli.RllError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # parsing and evaluation recurse once per level of nesting
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
