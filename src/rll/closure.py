"""The game's occurrence graph: the automaton that membership runs on.

The occurrence graph is what the evaluation game runs on. Its nodes are the
subterm occurrences of one or more closed expressions, built in one pass
over the roots: each node has a kind, a letter (for a.f) and successor ids,
and a variable is not a node of its own but a back-edge to its binder's
node. Each node also lists its moves in the game, worked out once per
graph: a move into an act reads the act's letter and lands on its body,
and a move into a 0 or a top is that constant's deadlock, so the arena needs
a position for neither (an act keeps one only as a start: the arena
resolves the act of every other slot at its vertex's letter, see
``game.py``). Non-binder nodes are hash-consed on (kind, letter, successor ids), so
the copies of top, b.top and the like that complementation makes share one
node. A graph may hold several expressions, one root each, as the sides of a
bounded search do. Then a closed binder occurrence is looked up first, keyed
on its exact structure and its alternation level, and a hit returns the
existing node before the body is walked, so e and e + e share all of e's
nodes. No play leaves a closed subterm, and the level fixes the priorities
of every binder below it, so the merged copies have the same plays. A graph
of one expression merges no binder, since the key hashes the whole subterm
and would double the graph's cost for membership. Merged nodes have the same
owner, priority and successors, so merging changes the outcome of no play. A
binder's priority is 2l for nu and 2l+1 for mu, where l is its alternation
level (Emerson and Lei 1986): 0 for a binder with no binder above it, the
level of the nearest binder above it if that has the same kind, and one more
if not. Every other node takes one neutral value above all of these. An
infinite play passes through binders infinitely often, and the outermost of
those is unique. A binder below it has the same priority only if it has the
same kind, and a higher one otherwise, so the minimum priority seen
infinitely often has that binder's parity and its kind decides the winner.
Zielonka's recursion then goes no deeper than the alternation of mu and nu,
however deep the binders nest.

Each node is a subterm occurrence whose variables stand for their binders,
which makes the nodes the expression's Fischer-Ladner closure in Kozen's
sense, and the graph with its letter-reading moves the alternating parity
automaton whose acceptance game ``game.py`` solves. ``rll closure`` lists
the graph (``format_graph``): each node once, so the listing is linear in
the expression. ``rll apa-dot`` draws what the game can reach from the
root (``graph_dot``). ``check_printed`` bounds the printed size of terms
that share subtrees, as ``translate --to rll``'s do.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .syntax import (Act, Alphabet, Expr, Meet, Mu, Nu, RllError, Sum, Top,
                     Var, Zero, free_vars, print_expr)


class ClosureError(RllError):
    pass


# Move targets that are no node: the deadlocks that a 0 (or a letter that
# does not match) and a top lead to.
DEAD_ZERO, DEAD_TOP = -1, -2
_DEADLOCK = {"zero": DEAD_ZERO, "top": DEAD_TOP}


class OccurrenceGraph(NamedTuple):
    """The occurrence graph of one or more closed expressions.

    Node i has kind ``kinds[i]`` (act, sum, meet, mu, nu, zero or top), the
    letter ``letters[i]`` of an act node (None otherwise), successor ids
    ``succs[i]`` without repeats, and priority ``priority[i]``. ``roots``
    has the node of each whole expression the graph was built from, in
    order. Two roots may be one node (as for e and e), and only a graph of
    several roots merges binders: closed ones with the same structure and
    alternation level.

    ``moves[i]`` is node i's moves in the evaluation game, one (letter,
    target) pair per successor, in order, with every act read on the move
    into it. A successor a.f becomes (a, f): the move reads a and lands on f
    at the next word vertex. Any other successor s becomes (None, s), a move
    that stays at the vertex. An act node's own moves are its one (a, f).
    Wherever the target f or s is a 0 or a top, it is DEAD_ZERO or DEAD_TOP
    instead, that constant's deadlock; the constants themselves have no
    moves.
    """

    kinds: tuple[str, ...]
    letters: tuple[Optional[str], ...]
    succs: tuple[tuple[int, ...], ...]
    priority: tuple[int, ...]
    moves: tuple[tuple[tuple[Optional[str], int], ...], ...]
    roots: tuple[int, ...]


def occurrence_graph(e: Expr | Sequence[Expr],
                     alphabet: Alphabet) -> OccurrenceGraph:
    """The occurrence graph of a closed expression, or of several on one
    graph, built in one pass."""
    exprs = (e,) if isinstance(e, Expr) else tuple(e)
    kinds: list[str] = []
    letters: list[Optional[str]] = []
    succs: list[tuple[int, ...]] = []
    enter: list[tuple[Optional[str], int]] = []  # the move into each node
    moves: list[tuple[tuple[Optional[str], int], ...]] = []
    level: dict[int, int] = {}  # binder node -> its alternation level
    shared: dict[tuple, int] = {}
    # closed binder occurrence and its level -> its node, with several roots
    closed: Optional[dict[tuple, int]] = {} if len(exprs) > 1 else None

    def new(kind: str, letter: Optional[str], succ: tuple[int, ...]) -> int:
        """A new node, with the move into it and its moves; a binder's move
        into its body is set once the body is built."""
        i = len(kinds)
        kinds.append(kind)
        letters.append(letter)
        succs.append(succ)
        if letter is not None:  # an act is read on the move into it
            body = succ[0]
            enter.append((letter, _DEADLOCK.get(kinds[body], body)))
            moves.append((enter[i],))
        else:  # spelled out: tuple(map(...)) costs twice as much per node
            enter.append((None, _DEADLOCK.get(kind, i)))
            moves.append((enter[succ[0]], enter[succ[1]]) if len(succ) == 2
                         else (enter[succ[0]],) if succ else ())
        return i

    def go(t: Expr, scope: dict[str, int], up: int) -> int:
        """The node of t, whose nearest binder above is node up (or -1)."""
        if isinstance(t, Var):
            if t.name not in scope:
                raise ClosureError(
                    "closure is only defined for closed expressions")
            return scope[t.name]
        if isinstance(t, (Mu, Nu)):
            kind = "mu" if isinstance(t, Mu) else "nu"
            lvl = 0 if up < 0 else level[up] + (kinds[up] != kind)
            if closed is not None and not free_vars(t):
                key = (t, lvl)
                i = closed.get(key)
                if i is not None:
                    return i
                i = closed[key] = new(kind, None, ())
            else:
                i = new(kind, None, ())
            level[i] = lvl
            body = go(t.body, {**scope, t.var: i}, i)
            succs[i] = (body,)
            moves[i] = (enter[body],)
            return i
        if isinstance(t, Act):
            if t.letter not in alphabet.letter_set:
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

    try:
        roots = ()  # a loop: a generator costs a one-root graph 1 us more
        for x in exprs:
            roots += (go(x, {}, -1),)
    finally:
        del go  # go refers to itself; unbinding it frees its tables
    neutral = 2 * (max(level.values()) + 1) if level else 0
    priority = tuple(2 * level[i] + (kinds[i] == "mu") if i in level
                     else neutral for i in range(len(kinds)))
    return OccurrenceGraph(tuple(kinds), tuple(letters), tuple(succs),
                           priority, tuple(moves), roots)


# The Fischer-Ladner closure has left the package; bench/spans.py still
# wraps these two names when it installs a traced run, and never calls
# them. A benchmark-only change removes them with the closure counters.
fl_closure = assign_priorities = None


def _node(g: OccurrenceGraph, i: int) -> str:
    """Node i's id, kind and letter (an act's), as listed and drawn."""
    return " ".join((f"{i}:", g.kinds[i], *filter(None, (g.letters[i],))))


def format_graph(e: Expr, g: OccurrenceGraph) -> str:
    """The listing of ``rll closure``: the root, then each node of its graph
    once, with its successor ids and its priority."""
    lines = [f"root: {print_expr(e)}", f"root node: {g.roots[0]}"]
    for i, (succ, p) in enumerate(zip(g.succs, g.priority)):
        arrow = " -> " + " ".join(map(str, succ)) if succ else ""
        lines.append(f"{_node(g, i)}{arrow} [p={p}]")
    return "\n".join(lines)


# each deadlock's DOT name, shape and label
_DOT_DEADLOCKS = {DEAD_ZERO: ("dead_zero", "diamond", "dead 0"),
                  DEAD_TOP: ("dead_top", "box", "dead top")}


def graph_dot(g: OccurrenceGraph, alphabet: Alphabet) -> str:
    """DOT rendering of the automaton the game runs on: the nodes that moves
    reach from the root, in the order first reached, and each move as an
    edge labelled with the letter it reads. A constant root is its
    deadlock, as a move into it would be. Each deadlock is drawn where a
    move leads to it, and Eloise's also where a move reads a letter of an
    alphabet with others, since at any other letter that move ends there.
    Abelard's nodes (meets, and his deadlock) are boxes, Eloise's diamonds;
    each label has the node's priority in the game, a deadlock's the
    neutral one."""
    root = g.roots[0]
    start = _DEADLOCK.get(g.kinds[root], root)
    order, seen = [start], {start}
    for v in order:  # grows while walked
        for _a, x in g.moves[v] if v >= 0 else ():
            if x not in seen:
                seen.add(x)
                order.append(x)
    if DEAD_ZERO not in seen and len(alphabet.letters) > 1 and any(
            a is not None for v in order if v >= 0 for a, _x in g.moves[v]):
        order.append(DEAD_ZERO)
    dot = {v: (f"n{v}", "box" if g.kinds[v] == "meet" else "diamond",
               _node(g, v), g.priority[v]) if v >= 0
           else (*_DOT_DEADLOCKS[v], max(g.priority)) for v in order}
    lines = ["digraph apa {", "  rankdir=LR;"]
    for v, (name, shape, text, p) in dot.items():
        extra = ", penwidth=2" if v == start else ""
        lines.append(f'  {name} [shape={shape}, label="{text} [p={p}]"'
                     f"{extra}];")
    for v in order:
        for a, x in g.moves[v] if v >= 0 else ():
            label = f' [label="{a}"]' if a is not None else ""
            lines.append(f"  {dot[v][0]} -> {dot[x][0]}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"


MAX_LISTING = 2**24  # characters the terms of one printout may take


def _printed(t: Expr, memo: dict[int, int]) -> int:
    """An upper bound on len(print_expr(t)): per node, its name and 7 more
    characters. Memoised on node identity, since terms may share subtrees."""
    if id(t) not in memo:
        memo[id(t)] = 7
        for f in t.__dataclass_fields__:  # a name or a part
            x = getattr(t, f)
            memo[id(t)] += len(x) if isinstance(x, str) else _printed(x, memo)
    return memo[id(t)]


def check_printed(what: str, terms: Iterable[Expr]):
    """Refuse, with a ClosureError, terms whose printed forms may take over
    MAX_LISTING characters in all, before any is printed."""
    memo: dict[int, int] = {}
    size = sum(_printed(t, memo) for t in terms)
    if size > MAX_LISTING:
        raise ClosureError(f"the {what} may take {size} characters, over "
                           f"the cap of {MAX_LISTING}")


