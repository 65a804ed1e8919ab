"""The game's occurrence graph, and the paper's Fischer-Ladner closure.

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

The closure is the paper's view of the same automaton, kept for ``rll
closure`` and ``rll apa-dot``. It is the least set containing the root and
closed under one-step decomposition: a.f steps to f, sums and meets step to
their components, and fixpoints step to their unfolding. Members are
discovered breadth-first from the root and deduplicated up to bound-variable
renaming. Every member is the meaning of one subterm occurrence, its free
variables standing for their binders' members, so one walk over the
occurrences finds them all without unfolding a binder. Members are compared
by interned keys in de Bruijn's style: a variable bound inside the occurrence
is its index, one bound outside is its binder's member key. A member's
subterms are the keys reachable from its key. Member expressions are built
only to be listed, and a listing whose members could print over MAX_LISTING
characters is refused before any is printed (``check_printed``, which
bounds any terms' printed size). ``export_dot`` draws the closure as an
alternating automaton: members are states, act edges are letter
transitions, the other edges epsilon transitions; top and meet members are
universal (boxes), the others existential (diamonds).

Closure priorities pick the Kahn topological order r of the subformula order
on members (discovery-order tie-breaks), and set priority 2r+1 on
mu-members, 2r on everything else. Ranks are injective and monotone, so along
any infinite trace the minimum priority seen infinitely often belongs to the
subformula-minimum member, whose binder decides the winner (mu-members odd,
nu-members even). Non-fixpoint members take the even value 2r; this is
harmless because a never-stabilizing trace's minimum infinitely-occurring
member is always a fixpoint expression.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
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
    order, and ``root`` is the first. Two roots may be one node (as for e
    and e), and only a graph of several roots merges binders: closed ones
    with the same structure and alternation level.

    ``moves[i]`` is node i's moves in the evaluation game, one (letter,
    target) pair per successor, in order, with every act read on the move
    into it. A successor a.f becomes (a, f): the move reads a and lands on f
    at the next word vertex. Any other successor s becomes (None, s), a move
    that stays at the vertex. An act node's own moves are its one (a, f).
    Wherever the target f or s is a 0 or a top, it is DEAD_ZERO or DEAD_TOP
    instead, that constant's deadlock; the constants themselves have no
    moves.
    """

    root: int
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
    return OccurrenceGraph(roots[0], tuple(kinds), tuple(letters),
                           tuple(succs), priority, tuple(moves), roots)


@dataclass(frozen=True)
class FlClosure:
    """The closure of ``root``, with decomposition edges and priorities.

    ``edges`` holds (source index, target index, kind) with kind one of
    ``act:<letter>``, ``sum-left``, ``sum-right``, ``meet-left``,
    ``meet-right``, ``unfold``. ``subformula_pairs`` is the subformula order
    restricted to members, as index pairs (i, j) meaning member i occurs in
    member j. ``priority`` is None until assign_priorities has run.
    """

    root: Expr
    members: tuple[Expr, ...]
    edges: tuple[tuple[int, int, str], ...]
    subformula_pairs: frozenset[tuple[int, int]]
    alphabet: Alphabet
    priority: Optional[tuple[int, ...]] = None


# each constructor's parts, with the kind of the edge that steps to each
_PARTS = {Act: (("body", "act:{}"),), Sum: (("left", "sum-left"),
                                            ("right", "sum-right")),
          Meet: (("left", "meet-left"), ("right", "meet-right")),
          Mu: (("body", "unfold"),), Nu: (("body", "unfold"),),
          Zero: (), Top: ()}


def fl_closure(e: Expr, alphabet: Alphabet) -> FlClosure:
    """Breadth-first closure of a closed expression under decomposition."""
    occ: list[Expr] = []  # the non-variable occurrences, in preorder
    kids: dict[int, tuple[int, ...]] = {}  # a variable is its (earlier) binder
    nest: list[int] = []  # binders among each occurrence and its ancestors
    table: dict[tuple, int] = {}  # interned keys, numbered children first
    keys: dict[int, int] = {}  # occurrence -> the key of its member
    trees: dict[int, Expr] = {}  # occurrence -> its member

    def index(t: Expr, scope: dict[str, int], d: int) -> int:
        if isinstance(t, Var):
            if t.name not in scope:
                raise ClosureError(
                    "closure is only defined for closed expressions")
            return scope[t.name]
        i = len(occ)
        occ.append(t)
        if isinstance(t, (Mu, Nu)):
            scope, d = {**scope, t.var: i}, d + 1
        nest.append(d)
        kids[i] = tuple(index(getattr(t, f), scope, d)
                        for f, _ in _PARTS[type(t)])
        return i

    def walk(i: int, root: int) -> tuple[int, Expr]:
        """Key and expression of occurrence i inside the member of
        occurrence root: a variable bound at or below root is its de Bruijn
        index, one bound above it is its binder's member."""
        t, parts = occ[i], []
        for c in kids[i]:
            if c > i:
                parts.append(walk(c, root))
            elif c >= root:
                parts.append((table.setdefault((Var, nest[i] - nest[c], ()),
                                               len(table)), Var(occ[c].var)))
            else:
                parts.append((keys[c], trees[c]))
        key = (type(t), getattr(t, "letter", None), tuple(k for k, _ in parts))
        return table.setdefault(key, len(table)), replace(t, **{
            f: x for (f, _), (_, x) in zip(_PARTS[type(t)], parts)})

    try:
        index(e, {}, 0)
        for t in occ:
            if isinstance(t, Act) and t.letter not in alphabet.letter_set:
                raise ClosureError(f"undeclared letter {t.letter!r}")
        for i in range(len(occ)):  # outer binders' members come first
            keys[i], trees[i] = walk(i, i)
    finally:
        del index, walk  # both refer to themselves

    members, found, edges = [0], {keys[0]: 0}, []
    for src, i in enumerate(members):
        t = occ[i]
        for (_, kind), c in zip(_PARTS[type(t)], kids[i]):
            j = found.setdefault(keys[c], len(members))
            if j == len(members):
                members.append(c)
            edges.append((src, j, kind.format(getattr(t, "letter", None))))

    # the subterms of a member are the keys reachable from its key
    reach: list[int] = []
    for _type, _tag, children in table:
        bits = 1 << len(reach)
        for c in children:
            bits |= reach[c]
        reach.append(bits)
    ids = [keys[i] for i in members]
    pairs = frozenset((a, b) for b, kb in enumerate(ids)
                      for a, ka in enumerate(ids) if reach[kb] >> ka & 1)
    return FlClosure(e, tuple(trees[i] for i in members), tuple(edges), pairs,
                     alphabet)


def assign_priorities(c: FlClosure) -> FlClosure:
    """Fill priorities from a topological linearization of the subformula
    order (discovery-order tie-breaks): mu-members 2r+1, others 2r."""
    n = len(c.members)
    above: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n  # members strictly below each one, not yet ranked
    for i, j in c.subformula_pairs:
        if i != j:
            above[i].append(j)
            waiting[j] += 1
    ready = [j for j in range(n) if not waiting[j]]  # sorted, so a heap
    rank = [0] * n
    for r in range(n):
        i = heapq.heappop(ready)  # discovery-order tie-break
        rank[i] = r
        for j in above[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, j)
    prio = tuple(2 * rank[i] + 1 if isinstance(m, Mu) else 2 * rank[i]
                 for i, m in enumerate(c.members))
    return replace(c, priority=prio)


def closure_with_priorities(e: Expr, alphabet: Alphabet) -> FlClosure:
    return assign_priorities(fl_closure(e, alphabet))


MAX_LISTING = 2**24  # characters the root and members of a listing may take


def _printed(t: Expr, memo: dict[int, int]) -> int:
    """An upper bound on len(print_expr(t)): per node, its name and 7 more
    characters. Memoised on node identity, since members share subtrees."""
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


def format_closure(c: FlClosure) -> str:
    """Stable line-oriented listing of members, edges and priorities."""
    check_printed("listing", (c.root, *c.members))
    lines = [f"root: {print_expr(c.root)}", "members:"]
    prio = c.priority or ()
    for i, m in enumerate(c.members):
        tag = f"  [p={prio[i]}]" if prio else ""
        lines.append(f"{i}: {print_expr(m)}{tag}")
    lines.append("edges:")
    for src, dst, kind in c.edges:
        lines.append(f"{src} -{kind}-> {dst}")
    return "\n".join(lines)


def export_dot(c: FlClosure) -> str:
    """DOT rendering of the closure's automaton, whose priorities must be
    assigned. Top and meet members are universal (boxes), the others
    existential (diamonds); act edges are labelled letter transitions, the
    other edges epsilon transitions. Output follows member and edge order."""
    check_printed("listing", (c.root, *c.members))
    lines = ["digraph apa {", "  rankdir=LR;"]
    for i, m in enumerate(c.members):
        shape = "box" if isinstance(m, (Top, Meet)) else "diamond"
        extra = ", penwidth=2" if i == 0 else ""
        lines.append(f'  n{i} [shape={shape}, label="{print_expr(m)} '
                     f'[p={c.priority[i]}]"{extra}];')
    lines += [f'  n{s} -> n{d} [label="{k[4:]}"];'
              for s, d, k in c.edges if k.startswith("act:")]
    lines += [f"  n{s} -> n{d};"
              for s, d, k in c.edges if not k.startswith("act:")]
    lines.append("}")
    return "\n".join(lines) + "\n"
