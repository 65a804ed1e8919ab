"""The game's occurrence graph, and the paper's Fischer-Ladner closure.

The occurrence graph is what the evaluation game runs on. Its nodes are the
subterm occurrences of a closed expression, built in one pass over the root:
each node has a kind, a letter (for a.f) and successor ids, and a variable
is not a node of its own but a back-edge to its binder's node. Non-binder
nodes are hash-consed on (kind, letter, successor ids), so the copies of top,
b.top and the like that complementation makes share one node; binders are
never merged. Merged nodes have the same owner, priority and successors, so
merging changes the outcome of no play. A binder's priority is its nesting
depth d (the number of binders above it): 2d for nu, 2d+1 for mu. Every
other node takes one neutral value above all of these. An infinite play
passes through binders infinitely often, and the outermost of those is
unique, so the minimum priority seen infinitely often is that binder's and
its kind decides the winner.

The closure is the paper's view of the same automaton, kept for ``rll
closure`` and ``rll apa-dot``. It is the least set containing the root and
closed under one-step decomposition: a.f steps to f, sums and meets step to
their components, and fixpoints step to their unfolding. Members are
discovered breadth-first from the root and deduplicated up to bound-variable
renaming. Unfolding substitutes whole binders, so members can grow large.

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

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .syntax import (Act, Alphabet, Expr, Meet, Mu, Nu, RllError, Sum, Top,
                     Var, Zero, alpha_key, free_vars, print_expr,
                     subexpressions, substitute)


class ClosureError(RllError):
    pass


class OccurrenceGraph(NamedTuple):
    """The occurrence graph of a closed expression.

    Node i has kind ``kinds[i]`` (act, sum, meet, mu, nu, zero or top), the
    letter ``letters[i]`` of an act node (None otherwise), successor ids
    ``succs[i]`` without repeats, and priority ``priority[i]``. ``root`` is
    the node of the whole expression.
    """

    root: int
    kinds: tuple[str, ...]
    letters: tuple[Optional[str], ...]
    succs: tuple[tuple[int, ...], ...]
    priority: tuple[int, ...]


def occurrence_graph(e: Expr, alphabet: Alphabet) -> OccurrenceGraph:
    """The occurrence graph of a closed expression, built in one pass."""
    kinds: list[str] = []
    letters: list[Optional[str]] = []
    succs: list[tuple[int, ...]] = []
    depth: dict[int, int] = {}  # binder node -> number of binders above it
    shared: dict[tuple, int] = {}
    declared = frozenset(alphabet.letters)

    def new(kind: str, letter: Optional[str], succ: tuple[int, ...]) -> int:
        kinds.append(kind)
        letters.append(letter)
        succs.append(succ)
        return len(kinds) - 1

    def go(t: Expr, scope: dict[str, int], d: int) -> int:
        if isinstance(t, Var):
            if t.name not in scope:
                raise ClosureError(
                    "closure is only defined for closed expressions")
            return scope[t.name]
        if isinstance(t, (Mu, Nu)):
            i = new("mu" if isinstance(t, Mu) else "nu", None, ())
            depth[i] = d
            succs[i] = (go(t.body, {**scope, t.var: i}, d + 1),)
            return i
        if isinstance(t, Act):
            if t.letter not in declared:
                raise ClosureError(f"undeclared letter {t.letter!r}")
            key = ("act", t.letter, (go(t.body, scope, d),))
        elif isinstance(t, (Sum, Meet)):
            kind = "sum" if isinstance(t, Sum) else "meet"
            pair = (go(t.left, scope, d), go(t.right, scope, d))
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

    root = go(e, {}, 0)
    neutral = 2 * (max(depth.values()) + 1) if depth else 0
    priority = tuple(2 * depth[i] + (kinds[i] == "mu") if i in depth
                     else neutral for i in range(len(kinds)))
    return OccurrenceGraph(root, tuple(kinds), tuple(letters), tuple(succs),
                           priority)


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


def fl_successors(e: Expr) -> list[tuple[str, Expr]]:
    """The one-step decompositions of e, with their edge kinds."""
    if isinstance(e, Act):
        return [(f"act:{e.letter}", e.body)]
    if isinstance(e, Sum):
        return [("sum-left", e.left), ("sum-right", e.right)]
    if isinstance(e, Meet):
        return [("meet-left", e.left), ("meet-right", e.right)]
    if isinstance(e, (Mu, Nu)):
        return [("unfold", substitute(e.body, e.var, e))]
    if isinstance(e, (Zero, Top)):
        return []
    if isinstance(e, Var):
        raise ClosureError("closure is only defined for closed expressions")
    raise TypeError(f"not an expression: {e!r}")


def fl_closure(e: Expr, alphabet: Alphabet) -> FlClosure:
    """Breadth-first closure of a closed expression under decomposition."""
    if free_vars(e):
        raise ClosureError("closure is only defined for closed expressions")
    for sub in subexpressions(e):
        if isinstance(sub, Act) and sub.letter not in alphabet.letters:
            raise ClosureError(f"undeclared letter {sub.letter!r}")

    members: list[Expr] = [e]
    index: dict[str, int] = {alpha_key(e): 0}
    edges: list[tuple[int, int, str]] = []
    frontier = 0
    while frontier < len(members):
        src = frontier
        for kind, tgt in fl_successors(members[src]):
            key = alpha_key(tgt)
            if key not in index:
                index[key] = len(members)
                members.append(tgt)
            edges.append((src, index[key], kind))
        frontier += 1

    sub_keys = [frozenset(alpha_key(s) for s in subexpressions(m))
                for m in members]
    pairs = frozenset((i, j)
                      for i, mi in enumerate(members)
                      for j in range(len(members))
                      if alpha_key(mi) in sub_keys[j])
    return FlClosure(e, tuple(members), tuple(edges), pairs, alphabet)


def assign_priorities(c: FlClosure) -> FlClosure:
    """Fill priorities from a topological linearization of the subformula
    order (discovery-order tie-breaks): mu-members 2r+1, others 2r."""
    n = len(c.members)
    strictly_below = {j: {i for (i, j2) in c.subformula_pairs
                          if j2 == j and i != j} for j in range(n)}
    rank: dict[int, int] = {}
    placed: set[int] = set()
    for r in range(n):
        ready = [j for j in range(n)
                 if j not in placed and strictly_below[j] <= placed]
        nxt = min(ready)  # discovery-order tie-break
        rank[nxt] = r
        placed.add(nxt)
    prio = tuple(2 * rank[i] + 1 if isinstance(m, Mu) else 2 * rank[i]
                 for i, m in enumerate(c.members))
    return replace(c, priority=prio)


def closure_with_priorities(e: Expr, alphabet: Alphabet) -> FlClosure:
    return assign_priorities(fl_closure(e, alphabet))


def format_closure(c: FlClosure) -> str:
    """Stable line-oriented listing of members, edges and priorities."""
    lines = [f"root: {print_expr(c.root)}", "members:"]
    prio = c.priority or ()
    for i, m in enumerate(c.members):
        tag = f"  [p={prio[i]}]" if prio else ""
        lines.append(f"{i}: {print_expr(m)}{tag}")
    lines.append("edges:")
    for src, dst, kind in c.edges:
        lines.append(f"{src} -{kind}-> {dst}")
    return "\n".join(lines)
