"""The evaluation game: arena construction, a recursive parity solver with
positional strategies, game-based membership, and bounded search.

Positions pair a lasso position with a node of the expression's occurrence
graph (see ``closure.py``). Moves follow the node's successors: letter
actions consume the matching letter (a mismatch deadlocks, owned by Eloise),
sums branch for Eloise, meets for Abelard, binders step to their body and
variables jump back to their binder silently, and the constants 0 / top
deadlock for Eloise / Abelard respectively. A deadlocked player loses; an
infinite play is won by Eloise iff the minimum priority seen infinitely
often is even, that is iff the outermost binder passed infinitely often is
a nu.

The solver is the classic recursive attractor decomposition. Deadlocks are
handled natively: the attractor's for-all clause holds vacuously at opponent
deadlocks, so two initial attractor sweeps (each player attracting to the
empty set) classify every position that wins by stranding the opponent, and
the remainder is a total game for the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import algebra
from .closure import OccurrenceGraph, occurrence_graph
from .semantics import Lasso, enumerate_lassos
from .syntax import Alphabet, Expr, Meet, RllError, free_vars

ELOISE = "eloise"
ABELARD = "abelard"


class GameError(RllError):
    pass


@dataclass(frozen=True)
class ParityGame:
    """A finite min-parity game; deadlocked positions lose for their owner."""

    owners: tuple[str, ...]
    priorities: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]
    initial: int
    # (lasso position, graph node) labels when built as an arena
    labels: tuple = ()

    def __post_init__(self):
        if not (len(self.owners) == len(self.priorities) == len(self.edges)):
            raise GameError("owners, priorities, edges must align")


@dataclass
class Solution:
    winner: tuple[str, ...]
    strategy_eloise: dict[int, int] = field(default_factory=dict)
    strategy_abelard: dict[int, int] = field(default_factory=dict)

    def region(self, player: str) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.winner) if w == player)


_OWNER = {"act": ELOISE, "zero": ELOISE, "sum": ELOISE, "mu": ELOISE,
          "nu": ELOISE, "top": ABELARD, "meet": ABELARD}


def build_arena(e: Expr, w: Lasso,
                graph: Optional[OccurrenceGraph] = None) -> ParityGame:
    """The reachable evaluation-game arena for (w, e); ``graph``, when
    given, is the occurrence graph of e."""
    if graph is None:
        if free_vars(e):
            raise GameError("the evaluation game needs a closed expression")
        graph = occurrence_graph(e, w.alphabet)
    kinds, letters, succs = graph.kinds, graph.letters, graph.succs
    priority = graph.priority
    word = [w.letter_at(i) for i in range(w.length)]
    nxt = [w.succ(i) for i in range(w.length)]

    order: list[tuple[int, int]] = [(0, graph.root)]
    index: dict[tuple[int, int], int] = {order[0]: 0}
    owners: list[str] = []
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


def _attractor(g: ParityGame, preds: list[list[int]], alive: set[int],
               target: set[int], player: str) -> tuple[set[int], dict[int, int]]:
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


def solve_parity(g: ParityGame) -> Solution:
    """Zielonka's recursive algorithm, min-parity convention."""
    n = len(g.owners)
    preds: list[list[int]] = [[] for _ in range(n)]
    for v, succs in enumerate(g.edges):
        for s in succs:
            preds[s].append(v)

    winner: list[Optional[str]] = [None] * n
    strat: dict[str, dict[int, int]] = {ELOISE: {}, ABELARD: {}}

    def opp(p: str) -> str:
        return ABELARD if p == ELOISE else ELOISE

    def mark(region: set[int], player: str, strategy: dict[int, int]):
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
    zielonka(alive)
    assert all(w is not None for w in winner)
    return Solution(tuple(winner), strat[ELOISE], strat[ABELARD])


def member_game(e: Expr, w: Lasso,
                graph: Optional[OccurrenceGraph] = None) -> bool:
    """Membership of the lasso word in L(e), by solving the evaluation game;
    ``graph``, when given, is the occurrence graph of e."""
    g = build_arena(e, w, graph)
    sol = solve_parity(g)
    return sol.winner[g.initial] == ELOISE


@dataclass(frozen=True)
class Counterexample:
    lasso: Lasso


def equiv_bounded(e: Expr, f: Expr, alphabet: Alphabet, max_prefix: int,
                  max_period: int) -> Optional[Counterexample]:
    """First normalized lasso (in enumeration order) on which the memberships
    of e and f differ, or None if they agree within the bounds.

    This is a semi-decision: agreement within bounds is not equivalence.
    """
    ge = occurrence_graph(e, alphabet)
    gf = occurrence_graph(f, alphabet)
    for w in enumerate_lassos(alphabet, max_prefix, max_period):
        if member_game(e, w, ge) != member_game(f, w, gf):
            return Counterexample(w)
    return None


def inclusion_bounded(e: Expr, f: Expr, alphabet: Alphabet, max_prefix: int,
                      max_period: int) -> Optional[Counterexample]:
    """First lasso in L(e) but not in L(f), searched via e & complement(f)."""
    witness = Meet(e, algebra.complement(f, alphabet))
    gw = occurrence_graph(witness, alphabet)
    for w in enumerate_lassos(alphabet, max_prefix, max_period):
        if member_game(witness, w, gw):
            return Counterexample(w)
    return None
