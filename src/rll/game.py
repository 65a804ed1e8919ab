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

Both halves work on flat integer arrays. The arena grows two parallel lists
(lasso position, graph node) breadth-first and finds a pair's position in a
flat list indexed by ``i * nodes + v``, which ``MAX_ARENA`` caps. The solver
is Zielonka's recursive attractor decomposition: the subgame is a bytearray,
an attractor is a list queue that counts an opponent position's live moves
when it first reaches it, and one move per position, written when its winner
is settled, gives both strategies at the end. Each player's attractor of the
opponent's deadlocks goes first. What is left is total, and so is every
subgame the recursion makes of it, since removing an attractor from a total
game leaves a total game; the recursion never looks for deadlocks.
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
_PLAYERS = (ELOISE, ABELARD)  # the solver's player numbers


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


@dataclass(frozen=True)
class Solution:
    """Winners by position, each player's positional strategy on the
    positions it owns and wins, and the number of attractors computed."""

    winner: tuple[str, ...]
    strategy_eloise: dict[int, int] = field(default_factory=dict)
    strategy_abelard: dict[int, int] = field(default_factory=dict)
    attractor_calls: int = 0

    def region(self, player: str) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.winner) if w == player)


_OWNER = {"act": ELOISE, "zero": ELOISE, "sum": ELOISE, "mu": ELOISE,
          "nu": ELOISE, "top": ABELARD, "meet": ABELARD}

# The arena's flat index has one slot per (lasso position, graph node) pair;
# a game with more slots is refused before the index is allocated.
MAX_ARENA = 2 ** 22


def build_arena(e: Expr, w: Lasso,
                graph: Optional[OccurrenceGraph] = None) -> ParityGame:
    """The reachable evaluation-game arena for (w, e); ``graph``, when
    given, is the occurrence graph of e."""
    if graph is None:
        if free_vars(e):
            raise GameError("the evaluation game needs a closed expression")
        graph = occurrence_graph(e, w.alphabet)
    kinds, letters, succs = graph.kinds, graph.letters, graph.succs
    nodes = len(kinds)
    if w.length * nodes > MAX_ARENA:
        raise GameError(f"the arena needs {w.length} x {nodes} slots (lasso "
                        f"letters x graph nodes), more than {MAX_ARENA}")
    word = [w.letter_at(i) for i in range(w.length)]
    nxt = [w.succ(i) for i in range(w.length)]

    at, node = [0], [graph.root]  # position k is (at[k], node[k])
    index = [-1] * (w.length * nodes)  # slot i * nodes + v: its position
    index[graph.root] = 0
    edges: list[tuple[int, ...]] = []
    for i, v in zip(at, node):  # both grow while walked: breadth-first
        if kinds[v] == "act":
            if word[i] != letters[v]:
                edges.append(())
                continue
            i = nxt[i]
        base = i * nodes
        moves = []
        for s in succs[v]:
            j = index[base + s]
            if j < 0:
                j = index[base + s] = len(at)
                at.append(i)
                node.append(s)
            moves.append(j)
        edges.append(tuple(moves))
    owner = [_OWNER[k] for k in kinds]
    return ParityGame(tuple(map(owner.__getitem__, node)),
                      tuple(map(graph.priority.__getitem__, node)),
                      tuple(edges), 0, tuple(zip(at, node)))


def solve_parity(g: ParityGame) -> Solution:
    """Zielonka's recursive algorithm, min-parity convention."""
    n = len(g.owners)
    edges, prio = g.edges, g.priorities
    owner = bytes(map(ABELARD.__eq__, g.owners))  # 0 Eloise, 1 Abelard
    preds: list[list[int]] = [[] for _ in range(n)]
    for v, succ in enumerate(edges):
        for s in succ:
            preds[s].append(v)
    alive = bytearray(b"\1") * n  # 1 in the subgame, 2 attracted, 0 not
    winner = bytearray(n)
    move = [-1] * n
    calls = 0

    def attract(target: list[int], player: int) -> list[int]:
        """Remove from the subgame, and return, the least set containing
        target from which player forces reaching it, with player's moves."""
        nonlocal calls
        calls += 1
        for v in target:
            alive[v] = 2
        attr = list(target)
        left: dict[int, int] = {}  # opponent position: moves not yet attracted
        for t in attr:  # grows while walked: the queue
            for p in preds[t]:
                if alive[p] != 1:
                    continue
                if owner[p] == player:
                    move[p] = t
                else:
                    k = left.get(p)
                    if k is None:  # first reached: count its live moves
                        k = 0
                        for s in edges[p]:
                            if alive[s]:
                                k += 1
                    if k > 1:
                        left[p] = k - 1
                        continue
                alive[p] = 2
                attr.append(p)
        for v in attr:
            alive[v] = 0
        return attr

    def zielonka(region: list[int]):
        """Solve the total subgame of the alive positions, which region
        lists, and leave them alive."""
        removed: list[int] = []
        while region:
            d = min(prio[v] for v in region)
            sigma = d & 1
            top = [v for v in region if prio[v] == d]
            for v in top:  # if sigma wins, any move inside will do
                if owner[v] == sigma:
                    move[v] = next(s for s in edges[v] if alive[s])
            attr = attract(top, sigma)
            rest = [v for v in region if alive[v]]
            zielonka(rest)
            lost = [v for v in rest if winner[v] != sigma]
            for v in attr:
                alive[v] = 1
            if not lost:
                for v in attr:
                    winner[v] = sigma
                break
            won = attract(lost, 1 - sigma)
            for v in won:
                winner[v] = 1 - sigma
            removed += won
            region = [v for v in region if alive[v]]
        for v in removed:
            alive[v] = 1

    for player in (0, 1):  # what is left after both sweeps is total
        stuck = [v for v in range(n) if not edges[v] and owner[v] != player]
        if stuck:
            for v in attract(stuck, player):
                winner[v] = player
    # zielonka refers to itself; unbinding it breaks that cycle, so the
    # arena's working lists are freed on return, not by the cyclic collector
    try:
        zielonka([v for v in range(n) if alive[v]])
    finally:
        del zielonka
    strategies: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for v, (w, o) in enumerate(zip(winner, owner)):
        if w == o:
            strategies[o][v] = move[v]
    return Solution(tuple(map(_PLAYERS.__getitem__, winner)), *strategies,
                    calls)


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
