"""The evaluation game: arena construction, a recursive parity solver with
positional strategies, game-based membership, and bounded search.

``build_arena`` takes two graphs. Its positions pair a vertex of a word
graph with a node of an occurrence graph (see ``closure.py``), the
automaton that ``rll closure`` lists and ``rll apa-dot`` draws. A word
graph gives each vertex one letter and one successor, so every vertex reads
one ultimately periodic word; a lasso's word graph (``lasso_graph``), on
which ``member_game`` builds, has its positions 0..n-1 as vertices, with
its successor map and root 0. As in that automaton's acceptance game, a letter
is read on the move, not at a position of its own: a node's moves are its
``moves``. A move that reads the vertex's letter goes
to the vertex's successor, one that reads no letter stays at the vertex.
Sums branch for Eloise, meets for Abelard, binders step to their body and
variables jump back to their binder silently. Every move into a 0 and every
letter mismatch ends in Eloise's deadlock, every move into a top in
Abelard's: two positions shared by the whole arena, each made the first
time it is needed, labelled (None, DEAD_ZERO) and (None, DEAD_TOP) and
given the neutral priority. A deadlocked player loses; an infinite play is
won by Eloise iff the minimum priority seen infinitely often is even, that
is iff the outermost binder passed infinitely often is a nu. The arena
starts from every pair of a word root and an expression root at once, so
one solve decides the word of every word root for every expression. With m
expression roots (see ``OccurrenceGraph.roots``), the start of word root k
and expression root x is the game's ``starts[k * m + x]``: no position of
its own, but the position or deadlock that pair resolves to, as any other
pair does below, and its winner is read there. Two starts may share a
position, as the two sides of e against e always do, and the first start is
position 0, the game's ``initial``.

A position is a sum or meet with two distinct live moves at its vertex's
letter, where a live move is one that does not end in its owner's
deadlock, or a binder whose move leads neither to a deadlock nor to a
binder of no higher priority. As an automaton's transition simplifies at a
letter (an a.f disjunct is false at b), the arena resolves every node at
the letter of the vertex it lands on, a start's root included. A sum, meet
or act is no position in three cases, each of which keeps every winner:
- its owner can move into the opponent's deadlock: its slot is that
  deadlock, since that player wins by moving there;
- it has no move but into its owner's deadlock: its slot is that deadlock.
  A player never gains by moving into their own deadlock, so such moves
  are dropped wherever there is another;
- it has exactly one other distinct move: its slot is that move's target,
  followed on through moves that stay and across moves that read, until a
  binder, a choice left with two live moves or a deadlock. A position with
  one move and the neutral priority can be skipped, since the neutral
  priority is never the least seen infinitely often: every cycle passes a
  binder, whose priority is lower.
So an act or a constant is never a position: the deadlocks of one owner
are interchangeable. A binder has one move, to its body, resolved at the
letter like any other; it is no position where that move leads to a
deadlock, whose slot it then is, or to a binder u of no higher priority,
at the same vertex or the next, other than its own slot: its slot is then
u's. Every play through the binder goes on to u, past nodes of no lower
priority than u's only, and u's priority is no higher than the binder's,
so dropping the binder changes no minimum seen infinitely often (this
generalises the skip of a neutral position above).
Binders that stand for one another in a cycle all have one priority, none
being higher than the next, so where a chain of slots comes back to one of
its own, the arena makes a position of that slot, a binder on the cycle,
and the cycle keeps its priority. As the priorities come from alternation
levels, the rule is decided one letter at a time, before the arena is
known. Each node's resolution at a letter is worked out once per set of
tables, which a ``member`` query makes for its one build and a bounded
search keeps for all its batches, when first needed, after every node it
reaches without reading. A
non-binder's successors all have smaller ids and a cycle of moves that stay
at a vertex passes a binder, which takes its own slot until its body is
resolved; so such a cycle stops at a binder and an explicit stack suffices.
A node resolved meanwhile may keep that binder's slot rather than what the
binder resolves to, so which nodes are positions can depend on the order
they are first needed in; every such arena keeps every winner. A choice
keeps its moves as resolved at its letter, and a move that reads may still
end where the other ends, or in a deadlock, once it is followed past the
letter, so a position's moves may repeat. Each rule keeps the winner of the
pair it drops, so each start's winner is the winner of the position or
deadlock it stands for, which may be a cycle's binder closed at the start's
own slot.

Both halves work on flat integer arrays. The arena grows two parallel lists
(word vertex, graph node) breadth-first and finds the position a pair
resolves to in a flat list indexed by ``i * nodes + v``, which
``MAX_ARENA`` caps per expression root. The solver is Zielonka's recursive
attractor decomposition: the subgame is a bytearray, an attractor is a list
queue that counts an opponent position's live moves when it first reaches
it, and one move per position, written when its winner is settled, gives
both strategies at the end. Each player's attractor of the opponent's
deadlocks goes first. What is left is total, and so is every subgame the
recursion makes of it, since removing an attractor from a total game leaves
a total game; the recursion never looks for deadlocks.

The bounded search decides all enumerated lassos of one length, a batch, by
one game over their word graph and one occurrence graph of all its
expressions, which shares the closed subterms the sides have in common (e
against e + e). ``enumerate_lassos`` numbers the lassos in enumeration order
and writes them into integer columns (``LassoColumns``): each lasso's first
letter, its tail's number and its length. The tail of a normal lasso is a
normal lasso no longer than it, so the enumerated lassos are closed under
tails, and the columns are one word graph of the whole search, in which
each lasso reads its first letter and moves on to its tail. No ``Lasso`` is
built for a word: only the counterexample returned is read back. A batch is
a run of consecutive numbers of one length, and its word graph is the
closure of its roots under the tails, with no other vertex, renumbered from
0 so that the arena's index covers that batch only. Each batch walks its
roots' tails afresh, so the shorter lassos return as vertices of later
batches; on the benchmark's searches only about 1 % of the arenas'
positions repeat a (lasso, node) pair that an earlier batch had, too few to
pay for keeping the earlier games. What the batches do share is the
graph's resolved tables, so that each (letter, node) pair is settled once
per search. A batch whose word graph would pass ``BATCH_SLOTS`` slots per
expression is split into runs of consecutive roots. The search stops at the
first batch with a separating lasso and returns the first such lasso in
enumeration order. A length at which an expression's own per-lasso game
would refuse is refused before its batch is built, the expressions checked
in order; an expression's own occurrence graph is built, to count its
nodes, only where its size, which bounds them, could pass the cap at the
longest length. ``equiv`` separates where the two sides' memberships
differ, ``incl`` where e's holds and f's does not, so neither builds a
complement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, compress, count, groupby
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .closure import DEAD_TOP, DEAD_ZERO, OccurrenceGraph, occurrence_graph
from .semantics import Lasso, LassoColumns, enumerate_lassos
from .syntax import Alphabet, Expr, RllError, expr_size, free_vars

ELOISE, ABELARD = 0, 1  # so the player a priority d favours is d & 1


class GameError(RllError):
    pass


@dataclass(frozen=True)
class ParityGame:
    """A finite min-parity game; deadlocked positions lose for their owner."""

    owners: tuple[int, ...]
    priorities: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]
    initial: int
    # (word vertex, graph node) labels when built as an arena
    labels: tuple = ()
    # when built as an arena, the position of each start, in the order of
    # build_arena; initial is the first
    starts: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.owners)
        if not (n == len(self.priorities) == len(self.edges)):
            raise GameError("owners, priorities, edges must align")
        if not 0 <= self.initial < n or self.starts and not (
                0 <= min(self.starts) and max(self.starts) < n):
            raise GameError("a start must be a position")
        if self.starts and self.initial != self.starts[0]:
            raise GameError("the initial position must be the first start")


@dataclass(frozen=True)
class Solution:
    """Winners by position, each player's positional strategy on the
    positions it owns and wins, and the number of attractors computed."""

    winner: tuple[int, ...]
    strategy_eloise: dict[int, int] = field(default_factory=dict)
    strategy_abelard: dict[int, int] = field(default_factory=dict)
    attractor_calls: int = 0

    def region(self, player: int) -> frozenset[int]:
        return frozenset(i for i, w in enumerate(self.winner) if w == player)


_OWNER = {"act": ELOISE, "zero": ELOISE, "sum": ELOISE, "mu": ELOISE,
          "nu": ELOISE, "top": ABELARD, "meet": ABELARD}
# a non-binder's own deadlock, where its owner loses, and its opponent's
_DEADLOCKS = {"act": (DEAD_ZERO, DEAD_TOP), "zero": (DEAD_ZERO, DEAD_TOP),
              "sum": (DEAD_ZERO, DEAD_TOP), "top": (DEAD_TOP, DEAD_ZERO),
              "meet": (DEAD_TOP, DEAD_ZERO)}
_BINDERS = frozenset(("mu", "nu"))

# The arena's flat index has one slot per (word vertex, graph node) pair;
# a game with more slots per expression root is refused before the index is
# allocated.
MAX_ARENA = 2 ** 22
# The bounded search splits a length class into word graphs of at most this
# many slots per expression each, but always takes at least one root, so it
# refuses only what the per-lasso games refuse.
BATCH_SLOTS = 2 ** 16


class WordGraph(NamedTuple):
    """Ultimately periodic words that share their tails: vertex i reads
    ``letters[i]`` and moves on to ``successors[i]``, and the word read
    from each root is one the arena decides."""

    letters: Sequence[str]
    successors: Sequence[int]
    roots: Sequence[int]


def lasso_graph(w: Lasso) -> WordGraph:
    """The word graph of one lasso: its positions 0..n-1, root 0."""
    n = w.length
    return WordGraph(w.prefix + w.period,
                     [*range(1, n), len(w.prefix)], (0,))


def _check_slots(length: int, nodes: int, roots: int = 1):
    cap = MAX_ARENA * roots
    if length * nodes > cap:
        raise GameError(f"the arena needs {length} x {nodes} slots (lasso "
                        f"letters x graph nodes), more than {cap}")


def _settle(graph: OccurrenceGraph, letter: str, step: list, moves: list,
            s: int) -> int:
    """Resolve node s at a vertex that reads the letter, by the rules of the
    module docstring, after every node it reaches without reading; return
    s's slot code. ``step`` and ``moves`` are the letter's tables, None
    where unresolved: each node's slot code and its moves as codes. A code
    below 0 is that deadlock, u below n the slot of node u at the same
    vertex and n + u that of node u at the successor, n the graph's nodes;
    a node whose slot code is itself is a position. A binder whose body is
    unresolved takes its own slot as its code until the body is resolved,
    so a cycle of moves that stay at the vertex, which passes a binder,
    stops there: a node resolved meanwhile may lead to that binder's slot
    rather than to what it resolves to. The stack is explicit, as nested
    sums may run deep."""
    kinds, priority, n = graph.kinds, graph.priority, len(step)
    todo = [s]
    while todo:
        v = todo.pop()
        codes = []
        for a, x in graph.moves[v]:
            if a is not None:
                x = DEAD_ZERO if a != letter else x if x < 0 else n + x
            elif x >= 0:
                if step[x] is None:
                    if kinds[v] in _BINDERS:  # its own slot meanwhile
                        step[v] = v
                    todo += (v, x)
                    break
                x = step[x]
            codes.append(x)
        else:
            moves[v] = codes = (*codes,)
            kind = kinds[v]
            if kind in _BINDERS:  # a deadlock, or another binder's slot of
                x, = codes  # no higher priority (a non-binder's is higher)
                step[v] = x if x < 0 or x != v and priority[
                    x - n if x >= n else x] <= priority[v] else v
                continue
            own, opponent = _DEADLOCKS[kind]
            if opponent in codes:  # the owner wins by moving there
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


def build_arena(graph: OccurrenceGraph, words: WordGraph,
                resolved: Optional[dict] = None) -> ParityGame:
    """The reachable evaluation-game arena for the expressions of the
    occurrence graph over the word graph, with letters read on moves.
    Every (vertex, node) pair the game lands on, each start (the pair of
    the k-th word root and the x-th expression root) among them, is first
    resolved at the vertex's letter (``_settle``): it is a position only as
    a choice with two distinct live moves or as a binder that does not
    stand for a deadlock or for a binder of no higher priority, and any
    other pair stands for the position or deadlock its chain of slots leads
    to. A chain that comes back to one of its own slots runs around a cycle
    of binders of one priority, and its position is the slot where it
    closes. With m expression roots, the game's ``starts[k * m + x]`` is
    the position that start stands for, and ``initial`` is ``starts[0]``;
    two starts may share a position. ``resolved``, when given, maps letters
    to the graph's tables at them (see below), to read and fill, and a
    build without it makes its own: a bounded search passes one to all its
    batches."""
    nodes, m = len(graph.kinds), len(graph.roots)
    word, nxt, roots = words
    if not roots:
        raise GameError("the word graph has no root to start from")
    _check_slots(len(word), nodes, m)

    # position j is the pair (at[j], node[j])
    at: list[Optional[int]] = []
    node: list[int] = []
    # slot i * nodes + v: its position, -2 while on the chain being
    # followed; the deadlocks' slots are the last two
    index = [-1] * (len(word) * nodes + 2)
    # per letter, each node's slot code and each position's moves, as
    # _settle fills them; and per vertex, its letter's two tables. Past the
    # nodes, each moves table has a virtual node whose moves are the
    # expression roots at the vertex: walked at each word root before any
    # position, with the same loop, its moves resolve to the root's starts
    tables = {} if resolved is None else resolved
    for c in set(word).difference(tables):
        tables[c] = ([None] * nodes, [None] * nodes + [graph.roots])
    steps = [tables[c][0] for c in word]
    codes = [tables[c][1] for c in word]
    edges: list[tuple[int, ...]] = []
    # at and node grow while walked: breadth-first
    for i, v in chain(zip(roots, [nodes] * len(roots)), zip(at, node)):
        if i is None:  # a deadlock
            edges.append(())
            continue
        moves = []
        for code in codes[i][v]:
            t = i
            if code >= nodes:
                t, code = nxt[i], code - nodes
            slot = t * nodes + code if code >= 0 else code
            j = index[slot]
            if j < 0:  # follow the slot's codes to its position
                passed = []
                while True:
                    s = code
                    if s >= 0:
                        code = steps[t][s]
                        if code is None:
                            code = _settle(graph, word[t], steps[t],
                                           codes[t], s)
                    if code == s or j == -2:  # a position, or a cycle
                        j = index[slot] = len(at)  # closed at this binder
                        at.append(t if s >= 0 else None)
                        node.append(s)
                        break
                    index[slot] = -2
                    passed.append(slot)
                    if code >= nodes:
                        t, code = nxt[t], code - nodes
                    slot = t * nodes + code if code >= 0 else code
                    j = index[slot]
                    if j >= 0:
                        break
                for slot in passed:
                    index[slot] = j
            moves.append(j)
        edges.append(tuple(moves))
    # the virtual node's moves, root by root, are the starts
    starts = (*chain.from_iterable(edges[:len(roots)]),)
    del edges[:len(roots)]
    owner = [*map(_OWNER.__getitem__, graph.kinds), ABELARD, ELOISE]
    neutral = max(graph.priority)  # a non-binder's, if a deadlock is reached
    priority = [*graph.priority, neutral, neutral]
    return ParityGame(tuple(map(owner.__getitem__, node)),
                      tuple(map(priority.__getitem__, node)),
                      tuple(edges), starts[0], tuple(zip(at, node)),
                      starts)


def solve_parity(g: ParityGame) -> Solution:
    """Zielonka's recursive algorithm, min-parity convention."""
    n = len(g.owners)
    edges, prio = g.edges, g.priorities
    owner = bytes(g.owners)
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
    return Solution(tuple(winner), *strategies, calls)


def member_game(e: Expr, w: Lasso,
                graph: Optional[OccurrenceGraph] = None) -> bool:
    """Membership of the lasso word in L(e), by solving the evaluation game
    over the lasso's word graph; ``graph``, when given, is the occurrence
    graph of e, and is otherwise built here, for a closed e only."""
    if graph is None:
        if free_vars(e):
            raise GameError("the evaluation game needs a closed expression")
        graph = occurrence_graph(e, w.alphabet)
    g = build_arena(graph, lasso_graph(w))
    sol = solve_parity(g)
    return sol.winner[g.initial] == ELOISE


def batch_graphs(lassos: LassoColumns, first: int, end: int, budget: int
                 ) -> Iterator[WordGraph]:
    """The lassos numbered first..end-1, in order, as the roots of word
    graphs over them and their tails (see ``LassoColumns``): a graph's
    vertices are the closure of its roots under the tails, numbered from 0
    in the order they are reached, and each reads its lasso's first letter
    and moves on to its tail's vertex. A graph takes consecutive roots
    while it has at most ``budget`` vertices, and at least one root. A root
    reaches at most n new vertices, its word's n letters, and the last root
    is the longest; so the roots that surely fit are taken at once, their
    closure grown a level of tails at a time, as sets, and past them one
    root at a time, the last one given back where it passes the budget."""
    heads, tails = lassos.heads, lassos.tails
    letters, n = lassos.alphabet.letters, lassos.lengths[end - 1]
    r = first
    while r < end:
        start = r
        order: list[int] = []  # each vertex's lasso number, by vertex
        vertex: dict[int, int] = {}
        while r < end:
            had = len(order)
            take = min(max(1, (budget - had) // n), end - r)
            new = set(range(r, r + take)).difference(vertex)
            while new:
                vertex.update(zip(new, count(len(order))))
                order += new
                new = {tails[i] for i in new}.difference(vertex)
            if len(order) > budget and r > start:  # r starts the next graph
                for i in order[had:]:
                    del vertex[i]
                del order[had:]
                break
            r += take
        yield WordGraph([letters[heads[i]] for i in order],
                        [vertex[tails[i]] for i in order],
                        [*map(vertex.__getitem__, range(start, r))])


def _first_separating(e: Expr, f: Expr, alphabet: Alphabet,
                      max_prefix: int, max_period: int,
                      separates: Callable[[int, int], bool]
                      ) -> Optional[Lasso]:
    """The first enumerated lasso whose winners for e and for f satisfy
    ``separates``; a side's winner is ELOISE (0) where the lasso is in its
    language, ABELARD (1) where not. Each length class of lassos is one
    batch, solved as one game over a word graph and the occurrence graph of
    both sides, unless it needs more than BATCH_SLOTS slots per expression;
    root k's winners are read at the positions its starts stand for,
    ``starts[2k]`` for e and ``starts[2k + 1]`` for f. Every batch reads
    and fills one set of that graph's resolved tables. The search stops at
    the first batch that separates, and reads only that lasso back from the
    enumeration's columns."""
    exprs = [e, f]
    # an expression's own graph has at most expr_size nodes: it is built,
    # to count them, only where that bound passes the cap at some length
    longest, sizes = max_prefix + max_period, []
    for x in exprs:
        n = expr_size(x)
        sizes.append(len(occurrence_graph(x, alphabet).kinds)
                     if longest * n > MAX_ARENA else n)
    graph = occurrence_graph(exprs, alphabet)
    resolved: dict = {}  # letter -> its tables, for every batch
    budget = max(1, min(BATCH_SLOTS, MAX_ARENA) * 2 // len(graph.kinds))
    lassos = LassoColumns(alphabet)
    end = 0  # the number after the length class's last lasso
    for length, run in groupby(enumerate_lassos(alphabet, max_prefix,
                                                max_period, lassos)):
        for n in sizes:  # where the per-lasso game would refuse
            _check_slots(length, n)
        first, end = end, end + len([*run])
        for words in batch_graphs(lassos, first, end, budget):
            g = build_arena(graph, words, resolved)
            # root k's starts are 2k for e and 2k + 1 for f
            won = [*map(solve_parity(g).winner.__getitem__, g.starts)]
            for i in compress(count(first),
                              map(separates, won[0::2], won[1::2])):
                return lassos.lasso(i)
            first += len(words.roots)
    return None


def equiv_bounded(e: Expr, f: Expr, alphabet: Alphabet, max_prefix: int,
                  max_period: int) -> Optional[Lasso]:
    """First normalized lasso (in enumeration order) on which the memberships
    of e and f differ, or None if they agree within the bounds.

    This is a semi-decision: agreement within bounds is not equivalence.
    """
    return _first_separating(e, f, alphabet, max_prefix, max_period,
                             operator.ne)


def inclusion_bounded(e: Expr, f: Expr, alphabet: Alphabet, max_prefix: int,
                      max_period: int) -> Optional[Lasso]:
    """First normalized lasso (in enumeration order) in L(e) but not in
    L(f), or None if there is none within the bounds; e and f are decided
    on one game per batch, as for ``equiv_bounded``. ELOISE < ABELARD, so
    ``operator.lt`` holds where e's winner is Eloise and f's Abelard."""
    return _first_separating(e, f, alphabet, max_prefix, max_period,
                             operator.lt)
