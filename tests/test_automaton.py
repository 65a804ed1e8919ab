"""`rll apa-dot`: the automaton the game runs on, drawn from the
occurrence graph.

The states are the nodes that moves reach from the root, and the deadlocks
reached. Each edge is a move, labelled with the letter it reads, if any.
Abelard's states (meets and his deadlock) are boxes, Eloise's diamonds, and
each label carries the state's priority in the game. So every position of
an arena built on the graph is a drawn state with its owner and priority.
"""

import random
import re

from rll.closure import DEAD_TOP, DEAD_ZERO, graph_dot, occurrence_graph
from rll.corpus import agreement_pairs, gen_expr
from rll.game import ABELARD, build_arena, lasso_graph
from rll.semantics import Lasso
from rll.syntax import Alphabet, parse_expr

AB = Alphabet.plain("a", "b")

IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"
BOTH = f"({IA}) & ({FB})"

NODE = re.compile(r'^  (\w+) \[shape=(\w+), label="(.*) \[p=(\d+)\]"'
                  r'(, penwidth=2)?\];$')
EDGE = re.compile(r'^  (\w+) -> (\w+)(?: \[label="(.*)"\])?;$')
NAMES = {DEAD_ZERO: "dead_zero", DEAD_TOP: "dead_top"}


def name(v):
    return NAMES.get(v, f"n{v}")


def read_dot(dot):
    """The DOT text's states, name -> (shape, label text, priority), in
    order, its root's name and its edges (source, target, letter or
    None)."""
    lines = dot.splitlines()
    assert lines[:2] == ["digraph apa {", "  rankdir=LR;"]
    assert lines[-1] == "}" and dot.endswith("}\n")
    states, edges, roots = {}, [], []
    for line in lines[2:-1]:
        node, edge = NODE.match(line), EDGE.match(line)
        if node:
            assert not edges and node[1] not in states  # states come first
            states[node[1]] = (node[2], node[3], int(node[4]))
            if node[5]:
                roots.append(node[1])
        else:
            assert edge, line
            edges.append((edge[1], edge[2], edge[3]))
    assert len(roots) == 1
    return states, roots[0], edges


def dot_of(text, ab=AB):
    return graph_dot(occurrence_graph(parse_expr(text, ab), ab), ab)


def move_closure(g):
    """The root, entered as a move enters a node, and every node or
    deadlock that moves reach from it."""
    root = g.roots[0]
    start = {"zero": DEAD_ZERO, "top": DEAD_TOP}.get(g.kinds[root], root)
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for _a, x in g.moves[v] if v >= 0 else ():
            if x not in seen:
                seen.add(x)
                todo.append(x)
    return start, seen


def reached(dot, start):
    """The states of ``dot`` reached along its edges from ``start``."""
    _states, _root, edges = read_dot(dot)
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for s, t, _a in edges:
            if s == v and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


class TestBuildApa:
    def test_simple_mu(self):
        states, root, edges = read_dot(dot_of("mu X. a.X"))
        assert root == "n0" and list(states) == ["n0", "dead_zero"]
        assert edges == [("n0", "n0", "a")]  # the unfolding reads a

    def test_zero_is_deadlocked_existential(self):
        states, root, edges = read_dot(dot_of("0"))
        assert root == "dead_zero" and states == {
            "dead_zero": ("diamond", "dead 0", 0)}
        assert edges == []

    def test_meet_root_is_universal_with_two_components(self):
        dot = dot_of(BOTH)
        states, root, edges = read_dot(dot)
        assert states[root][:2] == ("box", f"{root[1:]}: meet")
        parts = [t for s, t, a in edges if s == root]
        assert len(parts) == 2 and all(
            a is None for s, _t, a in edges if s == root)
        # IA's nu, mu and sum, and FB's mu, two sums and nu; no edge
        # enters the deadlock of a letter's mismatch
        assert [len(reached(dot, p)) for p in parts] == [3, 4]
        assert len(states) == 1 + 3 + 4 + 1 and "dead_zero" in states

    def test_structural_invariants_on_corpus(self):
        """The states are the root's move-closure, the edges its moves with
        their letters, and each state's shape and priority its owner's and
        its priority in the graph."""
        rng = random.Random(13)
        for _ in range(120):
            ab = rng.choice((AB, Alphabet.plain("a")))
            g = occurrence_graph(gen_expr(rng, ab, rng.randint(1, 12)), ab)
            states, root, edges = read_dot(graph_dot(g, ab))
            start, closure = move_closure(g)
            reads = any(a for v in closure if v >= 0 for a, _x in g.moves[v])
            if len(ab.letters) > 1 and reads:
                closure.add(DEAD_ZERO)  # a letter's mismatch
            assert root == name(start)
            assert set(states) == {name(v) for v in closure}
            assert sorted(edges, key=str) == sorted(
                ((name(v), name(x), a) for v in closure if v >= 0
                 for a, x in g.moves[v]), key=str)
            for v in closure:
                shape, text, p = states[name(v)]
                if v >= 0:
                    assert text.split()[:2] == [f"{v}:", g.kinds[v]]
                    assert p == g.priority[v]
                    assert (shape == "box") == (g.kinds[v] == "meet")
                else:
                    assert p == max(g.priority)
                    assert (shape == "box") == (v == DEAD_TOP)


class TestAgainstArena:
    def test_arena_labels_name_drawn_states(self):
        """Every position of build_arena is a drawn state, with the
        position's owner as its shape and its priority as the label's."""
        lassos = [("", "ab"), ("", "b"), ("b", "a"), ("aab", "b")]
        pairs = [(parse_expr(t, AB), Lasso(tuple(u), tuple(v), AB))
                 for t in (IA, FB, BOTH) for u, v in lassos]
        pairs += agreement_pairs(31, 200)
        for e, w in pairs:
            g = occurrence_graph(e, w.alphabet)
            states, _root, _edges = read_dot(graph_dot(g, w.alphabet))
            arena = build_arena(g, lasso_graph(w))
            for (_vertex, v), owner, p in zip(arena.labels, arena.owners,
                                              arena.priorities):
                shape, _text, drawn = states[name(v)]
                assert (shape == "box") == (owner == ABELARD)
                assert drawn == p


class TestDot:
    def test_zero_dot(self):
        dot = dot_of("0")
        assert "digraph" in dot
        assert 'shape=diamond, label="dead 0 [p=0]"' in dot

    def test_simple_mu_dot(self):
        assert dot_of("mu X. a.X") == (
            'digraph apa {\n  rankdir=LR;\n'
            '  n0 [shape=diamond, label="0: mu [p=1]", penwidth=2];\n'
            '  dead_zero [shape=diamond, label="dead 0 [p=2]"];\n'
            '  n0 -> n0 [label="a"];\n}\n')

    def test_byte_stable(self):
        assert dot_of(BOTH) == dot_of(BOTH)

    def test_universal_states_are_boxes(self):
        dot = dot_of("top & top")
        assert "n1 [shape=box" in dot and "dead_top [shape=box" in dot
