"""`rll closure`'s listing: the game's occurrence graph, node by node.

Each node is a subterm occurrence whose variables stand for their binders,
so the nodes play the part of the Fischer-Ladner closure's members. The
listing names each node once, with its kind, letter, successor ids and its
priority in the game."""

import gc
import random
import re
import time

import pytest

from helpers import reference_closure, reference_occurrence_graph
from rll import algebra
from rll.closure import (ClosureError, _printed, format_graph, graph_dot,
                         occurrence_graph)
from rll.corpus import gen_alphabet, gen_expr
from rll.syntax import (Act, Alphabet, Mu, Nu, Prop, Var, expr_size,
                        parse_expr, print_expr, subexpressions)

AB = Alphabet.plain("a", "b")
ABC = Alphabet.plain("a", "b", "c")
PQ = Alphabet.powerset("P", "Q")
IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"
LINE = re.compile(r"^(\d+): (\w+)(?: (\S+))?(?: -> ([\d ]+))? \[p=(\d+)\]$")


def graph_of(text, ab=AB):
    return occurrence_graph(parse_expr(text, ab), ab)


def listing(text, ab=AB):
    e = parse_expr(text, ab)
    return format_graph(e, occurrence_graph(e, ab))


def read_listing(out):
    """The root line, the root node and each node line's fields: kind,
    letter, successor ids and priority."""
    root, root_node, *lines = out.splitlines()
    nodes = []
    for i, line in enumerate(lines):
        m = LINE.match(line)
        assert m and int(m[1]) == i, line
        nodes.append((m[2], m[3], tuple(map(int, (m[4] or "").split())),
                      int(m[5])))
    return root, int(root_node.removeprefix("root node: ")), nodes


class TestClosureExamples:
    def test_simple_mu(self):
        assert listing("mu X. a.X") == ("root: mu X. a.X\nroot node: 0\n"
                                        "0: mu -> 1 [p=1]\n"
                                        "1: act a -> 0 [p=2]")

    def test_zero_has_no_edges(self):
        g = graph_of("0")
        assert (g.kinds, g.succs, g.moves) == (("zero",), ((),), ((),))
        assert listing("0") == "root: 0\nroot node: 0\n0: zero [p=0]"

    def test_infinitely_many_as(self):
        """IA's five nodes, one per closure member, with the game's
        priorities: 0 for the nu, 3 for the mu, 4 for the rest."""
        root, root_node, nodes = read_listing(listing(IA))
        assert root == "root: nu X. mu Y. a.X + b.Y" and root_node == 0
        assert nodes == [("nu", None, (1,), 0), ("mu", None, (4,), 3),
                         ("act", "a", (0,), 4), ("act", "b", (1,), 4),
                         ("sum", None, (2, 3), 4)]
        assert len(nodes) == len(reference_closure(parse_expr(IA, AB), AB))

    def test_open_expression_rejected(self):
        with pytest.raises(ClosureError, match="closed expressions"):
            occurrence_graph(Var("X"), AB)

    def test_format_is_stable(self):
        assert listing("nu X. a.X + b.0") == listing("nu X. a.X + b.0")


class TestPriorities:
    def test_single_member(self):
        assert graph_of("0").priority == (0,)

    def test_simple_mu_priorities(self):
        g = graph_of("mu X. a.X")
        assert g.kinds == ("mu", "act") and g.priority == (1, 2)

    def test_parity_and_monotonicity_on_corpus(self):
        """A mu's priority is odd, a nu's even, and a binder's is its
        nearest binder above's if the two have the same kind, one level
        more if not; every other node has one even value above them all."""
        rng = random.Random(42)
        for _ in range(150):
            g = occurrence_graph(gen_expr(rng, AB, rng.randint(1, 12)), AB)
            binders = [i for i, k in enumerate(g.kinds) if k in ("mu", "nu")]
            neutral = {p for i, p in enumerate(g.priority)
                       if i not in binders}
            assert len(neutral) <= 1 and all(p % 2 == 0 for p in neutral)
            for i in binders:
                assert g.priority[i] % 2 == (g.kinds[i] == "mu")
                assert all(g.priority[i] < p for p in neutral)
            for up in binders:  # a binder's body nodes have larger ids
                for i in _binders_below(g, up):
                    same = g.kinds[i] == g.kinds[up]
                    assert g.priority[i] - g.priority[up] in (
                        (0,) if same else (1, 3))


def _binders_below(g, up):
    """The binders nearest below binder up: reached from its body through
    non-binders, along successors with larger ids than up (a variable's
    back-edge goes to a binder at or above)."""
    found, stack, seen = set(), [g.succs[up][0]], set()
    while stack:
        v = stack.pop()
        if v <= up or v in seen:
            continue
        seen.add(v)
        if g.kinds[v] in ("mu", "nu"):
            found.add(v)
        else:
            stack.extend(g.succs[v])
    return found


class TestClosureInvariants:
    def test_soundness_and_minimality_on_corpus(self):
        """Every successor id is a listed node, each node is listed once,
        and every node is reached from the root along successors."""
        rng = random.Random(7)
        for _ in range(150):
            e = gen_expr(rng, AB, rng.randint(1, 12))
            g = occurrence_graph(e, AB)
            root, root_node, nodes = read_listing(format_graph(e, g))
            assert root == f"root: {print_expr(e)}" and root_node == g.roots[0]
            assert nodes == list(zip(g.kinds, g.letters, g.succs,
                                     g.priority))
            reach, frontier = {g.roots[0]}, [g.roots[0]]
            while frontier:
                for w in nodes[frontier.pop()][2]:
                    assert 0 <= w < len(nodes)
                    if w not in reach:
                        reach.add(w)
                        frontier.append(w)
            assert reach == set(range(len(nodes)))

    def test_linear_bound(self):
        """One line per node, at most one node per subterm occurrence."""
        rng = random.Random(99)
        for _ in range(200):
            e = gen_expr(rng, AB, rng.randint(1, 15))
            out = format_graph(e, occurrence_graph(e, AB))
            assert len(out.splitlines()) - 2 <= expr_size(e)

    def test_formula_is_no_expression(self):
        with pytest.raises(TypeError,
                           match=r"not an expression: Prop\(name='P'\)"):
            occurrence_graph([Prop("P")], PQ)


class TestAgainstReference:
    """The listing and the drawing against the one-expression reference
    graph, and the node count against the closure's member count."""

    def test_same_closure_on_paper_languages_and_corpus(self):
        corpus = []
        for text in (IA, FB, f"({IA}) & ({FB})"):
            e = parse_expr(text, AB)
            corpus += [(e, AB), (algebra.complement(e, AB), AB)]
        rng = random.Random(2024)
        for _ in range(300):
            ab = gen_alphabet(rng)
            corpus.append((gen_expr(rng, ab, rng.randint(1, 20)), ab))
        for k, (e, ab) in enumerate(corpus):
            got = occurrence_graph(e, ab)
            want = reference_occurrence_graph(e, ab)
            assert format_graph(e, got) == format_graph(e, want)
            assert graph_dot(got, ab) == graph_dot(want, ab)
            members = len(reference_closure(e, ab))
            # a node per member on the paper's languages; elsewhere
            # alpha-equal occurrences may be nodes of their own
            assert len(got.kinds) == members if k < 6 else \
                len(got.kinds) >= members

    def test_priorities_match_reference(self):
        """Each binder's priority by the definition: its alternation level
        l, read off the expression tree, gives 2l for nu and 2l + 1 for
        mu. Binders are nodes in preorder, unshared in a one-root graph."""
        rng = random.Random(808)
        for _ in range(200):
            ab = gen_alphabet(rng)
            e = gen_expr(rng, ab, rng.randint(1, 40))
            g = occurrence_graph(e, ab)
            got = [p for k, p in zip(g.kinds, g.priority) if k in ("mu", "nu")]
            assert got == _levels(e)

    def test_errors_match_reference(self):
        for e in (Var("X"), Act("c", Var("X")), Mu("X", Act("c", Var("X")))):
            with pytest.raises(ClosureError) as got:
                occurrence_graph(e, AB)
            with pytest.raises(ClosureError) as want:
                reference_occurrence_graph(e, AB)
            assert str(got.value) == str(want.value)


def _levels(e, above=None, level=-1):
    """Priorities of e's binders in preorder, by alternation level."""
    out = []
    if isinstance(e, (Mu, Nu)):
        level = 0 if above is None else level + (type(e) is not above)
        out.append(2 * level + isinstance(e, Mu))
        above = type(e)
    for f in ("body", "left", "right"):
        if hasattr(e, f):
            out += _levels(getattr(e, f), above, level)
    return out


class TestScaling:
    def test_size_100_closure_under_a_second(self):
        # the reference closure takes seconds on this expression
        rng = random.Random(5)
        for _ in range(11):
            e = gen_expr(rng, ABC, 100)
        start = time.perf_counter()
        g = occurrence_graph(e, ABC)
        format_graph(e, g), graph_dot(g, ABC)
        assert time.perf_counter() - start < 1.0


class TestListingBound:
    def test_bound_covers_every_printed_member(self):
        """``check_printed`` reads a bound that no printed term exceeds: on
        random expressions, their subterms and complements, and the muLTL
        round trips that share O's body."""
        rng = random.Random(17)
        for _ in range(80):
            ab = rng.choice((gen_alphabet(rng), PQ))
            e = gen_expr(rng, ab, rng.randint(1, 40))
            terms = [*subexpressions(e), algebra.complement(e, ab)]
            if ab.props is not None:
                terms.append(algebra.to_rll(algebra.to_multl(e, ab), ab))
            memo: dict = {}
            for t in terms:
                assert len(print_expr(t)) <= _printed(t, memo)


class TestGarbage:
    def test_closure_leaves_no_cyclic_garbage(self):
        """The graph walk's recursive helper is unbound on return, so the
        listing and the drawing leave nothing for the cyclic collector."""
        exprs = [parse_expr(IA, AB), parse_expr(FB, AB)]
        exprs += [algebra.complement(e, AB) for e in exprs]
        gc.collect()
        gc.disable()
        try:
            for e in exprs:
                g = occurrence_graph(e, AB)
                format_graph(e, g), graph_dot(g, AB)
            assert gc.collect() == 0
        finally:
            gc.enable()
