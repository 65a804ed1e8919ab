"""The alternating parity automaton read off the closure, and DOT export.

States are the closure members. An act edge is a letter transition, every
other edge an epsilon transition. Top and meet members are universal (boxes
in DOT), all others existential (diamonds).
"""

import random

from rll.closure import closure_with_priorities, export_dot
from rll.corpus import gen_expr
from rll.syntax import (Act, Alphabet, Meet, Mu, Nu, Sum, Top, parse_expr)

AB = Alphabet.plain("a", "b")

IA = "nu X. mu Y. (a.X + b.Y)"
FB = "mu X. (b.X + a.X + a.(nu Y. a.Y))"
BOTH = f"({IA}) & ({FB})"


def closure_of(text, ab=AB):
    return closure_with_priorities(parse_expr(text, ab), ab)


def letter_edges(c):
    return [(s, k[4:], t) for s, t, k in c.edges if k.startswith("act:")]


def epsilon_edges(c):
    return [(s, t) for s, t, k in c.edges if not k.startswith("act:")]


def shapes(c):
    """The DOT shape of each state, in member order."""
    lines = [ln for ln in export_dot(c).splitlines() if "shape=" in ln]
    return [ln.split("shape=")[1].split(",")[0] for ln in lines]


class TestBuildApa:
    def test_simple_mu(self):
        c = closure_of("mu X. a.X")
        assert len(c.members) == 2
        assert [letter for _s, letter, _t in letter_edges(c)] == ["a"]
        assert len(epsilon_edges(c)) == 1  # the unfolding

    def test_zero_is_deadlocked_existential(self):
        c = closure_of("0")
        assert len(c.members) == 1
        assert shapes(c) == ["diamond"]
        assert c.edges == ()

    def test_meet_root_is_universal_with_two_components(self):
        c = closure_of(BOTH)
        assert isinstance(c.members[0], Meet) and shapes(c)[0] == "box"
        eps_from_root = [t for s, t in epsilon_edges(c) if s == 0]
        assert len(eps_from_root) == 2
        # component sizes: 5 states reachable for the infinitely-many-as
        # component, 7 for the finitely-many-bs one, 13 in total
        assert len(c.members) == 13
        succ = {}
        for s, t, _k in c.edges:
            succ.setdefault(s, []).append(t)
        for start, want in zip(sorted(eps_from_root), (5, 7)):
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in succ.get(v, []):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            assert len(seen) == want

    def test_structural_invariants_on_corpus(self):
        rng = random.Random(13)
        for _ in range(120):
            e = gen_expr(rng, AB, rng.randint(1, 12))
            c = closure_with_priorities(e, AB)
            letter_out = {}
            eps_out = {}
            for s, _l, t in letter_edges(c):
                letter_out[s] = letter_out.get(s, 0) + 1
            for s, t in epsilon_edges(c):
                eps_out[s] = eps_out.get(s, 0) + 1
            for i, (m, shape) in enumerate(zip(c.members, shapes(c))):
                if isinstance(m, Act):
                    assert letter_out.get(i, 0) == 1 and eps_out.get(i, 0) == 0
                elif isinstance(m, (Sum, Meet)):
                    assert letter_out.get(i, 0) == 0 and eps_out.get(i, 0) == 2
                elif isinstance(m, (Mu, Nu)):
                    assert letter_out.get(i, 0) == 0 and eps_out.get(i, 0) == 1
                else:
                    assert letter_out.get(i, 0) == 0 and eps_out.get(i, 0) == 0
                assert shape == ("box" if isinstance(m, (Top, Meet))
                                 else "diamond")


class TestDot:
    def test_zero_dot(self):
        dot = export_dot(closure_of("0"))
        assert "digraph" in dot
        assert 'shape=diamond, label="0 [p=0]"' in dot

    def test_simple_mu_dot(self):
        dot = export_dot(closure_of("mu X. a.X"))
        assert dot == ('digraph apa {\n  rankdir=LR;\n'
                       '  n0 [shape=diamond, label="mu X. a.X [p=1]", '
                       'penwidth=2];\n'
                       '  n1 [shape=diamond, label="a.(mu X. a.X) [p=2]"];\n'
                       '  n1 -> n0 [label="a"];\n  n0 -> n1;\n}\n')

    def test_byte_stable(self):
        assert export_dot(closure_of(BOTH)) == export_dot(closure_of(BOTH))

    def test_universal_states_are_boxes(self):
        dot = export_dot(closure_of("top & top"))
        assert "shape=box" in dot
