"""CLI: subcommand behaviour, exit codes, output stability."""

import argparse
import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rll
from helpers import (PROOF_DIR, reference_build_parser,
                     reference_equiv_bounded, reference_main, spellings)
from rll.calculus import (check_derivation, derivation_to_json,
                          derive_complement, load_proof_file)
from rll.cli import main, parse_args
from rll.corpus import gen_expr, gen_lasso
from rll.game import GameError, member_game
from rll.semantics import print_lasso
from rll.syntax import Alphabet, parse_expr, print_expr

IA = "alphabet a b ;\nnu X. mu Y. (a.X + b.Y)\n"
NUAX = "alphabet a b ;\nnu X. a.X\n"
TOP = "alphabet a b ;\ntop\n"
FB = "alphabet a b ;\nmu X. (b.X + a.X + a.(nu Y. a.Y))\n"
BOTH = ("alphabet a b ;\n(nu X. mu Y. (a.X + b.Y)) & "
        "(mu X. (b.X + a.X + a.(nu Y. a.Y)))\n")
AB = Alphabet.plain("a", "b")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("ia", IA), ("nuax", NUAX), ("top", TOP),
                       ("fb", FB), ("both", BOTH)]:
        p = tmp_path / f"{name}.rll"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMember:
    def test_both_agree_true(self, files, capsys):
        code, out, _ = run(capsys, ["member", files["ia"], "(ab)"])
        assert code == 0
        assert out.strip() == "true (game=oracle)"

    def test_member_false_exits_one(self, files, capsys):
        code, out, _ = run(capsys, ["member", files["ia"], "(b)"])
        assert code == 1
        assert out.strip() == "false (game=oracle)"

    def test_via_game_only(self, files, capsys):
        code, out, _ = run(capsys, ["member", files["ia"], "(ab)",
                                    "--via", "game"])
        assert code == 0 and out.strip() == "true"

    def test_oracle_member(self, files, capsys):
        code, out, _ = run(capsys, ["oracle-member", files["fb"], "(a)"])
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, ["oracle-member", files["fb"], "(ab)"])
        assert code == 1 and out.strip() == "false"

    def test_spellings_agree(self, tmp_path, capsys):
        """Every spelling of a word gets the game's verdict, and the game on
        the normal form agrees with the oracle on the spelling as typed."""
        rng = random.Random(41)
        path = tmp_path / "e.rll"
        for _ in range(40):
            e = gen_expr(rng, AB, rng.randint(1, 12))
            path.write_text(f"alphabet a b ;\n{print_expr(e)}\n")
            w = gen_lasso(rng, AB, 3, 4)
            want = member_game(e, w)
            for s in [w] + spellings(w):
                code, out, _ = run(capsys, ["member", str(path),
                                            print_lasso(s)])
                assert (code, out) == (0 if want else 1,
                                       f"{str(want).lower()} (game=oracle)\n")

    def test_oracle_reads_lasso_as_typed(self, files, capsys, monkeypatch):
        def refuse(w):
            raise AssertionError("the oracle normalised its lasso")

        monkeypatch.setattr(rll.cli, "lasso_normalize", refuse)
        code, out, _ = run(capsys, ["member", files["ia"], "ab(ab)",
                                    "--via", "oracle"])
        assert (code, out) == (0, "true\n")

    def test_bad_lasso_is_usage_error(self, files, capsys):
        code, _out, err = run(capsys, ["member", files["ia"], "(c)"])
        assert code == 2 and "error" in err

    def test_long_bad_lasso_error_is_short(self, files, capsys):
        """A lasso of 50,000 letters with a typo at position 1 exits 2 with
        an error that quotes 40 characters of the text and of its unread
        rest, not all of both."""
        text = "ac" + "a" * 49_998 + "(b)"
        code, out, err = run(capsys, ["member", files["ia"], text])
        assert (code, out) == (2, "")
        assert err == (f"error: lasso {text[:40]!r}...: no letter matches "
                       f"here: {'c' + 'a' * 39!r}... (at position 1)\n")
        assert len(err) < 200

    def test_powerset_letter_spellings(self, tmp_path, capsys):
        """{Q,P} and {P,P,Q} name the letter {P,Q}, in a lasso as in an
        expression; an undeclared proposition is a usage error."""
        path = tmp_path / "pq.rll"
        path.write_text("props P Q ;\nnu X. {Q,P}.X\n")
        for period, want in (("{P,Q}", 0), ("{Q,P}", 0), ("{P,P,Q}", 0),
                             ("{Q}", 1), ("{Q,Q}", 1)):
            code, out, _ = run(capsys, ["member", str(path), f"({period})"])
            assert code == want, (period, out)
        code, out, err = run(capsys, ["member", str(path), "({P,R})"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'R'" in err

    def test_whitespace_in_a_braced_letter(self, tmp_path, capsys):
        """A tab or a newline between a lasso's braced names reads as in an
        expression; a missing name is a syntax error with its position."""
        path = tmp_path / "pq.rll"
        path.write_text("props P Q ;\nnu X. {P,\tQ}.X\n")
        for period in ("{Q,\tP}", "{Q,\nP}"):
            assert run(capsys, ["member", str(path), f"({period})"])[0] == 0
        code, out, err = run(capsys, ["member", str(path), "({Q,})"])
        assert (code, out) == (2, "")
        assert err == ("error: lasso '({Q,})': expected 'ident', found '}' "
                       "(at position 4)\n")


class TestSearch:
    def test_equiv_counterexample(self, files, capsys):
        code, out, _ = run(capsys, ["equiv", files["nuax"], files["top"],
                                    "--max-prefix", "1", "--max-period", "2"])
        assert code == 1
        assert out.strip() == "counterexample: (b)"

    def test_equiv_none(self, files, capsys):
        code, out, _ = run(capsys, ["equiv", files["fb"], files["both"],
                                    "--max-prefix", "2", "--max-period", "3"])
        assert code == 0
        assert "no difference found up to bounds" in out

    def test_incl(self, files, capsys):
        code, out, _ = run(capsys, ["incl", files["top"], files["nuax"],
                                    "--max-prefix", "1", "--max-period", "1"])
        assert code == 1 and out.strip() == "counterexample: (b)"
        code, out, _ = run(capsys, ["incl", files["nuax"], files["ia"],
                                    "--max-prefix", "2", "--max-period", "2"])
        assert code == 0

    @pytest.mark.parametrize("command", ["equiv", "incl"])
    @pytest.mark.parametrize("bound", [["--max-period", "0"],
                                       ["--max-prefix", "-1"]])
    def test_empty_bounds_are_usage_errors(self, files, capsys, command,
                                           bound):
        code, out, err = run(capsys, [command, files["fb"], files["both"],
                                      *bound])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bound[0][2:]} must be at least ")

    @pytest.mark.parametrize("command", ["equiv", "incl"])
    def test_bounds_over_the_cap_exit_two(self, files, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, [command, files["fb"], files["both"],
                                      "--max-prefix", "40"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == ("error: max-prefix 40 and max-period 3 would try over "
                       "1048576 lassos\n")


class TestRejudgedCounterexample:
    """``equiv`` and ``incl`` print a counterexample only once the fixpoint
    oracle agrees that it separates the two sides."""

    @pytest.mark.parametrize("argv,oracle", [
        (["equiv", "nuax", "top", "--max-prefix", "1", "--max-period", "2"],
         lambda e, w: True),
        (["incl", "top", "nuax", "--max-prefix", "1", "--max-period", "1"],
         lambda e, w: False)])
    def test_a_disagreeing_oracle_exits_two(self, files, capsys, monkeypatch,
                                            argv, oracle):
        judged = []
        monkeypatch.setattr(rll.cli, "member_oracle",
                            lambda e, w: judged.append(w) or oracle(e, w))
        argv = [argv[0], files[argv[1]], files[argv[2]], *argv[3:]]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        verdict = oracle(None, None)
        assert err == ("error: game and oracle disagree on the "
                       f"counterexample (b) (oracle: left={verdict}, "
                       f"right={verdict})\n")
        assert [print_lasso(w) for w in judged] == ["(b)", "(b)"]

    def test_an_agreeing_oracle_judges_both_sides(self, files, capsys,
                                                   monkeypatch):
        judged = []
        real = rll.cli.member_oracle
        monkeypatch.setattr(rll.cli, "member_oracle",
                            lambda e, w: judged.append(w) or real(e, w))
        code, out, err = run(capsys, ["equiv", files["nuax"], files["top"],
                                      "--max-prefix", "1", "--max-period",
                                      "2"])
        assert (code, out, err) == (1, "counterexample: (b)\n", "")
        assert [print_lasso(w) for w in judged] == ["(b)", "(b)"]

    def test_one_letter_at_the_largest_prefix_bound(self, tmp_path, capsys):
        """Over one letter the only normal lasso is (a), found at once even
        where the bounds admit a million candidate prefixes; the run is
        under an alarm, which ends a search that keeps scanning."""
        nu, mu = tmp_path / "nu.rll", tmp_path / "mu.rll"
        nu.write_text("alphabet a ;\nnu X. a.X\n")
        mu.write_text("alphabet a ;\nmu X. a.X\n")

        def stop(signum, frame):
            raise TimeoutError("the one-letter search did not return")

        handler = signal.signal(signal.SIGALRM, stop)
        signal.alarm(5)
        try:
            got = [run(capsys, [command, str(nu), str(mu), "--max-prefix",
                                "1048000", "--max-period", "1"])
                   for command in ("equiv", "incl")]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert got == [(1, "counterexample: (a)\n", "")] * 2


class TestTracedLayers:
    def test_commands_reach_the_game_layers(self, files, capsys,
                                            monkeypatch):
        """``member``, ``equiv`` and ``incl`` call ``build_arena`` and
        ``solve_parity`` through their ``rll.game`` attributes, which
        ``bench/spans.py`` wraps, and the arena keeps the ``owners`` and
        ``edges`` that its counts read. ``equiv`` and ``incl`` build one
        arena per batch, here one per lasso length 1-5 at the default
        bounds, on one graph of both sides."""
        calls = {"build_arena": [], "solve_parity": []}
        for name, seen in calls.items():
            def counted(*args, _real=getattr(rll.game, name), _seen=seen):
                _seen.append((args, _real(*args)))
                return _seen[-1][1]
            monkeypatch.setattr(rll.game, name, counted)
        for argv in (["member", files["ia"], "(ab)"],
                     ["equiv", files["fb"], files["both"]],
                     ["incl", files["nuax"], files["ia"]]):
            before = {name: len(seen) for name, seen in calls.items()}
            assert run(capsys, argv)[0] == 0
            for name, seen in calls.items():
                assert len(seen) > before[name], (argv, name)
            if argv[0] != "member":
                built = calls["build_arena"][before["build_arena"]:]
                solved = calls["solve_parity"][before["solve_parity"]:]
                assert len(built) == len(solved) == 5, argv
                assert all(len(args[2].roots) == 2 for args, _g in built)
        for _args, g in calls["build_arena"]:
            assert len(g.owners) == len(g.edges) > 0
            assert all(isinstance(s, int) for moves in g.edges
                       for s in moves)


class TestInspection:
    def test_parse_reprints(self, files, capsys):
        code, out, _ = run(capsys, ["parse", files["ia"]])
        assert code == 0
        assert out.splitlines()[0] == "alphabet a b ;"
        assert "nu X. mu Y. a.X + b.Y" in out

    def test_closure_listing(self, files, capsys):
        """Each node of the occurrence graph once, with its successor ids
        and its priority in the game."""
        code, out, _ = run(capsys, ["closure", files["nuax"]])
        assert (code, out) == (0, "root: nu X. a.X\nroot node: 0\n"
                                  "0: nu -> 1 [p=0]\n1: act a -> 0 [p=2]\n")

    def test_apa_dot(self, files, capsys):
        """The nu, whose one move reads a and lands on itself, and the
        deadlock where that move ends at b."""
        code, out, _ = run(capsys, ["apa-dot", files["nuax"]])
        assert (code, out) == (0, (
            'digraph apa {\n  rankdir=LR;\n'
            '  n0 [shape=diamond, label="0: nu [p=0]", penwidth=2];\n'
            '  dead_zero [shape=diamond, label="dead 0 [p=2]"];\n'
            '  n0 -> n0 [label="a"];\n}\n'))

    def test_complement_example(self, files, capsys):
        code, out, _ = run(capsys, ["complement", files["nuax"]])
        assert code == 0
        assert out.splitlines()[1] == "mu X. a.X + b.top"

    def test_outputs_are_stable(self, files, capsys):
        first = run(capsys, ["apa-dot", files["both"]])
        second = run(capsys, ["apa-dot", files["both"]])
        assert first == second

    def test_alphabet_flag_mismatch(self, files, capsys):
        code, _out, err = run(capsys, ["parse", files["ia"],
                                       "--alphabet", "a b c"])
        assert code == 2 and "does not match" in err

    def test_props_flag_mismatch(self, tmp_path, capsys):
        path = tmp_path / "pq.rll"
        path.write_text("props P Q ;\nnu X. {P}.X\n")
        code, out, err = run(capsys, ["parse", str(path), "--props", "Q P"])
        assert (code, out, err) == (
            2, "", f"error: {path}: props flag does not match file header\n")

    def test_searches_need_one_alphabet(self, tmp_path, capsys):
        left, right = tmp_path / "ab.rll", tmp_path / "ac.rll"
        left.write_text("alphabet a b ;\nnu X. a.X\n")
        right.write_text("alphabet a c ;\nnu X. a.X\n")
        for command in ("equiv", "incl"):
            code, out, err = run(capsys, [command, str(left), str(right)])
            assert (code, out, err) == (2, "", "error: the two expression "
                                        "files declare different alphabets\n")


def _nested_sum(levels: int) -> str:
    """b.0 + (b.0 + (... + a.top)), with levels sums."""
    text = "a.top"
    for _ in range(levels):
        text = f"b.0 + ({text})"
    return text


class TestDeepNesting:
    """Nesting past the interpreter's recursion limit is an input error;
    prefix chains and parentheses, which the parser reads in a loop, parse.
    At 490 levels ``member --via both`` answers, and both judges agree (a
    disagreement exits 2): the arena resolves each choice at its letter
    with no recursion."""

    @pytest.fixture
    def deep(self, tmp_path):
        p = tmp_path / "deep.rll"
        p.write_text("alphabet a b ;\n" + "a." * 1200 + "top\n")
        return str(p)

    def _run(self, argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, "-m", "rll.cli", *argv],
                              capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("argv", [["member", "(a)"], ["parse"],
                                      ["closure"], ["apa-dot"]])
    def test_exits_two_without_traceback(self, deep, argv):
        proc = self._run(argv[:1] + [deep] + argv[1:])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "error: expression nested too deeply"

    @pytest.mark.parametrize("argv,text", [
        (["parse", "--formula", "FILE"], "props P ;\n" + "! " * 2000 + "P\n"),
        (["parse", "--formula", "FILE"],
         "props P ;\n" + "(" * 170 + "tt" + ")" * 170),
        (["member", "FILE", "(a)"],
         "alphabet a b ;\n" + "(" * 250 + "top" + ")" * 250),
        (["member", "--via", "both", "FILE", "(a)"],
         "alphabet a b ;\n" + "a." * 490 + "top\n"),
        (["member", "--via", "both", "FILE", "(a)"],
         "alphabet a b ;\n" + _nested_sum(490) + "\n"),
    ], ids=["not-chain-2000", "formula-parens-170", "expr-parens-250",
            "member-act-chain-490", "member-nested-sum-490"])
    def test_parser_reads_deep_prefixes_and_parentheses(self, tmp_path, argv,
                                                        text):
        path = tmp_path / "deep.txt"
        path.write_text(text)
        proc = self._run([str(path) if a == "FILE" else a for a in argv])
        assert (proc.returncode, proc.stderr) == (0, "")


class TestPropositionCap:
    """A powerset alphabet has 2^n letters; past 16 propositions it is
    refused before any letter is built."""

    NAMES = [f"P{i}" for i in range(30)]

    def _timed(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "30 propositions exceed the cap of 16" in err

    def test_props_header(self, tmp_path, capsys):
        path = tmp_path / "wide.mltl"
        path.write_text(f"props {' '.join(self.NAMES)} ;\ntt\n")
        self._timed(capsys, ["parse", "--formula", str(path)])

    def test_proof_alphabet(self, tmp_path, capsys):
        data = _shipped("until_next_distribution.json")
        data["alphabet"] = self.NAMES
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        self._timed(capsys, ["check", str(path)])


class TestArenaCap:
    """An arena over ``game.MAX_ARENA`` slots (lasso letters x graph
    nodes) is refused before it is built."""

    def test_member_over_cap_exits_two(self, tmp_path, capsys):
        def balanced(k):  # 2^k distinct binders: about 3 * 2^k graph nodes
            return ("nu X. a.X" if k == 0
                    else f"({balanced(k - 1)}) + ({balanced(k - 1)})")

        path = tmp_path / "wide.rll"
        path.write_text(f"alphabet a b ;\n{balanced(10)}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["member", str(path),
                                      "ba" * 1000 + "(b)"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "2001 x 3071 slots" in err

    def test_member_solves_the_normal_form(self, tmp_path, capsys):
        """3001 letters as typed are over the cap; the normal form (b) is one
        letter, so the game is solved."""
        text = "nu X. a.X"
        for _ in range(10):  # the 3071-node expression above
            text = f"({text}) + ({text})"
        path = tmp_path / "wide.rll"
        path.write_text(f"alphabet a b ;\n{text}\n")
        code, out, err = run(capsys, ["member", str(path), "b" * 3000 + "(b)"])
        assert (code, out, err) == (1, "false (game=oracle)\n", "")


    def test_equiv_over_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        """A lasso length times graph nodes past MAX_ARENA is refused where
        the per-lasso search refuses, with its message. MAX_LASSOS keeps
        lassos under about 20 letters, far below 4,194,304 / 3071, so
        MAX_ARENA is lowered to 3 x 3071: lengths 1-3 are solved, length 4
        is refused."""
        text = "nu X. a.X"
        for _ in range(10):  # the 3071-node expression above
            text = f"({text}) + ({text})"
        path = tmp_path / "wide.rll"
        path.write_text(f"alphabet a b ;\n{text}\n")
        monkeypatch.setattr(rll.game, "MAX_ARENA", 3 * 3071)
        e = parse_expr(text, AB)
        with pytest.raises(GameError) as refused:
            reference_equiv_bounded(e, e, AB, 2, 2)
        start = time.perf_counter()
        code, out, err = run(capsys, ["equiv", str(path), str(path),
                                      "--max-prefix", "2",
                                      "--max-period", "2"])
        assert time.perf_counter() - start < 5.0
        assert (code, out, err) == (2, "", f"error: {refused.value}\n")
        assert "4 x 3071 slots" in err


class TestListingCap:
    """The listing and the drawing name each node of the occurrence graph
    once, so they are linear in the expression: an expression whose
    Fischer-Ladner closure would print 248 MB answers at once."""

    @pytest.mark.parametrize("command", ["closure", "apa-dot"])
    def test_wide_expression_lists_in_a_second(self, tmp_path, capsys,
                                               command):
        # the 2nd draw: 144 closure members of 50,699,265 nodes in all
        ab = Alphabet.plain("a", "b", "c")
        rng = random.Random(200)
        gen_expr(rng, ab, 200)
        path = tmp_path / "wide.rll"
        text = print_expr(gen_expr(rng, ab, 200))
        path.write_text(f"{ab.header()}\n{text}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, [command, str(path)])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "") and len(out) < 20_000


class TestBoundedMemory:
    """In-process queries leave nothing behind: term facts live on the
    terms, not in module-level caches."""

    def test_distinct_member_queries(self, tmp_path, capsys):
        rng, ab, texts = random.Random(3), Alphabet.plain("a", "b"), set()
        while len(texts) < 300:
            texts.add(print_expr(gen_expr(rng, ab, 30)))
        paths = []
        for i, text in enumerate(sorted(texts)):
            path = tmp_path / f"e{i}.rll"
            path.write_text(f"alphabet a b ;\n{text}\n")
            paths.append(str(path))
        for path in paths[:20]:
            assert run(capsys, ["member", path, "a(b)"])[0] in (0, 1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for path in paths[20:]:
                assert run(capsys, ["member", path, "a(b)"])[0] in (0, 1)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 512 * 1024

    @pytest.fixture
    def proof_files(self, tmp_path):
        """60 distinct generated complement derivations, as proof files."""
        rng, texts, paths = random.Random(5), set(), []
        while len(paths) < 60:
            e = gen_expr(rng, AB, rng.randint(6, 16))
            if print_expr(e) in texts:
                continue
            texts.add(print_expr(e))
            for d in derive_complement(e, AB):
                path = tmp_path / f"d{len(paths)}.json"
                path.write_text(json.dumps(derivation_to_json(d)))
                paths.append(str(path))
        return paths

    def test_distinct_check_queries(self, capsys, proof_files):
        for path in proof_files[:10]:
            assert run(capsys, ["check", path])[0] == 0
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for path in proof_files[10:]:
                assert run(capsys, ["check", path])[0] == 0
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 512 * 1024

    def test_checking_leaves_no_cyclic_garbage(self, proof_files):
        gc.collect()
        gc.disable()
        try:
            for path in proof_files:
                assert check_derivation(load_proof_file(path)).accepted
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_commands_leave_no_cyclic_garbage(self, files, capsys):
        """A subcommand's parser outlives its command line, so a successful
        command leaves nothing for the cyclic collector."""
        argvs = [["member", files["ia"], "(ab)"],
                 ["equiv", files["ia"], files["fb"]],
                 ["incl", files["ia"], files["fb"]],
                 ["check", os.path.join(PROOF_DIR, "zero_le_e.json")],
                 ["selftest", "--pairs", "3"]]
        for argv in argvs:
            assert run(capsys, argv)[0] in (0, 1)
        gc.collect()
        gc.disable()
        try:
            for argv in argvs:
                for _ in range(5):
                    assert run(capsys, argv)[0] in (0, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_lru_cache(self):
        src = os.path.dirname(rll.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), encoding="utf-8") as fh:
                    assert "lru_cache" not in fh.read(), name


class TestTranslate:
    def test_to_ltl_and_back(self, tmp_path, capsys):
        src = tmp_path / "e.rll"
        src.write_text("props P ;\nnu X. {P}.X\n")
        code, out, _ = run(capsys, ["translate", "--to", "ltl", str(src)])
        assert code == 0
        assert out.splitlines()[0] == "props P ;"
        formula_file = tmp_path / "f.mltl"
        formula_file.write_text(out)
        code, out2, _ = run(capsys, ["translate", "--to", "rll",
                                     str(formula_file)])
        assert code == 0

    def test_round_trip_with_a_proposition_named_x(self, tmp_path,
                                                    capsys):
        """0 and top translate to fixpoints whose variable is no
        proposition's name, so the formula reads back, meaning the same."""
        src = tmp_path / "e.rll"
        src.write_text("props X ;\n{X}.0 + {}.top\n")
        code, out, err = run(capsys, ["translate", "--to", "ltl", str(src)])
        assert (code, err) == (0, "")
        assert out == "props X ;\nX & O (mu X0. X0) | ~X & O (nu X0. X0)\n"
        formula_file = tmp_path / "f.mltl"
        formula_file.write_text(out)
        code, out, err = run(capsys, ["translate", "--to", "rll",
                                      str(formula_file)])
        assert (code, err) == (0, "")
        back = tmp_path / "back.rll"
        back.write_text(out)
        code, out, _ = run(capsys, ["equiv", str(src), str(back)])
        assert code == 0, out

    def test_bound_variable_named_as_a_proposition(self, tmp_path, capsys):
        """A binder named as a proposition is renamed in the formula, so the
        formula reads back, meaning the same."""
        src = tmp_path / "e.rll"
        src.write_text("props X ;\nmu X. {X}.X\n")
        code, out, err = run(capsys, ["translate", "--to", "ltl", str(src)])
        assert (code, err) == (0, "")
        assert out == "props X ;\nmu X_1. X & O X_1\n"
        formula_file = tmp_path / "f.mltl"
        formula_file.write_text(out)
        code, out, err = run(capsys, ["translate", "--to", "rll",
                                      str(formula_file)])
        assert (code, err) == (0, "")
        back = tmp_path / "back.rll"
        back.write_text(out)
        code, out, _ = run(capsys, ["equiv", str(src), str(back)])
        assert code == 0, out

    def test_exponential_output_exits_two(self, tmp_path, capsys):
        """O^10 P prints each O's body once per letter: 33 MB. Its memoised
        size bound refuses it before the header is printed."""
        path = tmp_path / "deep.mltl"
        path.write_text("props P Q ;\n" + "O " * 10 + "P\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["translate", "--to", "rll", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "over the cap of 16777216" in err

    def test_plain_alphabet_rejected_for_ltl(self, files, capsys):
        code, _out, err = run(capsys, ["translate", "--to", "ltl",
                                       files["ia"]])
        assert code == 2


class TestCheck:
    def test_shipped_proof_accepted(self, capsys):
        path = os.path.join(PROOF_DIR, "zero_le_e.json")
        code, out, _ = run(capsys, ["check", path])
        assert code == 0 and out.strip() == "accepted"

    def test_broken_proof_rejected(self, tmp_path, capsys):
        path = os.path.join(PROOF_DIR, "zero_le_e.json")
        data = json.load(open(path))
        data["steps"][1]["claim"]["rhs"] = "top"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["check", str(bad)])
        assert code == 1 and out.startswith("rejected at step")

    def test_malformed_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "nonsense.json"
        bad.write_text("{not json")
        code, _out, err = run(capsys, ["check", str(bad)])
        assert code == 2

    def test_claims_with_renamed_binders(self, tmp_path, capsys):
        """Claims are matched against rule instances up to renaming: the
        instances bind X, these claims bind Y and Z."""
        data = _shipped("mu_fixpoint_unfold.json")
        claims = [step["claim"] for step in data["steps"]]
        for claim in claims:
            for side in ("lhs", "rhs"):
                claim[side] = claim[side].replace("X", "Y" if side == "lhs"
                                                  else "Z")
        assert claims[2] == {"rel": "leq", "lhs": "mu Y. a.Y",
                             "rhs": "a.(mu Z. a.Z)"}
        renamed = tmp_path / "renamed.json"
        renamed.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["check", str(renamed)])
        assert code == 0 and out.strip() == "accepted"
        claims[2]["lhs"] = "nu Y. a.Y"
        renamed.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["check", str(renamed)])
        assert code == 1 and out.startswith("rejected at step s3")


def _shipped(name):
    with open(os.path.join(PROOF_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _with_field(name, path, value):
    """The shipped proof name with the JSON field at path set to value."""
    data = _shipped(name)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _field_paths(data, path=()):
    """The path of every field and list entry inside data."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


MALFORMED = {
    "top-level-list": [_shipped("zero_le_e.json")],
    "steps-null": _with_field("zero_le_e.json", ["steps"], None),
    "claim-string": _with_field("zero_le_e.json", ["steps", 0, "claim"],
                                "E <= E"),
    "premise-list": _with_field("zero_le_e.json", ["steps", 1, "premises"],
                                [["s1"]]),
    "subst-number": _with_field("zero_le_e.json", ["steps", 1, "subst"],
                                {"e": 5}),
    "atom-number": {"system": "rll", "tier": "extended", "alphabet": ["a"],
                    "steps": [{"id": "s1", "rule": "bool_taut",
                               "claim": {"rel": "leq", "lhs": "0",
                                         "rhs": "top"},
                               "subst": {"atoms": [5]}}]},
}

def _duality_proof():
    """A generated derivation whose first step is a duality step, with a
    hypothetical sub-derivation."""
    plus, _meet = derive_complement(parse_expr("mu X. a.X", AB), AB)
    return derivation_to_json(plus)


# each required field: a proof that has it, the path of the object that
# holds it, the field, and what the message calls that object
REQUIRED = [
    *[("zero_le_e", (), key, "the proof")
      for key in ("system", "alphabet", "steps")],
    *[("zero_le_e", ("steps", 0), key, "a step")
      for key in ("id", "claim", "rule")],
    *[("zero_le_e", ("steps", 0, "claim"), key, "a claim")
      for key in ("rel", "lhs", "rhs")],
    ("until_next_distribution", ("steps", 0, "claim"), "formula", "a claim"),
    *[("duality", ("steps", 0, "hyp"), key, "hyp")
      for key in ("fresh", "steps")],
]

FIELDS = [(name, path) for name in sorted(os.listdir(PROOF_DIR))
          for path in _field_paths(_shipped(name))]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


class TestMalformedProof:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_two(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(MALFORMED[name]))
        code, out, err = run(capsys, ["check", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("name,path,key,owner", REQUIRED,
                             ids=[f"{r[0]}-{r[2]}" for r in REQUIRED])
    def test_missing_field_is_named(self, name, path, key, owner, tmp_path,
                                    capsys):
        data = (_duality_proof() if name == "duality"
                else _shipped(f"{name}.json"))
        target = data
        for k in path:
            target = target[k]
        del target[key]
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(data))
        assert run(capsys, ["check", str(proof)]) == (
            2, "", f"error: {proof}: {owner} has no {key!r} field\n")

    def test_deep_json_is_named(self, tmp_path, capsys):
        """The JSON decoder recurses once per level of nesting."""
        proof = tmp_path / "deep.json"
        proof.write_text("[" * 100_000)
        assert run(capsys, ["check", str(proof)]) == (
            2, "", f"error: {proof}: JSON nested too deeply\n")

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
    def test_any_field_set_to_any_json(self, field, value, tmp_path, capsys):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(_with_field(*field, value)))
        code, _out, _err = run(capsys, ["check", str(path)])
        assert code in (0, 1, 2)


HEADERS = ["alphabet a b ;", "props P Q ;", "props P ;", "alphabet a ;",
           "alphabet ;", "props ;", "alphabet a a ;", "props P P ;",
           "alphabet a b", "alphabet mu ;", "props {P} ;", "alphabet a ; ;",
           ""]
TOKENS = ["a", "b", "c", "X", "Y", "P", "Q", ".", "+", "&", "|", "~", "!",
          "(", ")", "{", "}", ",", ";", "0", "mu ", "nu ", "top", "tt", "ff",
          "O ", "->", "<->", " ", "\n", "#"]
FILES = st.one_of(
    st.binary(max_size=30),
    st.builds(lambda head, body: (head + body).encode(),
              st.sampled_from(HEADERS),
              st.lists(st.sampled_from(TOKENS), max_size=14).map("".join)),
    st.sampled_from([IA, NUAX, TOP, FB, BOTH, "props P Q ;\nnu X. {P}.X\n",
                     "props P Q ;\nmu X. (P | O X)\n"]).map(str.encode))
LASSOS = st.one_of(
    st.sampled_from(["(ab)", "a(b)", "()", "(", "ab", "(c)", "({P})",
                     "{P}({})", "(a", "a)b(", ""]),
    st.text(alphabet="ab(){},PQ", max_size=8))
COMMANDS = [["parse", "FILE"], ["parse", "--formula", "FILE"],
            ["closure", "FILE"], ["apa-dot", "FILE"],
            ["member", "FILE", "LASSO"], ["complement", "FILE"],
            ["translate", "--to", "ltl", "FILE"],
            ["translate", "--to", "rll", "FILE"], ["equiv", "FILE", "OTHER"],
            ["incl", "FILE", "OTHER"]]


class TestFuzz:
    """Random bytes, malformed headers and malformed lassos: every
    subcommand that reads an expression or formula file answers with an
    exit code, never an exception."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=st.sampled_from(COMMANDS), content=FILES,
           other=st.none() | FILES, lasso=LASSOS)
    def test_exit_codes(self, argv, content, other, lasso, tmp_path, capsys):
        left, right = tmp_path / "left.rll", tmp_path / "right.rll"
        left.write_bytes(content)
        right.write_bytes(content if other is None else other)
        names = {"FILE": str(left), "OTHER": str(right), "LASSO": lasso}
        code, _out, err = run(capsys, [names.get(a, a) for a in argv])
        assert code in (0, 1, 2)
        assert code != 2 or err.startswith("error: ")

    def test_invalid_utf8_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bytes.rll"
        path.write_bytes(b"alphabet a ;\n\xff")
        code, out, err = run(capsys, ["parse", str(path)])
        assert code == 2 and out == ""
        assert err == (f"error: {path}: not UTF-8 text (invalid start byte "
                       "at byte 13)\n")


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--pairs", "40"])
        assert code == 0
        assert "all checks passed" in out

    def test_deterministic(self, capsys):
        a = run(capsys, ["selftest", "--pairs", "25"])
        b = run(capsys, ["selftest", "--pairs", "25"])
        assert a == b

    def test_pair_count_at_least_zero(self, capsys):
        assert run(capsys, ["selftest", "--pairs", "-3"]) == (
            2, "", "error: pairs must be at least 0, not -3\n")
        code, out, _ = run(capsys, ["selftest", "--pairs", "0"])
        assert code == 0
        assert "[ok] complement law on 0 seeded pairs\n" in out
        assert out.endswith("selftest: all checks passed\n")


def invoke(main_fn, argv, capsys):
    """Exit code, stdout and stderr of one command, argparse exits
    included."""
    try:
        code = main_fn(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# help, version and usage errors of every subcommand, at 80 columns: the
# SHA-256 of exit code, stdout and stderr (see TestCliContract.digest)
CONTRACT = {
    ():
        "7b5071d14735463542e0314d00e7f6ea25701c5d85f1f08b7cf833ccf52b4684",
    ("-h",):
        "2e9bcd22a59ecc66fe758fcf74d2cfecd988b2fa124f84a2f6e5427666c561be",
    ("--version",):
        "c9d096b80b37e74f8de552a417237015735ede3bb11528d97ba5122abd2dc245",
    ("bogus",):
        "aa7c07740f6c0a3cf2590327be49e1b94e25a8e78bdea23da03342ca06e59fd3",
    ("--alphabet", "a", "member"):
        "5c06c36eb92d406018dc91ba8ce7cc833c25482d95c1b1bbd88574a66a87bbca",
    ("parse", "-h"):
        "50db115089b1df2cb29bec45970aa44d5f44896c68e3ccd8716432738f1d79be",
    ("closure", "-h"):
        "b09cca26cea8bd29a619c9e2fa5a3b6f29307ca9136b8359df456d199151d715",
    ("apa-dot", "-h"):
        "35f3c8a836d6b91886a6f7ed4d93844443ab32aa8dd0cb4a1462fd4b629adc68",
    ("member", "-h"):
        "fbd545f65e0e451e91cccce0be7d090de4a33a75aa49a20b273628fd12cf992a",
    ("oracle-member", "-h"):
        "91a8d96149a3705aee6374765ae81f9154d68fd5014ae74e48da73e1c36725f6",
    ("complement", "-h"):
        "0c630dc7683a2efcd4b0e0b5bb134f3314fa293714079a44094d9128e76b210b",
    ("translate", "-h"):
        "740eaff3c8d1b940d9307679417a00937fe62f18084252ca08c6ab1ec77e02d9",
    ("equiv", "-h"):
        "4813d3384fb008fb5200beefe88638cc6bd60af23ccdcaaf447a50d84afec5e6",
    ("incl", "-h"):
        "7a06cc023f4d33a4094abac51017ec2e9dcf4b46101f489e594250acd5a037e4",
    ("check", "-h"):
        "02e3ee358b31e0e9aa85f502fb330ddff6363a0fc2e0d0d4ba4275d5ec780efb",
    ("selftest", "-h"):
        "d801ef16ddab8340599440415d6536d27d39ee014b8ea867cb9321e58e03aa53",
    ("parse",):
        "1d68be86264351a5249e6ab7c28bcbb0d43362528ca733ac917a4d83363acfaf",
    ("closure",):
        "3b1ea6cae09e6c026dc7aae39f65f056f9d817069e6462443ae432240de4c841",
    ("apa-dot",):
        "8f266678e9657144d35f1b60fba8e1e8e5d22d8d7183c76256b32aed9ab4e434",
    ("member",):
        "49236e5fdfb5a00837c7000242a66fd3201a00267201c0172f998bc1076321cf",
    ("oracle-member",):
        "162d59742f4f6b23fa6d8e7688b8b0f8acfc204beb33db50b3dba3b59040d4cd",
    ("complement",):
        "1041613fd66380e71f8200c076e066d77254e8cd415e7957bd73cf39787e0aba",
    ("translate",):
        "9649f053d6b16b3adfed95857d8e06ed9c0d55ae57169827ac525daa433380c5",
    ("equiv",):
        "f632883a737b550eec96db2edea6d93f48268ea143ca7887f0061ff12237d7df",
    ("incl",):
        "ffa102687a5db7e6bef9f9974155ca67f05149b728f8782bfed14fa9bd8d2bc0",
    ("check",):
        "4d5bf7488189d25229b4eb8c03967aa9316bdbe7985d18ca87aa33f475621beb",
    ("selftest", "--pairs"):
        "5ea929fff93e2a5b06d6f2263abae8648fb03f6fd3be58c93857e2acfa73e7de",
    ("member", "F", "(ab)", "extra"):
        "1de6b9b7362256dac184521558a63f69f97ffcd39b9de4ed193a2c52e0962dca",
    ("member", "F", "(ab)", "--version"):
        "227243cecea68fa73e33037579ac0c072c369a0ec8126d4bc22fb5b404e406af",
    ("member", "F", "(ab)", "--via", "x"):
        "dddd23949e2bc872e6f31132ebfad37950eca7f11306d1bf9b3ab13919425652",
    ("equiv", "L", "R", "--max-prefix", "x"):
        "cc08c2e4869ca4580e4d25cf26d49c27cf2ee4e69fca013de80c70c00f5ac6d0",
}


def argparse_quotes_choices() -> bool:
    """Whether this Python's argparse lists the choices of an invalid-choice
    error with repr(), as 3.10-3.12.1 and 3.13.0 do, rather than str()."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["y"])
    try:
        probe.parse_args(["z"])
    except argparse.ArgumentError as err:
        return "'y'" in str(err)
    raise AssertionError("argparse accepted an invalid choice")


# argparse's own text differs between Python releases in the cases below:
# from 3.13 the top-level usage ends its line of subcommands with ` ...`
# instead of wrapping it, and later releases (3.13.13 here) list choices
# with str(). Each is pinned byte for byte, for each style seen, keyed by
# (3.13 or later, choices quoted); the pins above are 3.10-3.12.1's.
ARGPARSE_STYLES = {
    (True, True): {  # 3.13.0
        ():
            "491f3be7d63414f89a412f35899e7295d740d734ac1189f64d4955e90555cf8e",
        ("-h",):
            "81f4e530a38d34e17ebfb17dd23b025589c15e5d2296fe61a85a10a6f6efb1d0",
        ("bogus",):
            "17b9338635c3a8bc6616fd45a83f52e615152326cd7e2f7d579d74e4ce3d47db",
        ("--alphabet", "a", "member"):
            "ab7bb3845ad14a5238204674003accfe0351db5afff45f1108fb1c6ec41eec0b",
        ("member", "F", "(ab)", "extra"):
            "c4ae6dedabd4df592ff2cd0cc09b8836b464add7594ac50ac70c78f3494fe743",
        ("member", "F", "(ab)", "--version"):
            "be7499cbf809d71a3b2488074d70fdf74a0f3ea5178db0edf9d28b994ec82f14",
    },
    (True, False): {  # 3.13.13
        ():
            "491f3be7d63414f89a412f35899e7295d740d734ac1189f64d4955e90555cf8e",
        ("-h",):
            "81f4e530a38d34e17ebfb17dd23b025589c15e5d2296fe61a85a10a6f6efb1d0",
        ("bogus",):
            "7cc8e700888517b6246965b8a6b1512fe1daff187841d65a11f6fc3e386ad5f3",
        ("--alphabet", "a", "member"):
            "e7f739388eb8a053cb0a94bfba0420b3f93b82ea0d6cace2a1e0d9803ce1ae3d",
        ("member", "F", "(ab)", "extra"):
            "c4ae6dedabd4df592ff2cd0cc09b8836b464add7594ac50ac70c78f3494fe743",
        ("member", "F", "(ab)", "--version"):
            "be7499cbf809d71a3b2488074d70fdf74a0f3ea5178db0edf9d28b994ec82f14",
        ("member", "F", "(ab)", "--via", "x"):
            "0369f2023d0d14a4b23a17f138746dd2acefd0f93a59387f676aac68ed3e961c",
    },
}
CONTRACT.update(ARGPARSE_STYLES.get(
    (sys.version_info >= (3, 13), argparse_quotes_choices()), {}))


class TestCliContract:
    """Help, version and usage errors, byte for byte: argparse prints these,
    so only the parser front end can change them."""

    @staticmethod
    def digest(code, out, err) -> str:
        return hashlib.sha256(
            json.dumps([code, out, err]).encode()).hexdigest()

    @pytest.mark.parametrize("argv", list(CONTRACT), ids=" ".join)
    def test_pinned(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        got = invoke(main, list(argv), capsys)
        assert got[0] in (0, 2)
        assert self.digest(*got) == CONTRACT[argv], got


SUBCOMMANDS = ["parse", "closure", "apa-dot", "member", "oracle-member",
               "complement", "translate", "equiv", "incl", "check",
               "selftest"]
# subcommands, every option, values, `--`, help, stray words (abbreviations,
# `--=x`, which the top level finds ambiguous) and file placeholders
WORDS = st.sampled_from(
    SUBCOMMANDS + ["bogus"]
    + ["-h", "--help", "--version", "--alphabet", "--props", "--formula",
       "--via", "--to", "--max-prefix", "--max-period", "--seed", "--pairs"]
    + ["game", "oracle", "both", "ltl", "rll", "0", "1", "-1", "x", "a b",
       "P Q", "(ab)", "a(b)", "(", "--"]
    + ["extra", "--=x", "--=", "--v", "--he", "--max", "--via=game",
       "--pairs=1", "-hx", "-x", "-", ""]
    + ["EXPR", "FORMULA", "PROOF", "MISSING"])
ARGVS = st.one_of(
    st.lists(WORDS, max_size=6),
    st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(WORDS, max_size=6))
    .map(lambda t: [t[0], *t[1]]))


@pytest.fixture(scope="module")
def placeholders(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "expr.rll").write_text(IA)
    (root / "formula.rll").write_text("props P Q ;\nnu X. (Q | (P & O X))\n")
    return {"EXPR": str(root / "expr.rll"),
            "FORMULA": str(root / "formula.rll"),
            "PROOF": os.path.join(PROOF_DIR, "zero_le_e.json"),
            "MISSING": str(root / "missing.rll")}


class TestSubcommandParser:
    """``main`` builds only the named subcommand's parser; it answers as the
    full parser does, every call."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=ARGVS, columns=st.sampled_from(["40", "80", "200"]))
    def test_matches_full_parser(self, argv, columns, placeholders, capsys):
        argv = [placeholders.get(a, a) for a in argv]
        if "selftest" in argv:  # keep each example fast
            argv += ["--pairs", "1"]
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            got = invoke(main, argv, capsys)
            assert got == invoke(reference_main, argv, capsys)
            try:
                expected = vars(reference_build_parser().parse_args(argv))
            except SystemExit:
                capsys.readouterr()
                return
            assert vars(parse_args(argv)) == expected

    def test_full_parser_not_built(self, files, capsys, monkeypatch):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(rll.cli, "build_parser", refuse)
        assert run(capsys, ["member", files["ia"], "(ab)"]) == (
            0, "true (game=oracle)\n", "")


# one command line per subcommand that its parser accepts
SUBCOMMAND_ARGVS = {
    "parse": ["parse", "F", "--formula", "--props", "P Q"],
    "closure": ["closure", "F", "--alphabet", "a b"],
    "apa-dot": ["apa-dot", "F"],
    "member": ["member", "F", "a(b)", "--via", "game"],
    "oracle-member": ["oracle-member", "F", "(ab)"],
    "complement": ["complement", "F", "--props", "P"],
    "translate": ["translate", "--to", "ltl", "F"],
    "equiv": ["equiv", "L", "R", "--max-prefix", "1"],
    "incl": ["incl", "L", "R", "--max-period", "4"],
    "check": ["check", "PROOF"],
    "selftest": ["selftest", "--seed", "7", "--pairs", "0"],
}


class TestReusedSubparser:
    """Each subcommand's parser is built once per process; every call that
    reuses it answers as a freshly built full parser does."""

    @pytest.mark.parametrize("name", list(rll.cli.COMMANDS))
    def test_calls_are_independent(self, name):
        argv = SUBCOMMAND_ARGVS[name]
        first, second = parse_args(argv), parse_args(argv)
        assert first is not second
        assert vars(first) == vars(second)
        assert vars(second) == vars(reference_build_parser().parse_args(argv))
        # a change to one namespace does not reach the next
        first.fn = None
        assert vars(parse_args(argv)) == vars(second)

    @pytest.mark.parametrize("bad, good", [
        (["member", "F", "L", "--via", "x"], ["member", "F", "L"]),
        (["equiv", "L", "R", "--max-prefix", "z"], ["equiv", "L", "R"]),
    ])
    def test_usage_error_leaves_no_trace(self, bad, good, capsys):
        parse_args(good)  # the parser exists before the error
        with pytest.raises(SystemExit) as exc:
            parse_args(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: rll {bad[0]} ")
        assert vars(parse_args(good)) == vars(
            reference_build_parser().parse_args(good))

    def test_help_width_read_per_call(self, capsys):
        outs = []
        for columns in ("40", "200"):
            with mock.patch.dict(os.environ, {"COLUMNS": columns}):
                got = invoke(main, ["member", "-h"], capsys)
                assert got == invoke(reference_main, ["member", "-h"], capsys)
                outs.append(got[1])
        assert outs[0] != outs[1]

    def test_unknown_command_not_cached(self, capsys, monkeypatch):
        seen, subparser = [], rll.cli._subparser

        def spy(name):
            seen.append(name)
            return subparser(name)

        monkeypatch.setattr(rll.cli, "_subparser", spy)
        assert invoke(main, ["bogus"], capsys)[0] == 2
        assert seen == []
        parse_args(["member", "F", "L"])
        assert seen == ["member"]
