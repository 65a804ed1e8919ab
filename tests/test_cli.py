"""CLI: subcommand behaviour, exit codes, output stability."""

import json
import os
import subprocess
import sys

import pytest

from helpers import PROOF_DIR
from rll.cli import main

IA = "alphabet a b ;\nnu X. mu Y. (a.X + b.Y)\n"
NUAX = "alphabet a b ;\nnu X. a.X\n"
TOP = "alphabet a b ;\ntop\n"
FB = "alphabet a b ;\nmu X. (b.X + a.X + a.(nu Y. a.Y))\n"
BOTH = ("alphabet a b ;\n(nu X. mu Y. (a.X + b.Y)) & "
        "(mu X. (b.X + a.X + a.(nu Y. a.Y)))\n")


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

    def test_bad_lasso_is_usage_error(self, files, capsys):
        code, _out, err = run(capsys, ["member", files["ia"], "(c)"])
        assert code == 2 and "error" in err


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


class TestInspection:
    def test_parse_reprints(self, files, capsys):
        code, out, _ = run(capsys, ["parse", files["ia"]])
        assert code == 0
        assert out.splitlines()[0] == "alphabet a b ;"
        assert "nu X. mu Y. a.X + b.Y" in out

    def test_closure_listing(self, files, capsys):
        code, out, _ = run(capsys, ["closure", files["nuax"]])
        assert code == 0
        assert out.startswith("root: nu X. a.X")
        assert "0 -unfold-> 1" in out

    def test_apa_dot(self, files, capsys):
        code, out, _ = run(capsys, ["apa-dot", files["nuax"]])
        assert code == 0
        assert out.startswith("digraph apa {")
        assert '[label="a"]' in out

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


class TestDeepNesting:
    """Nesting past the interpreter's recursion limit is an input error."""

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

    @pytest.mark.parametrize("argv", [["member", "(a)"], ["parse"]])
    def test_exits_two_without_traceback(self, deep, argv):
        proc = self._run(argv[:1] + [deep] + argv[1:])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == "error: expression nested too deeply"


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


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--pairs", "40"])
        assert code == 0
        assert "all checks passed" in out

    def test_deterministic(self, capsys):
        a = run(capsys, ["selftest", "--pairs", "25"])
        b = run(capsys, ["selftest", "--pairs", "25"])
        assert a == b
