"""The package runs on Python 3.10: no construct that needs 3.11 or later."""

import ast
import glob
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "rll")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))

# an atomic group, or a quantifier made possessive by a following +
_ATOMIC_OR_POSSESSIVE = re.compile(r"\(\?>|[*+?}]\+")


def _regex_311(s: str) -> bool:
    """Whether s holds an atomic group or a possessive quantifier once its
    escaped characters and character classes are dropped."""
    s = re.sub(r"\\.", "", s, flags=re.S)
    s = re.sub(r"\[[^\]]*\]", "", s)
    return bool(_ATOMIC_OR_POSSESSIVE.search(s))


def findings(source: str) -> list[str]:
    """The 3.11-only constructs in a module's source: regex atomic groups
    and possessive quantifiers in string literals, ``except*``, ``tomllib``
    and ``typing.Self``. Before 3.11, ``except*`` fails to parse."""
    try:
        tree = ast.parse(source)
    except SyntaxError as err:
        return [f"line {err.lineno}: does not parse"]
    out = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _regex_311(node.value)):
            out.append(f"line {line}: regex construct in {node.value!r}")
        elif type(node).__name__ == "TryStar":
            out.append(f"line {line}: except*")
        elif isinstance(node, ast.Import):
            out += [f"line {line}: tomllib" for a in node.names
                    if a.name == "tomllib"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tomllib":
                out.append(f"line {line}: tomllib")
            if node.module == "typing" and any(a.name == "Self"
                                               for a in node.names):
                out.append(f"line {line}: typing.Self")
        elif (isinstance(node, ast.Attribute) and node.attr == "Self"
              and isinstance(node.value, ast.Name)
              and node.value.id == "typing"):
            out.append(f"line {line}: typing.Self")
    return out


class TestPython310:
    def test_modules_found(self):
        assert len(MODULES) >= 9

    @pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
    def test_no_311_constructs(self, path):
        with open(path, encoding="utf-8") as fh:
            assert findings(fh.read()) == []

    @pytest.mark.parametrize("source", [
        'P = r"(?>ab|a)c"', 'P = "a*+"', 'P = "[ab]++"', 'P = r"\\d?+"',
        'P = "x{2,3}+"', 'P = rf"({X})*+"', "import tomllib",
        "import os, tomllib", "from tomllib import loads",
        "from typing import Optional, Self", "import typing\nT = typing.Self",
        "try:\n    pass\nexcept* ValueError:\n    pass"])
    def test_each_construct_is_found(self, source):
        assert findings(source)

    @pytest.mark.parametrize("source", [
        'P = r"\\++"', 'P = "[*+]"', 'P = r"[?+]\\*+"', 'P = "a+b*c?"',
        'P = "x{2}"', 'P = f"{a}+{b}"', "x = a ** +b",
        "from typing import Optional"])
    def test_legal_forms_pass(self, source):
        assert findings(source) == []

