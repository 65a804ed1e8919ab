"""Line coverage of ``src/rll`` without the ``coverage`` package.

    PYTHONPATH=src python3.12 scripts/linecov.py [pytest arguments]

It needs Python 3.12 or later, for ``sys.monitoring``. It runs pytest in
this process, by default as ``pytest tests -q``, with a LINE callback that
records each line of ``src/rll`` the first time it runs and then switches
itself off at that place, so the suite runs at nearly its usual speed.
Then it prints, per module, the lines that hold code but never ran, as
ranges. Code run in a subprocess, as by the CLI tests that start ``rll``
in one, is not seen: a line that only such a test runs is listed. The run
takes minutes, so it stays out of the test suite and out of CI.
"""

from __future__ import annotations

import os
import sys
from itertools import groupby

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src", "rll")


def code_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines of ``source`` that hold code: those that an instruction of
    its code objects, nested ones included, is attributed to."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _s, _e, n in code.co_lines() if n)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return lines


def never_run(source: str, ran) -> list[int]:
    """The lines of ``source`` that hold code and are not in ``ran``."""
    return sorted(code_lines(source) - set(ran))


def ranges(lines) -> str:
    """Sorted line numbers as runs: ``1, 3-5, 9``."""
    runs = [[n for _k, n in run] for _d, run in
            groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0])]
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in runs)


def listing(sources: dict[str, str], ran: dict[str, set[int]]) -> str:
    """One line per module, in name order: how many of its code lines
    never ran, and which."""
    out = []
    for name in sorted(sources):
        missed = never_run(sources[name], ran.get(name, ()))
        out.append(f"{name}: {len(missed)} never ran"
                   + (f": {ranges(missed)}" if missed else ""))
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("linecov needs Python 3.12 or later (sys.monitoring)",
              file=sys.stderr)
        return 2
    import pytest

    root = os.path.realpath(ROOT)
    mon = sys.monitoring
    tool = mon.COVERAGE_ID
    ran: dict[str, set[int]] = {}
    inside: dict[str, str | None] = {}  # code file -> its module, if ours

    def line(code, n):
        path = code.co_filename
        if path not in inside:
            real = os.path.realpath(path)
            inside[path] = (os.path.relpath(real, root)
                            if os.path.dirname(real) == root else None)
        if inside[path]:
            ran.setdefault(inside[path], set()).add(n)
        return mon.DISABLE

    mon.use_tool_id(tool, "linecov")
    mon.register_callback(tool, mon.events.LINE, line)
    mon.set_events(tool, mon.events.LINE)
    try:
        status = pytest.main(argv or ["tests", "-q"])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    if not ran:
        print(f"no line of {root} ran: is it the rll on sys.path "
              f"(PYTHONPATH=src)?", file=sys.stderr)
        return 2
    sources = {}
    for name in os.listdir(root):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                sources[name] = fh.read()
    print(listing(sources, ran))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
