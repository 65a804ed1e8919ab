"""The A/B pair script's summary and the line-coverage listing, on fixed
inputs; the scripts themselves run the benchmark or the whole suite and
stay out of it."""

import importlib.util
import os

import pytest


def _script(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs, linecov = _script("ab_pairs"), _script("linecov")

METRICS = [{"name": "verdicts_per_s", "better": "higher"},
           {"name": "verdict_p90_ms", "better": "lower"},
           {"name": "setup_s", "better": "lower"}]


def _pair(base_rate, change_rate, base_p90, change_p90):
    return ({"verdicts_per_s": base_rate, "verdict_p90_ms": base_p90},
            {"verdicts_per_s": change_rate, "verdict_p90_ms": change_p90})


def test_summary_on_fixed_numbers():
    pairs = [_pair(100, 150, 10, 8), _pair(110, 150, 12, 13),
             _pair(90, 140, 11, 7), _pair(105, 100, 10, 9)]
    rows = ab_pairs.summarize(pairs, METRICS)
    assert [r["name"] for r in rows] == ["verdicts_per_s", "verdict_p90_ms"]
    rate, p90 = rows
    assert rate["base"] == 102.5 and rate["change"] == 145
    # ratios 1.5, 150/110, 140/90 and 100/105, in the middle 1.5 and 150/110
    assert rate["ratio"] == pytest.approx((1.5 + 150 / 110) / 2)
    assert (rate["better"], rate["pairs"]) == (3, 4)
    assert (rate["base_q1"], rate["base_q3"]) == (97.5, 106.25)
    assert p90["base"] == 10.5 and p90["change"] == 8.5
    assert p90["better"] == 3  # lower is better: 8 < 10, 7 < 11, 9 < 10
    table = ab_pairs.format_summary(rows).splitlines()
    assert len(table) == 3 and table[1].split()[0] == "verdicts_per_s"
    assert table[1].split()[-1] == "3/4"


def test_seed_lists():
    assert ab_pairs.seed_list("9701-9704") == [9701, 9702, 9703, 9704]
    assert ab_pairs.seed_list("1,5,9") == [1, 5, 9]


SOURCE = '''"""A module."""
import os


def f(x):
    if x:
        return 1
    return os.sep


class C:
    y = [f(n)
         for n in range(2)]
'''


def test_linecov_listing_on_fixed_source():
    # comments, blank lines and the line numbered 0 hold no code
    assert linecov.code_lines(SOURCE) == {1, 2, 5, 6, 7, 8, 11, 12, 13}
    assert linecov.never_run(SOURCE, {1, 2, 5, 6, 7, 11, 12}) == [8, 13]
    assert linecov.ranges([12, 3, 4, 5, 9, 11]) == "3-5, 9, 11-12"
    assert linecov.ranges([]) == ""
    ran = {"a.py": {1, 2, 5, 6, 7, 11, 12}, "b.py": set(
        linecov.code_lines(SOURCE))}
    assert linecov.listing({"b.py": SOURCE, "a.py": SOURCE, "c.py": SOURCE},
                           ran).splitlines() == [
        "a.py: 2 never ran: 8, 13", "b.py: 0 never ran",
        "c.py: 9 never ran: 1-2, 5-8, 11-13"]
