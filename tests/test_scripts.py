"""The A/B pair script's summary, on fixed numbers; the script itself runs
the benchmark and stays out of the suite."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                     "ab_pairs.py")
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

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
