"""scripts/bench.py's verdict on one metric and workload, from ten pairs of runs."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(SCRIPTS))  # bench.py imports same_outputs
    try:
        loader = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


def _sides(bench, change, parent, better):
    sign = 1 if better == "higher" else -1
    mine, theirs = bench._summary(change), bench._summary(parent)
    mine["values"], theirs["values"] = change, parent
    mine["wins"] = sum(sign * (a - b) > 0 for a, b in zip(change, parent))
    return mine, theirs


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]  # IQR 0.15, about 1.5 %


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        ([v - 1.0 for v in PARENT], "lower", 0.2, "better"),
        ([v + 1.0 for v in PARENT], "higher", 0.2, "better"),
        ([v + 1.0 for v in PARENT], "lower", 0.2, "no worse"),  # 10 % slower, inside 20 %
        ([v - 0.05 for v in PARENT[:8]] + [11.0, 11.0], "lower", 0.2, "no worse"),  # 8 wins only
        ([v + 3.0 for v in PARENT], "lower", 0.2, "worse"),
        ([v - 3.0 for v in PARENT], "higher", 0.2, "worse"),
        ([v + 0.1 for v in PARENT], "lower", 0.01, "unresolved"),  # IQR 1.5 % > 1 % bound
        ([v - 0.5 for v in PARENT], "lower", 0.01, "better"),  # a gain resolves a wide spread
    ],
)
def test_verdict(bench, change, better, bound, expected):
    mine, theirs = _sides(bench, change, PARENT, better)
    assert statistics.median(PARENT) == theirs["median"]
    assert bench.verdict(mine, theirs, better, bound) == expected


def test_every_run_beating_every_run_is_no_worse_under_a_wide_spread(bench):
    # medians 15 and 9.9 differ by less than the parent's IQR, 10, which is 67 % of its median
    parent = [10.0, 20.0] * 5
    mine, theirs = _sides(bench, [9.9] * 10, parent, "lower")
    assert mine["median"] - theirs["median"] > -theirs["iqr"]
    assert bench.verdict(mine, theirs, "lower", 0.2) == "no worse"
    mine, theirs = _sides(bench, [9.9] * 9 + [10.5], parent, "lower")
    assert bench.verdict(mine, theirs, "lower", 0.2) == "unresolved"
