"""`tools/perfpairs.py`'s summary of paired benchmark runs."""

import importlib.util
import os
import statistics

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "perfpairs.py")
_SPEC = importlib.util.spec_from_file_location("perfpairs", _PATH)
perfpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfpairs)

METRIC = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.15}


def runs(parent, change):
    return {side: [{"metrics": {"rate": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


@pytest.mark.parametrize("parent, change, wins, verdict", [
    ([100, 101, 99, 100], [100, 102, 98, 101], 2, "within bound"),   # one tie
    ([100, 101, 99, 100], [80, 82, 81, 79], 0, "worse than bound"),
    ([100, 101, 99, 100], [110, 120, 115, 112], 4, "better in every run"),
    ([100, 100, 60, 100, 100], [100] * 5, 1, "unresolved"),     # IQR 0, range/median 0.4
])
def test_summary_counts_wins_and_judges_against_the_bound(parent, change, wins, verdict):
    got = perfpairs.summarize(METRIC, runs(parent, change))
    assert got["change_wins"] == wins and got["verdict"] == verdict
    assert got["parent_values"] == parent and got["change_values"] == change
    assert got["parent"]["median"] == statistics.median(parent)


TEN = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]   # median 100, IQR 1.5


@pytest.mark.parametrize("change, wins, claim", [
    # 9 of 10 pairs, one a tie; the medians 103 and 100 differ by more than 1.5
    ([110, 105, 103, 102, 102, 103, 104, 102, 104, 107], 9, "gain"),
    # 9 of 10 pairs, but the medians 101 and 100 differ by less than 1.5
    ([101, 102, 100, 101, 103, 99, 101, 102, 100, 99], 9, "no gain"),
    # 8 of 10 pairs, by far
    ([120] * 8 + [90, 90], 8, "no gain"),
    # every pair lost
    ([90] * 10, 0, "no gain"),
])
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_past_the_parent_iqr(change, wins,
                                                                             claim):
    got = perfpairs.summarize(METRIC, runs(TEN, change))
    assert got["change_wins"] == wins and got["claim"] == claim
    assert got["parent_iqr"] == 1.5


def test_lower_is_better_flips_wins():
    got = perfpairs.summarize(dict(METRIC, better="lower"), runs([10, 10], [9, 11]))
    assert got["change_wins"] == 1 and got["change_over_parent"] == 1.0
    got = perfpairs.summarize(dict(METRIC, better="lower"), runs([10, 11], [8, 9]))
    assert got["change_wins"] == 2 and got["claim"] == "gain"
