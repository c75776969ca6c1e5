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


def test_lower_is_better_flips_wins():
    got = perfpairs.summarize(dict(METRIC, better="lower"), runs([10, 10], [9, 11]))
    assert got["change_wins"] == 1 and got["change_over_parent"] == 1.0
