"""The summary of `tools/bench_pairs.py`, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def runs(values):
    return [{"wall_s": v} for v in values]


def test_a_gain_won_in_nine_pairs_of_ten_beyond_the_spread_is_resolved():
    parent = runs([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
    change = runs([9, 10, 11, 12, 13, 14, 15, 16, 17, 20])
    got = bench_pairs.summarize(parent, change)["wall_s"]
    assert got["median"] == {"parent": 14.5, "change": 13.5}
    assert got["quartiles"]["parent"] == (12.25, 16.75)
    assert got["quartiles"]["change"] == (11.25, 15.75)
    assert got["change_won"] == [True] * 9 + [False]
    assert got["wins"] == 9
    assert got["change_ratio"] == pytest.approx(13.5 / 14.5)
    # won 9 of 10, but the medians differ by 1, inside the quartile distance
    assert got["resolved_gain"] is False


def test_a_gain_beyond_the_parent_spread_is_resolved():
    parent = runs([10, 10, 11, 11, 12, 12, 13, 13, 14, 14])
    change = runs([5, 5, 6, 6, 7, 7, 8, 8, 9, 15])
    got = bench_pairs.summarize(parent, change)["wall_s"]
    assert got["wins"] == 9
    assert got["median"] == {"parent": 12, "change": 7}
    assert got["resolved_gain"] is True
    # eight wins of ten do not resolve a gain, however large
    change = runs([5, 5, 6, 6, 7, 7, 8, 8, 15, 15])
    assert bench_pairs.summarize(parent, change)["wall_s"]["resolved_gain"] \
        is False


def test_every_metric_is_summarised():
    parent = [{"wall_s": 2.0, "setup_s": 1.0}, {"wall_s": 4.0, "setup_s": 1.0}]
    change = [{"wall_s": 1.0, "setup_s": 1.0}, {"wall_s": 3.0, "setup_s": 2.0}]
    got = bench_pairs.summarize(parent, change)
    assert sorted(got) == ["setup_s", "wall_s"]
    assert got["wall_s"]["change_won"] == [True, True]
    assert got["setup_s"]["change_won"] == [False, False]
    assert got["setup_s"]["median"] == {"parent": 1.0, "change": 1.5}


def test_each_run_records_wall_time_net_of_its_setup():
    result = {"metrics": {"wall_s": {"value": 0.75, "unit": "s"},
                          "setup_s": {"value": 0.5, "unit": "s"},
                          "peak_rss_mb": {"value": 25.0, "unit": "MB"}}}
    assert bench_pairs.run_metrics(result) == {
        "wall_s": 0.75, "setup_s": 0.5, "peak_rss_mb": 25.0, "net_s": 0.25}


def test_net_time_separates_setup_drift_from_the_workload():
    # the change side's setup drifted up by 0.25 in pairs 3 and 4: wall_s
    # loses those pairs, net_s wins every one
    setups = {"parent": [0.5] * 6, "change": [0.5, 0.5, 0.75, 0.75, 0.5, 0.5]}
    nets = {"parent": [0.5] * 6, "change": [0.375] * 6}
    side_runs = {side: [bench_pairs.run_metrics({"metrics": {
        "wall_s": {"value": setup + net}, "setup_s": {"value": setup}}})
        for setup, net in zip(setups[side], nets[side])] for side in setups}
    got = bench_pairs.summarize(side_runs["parent"], side_runs["change"])
    assert got["wall_s"]["change_won"] == [True, True, False, False, True,
                                          True]
    assert got["net_s"]["change_won"] == [True] * 6
    assert got["net_s"]["wins"] == 6
    assert got["net_s"]["median"] == {"parent": 0.5, "change": 0.375}
    assert got["net_s"]["quartiles"] == {"parent": (0.5, 0.5),
                                         "change": (0.375, 0.375)}
