"""The pairs rule of tools/pairs.py on synthetic runs."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# ten parent runs with median 1.0 and an IQR of 0.025 (statistics.quantiles)
TIGHT = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]
# the same median with an IQR of 0.45, wider than a 0.25 bound
WIDE = [0.6, 0.7, 0.8, 0.8, 1.0, 1.0, 1.2, 1.2, 1.3, 1.4]


def scaled(runs, factor):
    return [factor * x for x in runs]


def test_a_change_inside_the_bound_is_within():
    row = pairs.rule(TIGHT, scaled(TIGHT, 1.2), "lower", 0.25)
    assert row["verdict"] == "within" and not row["gain"]
    assert row["worse_by"] == pytest.approx(0.2)
    assert row["parent"]["median"] == pytest.approx(1.0) and row["bound"] == 0.25


@pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
def test_a_median_worse_by_more_than_the_bound_is_worse(better, factor):
    row = pairs.rule(TIGHT, scaled(TIGHT, factor), better, 0.25)
    assert row["verdict"] == "worse" and row["worse_by"] == pytest.approx(0.3)
    # the same move the other way is no regression
    flipped = "higher" if better == "lower" else "lower"
    assert pairs.rule(TIGHT, scaled(TIGHT, factor), flipped, 0.25)["verdict"] == "within"


def test_a_wide_parent_leaves_the_metric_unresolved():
    row = pairs.rule(WIDE, scaled(WIDE, 1.05), "lower", 0.25)
    assert row["verdict"] == "unresolved"
    assert row["parent_spread"] == pytest.approx(0.45)
    # a median worse by more than the bound stays worse, however wide
    assert pairs.rule(WIDE, scaled(WIDE, 1.3), "lower", 0.25)["verdict"] == "worse"


@pytest.mark.parametrize("better, change", [("lower", [0.5] * 10), ("higher", [1.5] * 10)])
def test_a_change_that_beats_every_parent_run_is_resolved(better, change):
    row = pairs.rule(WIDE, change, better, 0.25)
    assert row["verdict"] == "within" and row["wins"] == 10
    # one change run that ties the parent's best leaves it unresolved
    change = [*change[:-1], min(WIDE) if better == "lower" else max(WIDE)]
    assert pairs.rule(WIDE, change, better, 0.25)["verdict"] == "unresolved"


def test_a_gain_needs_nine_wins_in_ten_and_medians_past_the_parent_iqr():
    faster = scaled(TIGHT, 0.9)
    row = pairs.rule(TIGHT, faster, "lower", 0.25)
    assert row["gain"] and row["wins"] == 10 and row["verdict"] == "within"
    # nine wins in ten still count, eight do not
    for losses, gain in ((1, True), (2, False)):
        change = [2.0] * losses + faster[losses:]
        assert pairs.rule(TIGHT, change, "lower", 0.25)["gain"] is gain
    # ten wins whose median moved less than the parent's IQR (0.025)
    close = [x - 0.001 for x in TIGHT]
    row = pairs.rule(TIGHT, close, "lower", 0.25)
    assert row["wins"] == 10 and not row["gain"]
    # a gain is in the metric's direction
    assert pairs.rule(TIGHT, scaled(TIGHT, 1.1), "higher", 0.25)["gain"]
    assert not pairs.rule(TIGHT, scaled(TIGHT, 1.1), "lower", 0.25)["gain"]


def run(failed=0, attempted=100, correct=True):
    return {"failed": failed, "attempted": attempted, "correct": correct}


def test_failures_compare_the_failed_share_and_correct_runs():
    same = pairs.failures([run(2)] * 3, [run(2)] * 3)
    assert not same["failed_share_worse"] and not same["correct_worse"]
    assert same["failed_share"] == {"parent": 0.02, "change": 0.02}
    more = pairs.failures([run(2)] * 3, [run(2), run(3), run(2)])
    assert more["failed_share_worse"] and not more["correct_worse"]
    assert not pairs.failures([run(3)] * 3, [run(2)] * 3)["failed_share_worse"]
    broken = pairs.failures([run()] * 3, [run(), run(correct=False), run()])
    assert broken["correct_worse"] and broken["incorrect_runs"] == {"parent": 0, "change": 1}
    assert not pairs.failures([run(correct=False)] * 3, [run()] * 3)["correct_worse"]


def test_the_json_report_holds_every_verdict(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = {"parent": 0, "change": 0}

    def fake_run(checkout, workload, seed):
        side = checkout.name
        calls[side] += 1
        # the change's wall_s is 40% worse; every other metric is the same
        value = 1.4 if side == "change" else 1.0
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {m["name"]: {"value": value if m["name"] == "wall_s" else 1.0}
                            for m in spec["end_to_end"]}}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    monkeypatch.setattr(pairs.subprocess, "run", lambda *args, **kwargs: None)
    out = tmp_path / "report.json"
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "verify", "--pairs", "3", "--json", str(out)]) == 0
    assert calls == {"parent": 4, "change": 4}  # one warm-up and three pairs each
    report = json.loads(out.read_text())["workloads"]["verify"]
    verdicts = {name: row["verdict"] for name, row in report["summary"].items()}
    assert verdicts == {m["name"]: "worse" if m["name"] == "wall_s" else "within"
                        for m in spec["end_to_end"]}
    assert not report["failed_share_worse"] and not report["correct_worse"]
    assert report["runs"]["change"][0]["correct"] and report["runs"]["change"][0]["wall_s"] == 1.4
