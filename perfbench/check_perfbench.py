"""Tests of the benchmark itself.  The file name keeps them out of a plain
``pytest`` run; run them with ``python3 -m pytest perfbench/check_perfbench.py``."""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(name):
    plan = workloads.WORKLOADS[name].plan
    assert plan(3) == plan(3)
    if name != "verify":
        assert plan(3).queries != plan(4).queries


def test_edge_strata_stay_in_the_inputs():
    thetas = workloads.plan_deathtime(5).thetas
    near_zero = [t for t in thetas if t <= 0.1]
    near_pi = [t for t in thetas if t >= 3.141592653589793 - 0.1]
    assert len(near_zero) >= 10 and len(near_pi) >= 10
    assert all(1e-4 <= t for t in near_zero)


def test_metric_names_are_well_formed_and_match_what_the_run_reports():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) and len(n) <= 64 for n in names)

    fake = SimpleNamespace(items=10, plan=SimpleNamespace(queries=[()]), sampler=None)
    e2e, _ = run.Run.end_to_end(fake, [(0.5, 0.4), (0.6, 0.5), (0.7, 0.6)], [[1.0], [1.1]])
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}

    fake = SimpleNamespace(dev_over_tol={})
    per_layer = spans.LayerTotals().metrics()
    per_layer.update(run.Run.check_metrics(fake))
    per_layer["trace.overhead_s"] = 0.0
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == 10.0

    tracer = spans.Tracer()
    tracer.spans.extend(tree)
    totals = spans.LayerTotals()
    totals.add_pass(tracer, wall=12.0)
    metrics = totals.metrics()
    assert metrics["trace.glue_s"] == 2.0
    assert totals.self_s["root"] + totals.self_s["a"] + totals.self_s["b"] \
        + totals.self_s["c"] + metrics["trace.glue_s"] == metrics["trace.wall_s"]


def _bindings():
    import qcorr.cli  # noqa: F401

    return {(name, attr): value for name, module in sys.modules.items()
            if name == "qcorr" or name.startswith("qcorr.")
            for attr, value in vars(module).items()}


def test_tracing_wraps_every_binding_and_restores_them_all():
    import qcorr

    before = _bindings()
    targets = {getattr(sys.modules[f"qcorr.{layer}"], fn)
               for layer, fns in spans.TARGETS.items() for fn in fns}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            during = _bindings()
            for key, value in before.items():
                if any(value is t for t in targets):
                    assert during[key] is not value, key
            qcorr.dynamics.death_time(qcorr.make_params(0.7), qcorr.ChannelSpec("z"),
                                      measure="quantum_discord")
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {span[0] for span in tracer.spans}
    assert {"dynamics.death_time", "states.make_params"} <= names


def test_sampler_takes_out_its_own_time_and_scales_by_the_units_near_a_query():
    sampler = speed.Sampler()
    sampler.starts = [float(i) for i in range(20)]
    sampler.durations = [speed.NOMINAL_UNIT_S] * 10 + [2 * speed.NOMINAL_UNIT_S] * 10
    assert sampler.busy(10.0, 12.5) == 6 * speed.NOMINAL_UNIT_S
    # a long query holds enough units of its own
    assert sampler.factor(9.5, 19.5) == 0.5
    # a short one takes the nine nearest units
    assert sampler.factor(14.2, 14.4) == 0.5
    assert sampler.factor(0.2, 0.4) == 1.0
