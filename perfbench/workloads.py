"""Seeded inputs and output checks for the four qcorr benchmark workloads.

A plan is the argv the seed generates, grouped into queries: a query is the
unit of per-item latency, and each invocation in it is one operation.  The
benchmark adds ``--out FILE`` to every invocation and checks the files after
timing.  Nothing here imports NumPy or qcorr at module level; the checks get
the imported package passed in.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Tolerances of the closed-form/oracle comparisons, as the verify suite and the
# acceptance tests use them.  classical_correlation runs the same optimizer as
# quantum_discord, so it gets the same tolerance.
TOLERANCE = {
    "concurrence": 1e-9,
    "geometric_discord": 1e-10,
    "quantum_discord": 1e-5,
    "mutual_information": 1e-10,
    "classical_correlation": 1e-5,
}
MEASURES = tuple(TOLERANCE)
AXES = ("x", "y", "z")
DEATH_REL_TOL = 1e-6  # relative error allowed on a death time or a half-life value
DEATH_MEASURES = ("concurrence", "geometric_discord", "quantum_discord")

ORACLE_THETAS, ORACLE_TIMES = 6, 6
CLOSED_THETAS, CLOSED_TIMES = 50, 201
CLOSED_SAMPLE = 150  # closed_sweep rows re-checked against the oracles
DEATH_QUERIES = 100


@dataclass(frozen=True)
class Plan:
    queries: tuple[tuple[tuple[str, ...], ...], ...]
    warmup: tuple[tuple[str, ...], ...]
    suffix: str  # output file suffix
    thetas: tuple[float, ...] = ()
    times: tuple[float, ...] = ()


@dataclass
class Invocation:
    argv: tuple[str, ...]
    rc: Optional[int]  # None when the call raised
    path: Path


@dataclass
class Verdict:
    """Outcome of checking one pass's outputs.

    well_formed is False when an invocation raised, returned an unexpected
    exit code, or wrote an output that is missing, unparsable or incomplete.
    Numeric deviations from the reference only count as failed operations.
    """

    attempted: int = 0
    failed: int = 0
    items: int = 0
    well_formed: bool = True
    dev_over_tol: dict[str, float] = field(default_factory=dict)

    def deviation(self, measure: str, ratio: float) -> None:
        if math.isfinite(ratio):
            self.dev_over_tol[measure] = max(self.dev_over_tol.get(measure, 0.0), ratio)


def sample_thetas(rng: random.Random, n: int) -> list[float]:
    """n angles: about a tenth each log-uniform within [1e-4, 1e-1] of 0 and
    of pi, the rest uniform in (0, pi).  The edge strata are where the known
    small-angle defects live, so they always stay in."""
    n_edge = max(1, round(n / 10))
    thetas = [10.0 ** rng.uniform(-4.0, -1.0) for _ in range(n_edge)]
    thetas += [math.pi - 10.0 ** rng.uniform(-4.0, -1.0) for _ in range(n_edge)]
    thetas += [rng.uniform(0.0, math.pi) for _ in range(n - 2 * n_edge)]
    rng.shuffle(thetas)
    return thetas


def _even_times(n: int) -> list[float]:
    return [3.0 * k / (n - 1) for k in range(n)]


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _sweep_argv(thetas, times, oracle: bool) -> tuple[str, ...]:
    argv = ["sweep", "--measures", "all", "--axes", "x,y,z", "--precision", "17",
            "--thetas", _join(thetas), "--times", _join(times)]
    if oracle:
        argv.insert(1, "--oracle")
    return tuple(argv)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"qcorr-perfbench-{name}-{seed}")


def plan_verify(seed: int) -> Plan:
    # The suite's grids are fixed, so the seed does not change the argv.
    return Plan(queries=((("verify", "--json"),),), warmup=(("verify", "--quick", "--json"),),
                suffix=".json")


def _plan_sweep(name: str, seed: int, n_thetas: int, n_times: int, oracle: bool) -> Plan:
    thetas = tuple(sample_thetas(_rng(name, seed), n_thetas))
    times = tuple(_even_times(n_times))
    return Plan(
        queries=((_sweep_argv(thetas, times, oracle),),),
        warmup=(_sweep_argv(thetas[:1], times[:2], oracle),),
        suffix=".csv",
        thetas=thetas,
        times=times,
    )


def plan_oracle_sweep(seed: int) -> Plan:
    return _plan_sweep("oracle_sweep", seed, ORACLE_THETAS, ORACLE_TIMES, oracle=True)


def plan_closed_sweep(seed: int) -> Plan:
    return _plan_sweep("closed_sweep", seed, CLOSED_THETAS, CLOSED_TIMES, oracle=False)


def plan_deathtime(seed: int) -> Plan:
    rng = _rng("deathtime", seed)
    thetas = sample_thetas(rng, DEATH_QUERIES)
    queries = []
    for theta in thetas:
        axis, qubit = rng.choice(AXES), rng.choice("AB")
        queries.append(tuple(
            ("deathtime", "--theta", repr(theta), "--axis", axis, "--noisy-qubit", qubit,
             "--measure", measure, "--json")
            for measure in DEATH_MEASURES
        ))
    return Plan(queries=tuple(queries), warmup=queries[0], suffix=".json", thetas=tuple(thetas))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

_VERIFY_MEASURE = {
    "concurrence_closed_vs_oracle": "concurrence",
    "geometric_discord_closed_vs_oracle": "geometric_discord",
    "quantum_discord_closed_vs_oracle": "quantum_discord",
}


def check_verify(plan: Plan, calls: list[Invocation], qcorr, rng: random.Random) -> Verdict:
    (call,) = calls
    try:
        checks = json.loads(call.path.read_text())["checks"]
    except (OSError, ValueError, KeyError, TypeError):
        return Verdict(attempted=1, failed=1, items=0, well_formed=False)
    failed = sum(1 for c in checks if c["status"] == "fail")
    verdict = Verdict(attempted=len(checks), failed=failed, items=len(checks),
                      well_formed=call.rc == (1 if failed else 0) and bool(checks))
    for c in checks:
        measure = _VERIFY_MEASURE.get(c["check_id"])
        if measure and c["max_error"] is not None and c["tolerance"]:
            verdict.deviation(measure, c["max_error"] / c["tolerance"])
    return verdict


def _scan_sweep(plan: Plan, call: Invocation, verdict: Verdict, wanted=None) -> dict:
    """Stream the sweep CSV and return {(measure, axis, theta, t): (closed,
    oracle)} for every row, or only for the keys in wanted.

    The rows must be exactly the requested keys, each once, in any order.
    That is checked through a count and an order-independent sum of key
    hashes, so memory stays small however many rows the sweep has.
    """
    n_expected = h_expected = 0
    for key in itertools.product(MEASURES, AXES, plan.thetas, plan.times):
        n_expected += 1
        h_expected += hash(key)
    rows: dict = {}
    n_seen = h_seen = 0
    try:
        with call.path.open(encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != "channel,measure,theta,gamma_t,value_closed,value_oracle":
                raise ValueError("unexpected CSV header")
            for line in fh:
                try:
                    axis, measure, theta, t, closed, oracle = line.rstrip("\n").split(",")
                    key = (measure, axis, float(theta), float(t))
                    values = (float(closed), float(oracle) if oracle else None)
                except ValueError:
                    verdict.well_formed = False
                    continue
                if measure not in TOLERANCE or axis not in AXES or not math.isfinite(values[0]):
                    verdict.well_formed = False
                    continue
                n_seen += 1
                h_seen += hash(key)
                if wanted is None or key in wanted:
                    rows[key] = values
    except (OSError, ValueError):
        verdict.well_formed = False
        verdict.failed += n_expected
        return {}
    if (n_seen, h_seen) != (n_expected, h_expected):
        verdict.well_formed = False
        verdict.failed += max(1, n_expected - n_seen)
    return rows


def _n_rows(plan: Plan) -> int:
    return len(MEASURES) * len(AXES) * len(plan.thetas) * len(plan.times)


def check_oracle_sweep(plan: Plan, calls: list[Invocation], qcorr, rng: random.Random) -> Verdict:
    (call,) = calls
    verdict = Verdict(attempted=_n_rows(plan), items=_n_rows(plan), well_formed=call.rc == 0)
    for (measure, _, _, _), (closed, oracle) in _scan_sweep(plan, call, verdict).items():
        if oracle is None or not math.isfinite(oracle):
            verdict.well_formed = False
            verdict.failed += 1
            continue
        ratio = abs(oracle - closed) / TOLERANCE[measure]
        verdict.deviation(measure, ratio)
        if not ratio <= 1.0:
            verdict.failed += 1
    return verdict


def oracle_value(qcorr, measure: str, theta: float, axis: str, t: float) -> float:
    """The library oracle on the Kraus-evolved family member."""
    rho = qcorr.kraus_apply(qcorr.initial_state(qcorr.make_params(theta)),
                            qcorr.ChannelSpec(axis=axis), t)
    fn = {
        "concurrence": qcorr.concurrence,
        "geometric_discord": qcorr.geometric_discord,
        "quantum_discord": qcorr.quantum_discord,
        "mutual_information": qcorr.mutual_information,
        "classical_correlation": qcorr.classical_correlation,
    }[measure]
    return fn(rho).value


def check_closed_sweep(plan: Plan, calls: list[Invocation], qcorr, rng: random.Random) -> Verdict:
    (call,) = calls
    n_rows = _n_rows(plan)
    verdict = Verdict(attempted=n_rows, items=n_rows, well_formed=call.rc == 0)
    chosen = set(rng.sample(range(n_rows), min(CLOSED_SAMPLE, n_rows)))
    wanted = {key for i, key in enumerate(itertools.product(MEASURES, AXES, plan.thetas, plan.times))
              if i in chosen}
    rows = _scan_sweep(plan, call, verdict, wanted)
    for key in sorted(wanted):
        if key not in rows:
            continue  # counted as missing by the scan
        measure, axis, theta, t = key
        closed = rows[key][0]
        ratio = abs(oracle_value(qcorr, measure, theta, axis, t) - closed) / TOLERANCE[measure]
        verdict.deviation(measure, ratio)
        if not ratio <= 1.0:
            verdict.failed += 1
    return verdict


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_deathtime(plan: Plan, calls: list[Invocation], qcorr, rng: random.Random) -> Verdict:
    verdict = Verdict(attempted=len(calls), items=len(plan.queries))
    closed_fns = {"geometric_discord": qcorr.geometric_discord_closed,
                  "quantum_discord": qcorr.quantum_discord_closed}
    for call in calls:
        try:
            result = json.loads(call.path.read_text())
            kind, time = result["kind"], result["time"]
        except (OSError, ValueError, KeyError, TypeError):
            result = None
        if call.rc != 0 or result is None:
            verdict.well_formed = False
            verdict.failed += 1
            continue
        theta = float(_flag(call.argv, "--theta"))
        measure = _flag(call.argv, "--measure")
        params = qcorr.make_params(theta)
        channel = qcorr.ChannelSpec(axis=_flag(call.argv, "--axis"),
                                    qubit=_flag(call.argv, "--noisy-qubit"))
        if measure == "concurrence":
            reference = qcorr.closed_death_time(params, channel)
            if reference is None:
                ok = kind != "esd"
            elif kind == "esd" and time is not None:
                ratio = abs(time - reference) / (reference * DEATH_REL_TOL)
                verdict.deviation(measure, ratio)
                ok = ratio <= 1.0
            else:
                ok = False
        elif kind == "half_life" and time is not None:
            fn = closed_fns[measure]
            half = 0.5 * fn(params, channel, 0.0).value
            ratio = abs(fn(params, channel, time).value - half) / (half * DEATH_REL_TOL)
            verdict.deviation(measure, ratio)
            ok = ratio <= 1.0
        else:
            ok = False
        if not ok:
            verdict.failed += 1
    return verdict


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int], Plan]
    check: Callable[[Plan, list[Invocation], object, random.Random], Verdict]


WORKLOADS = {
    "verify": Workload(plan_verify, check_verify),
    "oracle_sweep": Workload(plan_oracle_sweep, check_oracle_sweep),
    "closed_sweep": Workload(plan_closed_sweep, check_closed_sweep),
    "deathtime": Workload(plan_deathtime, check_deathtime),
}
