"""qcorr benchmark: four seeded CLI workloads, end-to-end metrics, and a
traced per-layer breakdown.

Run from the root of a checkout (it imports qcorr from ``src/``)::

    python3 perfbench/run.py --workload oracle_sweep --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload oracle_sweep --seed 7 --seconds 15 --trace 1
    python3 perfbench/run.py --workload all --seed 7

``--workload`` is one of verify, oracle_sweep, closed_sweep, deathtime, or
``all`` (each workload in its own process, one after the other).  ``--seed``
is the only source of the inputs: the same seed gives the same argv.
``--seconds`` is how long passes are repeated (at least one pass; the last
one may run past it).  ``--trace 1`` gives the per-layer run instead of the
end-to-end one.  The last line of the output is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it print each metric
by name and unit, the sample counts, the operation counts and the
environment.  The benchmark tests run with
``python3 -m pytest perfbench/check_perfbench.py``.

Every workload runs ``qcorr.cli.main(argv)`` in this process, one pass after
another, with output written through ``--out`` into new files under
``.perfbench_run/<workload>/`` and checked after timing; the files are
removed when the run ends.  ``QCORR_THREADS`` is removed from the environment and
the BLAS thread variables are set to 1, so everything is single-threaded.

Workloads (an item is what items_per_s and item_ms count):

- verify: ``qcorr verify --json`` on the full grids, the only workload that
  runs ``integrate_rk4`` and the whole check suite.  Item: a check.
- oracle_sweep: ``qcorr sweep --oracle --measures all --axes x,y,z
  --precision 17`` over 6 seeded angles x 6 evenly spaced gamma*t in [0, 3]:
  540 rows, each running a general oracle, mostly the discord optimizer.
  Item: a CSV row.
- closed_sweep: the same command without ``--oracle`` over 50 angles x 201
  times (150,750 rows): the closed forms, ``make_params`` and the CSV
  formatting, no oracle at all.  Item: a CSV row.
- deathtime: 100 seeded (angle, axis, noisy qubit) queries, each running
  ``qcorr deathtime --json`` for concurrence, geometric_discord and
  quantum_discord: many tiny invocations.  Item: a query.

Angles are drawn uniform in (0, pi) except about a tenth each log-uniform
within [1e-4, 1e-1] of 0 and of pi; those strata hit the known small-angle
concurrence and death-time defects and always stay in.

End-to-end metrics (``--trace 0``):

Times are scaled to the nominal machine speed (``speed.py``).  While the
passes run, an interval timer runs a fixed reference unit of qcorr-like work
every 20 ms, inside the queries, for about a tenth of their time.  Each
query's time leaves out the units run inside it and is multiplied by the
nominal unit time over the median of the units run during it (or of the nine
nearest, for a short query).  On a shared machine the speed drifts by up to
1.7x within seconds, so the scale has to come from units run this close to
the work.  Each set-up
process runs the same sampler from its own start of sampling to its end of
warm-up and is scaled the same way.  The printed lines give the measured
values next to the scaled ones.

- setup_s: seconds from starting a fresh interpreter to the end of its first
  warm-up call (import, input generation, one small call of the workload's
  subcommand); median of five separate processes.
- wall_s: median seconds of one pass over the workload's full input.
- items_per_s: items of one pass divided by wall_s.
- item_ms.p50, item_ms.p90: per-item latency.  Each query's latency is its
  median over the passes, divided by the items it holds; the percentiles run
  over the queries (100 on deathtime).  The other workloads have one query
  per pass, so there both equal wall_s per item.  The counts are printed.
- peak_rss_mb: peak resident memory of this process (the workload's own).

An operation is a check (verify), a CSV row (sweeps) or an invocation
(deathtime).  It fails if it raises, exits non-zero, or gives a wrong output:
a verify check with status fail; an oracle_sweep row whose |oracle - closed|
exceeds the measure's tolerance (concurrence 1e-9, geometric_discord 1e-10,
quantum_discord and classical_correlation 1e-5, mutual_information 1e-10); a
closed_sweep row, of 150 seeded ones re-checked against the library oracles
on ``kraus_apply(initial_state(theta))``, off by more than that tolerance; a
deathtime concurrence result on x or z that is not ``esd`` within relative
1e-6 of ``closed_death_time``, one on y that is ``esd``, or a half-life that
is not ``half_life`` with the closed form at that time within relative 1e-6
of half its initial value.  Rows or results that are missing count as
failed.  attempted and failed count the operations of one pass over the
input, so they depend on the seed alone and not on how many passes fit in
the run; every pass is checked, and a pass whose outputs differ and fail
more sets failed.  fail_ratio = failed / attempted is printed.  correct is false when a call
raised, exited with an unexpected code, or wrote a missing, malformed or
incomplete output; the known numeric defects show as failed operations.

Per-layer metrics (``--trace 1``): the first half of ``--seconds`` runs
untraced passes, the second half traced ones.  Tracing wraps every binding of
these public functions in every qcorr module, records a span (name, start,
end, parent) per call in memory, and writes the last traced pass's spans to
``.perfbench_run/<workload>/spans.tsv``:

    cli.main; dynamics.{sweep, death_time, verify_suite};
    channels.{kraus_apply, apply_pauli_channel, analytic_evolve, integrate_rk4};
    measures.{concurrence, wootters_score, geometric_discord,
              mutual_information, quantum_discord, classical_correlation,
              optimal_conditional_entropy};
    states.{make_params, initial_state, validate_density_matrix, bloch_decompose};
    linalg.{hermitian_eigen, von_neumann_entropy}

Each function F reports, per traced pass, F.calls, F.self_ms (its time minus
that of its traced children) and F.incl_us_per_call.  Private helpers are not
wrapped, so the closed forms count in dynamics.sweep's self time and the
optimizer's grid and refinement in optimal_conditional_entropy's.  Also:

- cli.main.self_share: cli.main self time over its inclusive time.
- states.validate_density_matrix.per_oracle_measure: validations per
  outermost measures.* call.
- measures.optimal_conditional_entropy.runs_per_state: optimizer runs per
  distinct state; .refine_passes: mean refinement passes per run, read from
  the returned MeasureResult.optimizer.
- dynamics.death_time.score_evals_per_call: wootters_score calls per
  concurrence death_time call; dynamics.death_time.bisections: mean
  bisection iterations per call.
- check.<measure>.max_dev_over_tol: the largest checked deviation of the
  run over its tolerance (0 where the workload checks none).
- trace.wall_s: mean traced pass; trace.glue_s: the part of it no
  top-level span covers, so the self times plus glue add up to trace.wall_s;
  trace.overhead_s: median traced pass minus median untraced pass.

Which end-to-end metric each layer metric should move:

    layer metrics                          should move        on workload            not on
    measures.optimal_conditional_entropy.* wall_s, items_per_s oracle_sweep, verify  closed_sweep, deathtime
    states.bloch_decompose.*               wall_s             verify, oracle_sweep   closed_sweep, deathtime
    measures.wootters_score.*, channels.kraus_apply.*,
      channels.apply_pauli_channel.*, dynamics.death_time.*
                                           item_ms.*          deathtime              closed_sweep
    states.validate_density_matrix.*, linalg.hermitian_eigen.*
                                           item_ms.*; wall_s  deathtime; oracle_sweep closed_sweep
    channels.integrate_rk4.*               wall_s             verify                 all others
    dynamics.sweep.self_ms, states.make_params.*
                                           wall_s, items_per_s, peak_rss_mb
                                                              closed_sweep           oracle_sweep, deathtime
    cli.main.self_ms, cli.main.self_share  item_ms.*; wall_s  deathtime; closed_sweep verify, oracle_sweep
    check.*.max_dev_over_tol               fail_ratio         oracle_sweep           -
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Single-threaded BLAS and the sweep's default thread count; must run
    before NumPy is imported."""
    os.environ.pop("QCORR_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "qcorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcorr package under {src}; run from a checkout's root")
    return src


def import_qcorr():
    sys.path.insert(0, str(require_sources()))
    import qcorr
    import qcorr.cli
    return qcorr, qcorr.cli


def environment(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (f"env nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]}"
            f" numpy={numpy.__version__} blas={blas} {threads}"
            f" QCORR_THREADS={os.environ.get('QCORR_THREADS', 'unset')}")


def invoke(cli, argv) -> int | None:
    """One CLI call; None if it raised."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return None


def run_pass(cli, plan: workloads.Plan, out_dir: Path):
    """Every query of the plan once; returns ((start, end) per query, calls)."""
    clock = time.perf_counter
    calls, intervals = [], []
    for qi, query in enumerate(plan.queries):
        start = clock()
        for ii, argv in enumerate(query):
            path = out_dir / f"{qi}-{ii}{plan.suffix}"
            calls.append(workloads.Invocation(argv, invoke(cli, (*argv, "--out", str(path))), path))
        intervals.append((start, clock()))
    return intervals, calls


def digest(calls) -> str:
    h = hashlib.sha256()
    for call in calls:
        h.update(repr((call.argv, call.rc)).encode())
        try:
            with call.path.open("rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        except OSError:
            h.update(b"missing")
    return h.hexdigest()


class Run:
    """Timings and verdicts of one benchmark run."""

    def __init__(self, args, qcorr, cli):
        self.workload = workloads.WORKLOADS[args.workload]
        self.plan = self.workload.plan(args.seed)
        self.seed = args.seed
        self.qcorr, self.cli = qcorr, cli
        self.out_dir = out_dir(args.workload)
        self.attempted = self.failed = self.items = self.checked = 0
        self.well_formed = True
        self.dev_over_tol: dict[str, float] = {}
        self._verdicts: dict[str, workloads.Verdict] = {}
        self.last_spans: list[list] = []
        self.n_passes = 0
        self.sampler: speed.Sampler | None = None

    def fresh_dir(self, name: str) -> Path:
        # Every pass writes new files: truncating the previous pass's files
        # costs ext4 with online discard up to a second of I/O wait.
        path = self.out_dir / name
        path.mkdir()
        return path

    def warm_up(self) -> None:
        warm = self.fresh_dir(f"warmup-{os.getpid()}")
        for i, argv in enumerate(self.plan.warmup):
            invoke(self.cli, (*argv, "--out", str(warm / f"{i}{self.plan.suffix}")))

    def check(self, calls) -> None:
        """Check one pass's outputs; identical outputs reuse the verdict.

        attempted and failed count the operations of one pass over the
        input, so they depend on the seed only, not on how many passes fit
        in the run; a pass whose outputs differ and fail more sets failed."""
        key = digest(calls)
        verdict = self._verdicts.get(key)
        if verdict is None:
            rng = random.Random(f"qcorr-perfbench-check-{self.seed}")
            verdict = self.workload.check(self.plan, calls, self.qcorr, rng)
            self._verdicts[key] = verdict
        self.checked += 1
        self.attempted = verdict.attempted
        self.failed = max(self.failed, verdict.failed)
        self.items = verdict.items
        self.well_formed = self.well_formed and verdict.well_formed
        for measure, ratio in verdict.dev_over_tol.items():
            self.dev_over_tol[measure] = max(self.dev_over_tol.get(measure, 0.0), ratio)

    def passes(self, deadline: float, totals: spans.LayerTotals | None = None):
        """Passes until the deadline (at least one); traced when totals is
        given.  Returns, per pass, each query's (start, end)."""
        intervals = []
        while not intervals or time.perf_counter() < deadline:
            pass_dir = self.fresh_dir(f"pass-{self.n_passes}")
            self.n_passes += 1
            if totals is None:
                queries, calls = run_pass(self.cli, self.plan, pass_dir)
            else:
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    queries, calls = run_pass(self.cli, self.plan, pass_dir)
                totals.add_pass(tracer, sum(end - start for start, end in queries))
                self.last_spans = tracer.spans
            intervals.append(queries)
            self.check(calls)
        return intervals

    def scaled_passes(self, deadline: float) -> list[list[float]]:
        """Untraced passes with the speed sampler running throughout.
        Returns, per pass, each query's seconds without the reference units
        run inside it, scaled to the nominal speed."""
        with speed.Sampler() as sampler:
            intervals = self.passes(deadline)
        self.sampler = sampler
        return [[(end - start - sampler.busy(start, end)) * sampler.factor(start, end)
                 for start, end in queries] for queries in intervals]

    def end_to_end(self, setup: list[tuple[float, float]], latencies: list[list[float]]):
        """setup: (measured, scaled) seconds per set-up probe; latencies:
        scaled seconds per query, per pass."""
        # A query's latency is its median over the passes, so the percentiles
        # spread over the inputs rather than over moments of machine noise.
        per_query = self.items / len(self.plan.queries)
        samples = [1e3 * statistics.median(lat) / per_query if per_query else 0.0
                   for lat in zip(*latencies)]
        p90 = (statistics.quantiles(samples, n=10, method="inclusive")[-1]
               if len(samples) > 1 else samples[0])
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": statistics.median(sum(lat) for lat in latencies),
            "item_ms.p50": statistics.median(samples),
            "item_ms.p90": p90,
        }
        metrics["items_per_s"] = self.items / metrics["wall_s"]
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = len(self.sampler.durations) if self.sampler else 0
        notes = {"setup_s": f"median of {len(setup)} processes; measured"
                            f" {statistics.median(raw for raw, _ in setup):.6g}",
                 "wall_s": f"median of {len(latencies)} passes; {units} reference units",
                 "item_ms.p50": f"{len(samples)} queries x {len(latencies)} passes",
                 "item_ms.p90": f"{len(samples)} queries x {len(latencies)} passes"}
        return metrics, notes

    def clean_up(self) -> None:
        for path in self.out_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    def check_metrics(self) -> dict[str, float]:
        return {f"check.{m}.max_dev_over_tol": self.dev_over_tol.get(m, 0.0)
                for m in workloads.MEASURES}


def out_dir(workload: str) -> Path:
    return ROOT / ".perfbench_run" / workload


def time_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up:
    measured, and scaled by the reference units the probe ran itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        rc = proc.wait(timeout=120)
    if len(line) != 3 or line[0] != "ready" or rc != 0:
        raise SystemExit(f"error: set-up probe exited with {rc}")
    busy, scale = float(line[1]), float(line[2])
    return elapsed, (elapsed - busy) * scale


def setup_probe(args) -> None:
    """The child side of time_setup: import, plan and warm up with the speed
    sampler running, then report the sampler's time and scale."""
    with speed.Sampler() as sampler:
        run = Run(args, *import_qcorr())
        run.warm_up()
    durations = sampler.durations or speed.burst(speed.INTERVAL_S)
    print(f"ready {sum(sampler.durations)!r} {speed.factor(durations)!r}", flush=True)


def emit(spec: dict, section: str, values: dict, notes: dict, run: Run) -> None:
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json {section}:"
                         f" {sorted(set(values) ^ set(units))}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"ops_attempted {run.attempted}  ops_failed {run.failed}  fail_ratio {ratio:.6g}"
          f"  (one pass; {run.checked} passes checked, {len(run._verdicts)} distinct outputs)")
    print(json.dumps({
        "correct": run.well_formed and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def run_all(args) -> int:
    for name in workloads.WORKLOADS:
        rc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
        if rc != 0:
            return rc
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require_sources()
    pin_environment()
    if args.setup_probe:
        setup_probe(args)
        return 0

    shutil.rmtree(out_dir(args.workload), ignore_errors=True)
    out_dir(args.workload).mkdir(parents=True)
    setup = [time_setup(args) for _ in range(SETUP_PROBES)]
    run = Run(args, *import_qcorr())
    run.warm_up()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(environment(sys.modules["numpy"]))
    start = time.perf_counter()
    if not args.trace:
        latencies = run.scaled_passes(start + args.seconds)
        metrics, notes = run.end_to_end(setup, latencies)
        emit(spec, "end_to_end", metrics, notes, run)
        run.clean_up()
        return 0

    untraced = [sum(end - begin for begin, end in queries)
                for queries in run.passes(start + args.seconds / 2)]
    totals = spans.LayerTotals()
    traced = [sum(end - begin for begin, end in queries)
              for queries in run.passes(start + args.seconds, totals)]
    metrics = totals.metrics()
    metrics.update(run.check_metrics())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    span_file = run.out_dir / "spans.tsv"
    spans.write_spans(span_file, run.last_spans)
    notes = {"trace.wall_s": f"{totals.passes} traced passes, spans in {span_file.relative_to(ROOT)}",
             "trace.overhead_s": f"against {len(untraced)} untraced passes"}
    emit(spec, "per_layer", metrics, notes, run)
    run.clean_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
