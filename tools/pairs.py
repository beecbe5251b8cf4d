"""Compare two checkouts on the benchmark in alternating pairs.

Runs ``perfbench/run.py`` in a parent checkout and in a change checkout,
one run at a time: first one warm-up run of each side, then N pairs, with
the parent going first in even pairs and the change first in odd ones.
Before the runs it compiles each side's ``src`` and ``perfbench`` to
bytecode, and the runs themselves write none (PYTHONDONTWRITEBYTECODE=1).
Each run has the benchmark's own run length.

    python3 tools/pairs.py PARENT CHANGE [--workload oracle_sweep] [--seed 31]
                           [--pairs 10] [--json OUT]

``--workload`` takes one workload, a comma-separated list or ``all``; each
pair runs every listed workload on both sides.  For every end-to-end metric
that CHANGE's BENCHMARK.json declares, the summary prints each side's median
and quartiles, how many pairs the change won (strictly better in the
metric's direction), the ratio of the medians (change / parent), whether
the medians differ by more than the parent's interquartile range (IQR), and
two readings of the pairs rule (``rule``):

- verdict: ``worse`` when the change's median is worse than the parent's by
  more than the metric's bound in CHANGE's BENCHMARK.json, as a fraction of
  the parent's median; otherwise ``unresolved`` when the parent's IQR over
  its median exceeds the bound, unless every change run beats every parent
  run; otherwise ``within``.
- gain: the change won at least 9 in 10 pairs and its median is better than
  the parent's by more than the parent's IQR, which a claimed gain needs.

Per workload it also prints each run's failed operations and whether the
change made things worse: a larger share of failed operations over all its
runs, or more runs that are not ``correct``.  ``--json`` writes every run's
metrics, failures and that summary to OUT.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in checkout; its last output line, as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {checkout} {workload} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def rule(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One end-to-end metric over the pairs: each side's median and
    quartiles, the change's wins, the median ratio, and the pairs rule's
    verdict ("within", "worse" or "unresolved") and gain (see the module
    docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    row = {"wins": wins, "pairs": len(parent), "bound": bound}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else [values[0]] * 3)
        row[side] = {"median": median, "q1": q1, "q3": q3}
    p, c = row["parent"], row["change"]
    row["ratio"] = c["median"] / p["median"] if p["median"] else float("nan")
    row["beyond_parent_iqr"] = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
    # how much worse the change's median is, and the parent's spread, both
    # as fractions of the parent's median
    scale = abs(p["median"]) or 1.0
    row["worse_by"] = sign * (c["median"] - p["median"]) / scale
    row["parent_spread"] = (p["q3"] - p["q1"]) / scale
    beats_all = all(sign * (cv - pv) < 0.0 for cv in change for pv in parent)
    if row["worse_by"] > bound:
        row["verdict"] = "worse"
    elif row["parent_spread"] > bound and not beats_all:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "within"
    row["gain"] = 10 * wins >= 9 * len(parent) and -row["worse_by"] > row["parent_spread"]
    return row


def failures(parent: list[dict], change: list[dict]) -> dict:
    """Whether the change's runs fail a larger share of their operations,
    over all its runs, or hold more runs that are not correct."""
    share = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
             for side, runs in zip(SIDES, (parent, change))}
    incorrect = {side: sum(not r["correct"] for r in runs)
                 for side, runs in zip(SIDES, (parent, change))}
    return {"failed_share": share, "incorrect_runs": incorrect,
            "failed_share_worse": share["change"] > share["parent"],
            "correct_worse": incorrect["change"] > incorrect["parent"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="oracle_sweep")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else args.workload.split(","))

    for checkout in checkouts.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for side in SIDES:
            run_once(checkouts[side], workload, args.seed)
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_once(checkouts[side], workload, args.seed))
            values = {side: runs[workload][side][-1]["metrics"]["wall_s"]["value"] for side in SIDES}
            print(f"pair {i + 1}/{args.pairs} {workload} ({order[0]} first): wall_s parent"
                  f" {values['parent']:.6g} change {values['change']:.6g}", flush=True)

    report = {"seed": args.seed, "pairs": args.pairs, "workloads": {}}
    for workload in workloads:
        sides = runs[workload]
        rows = {name: rule(*[[r["metrics"][name]["value"] for r in sides[side]] for side in SIDES],
                           better, bound)
                for name, (better, bound) in metrics.items()}
        failed = {side: [r["failed"] for r in sides[side]] for side in SIDES}
        ops = failures(sides["parent"], sides["change"])
        report["workloads"][workload] = {
            "summary": rows, "failed": failed, **ops,
            "runs": {side: [{"correct": r["correct"], "attempted": r["attempted"],
                             "failed": r["failed"],
                             **{k: v["value"] for k, v in r["metrics"].items()}}
                            for r in sides[side]]
                     for side in SIDES}}
        print(f"\n{workload}, seed {args.seed}, {args.pairs} pairs"
              f" (failed operations: parent {failed['parent']}, change {failed['change']};"
              f" failed share worse: {'yes' if ops['failed_share_worse'] else 'no'},"
              f" correct worse: {'yes' if ops['correct_worse'] else 'no'})")
        print(f"{'metric':<13s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
              f" {'wins':>6s} {'ratio':>7s} {'IQR':>4s} {'bound':>5s} {'verdict':>10s}  gain")
        for name, row in rows.items():
            cells = [f"{row[side]['median']:.6g} [{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
                     for side in SIDES]
            print(f"{name:<13s} {cells[0]:>34s} {cells[1]:>34s} {row['wins']:>3d}/{row['pairs']:<2d}"
                  f" {row['ratio']:>7.4f} {'yes' if row['beyond_parent_iqr'] else 'no':>4s}"
                  f" {row['bound']:>5g} {row['verdict']:>10s}  {'yes' if row['gain'] else 'no'}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
