"""Command-line front end.

Subcommands: state (build and measure an initial family member), evolve
(apply a channel and re-measure), sweep (CSV or JSON over a (theta, time)
grid), deathtime (root-find a death or half-life), verify (self-check suite).

Angles accept plain radians or pi tokens like ``pi/8``, ``3pi/4``, ``-pi/4``
and ``2e-1pi``.  Exit codes: 0 success, 1 verify failure, 2 a rule of the
command line's own (syntax, a flag combination, a sweep's size bounds, an
--out that cannot be opened), 3 a value the library rejects (its
ValueError: a rate, a time, an RK4 step count, a state) or an error writing
the output.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
from typing import Optional, Sequence, TextIO

import numpy as np

from .channels import AXES, MAX_RK4_STEPS, ChannelSpec, analytic_evolve, integrate_rk4, kraus_apply
from .dynamics import SweepGrid, death_time, sweep, verify_suite
from .linalg import QUBITS
from .measures import MEASURE_NAMES, PAPER_MEASURES, OptimizerSettings, closed_values, oracle_values
from .states import StateParams, initial_state, make_params, state_to_json

__all__ = ["main", "build_parser"]

# most time points a --times range or --tsteps may ask for
MAX_TIME_POINTS = 100_000
# most (axis, theta, time) points one sweep may ask for (closed forms only,
# all five measures at --precision 17: about 5.6 s, a 127 MB peak and a
# 384 MB CSV on a 2-core VM; as --json the same sweep also peaks at 127 MB,
# in about 8.8 s, for 928 MB of JSON)
MAX_SWEEP_POINTS = 1_000_000
# most sweep rows one %-format writes
_BLOCK_ROWS = 256
DEFAULT_RK4_STEPS = 400

# [sign] [coefficient, with an optional exponent] [*] pi [/ denominator]
_PI_TOKEN = re.compile(
    r"^\s*([+-]?)\s*((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?)?"
    r"\s*\*?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?\s*$"
)


def parse_angle(token: str) -> float:
    """Parse '0.7', 'pi', 'pi/8', '3pi/4', '-pi/4', '2e-1pi' or '0.5*pi' into
    radians."""
    m = _PI_TOKEN.match(token.lower())
    if m:
        coef = float(m.group(1) + (m.group(2) or "1"))
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {token!r}")
        return coef * math.pi / den
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {token!r}") from None


def _angle_token(token: str) -> str:
    """A token parse_angle accepts, kept as text until --degrees is known."""
    parse_angle(token)
    return token


def _tokens(text: str, kind: str, parse=str.strip, choices: Sequence[str] = (),
            also: str = "") -> list:
    """The comma-separated tokens of text that are not blank, each through
    parse and, when choices are given, one of them; an empty list raises."""
    items = [parse(tok) for tok in text.split(",") if tok.strip()]
    for item in items:
        if choices and item not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {item!r}; choose from {', '.join(choices)}{also}")
    if not items:
        raise argparse.ArgumentTypeError(f"empty {kind} list")
    return items


def _angle_list(text: str) -> list[float]:
    return _tokens(text, "angle", parse_angle)


def _time_list(text: str) -> list[float]:
    """Comma list ('0,0.5,1') or inclusive range 'start:stop:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"time range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse time range {text!r}") from None
        span = (stop - start) / step if step > 0.0 else math.nan
        if not span >= 0.0:
            raise argparse.ArgumentTypeError(f"bad time range {text!r}")
        if span >= MAX_TIME_POINTS:
            raise argparse.ArgumentTypeError(
                f"time range {text!r} has more than {MAX_TIME_POINTS} points"
            )
        n = int(math.floor(span + 1e-9)) + 1
        times = [start + k * step for k in range(n)]
        if n > 1 and abs(span - (n - 1)) <= 1e-9:
            # a whole number of steps: end at stop itself, not start + k step
            times[-1] = stop
        return times
    try:
        return _tokens(text, "time", float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse time list {text!r}") from None


def _measure_list(text: str) -> list[str]:
    if text.strip() == "all":
        return list(MEASURE_NAMES)
    return _tokens(text, "measure", choices=MEASURE_NAMES, also=" or 'all'")


def _axis_list(text: str) -> list[str]:
    return _tokens(text, "axis", choices=AXES)


def _fmt(value: float, precision: int) -> str:
    return f"%.{precision}g" % value


def _print_matrix(rho: np.ndarray, precision: int, out: TextIO) -> None:
    for row in rho:
        cells = []
        for z in row:
            re_s = _fmt(z.real, precision)
            im = z.imag
            if im == 0.0:
                cells.append(re_s)
            else:
                cells.append(f"{re_s}{'+' if im >= 0 else '-'}{_fmt(abs(im), precision)}j")
        out.write("  [" + ", ".join(f"{c:>14s}" for c in cells) + "]\n")


class _OutFile:
    """Writes to a --out file opened for appending and empties it on the
    first write, so a command that fails before it writes leaves the file
    as it was.  Only a regular file that holds something is emptied: a
    device or a pipe refuses truncate, and a new file, where truncating
    would cost a second file-system update, is empty already."""

    def __init__(self, file: TextIO):
        self._file = file
        info = os.fstat(file.fileno())
        self._pending = stat.S_ISREG(info.st_mode) and info.st_size > 0

    def write(self, text: str) -> int:
        if self._pending:
            self._file.truncate(0)
            self._pending = False
        return self._file.write(text)


def _fields(obj) -> dict:
    """A dataclass's fields by name, for json.dumps: the values themselves,
    where dataclasses.asdict would deep-copy each one."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _settings(args: argparse.Namespace) -> OptimizerSettings:
    return OptimizerSettings(grid_points=args.grid_points, final_tolerance=args.opt_tol)


def _write_measured_state(
    args: argparse.Namespace,
    out: TextIO,
    rho: np.ndarray,
    params: StateParams,
    channel: Optional[ChannelSpec],
    t: float,
    fields: dict,
    header: str,
    check: Optional[dict] = None,
) -> None:
    """Write rho with the closed-form measures of params evolved by channel
    to t and the oracle measures of rho: as JSON, the fields, the state, the
    measure table and the check if any; as text, the header, the density
    matrix, the measure table and the check footer."""
    settings = _settings(args)
    closed = closed_values(params, channel, t, args.measures)
    oracle = oracle_values(rho, args.measures, settings)
    table = {name: {"closed": float(closed[name]), "oracle": oracle[name]} for name in args.measures}
    if args.json:
        payload = {**fields, "state": state_to_json(rho), "measures": table}
        if check is not None:
            payload["check"] = check
        out.write(json.dumps(payload, indent=2) + "\n")
        return
    p = args.precision
    out.write(header)
    _print_matrix(rho, p, out)
    out.write("measures (closed form | oracle):\n")
    for name in args.measures:
        c, o = table[name]["closed"], table[name]["oracle"]
        out.write(f"  {name:<22s} {_fmt(c, p):>14s} | {_fmt(o, p)}\n")
    if check is not None:
        out.write(f"check: max deviation vs {check['reference']} = "
                  f"{_fmt(check['max_deviation'], p)} (tolerance {check['tolerance']:g})"
                  f" -> {'ok' if check['passed'] else 'FAIL'}\n")


# evolve --method: each route's evolved state from (params, rho0, channel,
# t, steps), and the route --check compares it with, at what tolerance; rk4
# is checked against the exact map, the two exact routes against each other
_ROUTES = {
    "kraus": (lambda p, rho0, ch, t, n: kraus_apply(rho0, ch, t), "analytic", 1e-13),
    "analytic": (lambda p, rho0, ch, t, n: analytic_evolve(p, ch, t), "kraus", 1e-13),
    "rk4": (lambda p, rho0, ch, t, n: integrate_rk4(rho0, ch, t, steps=n), "analytic", 1e-8),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Entanglement and discord dynamics of a one-parameter two-qubit family"
        " under single-qubit Pauli noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--precision", type=int, default=9, metavar="P",
                       help="significant digits for printed numbers (6-17, default 9)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    def add_optimizer(p: argparse.ArgumentParser) -> None:
        defaults = OptimizerSettings()
        p.add_argument("--grid-points", type=int, default=defaults.grid_points, metavar="N",
                       help="sphere grid size (default %(default)s); its z > 0 half and"
                       " the singular vectors of T seed the search")
        p.add_argument("--opt-tol", type=float, default=defaults.final_tolerance, metavar="TOL",
                       help="compass-search step in radians at which the optimizer"
                       " refinement stops (default %(default)s)")

    def add_channel(p: argparse.ArgumentParser) -> None:
        p.add_argument("--gamma", type=float, default=1.0, metavar="G",
                       help="channel rate (default 1)")
        p.add_argument("--noisy-qubit", choices=QUBITS, default="B",
                       help="which qubit the noise acts on (default B)")

    p_state = sub.add_parser("state", help="build an initial family member and measure it")
    p_state.add_argument("--theta", required=True, type=_angle_token, metavar="ANGLE",
                         help="family parameter, e.g. 0.7, pi/8, 3pi/4")
    p_state.add_argument("--degrees", action="store_true",
                         help="interpret a plain-number --theta as degrees")
    p_state.add_argument("--measures", type=_measure_list, default=MEASURE_NAMES,
                         metavar="LIST", help="comma list or 'all' (default all)")
    add_optimizer(p_state)
    add_common(p_state)

    p_evolve = sub.add_parser("evolve", help="evolve a family member and re-measure it")
    p_evolve.add_argument("--theta", required=True, type=parse_angle, metavar="ANGLE")
    p_evolve.add_argument("--axis", "--channel", required=True, choices=AXES,
                          help="Pauli axis of the noise")
    p_evolve.add_argument("--time", "--t", required=True, type=float, metavar="T",
                          help="evolution time (gamma*t when --gamma is omitted)")
    add_channel(p_evolve)
    p_evolve.add_argument("--method", choices=tuple(_ROUTES), default="kraus",
                          help="evolution route (default kraus)")
    p_evolve.add_argument("--steps", type=int, metavar="N",
                          help=f"step count for --method rk4 only (default"
                          f" {DEFAULT_RK4_STEPS}, at least gamma*t, at most {MAX_RK4_STEPS})")
    p_evolve.add_argument("--check", action="store_true",
                          help="append a cross-method deviation footer (exit 1 if over tolerance)")
    p_evolve.add_argument("--measures", type=_measure_list, default=PAPER_MEASURES,
                          metavar="LIST")
    add_optimizer(p_evolve)
    add_common(p_evolve)

    p_sweep = sub.add_parser("sweep", help="CSV of measures over a (theta, time) grid")
    p_sweep.add_argument("--thetas", required=True, type=_angle_list, metavar="LIST",
                         help="comma list of angles, e.g. pi/8,pi/4,3pi/8")
    p_sweep.add_argument("--times", type=_time_list, metavar="LIST",
                         help="comma list or start:stop:step range")
    p_sweep.add_argument("--tmax", type=float, metavar="T",
                         help="with --tsteps: evenly spaced times 0..T inclusive")
    p_sweep.add_argument("--tsteps", type=int, metavar="N",
                         help="number of time points for --tmax (>= 2)")
    p_sweep.add_argument("--axes", "--channels", "--channel", type=_axis_list,
                         default=AXES, metavar="LIST")
    p_sweep.add_argument("--measures", type=_measure_list, default=PAPER_MEASURES,
                         metavar="LIST")
    add_channel(p_sweep)
    p_sweep.add_argument("--oracle", action="store_true",
                         help="add an independently computed oracle column")
    add_optimizer(p_sweep)
    add_common(p_sweep)

    p_death = sub.add_parser("deathtime", help="find a death time or half-life")
    p_death.add_argument("--theta", required=True, type=parse_angle, metavar="ANGLE")
    p_death.add_argument("--axis", "--channel", required=True, choices=AXES)
    add_channel(p_death)
    p_death.add_argument("--measure", choices=PAPER_MEASURES, default="concurrence")
    add_common(p_death)

    p_verify = sub.add_parser("verify", help="run the internal consistency checks")
    p_verify.add_argument("--quick", action="store_true", help="smaller grids, faster run")
    add_optimizer(p_verify)
    add_common(p_verify)

    return parser


def _cmd_state(args: argparse.Namespace, out: TextIO) -> int:
    theta = math.radians(args.theta) if args.degrees else args.theta
    params = make_params(theta)
    p = args.precision
    _write_measured_state(
        args, out, initial_state(params), params, None, 0.0,
        {"theta": params.theta, "eta": params.eta, "xi": params.xi, "q": params.q},
        f"theta = {_fmt(params.theta, p)}  (eta = {_fmt(params.eta, p)},"
        f" xi = {_fmt(params.xi, p)}, q = {_fmt(params.q, p)})\ndensity matrix:\n",
    )
    return 0


def _cmd_evolve(args: argparse.Namespace, out: TextIO) -> int:
    params = make_params(args.theta)
    channel = ChannelSpec(axis=args.axis, gamma=args.gamma, qubit=args.noisy_qubit)
    rho0 = initial_state(params)
    evolve, ref_name, tol = _ROUTES[args.method]
    rho = evolve(params, rho0, channel, args.time, args.steps)
    check = None
    if args.check:
        reference = _ROUTES[ref_name][0](params, rho0, channel, args.time, args.steps)
        deviation = float(np.max(np.abs(rho - reference)))
        check = {"reference": ref_name, "max_deviation": deviation,
                 "tolerance": tol, "passed": deviation <= tol}
    gamma_t = channel.gamma * args.time
    p = args.precision
    _write_measured_state(
        args, out, rho, params, channel, args.time,
        {"theta": params.theta, "axis": channel.axis, "gamma": channel.gamma,
         "time": args.time, "gamma_t": gamma_t, "method": args.method},
        f"theta = {_fmt(params.theta, p)}, axis = {channel.axis},"
        f" gamma*t = {_fmt(gamma_t, p)}, method = {args.method}\nevolved density matrix:\n",
        check,
    )
    return 0 if check is None or check["passed"] else 1


def _cmd_sweep(args: argparse.Namespace, out: TextIO) -> int:
    table = sweep(SweepGrid(thetas=tuple(args.thetas), times=tuple(args.times)),
                  axes=tuple(args.axes), measures=tuple(args.measures), gamma=args.gamma,
                  noisy_qubit=args.noisy_qubit, include_oracle=args.oracle,
                  optimizer=_settings(args))
    # Each (measure, axis, theta) block is a %-format of a template that
    # holds the block's fixed text, each theta and gamma*t formatted once
    # (json.dumps prints inf as Infinity), and a field per value: %.Pg, or
    # for JSON %r, the repr json prints for a finite float.  Only the fixed
    # text differs between the formats.  A block goes out _BLOCK_ROWS rows
    # at a time, so memory stays flat in the number of times; lead is the
    # text before a slice's first row, the opening and then the separator.
    if args.json:
        number, field, empty = json.dumps, "%r", "null"
        lead, sep, closing = "[\n", ",\n", "\n]\n"
        head = ('  {{\n    "channel": "{axis}",\n    "measure": "{measure}",\n'
                '    "theta": {theta},\n    "gamma_t": ')
        tail = '{gamma_t},\n    "value_closed": {closed},\n    "value_oracle": {oracle}\n  }}'
    else:
        field = f"%.{args.precision}g"
        number, empty = field.__mod__, ""
        lead, sep, closing = "channel,measure,theta,gamma_t,value_closed,value_oracle\n", "\n", "\n"
        head, tail = "{axis},{measure},{theta},", "{gamma_t},{closed},{oracle}"
    oracle = empty if table.oracle is None else field
    values = table.closed if table.oracle is None else np.stack([table.closed, table.oracle], -1)
    thetas = [number(theta) for theta in table.thetas]
    tails = [tail.format(gamma_t=number(gt), closed=field, oracle=oracle) for gt in table.gamma_ts]
    parts = [(k, tails[k:k + _BLOCK_ROWS]) for k in range(0, len(tails), _BLOCK_ROWS)]
    for m, measure in enumerate(table.measures):
        for a, axis in enumerate(table.axes):
            for i, theta in enumerate(thetas):
                row = head.format(axis=axis, measure=measure, theta=theta)
                for k, part in parts:
                    template = lead + row + (sep + row).join(part)
                    out.write(template % tuple(values[m, a, i, k:k + _BLOCK_ROWS].ravel().tolist()))
                    lead = sep
    out.write(closing)
    return 0


def _cmd_deathtime(args: argparse.Namespace, out: TextIO) -> int:
    params = make_params(args.theta)
    channel = ChannelSpec(axis=args.axis, gamma=args.gamma, qubit=args.noisy_qubit)
    result = death_time(params, channel, measure=args.measure)
    if args.json:
        payload = {"theta": params.theta, "axis": channel.axis, "gamma": channel.gamma,
                   "measure": args.measure, **_fields(result)}
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    p = args.precision
    out.write(f"measure = {args.measure}, axis = {channel.axis},"
              f" theta = {_fmt(params.theta, p)}, gamma = {_fmt(channel.gamma, p)}\n")
    out.write(f"kind = {result.kind}\n")
    if result.time is not None:
        out.write(f"time = {_fmt(result.time, p)}\n")
    if result.closed_form_time is not None:
        out.write(f"closed-form time = {_fmt(result.closed_form_time, p)}\n")
    if result.bracket is not None:
        out.write(f"bracket = [{_fmt(result.bracket[0], p)}, {_fmt(result.bracket[1], p)}]"
                  f" after {result.iterations} bisections\n")
    out.write(f"note: {result.diagnostic}\n")
    return 0


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    report = verify_suite(quick=args.quick, optimizer=_settings(args))
    if args.json:
        payload = {
            "passed": report.passed,
            "runtime_seconds": report.runtime_seconds,
            "checks": [_fields(c) for c in report.checks],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0 if report.passed else 1
    tags = {"pass": "[PASS] ", "fail": "[FAIL] ", "expected_fail": "[XFAIL]"}
    for c in report.checks:
        line = f"{tags[c.status]} {c.check_id}: {c.detail}"
        if c.tolerance is not None:
            line += f" (tolerance {c.tolerance:g})"
        out.write(line + "\n")
    n_fail = sum(1 for c in report.checks if c.status == "fail")
    out.write(
        f"{len(report.checks)} checks, {n_fail} failed,"
        f" {sum(1 for c in report.checks if c.status == 'expected_fail')} expected-fail,"
        f" {report.runtime_seconds:.2f}s\n"
    )
    return 0 if report.passed else 1


_COMMANDS = {
    "state": _cmd_state,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
    "deathtime": _cmd_deathtime,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for main; parsing leaves it unchanged, and
    every list-valued default is a tuple, so no call can alter another's."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not 6 <= args.precision <= 17:
        parser.error(f"--precision must be in [6, 17], got {args.precision}")
    if args.command == "state":
        if args.degrees and _PI_TOKEN.match(args.theta.lower()):
            parser.error(f"--degrees takes a plain-number --theta, got {args.theta!r}")
        args.theta = parse_angle(args.theta)
    # integrate_rk4 owns every bound on the step count (exit 3 with its message)
    if args.command == "evolve" and args.steps is not None and args.method != "rk4":
        parser.error(f"--steps applies to --method rk4 only, not {args.method}")
    if args.command == "evolve" and args.method == "rk4" and args.steps is None:
        args.steps = DEFAULT_RK4_STEPS
    if args.command == "sweep":
        has_range = args.tmax is not None or args.tsteps is not None
        if args.times is not None and has_range:
            parser.error("--times and --tmax/--tsteps are mutually exclusive")
        if args.times is None:
            if args.tmax is None or args.tsteps is None:
                parser.error("sweep needs --times, or both --tmax and --tsteps")
            if not (0.0 < args.tmax < math.inf) or args.tsteps < 2:
                parser.error("--tmax must be finite and > 0, and --tsteps >= 2")
            if args.tsteps > MAX_TIME_POINTS:
                parser.error(f"--tsteps must be at most {MAX_TIME_POINTS}")
            # k/(N - 1) first, so the last time is T itself and no product overflows
            args.times = [args.tmax * (k / (args.tsteps - 1)) for k in range(args.tsteps)]
        points = len(args.axes) * len(args.thetas) * len(args.times)
        if points > MAX_SWEEP_POINTS:
            parser.error(f"sweep grid has {points} (axis, theta, time) points,"
                         f" more than {MAX_SWEEP_POINTS}")
    handler = _COMMANDS[args.command]
    created = bool(args.out) and not os.path.lexists(args.out)
    try:
        sink = (open(args.out, "a", encoding="utf-8") if args.out
                else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        parser.error(f"cannot write --out {args.out!r}: {exc.strerror}")
    try:
        with sink as out:
            code = handler(args, _OutFile(out) if args.out else out)
            out.flush()
            return code
    except ValueError as exc:  # includes InvalidStateError
        message = str(exc)
    except OSError as exc:  # from writing or closing the output
        message = f"cannot write output: {exc.strerror}"
        if not args.out:
            # a closed or full stdout: point it at devnull, so that the
            # flush at exit raises no second error
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
    print(f"error: {message}", file=sys.stderr)
    # remove a file this call created and left empty
    if created and os.path.getsize(args.out) == 0:
        os.remove(args.out)
    return 3


if __name__ == "__main__":
    sys.exit(main())
