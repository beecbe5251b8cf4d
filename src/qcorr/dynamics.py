"""Time-domain tooling: measure sweeps over (theta, t) grids, death-time
root finding, and a self-verification suite.

The sweep pairs every closed-form value with an optional independently
computed oracle value so disagreement is visible in the output rather than
buried.  Death times are certified: a root of the signed concurrence score is
reported as a genuine finite death only when the score is decisively negative
past the root, measured against the depth the state's own score sinks to,
which separates true sudden death from asymptotic decay that merely dips
into numerical dust.
"""
from __future__ import annotations

import functools
import math
import time as _time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import (
    ChannelSpec,
    analytic_evolve,
    apply_pauli_channel,
    integrate_rk4,
    kraus_apply,
    uncorrected_y_matrix,
)
from .measures import (
    MEASURE_NAMES,
    OptimizerSettings,
    _wootters_scores,
    closed_values,
    concurrence,
    oracle_values,
    quantum_discord,
    quantum_discord_xz_expanded,
    quantum_discord_y_expanded,
    uncorrected_x_concurrence,
)
from .states import (
    StateParams,
    initial_state,
    make_params,
    x_structure_defect,
)

__all__ = [
    "SweepGrid",
    "SweepRow",
    "SweepTable",
    "MEASURE_NAMES",
    "sweep",
    "DeathTimeResult",
    "death_time",
    "closed_death_time",
    "closed_death_time_trig",
    "VerifyCheck",
    "VerifyReport",
    "verify_suite",
]

_GAMMA_T_CAP = 50.0
_SCORE_THRESHOLD = 1e-12
_CERTIFY_MARGIN = -1e-6
# the scaled certification margin is never closer to zero than this, far
# above the rounding of the spin-flip score, so numerical zero never certifies
_MARGIN_FLOOR = -1e-13
# bisection steps per evaluation call: a spin-flip score costs about 11 us
# per extra state in a stack, while extra closed-form points are nearly free
_SCORE_TREE_DEPTH = 3
_CLOSED_TREE_DEPTH = 6


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (theta, time) grid; times are in units of 1/gamma when the
    channels are built with gamma = 1."""

    thetas: tuple[float, ...]
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thetas or not self.times:
            raise ValueError("sweep grid needs at least one theta and one time")
        if not all(t >= 0.0 for t in self.times):
            raise ValueError("sweep times must be >= 0 (NaN is rejected)")


@dataclass(frozen=True)
class SweepRow:
    channel: str
    measure: str
    theta: float
    gamma_t: float
    value_closed: float
    value_oracle: Optional[float] = None


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """Sweep values stored by column: closed[m, a, i, j] (and oracle, when
    computed) belongs to measures[m], axes[a], thetas[i] and gamma_ts[j].
    With oracles, states[a, i, j] is the evolved 4x4 state they were read
    from.

    Reads as the sequence of SweepRow in row order: measure-major, then
    channel, theta, time.
    """

    measures: tuple[str, ...]
    axes: tuple[str, ...]
    thetas: tuple[float, ...]
    gamma_ts: tuple[float, ...]
    closed: np.ndarray
    oracle: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.closed.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        m, a, i, j = np.unravel_index(range(len(self))[index], self.closed.shape)
        return SweepRow(
            channel=self.axes[a],
            measure=self.measures[m],
            theta=self.thetas[i],
            gamma_t=self.gamma_ts[j],
            value_closed=float(self.closed[m, a, i, j]),
            value_oracle=None if self.oracle is None else float(self.oracle[m, a, i, j]),
        )


def sweep(
    grid: SweepGrid,
    axes: Sequence[str] = ("x", "y", "z"),
    measures: Sequence[str] = ("concurrence", "geometric_discord", "quantum_discord"),
    gamma: float = 1.0,
    noisy_qubit: str = "B",
    include_oracle: bool = False,
    optimizer: OptimizerSettings | None = None,
) -> SweepTable:
    """Evaluate closed-form measures (and optionally the oracles) over the
    grid.  The closed forms take one closed_values call per channel over
    the whole (theta, time) grid.  With oracles, one kraus_apply call per
    channel evolves the stacked starts to every time, and one oracle_values
    call reads every measure from the whole stack, the two entropic
    measures from one optimizer run."""
    channels = [ChannelSpec(axis=axis, gamma=gamma, qubit=noisy_qubit) for axis in axes]
    params = [make_params(theta) for theta in grid.thetas]
    shape = (len(measures), len(channels), len(params), len(grid.times))

    blocks = [closed_values(params, channel, grid.times, measures) for channel in channels]
    closed = np.array([[block[name] for block in blocks] for name in measures]).reshape(shape)

    oracle = states = None
    if include_oracle:
        initial = np.array([initial_state(p) for p in params])
        evolved = [kraus_apply(initial, channel, grid.times) for channel in channels]
        states = np.array(evolved).reshape(shape[1:] + (4, 4))
        values = oracle_values(states.reshape(-1, 4, 4), measures, optimizer)
        oracle = np.array([values[name] for name in measures]).reshape(shape)

    return SweepTable(
        measures=tuple(measures),
        axes=tuple(axes),
        thetas=tuple(grid.thetas),
        gamma_ts=tuple(gamma * t for t in grid.times),
        closed=closed,
        oracle=oracle,
        states=states,
    )


# ---------------------------------------------------------------------------
# death times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeathTimeResult:
    """Outcome of a death-time search.

    kind is "esd" (certified finite death of the oracle concurrence),
    "half_life" (time for a closed-form measure to halve), "asymptotic"
    (a numerical crossing that failed certification), or "none" (no crossing
    up to gamma t = 50).  time is None unless a time was certified.
    """

    kind: str
    time: Optional[float]
    bracket: Optional[tuple[float, float]]
    iterations: int
    closed_form_time: Optional[float]
    diagnostic: str


def closed_death_time(params: StateParams, channel: ChannelSpec) -> Optional[float]:
    """(1/gamma) ln sqrt(xi/eta) for the x and z axes; None when no finite
    death exists (y axis, or eta = 0)."""
    if channel.axis == "y" or params.eta <= 0.0:
        return None
    return math.log(math.sqrt(params.xi / params.eta)) / channel.gamma


def closed_death_time_trig(theta: float, gamma: float = 1.0) -> float:
    """Equivalent trigonometric form (1/4 gamma) ln (1 - 2 csc^2 theta)^2."""
    s = math.sin(theta)
    if s == 0.0:
        raise ValueError("theta with sin(theta) = 0 has no finite death time")
    return math.log((1.0 - 2.0 / (s * s)) ** 2) / (4.0 * gamma)


def death_time(
    params: StateParams,
    channel: ChannelSpec,
    measure: str = "concurrence",
) -> DeathTimeResult:
    """Find when a measure dies (concurrence) or halves (discords).

    Concurrence uses the signed spin-flip score of the independently evolved
    state, bracketing by doubling from t = 1/gamma and bisecting to a width
    of 1e-10 decay times (1e-10 t for roots t past 1/gamma), so the relative
    accuracy does not depend on gamma.  The search is the plain doubling
    and bisection loop (see _crossing); it reads each score from a table
    that one stacked call fills with the doubling times and each further
    call with the midpoints of the next three bisection steps, so it gives
    the results of scoring one time per call.  Both thresholds scale
    with s = 1 - score(0), which is 2 (chi2 + chi3 + chi4) at t = 0 and
    4 eta on the family, the depth the score sinks to past a death: the
    search looks for the score falling to 1e-12 s, and the root is certified
    as a finite death only if the score one decay time past it is at or
    below min(-1e-6 s, -1e-13).  The fixed floor keeps a score that is zero
    to rounding (theta = 0 or pi) from certifying.  The discords never reach
    zero at finite time under these channels, so for them the result is the
    half-life of the closed form instead, found by the same doubling and
    bisection, six steps per closed_values call.  Every positive start has
    one, however small; a discord that starts at exactly zero (theta = pi/2)
    gets "none".
    """
    if measure == "concurrence":
        return _concurrence_death(params, channel)
    if measure in ("geometric_discord", "quantum_discord"):
        return _half_life(params, channel, measure)
    raise ValueError(
        f"unknown measure {measure!r}; choose from ['concurrence', 'geometric_discord',"
        " 'quantum_discord']"
    )


def _ladder(g: Callable[[np.ndarray], np.ndarray], gamma: float) -> dict[float, float]:
    """The table a crossing search reads: g at t = 0 and at the doubling
    times 2^k / gamma up to gamma t = 50, from one call to g (which maps an
    array of times to an array of values)."""
    times = [0.0]
    t, t_cap = 1.0 / gamma, _GAMMA_T_CAP / gamma
    while t <= t_cap:
        times.append(t)
        t *= 2.0
    return dict(zip(times, g(np.array(times)).tolist()))


def _crossing(
    g: Callable[[np.ndarray], np.ndarray], known: dict[float, float], gamma: float,
    target: float, depth: int
) -> Optional[tuple[float, tuple[float, float], int]]:
    """Bracket the first time g falls to target or below by doubling from
    t = 1/gamma (None if it stays above up to gamma t = 50), then bisect
    until the bracket is at most 1e-10 max(1/gamma, hi) wide: 1e-10 decay
    times, or 1e-10 relative for later roots.  Returns (midpoint, bracket,
    bisections).

    Every value is read from known, which maps time to value and starts as
    _ladder(g, gamma).  A midpoint missing from it triggers one g call over
    the 2^depth - 1 midpoints the next depth steps may visit, formed as the
    search forms them and trimmed to the steps still needed, so the result
    is that of one g call per point to the last bit."""
    decay_time, t_cap = 1.0 / gamma, _GAMMA_T_CAP / gamma
    lo, hi = 0.0, decay_time
    while known[hi] > target:
        lo, hi = hi, 2.0 * hi
        if hi > t_cap:
            return None
    iterations = 0
    while (hi - lo) > 1e-10 * max(decay_time, hi) and iterations <= 200:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            # the width halves each step, and the stop width is at least
            # 1e-10 max(1/gamma, lo)
            stop, steps = 1e-10 * max(decay_time, lo), 1
            while steps < depth and (hi - lo) * 0.5 ** steps > stop:
                steps += 1
            bounds, mids = [(lo, hi)], []
            for node in range(2 ** steps - 1):
                a, b = bounds[node]
                split = 0.5 * (a + b)
                mids.append(split)
                bounds += [(a, split), (split, b)]
            known.update(zip(mids, g(np.array(mids)).tolist()))
        iterations += 1
        if known[mid] > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi), iterations


def _concurrence_death(params: StateParams, channel: ChannelSpec) -> DeathTimeResult:
    result = functools.partial(DeathTimeResult, closed_form_time=closed_death_time(params, channel))
    rho0 = initial_state(params)

    def scores(times: np.ndarray) -> np.ndarray:
        # initial_state validated rho0, and the Kraus map keeps it a state
        return _wootters_scores(kraus_apply(rho0, channel, times))

    known = _ladder(scores, channel.gamma)
    initial = known[0.0]
    scale = 1.0 - initial
    threshold = _SCORE_THRESHOLD * scale
    margin = min(_CERTIFY_MARGIN * scale, _MARGIN_FLOOR)
    if initial <= threshold:
        if known[1.0 / channel.gamma] <= margin:
            return result("esd", 0.0, (0.0, 0.0), 0,
                          diagnostic="concurrence is zero already at t = 0")
        return result("none", None, None, 0,
                      diagnostic="concurrence starts at zero and never turns decisively negative")

    crossing = _crossing(scores, known, channel.gamma, threshold, _SCORE_TREE_DEPTH)
    if crossing is None:
        return result("none", None, None, 0,
                      diagnostic=f"no sign change up to gamma t = {_GAMMA_T_CAP:g}")
    root, bracket, iterations = crossing
    post = float(scores(np.array([root + 1.0 / channel.gamma]))[0])
    if post <= margin:
        return result("esd", root, bracket, iterations,
                      diagnostic=f"score {post:.3e} one decay time past the root")
    return result(
        "asymptotic", None, bracket, iterations,
        diagnostic=(
            f"crossing near t = {root:.6g} not certified (score {post:.3e} stays above"
            f" {margin:.3g})"
        ),
    )


def _half_life(params: StateParams, channel: ChannelSpec, measure: str) -> DeathTimeResult:
    result = functools.partial(DeathTimeResult, closed_form_time=None)

    def closed(times: np.ndarray) -> np.ndarray:
        return closed_values(params, channel, times, (measure,))[measure]

    known = _ladder(closed, channel.gamma)
    initial = known[0.0]
    if initial <= 0.0:
        return result("none", None, None, 0,
                      diagnostic=f"{measure} starts at {initial:.3e}; no half-life")
    target = 0.5 * initial
    crossing = _crossing(closed, known, channel.gamma, target, _CLOSED_TREE_DEPTH)
    if crossing is None:
        return result("none", None, None, 0,
                      diagnostic=f"{measure} has not halved by gamma t = {_GAMMA_T_CAP:g}")
    root, bracket, iterations = crossing
    return result("half_life", root, bracket, iterations,
                  diagnostic=f"{measure} falls to {target:.6g} (half its initial value)")


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyCheck:
    check_id: str
    status: str  # "pass", "fail", or "expected_fail"
    detail: str
    max_error: Optional[float] = None
    tolerance: Optional[float] = None


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.status in ("pass", "expected_fail") for c in self.checks)


def _check(check_id: str, err: float, tol: float, detail: str = "") -> VerifyCheck:
    status = "pass" if err <= tol else "fail"
    return VerifyCheck(check_id, status, detail or f"max error {err:.3e}", err, tol)


def _verify_grid(quick: bool) -> tuple[list[float], list[float]]:
    n_theta, n_time = (5, 5) if quick else (10, 10)
    thetas = [k * math.pi / (2 * n_theta) for k in range(1, n_theta + 1)]
    times = [3.0 * k / (n_time - 1) for k in range(n_time)]
    return thetas, times


def verify_suite(quick: bool = False, optimizer: OptimizerSettings | None = None) -> VerifyReport:
    """Run the internal consistency checks.

    Every check compares two routes that should agree (closed form against
    oracle, two equivalent formulas, an invariance) or confirms a documented
    inconsistency in a retained faulty variant, which reports as
    "expected_fail".  quick=True shrinks the grids for a fast smoke run.
    """
    t0 = _time.perf_counter()
    checks: list[VerifyCheck] = []
    thetas, times = _verify_grid(quick)
    axes = ("x", "y", "z")
    channels = {axis: ChannelSpec(axis=axis) for axis in axes}
    names = ("concurrence", "geometric_discord", "quantum_discord")

    # closed forms against the general-purpose oracles, both read from one
    # sweep as arrays indexed [measure, axis, theta, time]
    grid = SweepGrid(tuple(thetas), tuple(times))
    table = sweep(grid, axes, names, include_oracle=True, optimizer=optimizer)
    err_c, err_g, err_q = np.abs(table.closed - table.oracle).max(axis=(1, 2, 3)).tolist()
    params = [make_params(theta) for theta in thetas]
    analytic = np.array([analytic_evolve(params, channels[axis], times) for axis in axes])
    err_v = float(np.abs(table.states - analytic).max())
    err_x = x_structure_defect(table.states)
    checks.append(_check("concurrence_closed_vs_oracle", err_c, 1e-9))
    checks.append(_check("geometric_discord_closed_vs_oracle", err_g, 1e-10))
    checks.append(_check("analytic_matrix_vs_kraus", err_v, 1e-13))
    checks.append(_check("evolved_states_keep_x_shape", err_x, 1e-13))
    checks.append(_check("quantum_discord_closed_vs_oracle", err_q, 1e-5))

    # the retained literal discord forms against the closed discord, drawn
    # point by point and read per axis from the diagonal of one theta x t grid
    rng = np.random.default_rng(20260822)
    n_pairs = 50 if quick else 200
    for suffix, form, count, theta_max in (
        ("xz", quantum_discord_xz_expanded, n_pairs, math.pi - 0.1),
        ("y", quantum_discord_y_expanded, n_pairs // 2, math.pi / 2),
    ):
        draws: dict[str, list[tuple[StateParams, float]]] = {}
        for _ in range(count):
            theta = float(rng.uniform(0.1, theta_max))
            t = float(rng.uniform(0.0, 3.0))
            axis = "y" if suffix == "y" else "x" if rng.integers(2) else "z"
            draws.setdefault(axis, []).append((make_params(theta), t))
        err_e = 0.0
        for axis, points in draws.items():
            params, ts = zip(*points)
            closed = closed_values(params, channels[axis], ts, ("quantum_discord",))
            for (p, t), value in zip(points, closed["quantum_discord"].diagonal().tolist()):
                err_e = max(err_e, abs(form(p, channels[axis], t) - value))
        checks.append(_check(f"discord_expanded_form_identity_{suffix}", err_e, 1e-10))

    # death times: the two closed forms, and bisection against them
    esd_angles = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 5 * math.pi / 8)
    err_forms = err_root = 0.0
    for theta in esd_angles:
        params = make_params(theta)
        closed = closed_death_time(params, channels["z"])
        trig = closed_death_time_trig(theta)
        err_forms = max(err_forms, abs(closed - trig) / max(1e-300, abs(trig)))
        for axis in ("x", "z"):
            found = death_time(params, channels[axis])
            if found.kind != "esd":
                err_root = math.inf
                break
            err_root = max(err_root, abs(found.time - closed) / max(1e-300, closed or 1.0))
    checks.append(_check("esd_time_closed_forms_agree", err_forms, 1e-12))
    checks.append(_check("esd_bisection_vs_closed_form", err_root, 1e-6))

    # the x and z channels (axes 0 and 2) are indistinguishable on this
    # family: every closed measure, and the concurrence and geometric discord
    # oracles (measures 0 and 1)
    err_xz = max(
        float(np.abs(table.closed[:, 0] - table.closed[:, 2]).max()),
        float(np.abs(table.oracle[:2, 0] - table.oracle[:2, 2]).max()),
    )
    checks.append(_check("x_and_z_axes_agree", err_xz, 1e-9))

    # integrator against the exact map
    params = make_params(math.pi / 5)
    rho0 = initial_state(params)
    t_int = 3.0
    err_rk = max(
        float(
            np.abs(
                integrate_rk4(rho0, channels[axis], t_int, steps=1000)
                - kraus_apply(rho0, channels[axis], t_int)
            ).max()
        )
        for axis in axes
    )
    checks.append(_check("rk4_vs_exact_map", err_rk, 1e-8))

    exact = kraus_apply(rho0, channels["x"], 1.0)
    e40 = float(np.abs(integrate_rk4(rho0, channels["x"], 1.0, steps=40) - exact).max())
    e80 = float(np.abs(integrate_rk4(rho0, channels["x"], 1.0, steps=80) - exact).max())
    order = math.log2(e40 / e80)
    checks.append(
        _check(
            "rk4_convergence_order",
            abs(order - 4.0),
            0.3,
            detail=f"measured order {order:.3f}",
        )
    )

    # channel structure: semigroup property and the maximally mixed fixed point
    rho_ab = kraus_apply(rho0, channels["x"], 0.4)
    err_semi = float(
        np.abs(kraus_apply(rho_ab, channels["x"], 0.9) - kraus_apply(rho0, channels["x"], 1.3)).max()
    )
    checks.append(_check("channel_semigroup_composition", err_semi, 1e-13))

    mixed = np.eye(4, dtype=complex) / 4.0
    err_fix = max(
        float(np.abs(apply_pauli_channel(mixed, axis, 0.37) - mixed).max()) for axis in axes
    )
    checks.append(_check("channel_fixes_maximally_mixed", err_fix, 1e-14))

    # t = 0 trends and the y axis floor
    t0_thetas = [0.05 + k * (math.pi / 2 - 0.1) / 19 for k in range(20)]
    trend_ok = True
    for side in (t0_thetas, [math.pi - th for th in t0_thetas]):
        values = closed_values([make_params(th) for th in side], None, 0.0, names)
        trend_ok = trend_ok and all(bool((np.diff(values[n]) < 0).all()) for n in names)
    checks.append(
        VerifyCheck(
            "initial_measures_peak_at_theta_zero_and_pi",
            "pass" if trend_ok else "fail",
            "all three measures strictly decrease as theta moves toward pi/2 from either side",
        )
    )

    rho_y = initial_state(make_params(math.pi / 3))
    y_states = kraus_apply(rho_y, channels["y"], [0.5 * k for k in range(1, 11)])
    y_floor = float(oracle_values(y_states, ("concurrence",))["concurrence"].min())
    checks.append(
        VerifyCheck(
            "y_axis_concurrence_stays_positive",
            "pass" if y_floor > 0.0 else "fail",
            f"minimum oracle concurrence {y_floor:.3e} over gamma t <= 5",
        )
    )

    # optimizer robustness: doubling the seed grid must not move the answer
    rho_ref = kraus_apply(
        initial_state(make_params(thetas[len(thetas) // 2])), channels["x"], times[2]
    )
    base = quantum_discord(rho_ref, settings=OptimizerSettings(grid_points=1024)).value
    dense = quantum_discord(rho_ref, settings=OptimizerSettings(grid_points=2048)).value
    checks.append(_check("optimizer_grid_doubling_stable", abs(base - dense), 1e-6))

    # retained faulty variants must stay visibly broken
    params_small = make_params(0.01)
    dev = abs(
        uncorrected_x_concurrence(params_small, channels["x"], 0.0)
        - concurrence(initial_state(params_small)).value
    )
    checks.append(
        VerifyCheck(
            "uncorrected_x_concurrence",
            "expected_fail" if dev >= 1.0 else "fail",
            f"faulty closed form deviates from the oracle by {dev:.4f} (>= 1 expected)",
            dev,
            None,
        )
    )

    params_y = make_params(math.pi / 4)
    bad = uncorrected_y_matrix(params_y, channels["y"], 0.5)
    defect = float(np.abs(bad - bad.conj().T).max())
    checks.append(
        VerifyCheck(
            "uncorrected_y_hermiticity",
            "expected_fail" if defect > 1e-6 else "fail",
            f"non-Hermitian by {defect:.4f}; the Hermitized variant is the one in use",
            defect,
            None,
        )
    )

    return VerifyReport(checks=tuple(checks), runtime_seconds=_time.perf_counter() - t0)
