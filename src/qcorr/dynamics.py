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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .channels import (
    AXES,
    ChannelSpec,
    analytic_evolve,
    apply_pauli_channel,
    decay_factor,
    family_triple,
    integrate_rk4,
    kraus_apply,
    uncorrected_y_matrix,
)
from .measures import (
    MAX_GRID_POINTS,
    MEASURE_NAMES,  # still importable from here; its public home is measures
    PAPER_MEASURES,
    OptimizerSettings,
    _check_names,
    _single_oracle,
    _stack_values,
    _triple_values,
    _wootters_scores,
    _xz_expanded,
    closed_values,
    concurrence,
    oracle_values,
    quantum_discord_y_expanded,
    uncorrected_x_concurrence,
)
from .states import (
    StateParams,
    _initial_states,
    initial_state,
    make_params,
    x_structure_defect,
)

__all__ = [
    "SweepGrid",
    "SweepRow",
    "SweepTable",
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
# the ladder's doubling rungs 2^k / gamma, k < _RUNGS, reach up to
# gamma t = _GAMMA_T_CAP: 1, 2, 4, ..., 32
_RUNGS = int(math.log2(_GAMMA_T_CAP)) + 1
_SCORE_THRESHOLD = 1e-12
_CERTIFY_MARGIN = -1e-6
# the scaled certification margin is never closer to zero than this, far
# above the rounding of the spin-flip score, so numerical zero never certifies
_MARGIN_FLOOR = -1e-13
# bisection steps per spin-flip score call once a predicted path has
# missed: a call costs about 60 us plus about 6 us per state in its stack
_SCORE_TREE_DEPTH = 3


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
    axes: Sequence[str] = AXES,
    measures: Sequence[str] = PAPER_MEASURES,
    gamma: float = 1.0,
    noisy_qubit: str = "B",
    include_oracle: bool = False,
    optimizer: OptimizerSettings | None = None,
) -> SweepTable:
    """Evaluate closed-form measures (and optionally the oracles) over the
    grid.  The closed forms take one closed_values call per channel over
    the whole (theta, time) grid.  With oracles, the starts are built and
    validated once as one stack, one kraus_apply call per channel evolves
    them to every time, and the oracle kernels read every measure from the
    whole evolved stack, the two entropic measures from one optimizer run.
    The evolved stack is not validated again: its starts were, and the
    Kraus map keeps a state a state."""
    channels = [ChannelSpec(axis=axis, gamma=gamma, qubit=noisy_qubit) for axis in axes]
    params = [make_params(theta) for theta in grid.thetas]
    shape = (len(measures), len(channels), len(params), len(grid.times))

    blocks = [closed_values(params, channel, grid.times, measures) for channel in channels]
    closed = np.array([[block[name] for block in blocks] for name in measures]).reshape(shape)

    oracle = states = None
    if include_oracle:
        initial = _initial_states(params)
        evolved = [kraus_apply(initial, channel, grid.times) for channel in channels]
        states = np.array(evolved).reshape(shape[1:] + (4, 4))
        values = _stack_values(states.reshape(-1, 4, 4), measures, optimizer)
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
    death exists (y axis, or sin theta = 0).  Below |sin theta| of about
    1.05e-154, eta = sin^2(theta)/4 falls below about 2.8e-309 and xi/eta
    overflows (below about 3.2e-162, eta underflows to 0) although the
    death time is finite, so there it is closed_death_time_trig's."""
    if channel.axis == "y":
        return None
    if params.eta > 0.0 and params.xi / params.eta < math.inf:
        return math.log(math.sqrt(params.xi / params.eta)) / channel.gamma
    if params.eta < 0.0 or math.sin(params.theta) == 0.0:
        return None
    return closed_death_time_trig(params.theta, channel.gamma)


def closed_death_time_trig(theta: float, gamma: float = 1.0) -> float:
    """Equivalent trigonometric form (1/4 gamma) ln (1 - 2 csc^2 theta)^2,
    evaluated as (log1p(cos^2 theta) - 2 ln|sin theta|)/(2 gamma), which
    stays finite for every theta with sin(theta) != 0, however small."""
    s = math.sin(theta)
    if s == 0.0:
        raise ValueError("theta with sin(theta) = 0 has no finite death time")
    c = math.cos(theta)
    return (math.log1p(c * c) - 2.0 * math.log(abs(s))) / (2.0 * gamma)


def death_time(
    params: StateParams,
    channel: ChannelSpec,
    measure: str = "concurrence",
) -> DeathTimeResult:
    """Find when a measure dies (concurrence) or halves (discords).

    Concurrence uses the signed spin-flip score of the independently evolved
    state.  Both thresholds scale with s = 1 - score(0), which is 2 (chi2 +
    chi3 + chi4) at t = 0 and 4 eta on the family, the depth the score sinks
    to past a death: the search looks for the score falling to 1e-12 s, and
    the root is certified as a finite death only if the score one decay time
    past it is at or below min(-1e-6 s, -1e-13).  The fixed floor keeps a
    score that is zero to rounding (theta = 0 or pi) from certifying.  The
    discords never reach zero at finite time under these channels, so for
    them the result is the half-life of the closed form.  Every positive
    start has one, however small; a discord that starts at exactly zero
    (theta = pi/2) gets "none", and so does a crossing past gamma t = 50.
    Roots are bracketed to a width of 1e-10 decay times (1e-10 t for roots
    t past 1/gamma), so the relative accuracy does not depend on gamma, and
    every result is that of evaluating one time per call; the search is
    _crossing's.
    """
    _check_names((measure,), PAPER_MEASURES)
    if measure == "concurrence":
        return _concurrence_death(params, channel)
    return _half_life(params, channel, measure)


def _ladder(g: Callable[[np.ndarray], np.ndarray], gamma: float) -> dict[float, float]:
    """The table a crossing search reads: g at t = 0 and at the _RUNGS
    doubling times 2^k / gamma, k < _RUNGS, up to gamma t = 50, from one
    call to g (which maps an array of times to an array of values)."""
    times = [0.0] + [2.0**k / gamma for k in range(_RUNGS)]
    return dict(zip(times, g(np.array(times)).tolist()))


def _bisect(
    lo: float, hi: float, decay_time: float, goes_up: Callable[[float, float, float], bool],
    steps: int = 201,
) -> tuple[list[float], tuple[float, float]]:
    """The one bisection walk of every death-time search: from (lo, hi),
    move lo up to the midpoint where goes_up(mid, lo, hi) holds and hi down
    to it otherwise, until the bracket is at most 1e-10 max(decay_time, hi)
    wide (1e-10 decay times, or 1e-10 relative for later roots) or steps
    steps are taken; the default 201 is a safety cap that the width stop
    always reaches first.  Returns the midpoints visited, in order, and the
    last bracket."""
    mids: list[float] = []
    while (hi - lo) > 1e-10 * max(decay_time, hi) and len(mids) < steps:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        if goes_up(mid, lo, hi):
            lo = mid
        else:
            hi = mid
    return mids, (lo, hi)


def _walks(lo: float, hi: float, decay_time: float, targets: Iterable[float], steps: int = 201
           ) -> list[float]:
    """The midpoints of the _bisect walks from (lo, hi) toward each of
    targets, at most steps steps each (by default _bisect's own cap): one
    walk's in the order taken, the union of several in time order."""
    walks = [_bisect(lo, hi, decay_time, lambda mid, lo, hi, at=at: at > mid, steps)[0]
             for at in targets]
    # a lone walk skips the set, which would add 6-10% to a half-life's time
    return walks[0] if len(walks) == 1 else sorted(set().union(*walks))


def _crossing(
    g: Callable[[np.ndarray], np.ndarray], known: dict[float, float], channel: ChannelSpec,
    target: float, depth: Optional[int]
) -> Optional[tuple[float, tuple[float, float], int]]:
    """Bisect, with _bisect, the first bracket of the ladder's rungs across
    which g falls to target or below.  Returns (midpoint, bracket,
    bisections), or None if no rung up to gamma t = 50 reaches target.

    Every value is read from known, which maps time to value and starts as
    _ladder(g, gamma): the first bracket is the last rung above target and
    the first that is not.  A midpoint missing from known triggers one g
    call over the _walks from the current bracket.  The first call, and
    every call while depth is None, takes the predicted path: the one walk
    toward the root that the secant through the bracket's values puts in
    mu = exp(-2 gamma t).  The Kraus-evolved state is affine in mu, and so
    is its spin-flip score wherever the largest Bell weight stays the same,
    so there the first path holds to the last step.  Once a path has missed,
    a depth given calls over the post-miss tree instead: the depth-step
    walks toward the 2^depth leaf centres of the bracket, of which the even
    ones suffice, as two sibling leaves' walks part only after their last
    midpoint is taken.  Points are formed as the search forms them, so the
    result is that of one g call per point to the last bit."""
    decay_time, rungs = 1.0 / channel.gamma, list(known)
    bracket = next(((lo, hi) for lo, hi in zip(rungs, rungs[1:]) if not known[hi] > target), None)
    if bracket is None:
        return None

    def goes_up(mid: float, lo: float, hi: float) -> bool:
        if mid not in known:
            # known holds more than the rungs once the first refill has run,
            # and a midpoint missing then means its predicted path missed
            if len(known) > len(rungs) and depth is not None:
                leaf = (hi - lo) / 2 ** depth
                centres = [lo + (k + 0.5) * leaf for k in range(0, 2 ** depth, 2)]
                mids = _walks(lo, hi, decay_time, centres, depth)
            else:
                mu_lo, mu_hi = decay_factor(channel, lo), decay_factor(channel, hi)
                mu = mu_lo + (target - known[lo]) * (mu_hi - mu_lo) / (known[hi] - known[lo])
                root = -math.log(mu) / (2.0 * channel.gamma) if mu > 0.0 else math.inf
                mids = _walks(lo, hi, decay_time, [root])
            known.update(zip(mids, g(np.array(mids)).tolist()))
        return known[mid] > target

    mids, (lo, hi) = _bisect(*bracket, decay_time, goes_up)
    return 0.5 * (lo + hi), (lo, hi), len(mids)


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

    crossing = _crossing(scores, known, channel, threshold, _SCORE_TREE_DEPTH)
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
    crossing = _crossing(closed, known, channel, target, None)
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


# the unit-rate channels on qubit B that every check evolves under
_CHANNELS = {axis: ChannelSpec(axis=axis) for axis in AXES}


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
    The checks come from eight check groups, each a generator of its
    VerifyChecks that takes only what it reads, run in report order.
    """
    t0 = _time.perf_counter()
    thetas, times = _verify_grid(quick)
    table = sweep(SweepGrid(tuple(thetas), tuple(times)), AXES, PAPER_MEASURES,
                  include_oracle=True, optimizer=optimizer)
    checks = (
        *_closed_vs_oracle(table),
        *_expanded_forms(quick),
        *_esd_times(),
        *_x_and_z_agree(table),
        *_integrator_and_channel(),
        *_trends(),
        *_optimizer_robust(table, optimizer),
        *_faulty_variants(),
    )
    return VerifyReport(checks=checks, runtime_seconds=_time.perf_counter() - t0)


def _closed_vs_oracle(table: SweepTable) -> Iterator[VerifyCheck]:
    """Closed forms against the general-purpose oracles, both read from one
    sweep as arrays indexed [measure, axis, theta, time], and the sweep's
    Kraus-evolved states against the analytic matrix and the X shape."""
    err_c, err_g, err_q = np.abs(table.closed - table.oracle).max(axis=(1, 2, 3)).tolist()
    params = [make_params(theta) for theta in table.thetas]
    analytic = np.array([analytic_evolve(params, _CHANNELS[axis], table.gamma_ts)
                         for axis in table.axes])
    yield _check("concurrence_closed_vs_oracle", err_c, 1e-9)
    yield _check("geometric_discord_closed_vs_oracle", err_g, 1e-10)
    yield _check("analytic_matrix_vs_kraus", float(np.abs(table.states - analytic).max()), 1e-13)
    yield _check("evolved_states_keep_x_shape", x_structure_defect(table.states), 1e-13)
    yield _check("quantum_discord_closed_vs_oracle", err_q, 1e-5)


def _expanded_forms(quick: bool) -> Iterator[VerifyCheck]:
    """The retained literal discord forms against the closed discord, drawn
    point by point.  The closed discord and the classical correlation the
    x/z form adds are read from one stack of the draws' triples, each
    channel's built by one family_triple call over that channel's draws."""
    rng = np.random.default_rng(20260822)
    n_pairs = 50 if quick else 200
    for suffix, count, theta_max in (("xz", n_pairs, math.pi - 0.1),
                                     ("y", n_pairs // 2, math.pi / 2)):
        draws = []
        for _ in range(count):
            theta = float(rng.uniform(0.1, theta_max))
            t = float(rng.uniform(0.0, 3.0))
            axis = "y" if suffix == "y" else "x" if rng.integers(2) else "z"
            draws.append((make_params(theta), _CHANNELS[axis], t))
        values = _triple_values(_draw_triples(draws), ("quantum_discord", "classical_correlation"))
        closed = values["quantum_discord"].tolist()
        if suffix == "xz":
            forms = [_xz_expanded(params.eta, params.xi, decay_factor(channel, t), cc)
                     for (params, channel, t), cc
                     in zip(draws, values["classical_correlation"].tolist())]
        else:
            forms = [quantum_discord_y_expanded(*draw) for draw in draws]
        err = max(abs(form - value) for form, value in zip(forms, closed))
        yield _check(f"discord_expanded_form_identity_{suffix}", err, 1e-10)


def _draw_triples(draws: list[tuple[StateParams, ChannelSpec, float]]) -> np.ndarray:
    """family_triple at each (params, channel, t) draw, in draw order: one
    call per channel on its draws' params x times grid, read on the diagonal."""
    c = np.empty((len(draws), 3))
    for channel in dict.fromkeys(channel for _, channel, _ in draws):
        rows = [k for k, draw in enumerate(draws) if draw[1] == channel]
        params, _, times = zip(*(draws[k] for k in rows))
        c[rows] = np.diagonal(family_triple(params, channel, times)).T
    return c


def _esd_times() -> Iterator[VerifyCheck]:
    """Death times: the two closed forms, and bisection against them."""
    err_forms = err_root = 0.0
    for theta in (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 5 * math.pi / 8):
        params = make_params(theta)
        closed = closed_death_time(params, _CHANNELS["z"])
        trig = closed_death_time_trig(theta)
        err_forms = max(err_forms, abs(closed - trig) / max(1e-300, abs(trig)))
        for axis in ("x", "z"):
            found = death_time(params, _CHANNELS[axis])
            if found.kind != "esd":
                err_root = math.inf
                break
            err_root = max(err_root, abs(found.time - closed) / max(1e-300, closed or 1.0))
    yield _check("esd_time_closed_forms_agree", err_forms, 1e-12)
    yield _check("esd_bisection_vs_closed_form", err_root, 1e-6)


def _x_and_z_agree(table: SweepTable) -> Iterator[VerifyCheck]:
    """The x and z channels (axes 0 and 2) are indistinguishable on this
    family: every closed measure, and the concurrence and geometric discord
    oracles (measures 0 and 1)."""
    err = max(
        float(np.abs(table.closed[:, 0] - table.closed[:, 2]).max()),
        float(np.abs(table.oracle[:2, 0] - table.oracle[:2, 2]).max()),
    )
    yield _check("x_and_z_axes_agree", err, 1e-9)


def _integrator_and_channel() -> Iterator[VerifyCheck]:
    """The integrator against the exact map and its order of convergence,
    then the channel's semigroup property and maximally mixed fixed point."""
    rho0 = initial_state(math.pi / 5)
    x_noise = _CHANNELS["x"]
    err_rk = max(
        float(np.abs(integrate_rk4(rho0, channel, 3.0, steps=1000)
                     - kraus_apply(rho0, channel, 3.0)).max())
        for channel in _CHANNELS.values()
    )
    yield _check("rk4_vs_exact_map", err_rk, 1e-8)
    exact = kraus_apply(rho0, x_noise, 1.0)
    e40 = float(np.abs(integrate_rk4(rho0, x_noise, 1.0, steps=40) - exact).max())
    e80 = float(np.abs(integrate_rk4(rho0, x_noise, 1.0, steps=80) - exact).max())
    order = math.log2(e40 / e80)
    yield _check("rk4_convergence_order", abs(order - 4.0), 0.3,
                 detail=f"measured order {order:.3f}")
    err_semi = float(np.abs(kraus_apply(kraus_apply(rho0, x_noise, 0.4), x_noise, 0.9)
                            - kraus_apply(rho0, x_noise, 1.3)).max())
    yield _check("channel_semigroup_composition", err_semi, 1e-13)
    mixed = np.eye(4, dtype=complex) / 4.0
    err_fix = max(
        float(np.abs(apply_pauli_channel(mixed, axis, 0.37) - mixed).max()) for axis in AXES
    )
    yield _check("channel_fixes_maximally_mixed", err_fix, 1e-14)


def _trends() -> Iterator[VerifyCheck]:
    """The t = 0 trends in theta, and the y axis concurrence floor."""
    half = [0.05 + k * (math.pi / 2 - 0.1) / 19 for k in range(20)]
    trend_ok = True
    for side in (half, [math.pi - th for th in half]):
        values = closed_values([make_params(th) for th in side], None, 0.0, PAPER_MEASURES)
        trend_ok = trend_ok and all(bool((np.diff(v) < 0).all()) for v in values.values())
    yield VerifyCheck(
        "initial_measures_peak_at_theta_zero_and_pi",
        "pass" if trend_ok else "fail",
        "all three measures strictly decrease as theta moves toward pi/2 from either side",
    )
    y_states = kraus_apply(initial_state(math.pi / 3), _CHANNELS["y"],
                           [0.5 * k for k in range(1, 11)])
    y_floor = float(oracle_values(y_states, ("concurrence",))["concurrence"].min())
    yield VerifyCheck(
        "y_axis_concurrence_stays_positive",
        "pass" if y_floor > 0.0 else "fail",
        f"minimum oracle concurrence {y_floor:.3e} over gamma t <= 5",
    )


def _optimizer_robust(table: SweepTable, optimizer: OptimizerSettings | None
                      ) -> Iterator[VerifyCheck]:
    """The oracle discord with the given settings must match a run from the
    grid alone, without the singular-vector seeds, on twice the grid (half
    where the double would pass MAX_GRID_POINTS), and it must match the
    closed discord at and just around the sudden change t_sc = ln(1/q)/(2
    gamma) (gamma = 1), where the conditional entropy's valley is flat.  The
    grid-doubling state is the sweep's x-noise state at its middle angle and
    third time, and its seeded discord is the sweep's oracle value there;
    the 16 states near t_sc take one seeded optimizer stack."""
    at = (table.axes.index("x"), len(table.thetas) // 2, 2)
    given = optimizer or OptimizerSettings()
    n = given.grid_points
    other = replace(given, grid_points=2 * n if 2 * n <= MAX_GRID_POINTS else n // 2)
    states, closed = [], []
    for theta in (0.9, 2.0):
        params = make_params(theta)
        t_sc = math.log(1.0 / params.q) / 2.0
        near = [t_sc + offset for offset in (-1e-5, -1e-6, 0.0, 1e-6)]
        for axis in ("x", "z"):
            states.append(kraus_apply(initial_state(params), _CHANNELS[axis], near))
            closed.append(closed_values(params, _CHANNELS[axis], near, ("quantum_discord",)))
    oracle = oracle_values(np.concatenate(states), ("quantum_discord",), given)["quantum_discord"]
    err = abs(float(table.oracle[(table.measures.index("quantum_discord"), *at)])
              - _single_oracle("quantum_discord", table.states[at], "A", other, seeded=False).value)
    yield _check("optimizer_grid_doubling_stable", err, 1e-6)
    err_sc = float(np.abs(oracle - np.concatenate([c["quantum_discord"] for c in closed])).max())
    yield _check("discord_oracle_near_sudden_change", err_sc, 1e-12)


def _faulty_variants() -> Iterator[VerifyCheck]:
    """The retained faulty variants must stay visibly broken."""
    small = make_params(0.01)
    dev = abs(uncorrected_x_concurrence(small, _CHANNELS["x"], 0.0)
              - concurrence(initial_state(small)).value)
    yield VerifyCheck(
        "uncorrected_x_concurrence",
        "expected_fail" if dev >= 1.0 else "fail",
        f"faulty closed form deviates from the oracle by {dev:.4f} (>= 1 expected)",
        dev,
    )
    bad = uncorrected_y_matrix(make_params(math.pi / 4), _CHANNELS["y"], 0.5)
    defect = float(np.abs(bad - bad.conj().T).max())
    yield VerifyCheck(
        "uncorrected_y_hermiticity",
        "expected_fail" if defect > 1e-6 else "fail",
        f"non-Hermitian by {defect:.4f}; the Hermitized variant is the one in use",
        defect,
    )
