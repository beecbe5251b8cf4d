"""Sweeps, death-time root finding, and the verification suite."""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qcorr import dynamics, measures
from qcorr.channels import ChannelSpec, analytic_evolve, kraus_apply
from qcorr.dynamics import (
    MEASURE_NAMES,
    DeathTimeResult,
    SweepGrid,
    _verify_grid,
    closed_death_time,
    closed_death_time_trig,
    death_time,
    sweep,
    verify_suite,
)
from qcorr.measures import (
    PAPER_MEASURES,
    OptimizerSettings,
    _wootters_scores,
    closed_values,
    concurrence,
    concurrence_closed,
    geometric_discord,
    geometric_discord_closed,
    quantum_discord,
    quantum_discord_closed,
    quantum_discord_xz_expanded,
    quantum_discord_y_expanded,
)
from qcorr.states import initial_state, make_params, x_structure_defect

ESD_ANGLES = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, 5 * math.pi / 8)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(thetas=(), times=(0.0,))
    with pytest.raises(ValueError):
        SweepGrid(thetas=(1.0,), times=())
    with pytest.raises(ValueError):
        SweepGrid(thetas=(1.0,), times=(-0.5,))
    with pytest.raises(ValueError):
        SweepGrid(thetas=(1.0,), times=(0.0, math.nan))
    # t = inf is the mu = 0 limit
    assert SweepGrid(thetas=(1.0,), times=(math.inf,)).times == (math.inf,)


def test_sweep_row_order_and_values():
    grid = SweepGrid(thetas=(math.pi / 8, math.pi / 4), times=(0.0, 0.5))
    rows = sweep(grid, axes=("x", "z"), measures=("concurrence", "geometric_discord"))
    assert len(rows) == 2 * 2 * 2 * 2
    # measure-major, then channel, theta, time
    assert [r.measure for r in rows[:8]] == ["concurrence"] * 8
    assert [r.channel for r in rows[:4]] == ["x"] * 4
    assert rows[0].theta == pytest.approx(math.pi / 8) and rows[0].gamma_t == 0.0
    assert rows[1].gamma_t == pytest.approx(0.5)
    p = make_params(math.pi / 4)
    want = concurrence_closed(p, ChannelSpec(axis="z"), 0.5).value
    row = next(
        r
        for r in rows
        if r.measure == "concurrence"
        and r.channel == "z"
        and r.theta == pytest.approx(math.pi / 4)
        and r.gamma_t == pytest.approx(0.5)
    )
    assert row.value_closed == pytest.approx(want, abs=1e-15)
    assert row.value_oracle is None
    # the columnar table reads as the row sequence
    listed = list(rows)
    assert rows[-1] == listed[-1] == rows[len(rows) - 1]
    assert rows[3:9:2] == listed[3:9:2]
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_sweep_oracle_column():
    grid = SweepGrid(thetas=(1.0,), times=(0.7,))
    rows = sweep(grid, axes=("y",), measures=("concurrence",), include_oracle=True)
    assert rows[0].value_oracle == pytest.approx(rows[0].value_closed, abs=1e-9)


def test_sweep_gamma_rescales_time_axis():
    # gamma enters only through gamma*t, so doubling gamma at half the time
    # reproduces the same values
    grid1 = SweepGrid(thetas=(0.8,), times=(1.0,))
    grid2 = SweepGrid(thetas=(0.8,), times=(0.5,))
    r1 = sweep(grid1, axes=("z",), measures=("concurrence",), gamma=1.0)
    r2 = sweep(grid2, axes=("z",), measures=("concurrence",), gamma=2.0)
    assert r1[0].gamma_t == r2[0].gamma_t == pytest.approx(1.0)
    assert r1[0].value_closed == pytest.approx(r2[0].value_closed, abs=1e-15)


def test_sweep_single_row_example():
    rows = sweep(
        SweepGrid(thetas=(math.pi / 4,), times=(0.0,)),
        axes=("x",),
        measures=("concurrence",),
    )
    assert len(rows) == 1
    assert rows[0].value_closed == pytest.approx(0.5, abs=1e-15)


def test_sweep_at_the_balanced_angle_is_all_zero():
    grid = SweepGrid(thetas=(math.pi / 2,), times=(0.0, 0.5, 1.5))
    rows = sweep(
        grid,
        measures=("concurrence", "geometric_discord", "quantum_discord"),
        include_oracle=True,
    )
    for r in rows:
        assert abs(r.value_closed) <= 1e-9
        assert abs(r.value_oracle) <= 1e-9


def test_sweep_is_deterministic_across_runs():
    grid = SweepGrid(thetas=(0.6, 1.3), times=(0.0, 0.8))
    kw = dict(axes=("z",), measures=("concurrence", "quantum_discord"), include_oracle=True)
    first = sweep(grid, **kw)
    second = sweep(grid, **kw)
    assert [tuple(vars(r).values()) for r in first] == [tuple(vars(r).values()) for r in second]


def test_sweep_validation():
    grid = SweepGrid(thetas=(1.0,), times=(0.0,))
    with pytest.raises(ValueError):
        sweep(grid, measures=("nope",))


def test_measure_names_registry():
    assert set(MEASURE_NAMES) == {
        "concurrence",
        "geometric_discord",
        "quantum_discord",
        "mutual_information",
        "classical_correlation",
    }


# ---------------------------------------------------------------------------
# death times
# ---------------------------------------------------------------------------

def test_death_time_matches_closed_form():
    for theta in ESD_ANGLES:
        p = make_params(theta)
        closed = closed_death_time(p, ChannelSpec(axis="z"))
        for axis in ("x", "z"):
            res = death_time(p, ChannelSpec(axis=axis))
            assert res.kind == "esd"
            assert res.time == pytest.approx(closed, rel=1e-6)
            assert res.closed_form_time == pytest.approx(closed, rel=1e-15)
            assert res.bracket[0] <= res.time <= res.bracket[1]
            assert res.iterations > 0


def test_death_time_at_one_third_of_pi():
    res = death_time(make_params(math.pi / 3), ChannelSpec(axis="z"))
    # eta = 3/16, xi = 5/16
    assert res.time == pytest.approx(0.5 * math.log(5.0 / 3.0), rel=1e-6)


def test_death_time_sandwiches_the_root():
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="x")
    res = death_time(p, ch)
    assert abs(concurrence_closed(p, ch, res.time).value) <= 1e-9
    assert concurrence_closed(p, ch, res.time - 1e-6).value > 0.0


def test_death_time_is_monotone_in_theta():
    # deeper initial entanglement takes longer to kill; mirror-symmetric
    # about the balanced angle
    left = [death_time(make_params(k * math.pi / 22), ChannelSpec(axis="z")).time
            for k in range(1, 11)]
    right = [death_time(make_params(math.pi / 2 + k * math.pi / 22), ChannelSpec(axis="z")).time
             for k in range(1, 11)]
    assert all(a > b for a, b in zip(left, left[1:]))
    assert all(a < b for a, b in zip(right, right[1:]))


def test_death_time_at_the_balanced_angle_is_zero():
    res = death_time(make_params(math.pi / 2), ChannelSpec(axis="z"))
    assert res.kind == "esd" and res.time == 0.0


def test_death_time_asymptotic_under_y_noise():
    # the concurrence decays like mu q but never crosses zero, so the dip
    # below the numerical threshold must not certify as a death
    res = death_time(make_params(math.pi / 4), ChannelSpec(axis="y"))
    assert res.kind == "asymptotic"
    assert res.time is None and res.closed_form_time is None
    # an uncertified crossing keeps its bracket
    assert res.bracket is not None and res.bracket[0] < res.bracket[1]


def test_death_time_asymptotic_for_pure_plateau_state():
    # eta = 0: the concurrence decays as mu and never crosses zero
    res = death_time(make_params(0.0), ChannelSpec(axis="z"))
    assert res.kind == "asymptotic"
    assert res.time is None


def test_death_time_certified_at_tiny_eta():
    # past the death the score sinks only to about -2 eta = -5e-7 here; the
    # certification margin scales with 1 - score(0) = 4 eta, so it certifies
    p = make_params(0.001)
    ch = ChannelSpec(axis="z")
    res = death_time(p, ch)
    assert res.kind == "esd"
    assert res.time == pytest.approx(closed_death_time(p, ch), abs=1e-6)
    assert res.bracket[0] <= res.time <= res.bracket[1]


EDGE_TO_EDGE_THETAS = np.concatenate([
    np.logspace(-4.0, math.log10(math.pi / 2), 13),
    math.pi - np.logspace(-4.0, math.log10(math.pi / 2), 13)[:-1],
]).tolist()


def test_death_time_matches_closed_form_from_edge_to_edge():
    # log-spaced toward both edges, where the score past the death is ~-2 eta
    for theta in EDGE_TO_EDGE_THETAS:
        p = make_params(theta)
        for axis in "xz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, qubit=qubit)
                res = death_time(p, ch)
                closed = closed_death_time(p, ch)
                assert res.kind == "esd", (theta, axis, qubit, res.diagnostic)
                assert abs(res.time - closed) <= 1e-6 * closed, (theta, axis, qubit)


def test_death_time_never_certifies_without_a_finite_death():
    # y noise only lets the concurrence decay, and at theta = 0 or pi the
    # score past any crossing is zero to rounding
    cases = [(theta, "y") for theta in EDGE_TO_EDGE_THETAS]
    cases += [(theta, axis) for theta in (0.0, math.pi) for axis in "xyz"]
    for theta, axis in cases:
        for qubit in "AB":
            res = death_time(make_params(theta), ChannelSpec(axis=axis, qubit=qubit))
            assert res.kind != "esd" and res.time is None, (theta, axis, qubit)


def test_death_time_gamma_scaling():
    # every length in the search scales with 1/gamma, so the relative accuracy
    # holds from slow to extreme rates
    p = make_params(math.pi / 4)
    t1 = death_time(p, ChannelSpec(axis="z", gamma=1.0)).time
    t2 = death_time(p, ChannelSpec(axis="z", gamma=2.0)).time
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-6)
    for theta in ESD_ANGLES:
        p = make_params(theta)
        for axis in "xz":
            for qubit in "AB":
                unit = {m: death_time(p, ChannelSpec(axis, 1.0, qubit), m).time
                        for m in ("geometric_discord", "quantum_discord")}
                for gamma in (1e-3, 2.0, 1e4, 1e5, 1e9, 1e300):
                    ch = ChannelSpec(axis, gamma, qubit)
                    res = death_time(p, ch)
                    assert res.kind == "esd", (theta, axis, qubit, gamma)
                    assert res.time == pytest.approx(closed_death_time(p, ch), rel=1e-9)
                    for measure, time in unit.items():
                        half = death_time(p, ch, measure)
                        assert half.kind == "half_life"
                        assert half.time == pytest.approx(time / gamma, rel=1e-9), (
                            theta, axis, qubit, gamma, measure)


def test_half_life_of_geometric_discord_under_y():
    # DG = mu^2 q^2 / 2 halves when mu^2 = 1/2, i.e. t = ln(2)/4
    res = death_time(make_params(math.pi / 4), ChannelSpec(axis="y"), measure="geometric_discord")
    assert res.kind == "half_life"
    assert res.time == pytest.approx(math.log(2.0) / 4.0, rel=1e-8)


def test_half_life_of_quantum_discord():
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="z")
    res = death_time(p, ch, measure="quantum_discord")
    assert res.kind == "half_life"
    target = 0.5 * quantum_discord_closed(p, ch, 0.0).value
    assert quantum_discord_closed(p, ch, res.time).value == pytest.approx(target, abs=1e-8)


def test_death_time_none_when_concurrence_starts_at_zero_and_stays_there():
    # at the balanced angle y noise leaves c = (0, -1, 0) unchanged, so the
    # score never turns negative and nothing is certified
    res = death_time(make_params(math.pi / 2), ChannelSpec(axis="y"))
    assert res.kind == "none"
    assert res.time is None and res.bracket is None and res.iterations == 0
    assert res.closed_form_time is None
    assert res.diagnostic == "concurrence starts at zero and never turns decisively negative"


def test_half_life_none_when_measure_starts_at_zero():
    res = death_time(make_params(math.pi / 2), ChannelSpec(axis="z"), measure="geometric_discord")
    assert res.kind == "none"
    for measure in ("geometric_discord", "quantum_discord"):
        res = death_time(make_params(math.pi / 2), ChannelSpec(axis="y"), measure=measure)
        assert res.kind == "none" and res.time is None


@pytest.mark.parametrize("offset", [-1e-3, 1e-3])
@pytest.mark.parametrize("measure", ["geometric_discord", "quantum_discord"])
def test_half_life_for_a_tiny_but_positive_start(offset, measure):
    # q = cos^2(theta) is about 1e-6 here, so both discords start near 1e-12;
    # on y noise the geometric discord mu^2 q^2 / 2 halves at exactly ln(2)/4,
    # and the quantum discord F(mu q)/2 = (mu q)^2/ln 4 (1 + O(q^2)) with it
    res = death_time(make_params(math.pi / 2 + offset), ChannelSpec(axis="y"), measure=measure)
    assert res.kind == "half_life"
    assert res.time == pytest.approx(math.log(2.0) / 4.0, rel=1e-9)


def test_death_time_rejects_unknown_measure():
    with pytest.raises(ValueError):
        death_time(make_params(1.0), ChannelSpec(axis="z"), measure="entropy")


@pytest.mark.parametrize("name", ["entropy", "mutual_information"])
def test_death_time_names_the_paper_measures_it_follows(name):
    # a measure closed_values knows is still not one death_time follows
    with pytest.raises(ValueError) as err:
        death_time(make_params(1.0), ChannelSpec(axis="z"), measure=name)
    assert str(err.value) == f"unknown measure {name!r}; choose from {list(PAPER_MEASURES)}"


def sequential_death_time(params, channel, measure):
    """The plain search death_time must reproduce bit for bit: doubling from
    t = 1/gamma, then bisection to a width of 1e-10 max(1/gamma, hi), with
    one score or one closed_values call per time."""
    decay_time = 1.0 / channel.gamma

    def search(f):
        lo, hi = 0.0, decay_time
        while f(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > dynamics._GAMMA_T_CAP / channel.gamma:
                return None
        iterations = 0
        while (hi - lo) > 1e-10 * max(decay_time, hi) and iterations <= 200:
            mid = 0.5 * (lo + hi)
            iterations += 1
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), (lo, hi), iterations

    cap = f"{dynamics._GAMMA_T_CAP:g}"
    if measure != "concurrence":
        def closed(t):
            return float(closed_values(params, channel, t, (measure,))[measure])

        initial = closed(0.0)
        if initial <= 0.0:
            return DeathTimeResult("none", None, None, 0, None,
                                   f"{measure} starts at {initial:.3e}; no half-life")
        target = 0.5 * initial
        found = search(lambda t: closed(t) - target)
        if found is None:
            return DeathTimeResult("none", None, None, 0, None,
                                   f"{measure} has not halved by gamma t = {cap}")
        return DeathTimeResult("half_life", found[0], found[1], found[2], None,
                               f"{measure} falls to {target:.6g} (half its initial value)")

    closed_time = closed_death_time(params, channel)
    rho0 = initial_state(params)

    def score(t):
        return float(_wootters_scores(kraus_apply(rho0, channel, t)[None])[0])

    initial = score(0.0)
    scale = 1.0 - initial
    threshold = dynamics._SCORE_THRESHOLD * scale
    margin = min(dynamics._CERTIFY_MARGIN * scale, dynamics._MARGIN_FLOOR)
    if initial <= threshold:
        if score(decay_time) <= margin:
            return DeathTimeResult("esd", 0.0, (0.0, 0.0), 0, closed_time,
                                   "concurrence is zero already at t = 0")
        return DeathTimeResult("none", None, None, 0, closed_time,
                               "concurrence starts at zero and never turns decisively negative")
    found = search(lambda t: score(t) - threshold)
    if found is None:
        return DeathTimeResult("none", None, None, 0, closed_time,
                               f"no sign change up to gamma t = {cap}")
    root, bracket, iterations = found
    post = score(root + decay_time)
    if post <= margin:
        return DeathTimeResult("esd", root, bracket, iterations, closed_time,
                               f"score {post:.3e} one decay time past the root")
    return DeathTimeResult(
        "asymptotic", None, bracket, iterations, closed_time,
        f"crossing near t = {root:.6g} not certified (score {post:.3e} stays above {margin:.3g})",
    )


# angles whose spin-flip score crosses its threshold in rounding noise, so
# the search's predicted path misses and the bisection tree takes over
_PATH_MISSES = (1e-300, 1e-9, 1e-4, math.pi - 1e-6)


def _count_evaluations(monkeypatch) -> list[str]:
    """The names of the evaluation calls death_time makes, in order."""
    calls = []
    for name in ("kraus_apply", "closed_values"):
        original = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
    return calls


@pytest.mark.parametrize("gamma", [1e-2, 1.0, 1e2, 1e4, 1e300])
def test_death_time_is_the_sequential_search_to_the_bit(gamma, monkeypatch):
    calls = _count_evaluations(monkeypatch)
    kinds, misses = set(), 0
    for theta in [k * math.pi / 15 for k in range(16)] + list(_PATH_MISSES):
        params = make_params(theta)
        for axis in "xyz":
            for qubit in "AB":
                channel = ChannelSpec(axis=axis, gamma=gamma, qubit=qubit)
                for measure in ("concurrence", "geometric_discord", "quantum_discord"):
                    calls.clear()
                    got = death_time(params, channel, measure)
                    # the ladder, one path and the post-root score, unless
                    # the path missed
                    misses += measure == "concurrence" and len(calls) > 3
                    want = sequential_death_time(params, channel, measure)
                    # repr tells apart every float bit pattern and float from np.float64
                    assert repr(got) == repr(want), (theta, axis, qubit, measure)
                    kinds.add(got.kind)
    assert kinds == {"esd", "asymptotic", "half_life"}
    assert misses > 0


def _count_points(monkeypatch) -> list[int]:
    """The number of times each evaluation call death_time makes reads."""
    points = []
    for name in ("kraus_apply", "closed_values"):
        original = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name,
                            lambda *a, f=original: points.append(np.size(a[2])) or f(*a))
    return points


@pytest.mark.parametrize("theta, axis, measure, calls, points", [
    # the ladder, one predicted path and the post-root score
    (math.pi / 4, "x", "concurrence", 3, 42),
    (math.pi / 4, "z", "concurrence", 3, 42),
    # a crossing that rounding decides: paths miss, then the post-miss tree
    (math.pi / 4, "y", "concurrence", 9, 79),
    (1e-4, "x", "concurrence", 6, 62),
    (1e-4, "y", "concurrence", 14, 112),
    (1e-4, "z", "concurrence", 5, 49),
    (math.pi / 4, "x", "geometric_discord", 5, 110),
    (math.pi / 4, "x", "quantum_discord", 6, 122),
    (math.pi / 4, "y", "geometric_discord", 6, 121),
    (math.pi / 4, "y", "quantum_discord", 6, 121),
    (math.pi / 4, "z", "geometric_discord", 5, 110),
    (math.pi / 4, "z", "quantum_discord", 6, 122),
])
def test_death_time_work_per_query(monkeypatch, theta, axis, measure, calls, points):
    counted = _count_points(monkeypatch)
    for qubit in "AB":
        counted.clear()
        death_time(make_params(theta), ChannelSpec(axis=axis, qubit=qubit), measure)
        assert (len(counted), sum(counted)) == (calls, points), qubit


def test_death_time_stacks_its_evaluations(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    params = make_params(math.pi / 4)
    for axis in "xyz":
        for measure in ("concurrence", "geometric_discord", "quantum_discord"):
            calls.clear()
            death_time(params, ChannelSpec(axis=axis), measure)
            if measure != "concurrence":
                assert 0 < len(calls) <= 6, (axis, measure, len(calls))
            elif axis == "y":
                assert 0 < len(calls) <= 16, (axis, measure, len(calls))
            else:
                # the ladder, one predicted path and the post-root score
                assert len(calls) == 3, (axis, measure, len(calls))


def test_closed_death_time_forms_agree():
    for theta in ESD_ANGLES:
        p = make_params(theta)
        a = closed_death_time(p, ChannelSpec(axis="x"))
        b = closed_death_time_trig(theta)
        assert a == pytest.approx(b, rel=1e-12)
    assert closed_death_time(make_params(1.0), ChannelSpec(axis="y")) is None
    assert closed_death_time(make_params(0.0), ChannelSpec(axis="z")) is None
    with pytest.raises(ValueError):
        closed_death_time_trig(0.0)


@pytest.mark.parametrize("theta", [1e-3, 1e-20, 1e-77, 1e-78, 1e-120, 1e-150])
def test_trig_death_time_stays_finite_and_agrees_at_small_angles(theta):
    # the squared form overflowed below |sin theta| ~ 1e-77 and divided by
    # zero below ~1e-162; both closed forms are exact down to eta = 2.5e-301
    for angle in (theta, math.pi - theta):
        expected = closed_death_time(make_params(angle), ChannelSpec(axis="z"))
        assert closed_death_time_trig(angle) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("theta", [1e-163, 1e-200, 1e-300, 5e-324])
def test_trig_death_time_below_the_float_range_of_eta(theta):
    # sin^2 theta underflows, so eta is 0 and closed_death_time falls back
    # on the trig form, which is (ln 2 - 2 ln theta)/2 to rounding, for
    # either sign of theta
    for angle in (theta, -theta):
        assert closed_death_time_trig(angle) == pytest.approx(
            (math.log(2.0) - 2.0 * math.log(theta)) / 2.0, rel=1e-15)
    assert closed_death_time_trig(theta, gamma=4.0) == pytest.approx(
        closed_death_time_trig(theta) / 4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_verify_suite_quick_passes():
    report = verify_suite(quick=True)
    assert report.passed
    assert report.runtime_seconds > 0.0
    statuses = {c.check_id: c.status for c in report.checks}
    assert statuses["concurrence_closed_vs_oracle"] == "pass"
    assert statuses["quantum_discord_closed_vs_oracle"] == "pass"
    assert statuses["esd_time_closed_forms_agree"] == "pass"
    assert statuses["uncorrected_x_concurrence"] == "expected_fail"
    assert statuses["uncorrected_y_hermiticity"] == "expected_fail"
    expected_fails = [c for c in report.checks if c.status == "expected_fail"]
    assert len(expected_fails) == 2


# (check_id, status, tolerance) of every verify check, in report order; the
# two checks without a tolerance also report no max_error
VERIFY_SHAPE = [
    ("concurrence_closed_vs_oracle", "pass", 1e-9),
    ("geometric_discord_closed_vs_oracle", "pass", 1e-10),
    ("analytic_matrix_vs_kraus", "pass", 1e-13),
    ("evolved_states_keep_x_shape", "pass", 1e-13),
    ("quantum_discord_closed_vs_oracle", "pass", 1e-5),
    ("discord_expanded_form_identity_xz", "pass", 1e-10),
    ("discord_expanded_form_identity_y", "pass", 1e-10),
    ("esd_time_closed_forms_agree", "pass", 1e-12),
    ("esd_bisection_vs_closed_form", "pass", 1e-6),
    ("x_and_z_axes_agree", "pass", 1e-9),
    ("rk4_vs_exact_map", "pass", 1e-8),
    ("rk4_convergence_order", "pass", 0.3),
    ("channel_semigroup_composition", "pass", 1e-13),
    ("channel_fixes_maximally_mixed", "pass", 1e-14),
    ("initial_measures_peak_at_theta_zero_and_pi", "pass", None),
    ("y_axis_concurrence_stays_positive", "pass", None),
    ("optimizer_grid_doubling_stable", "pass", 1e-6),
    ("discord_oracle_near_sudden_change", "pass", 1e-12),
    ("uncorrected_x_concurrence", "expected_fail", None),
    ("uncorrected_y_hermiticity", "expected_fail", None),
]
WITHOUT_MAX_ERROR = {"initial_measures_peak_at_theta_zero_and_pi",
                     "y_axis_concurrence_stays_positive"}


@pytest.mark.parametrize("quick", [True, False])
def test_verify_report_shape(quick):
    # ids, order, statuses and tolerances; max_error values depend on the
    # platform's LAPACK, so only their presence is pinned
    checks = verify_suite(quick=quick).checks
    assert [(c.check_id, c.status, c.tolerance) for c in checks] == VERIFY_SHAPE
    assert {c.check_id for c in checks if c.max_error is None} == WITHOUT_MAX_ERROR


def test_readme_verify_table_names_every_check():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Verify checks\n", 1)[1].split("\n## ", 1)[0]
    # the id is the second column of each table row
    ids = re.findall(r"^\|[^|\n]*\| `(\w+)` \|", section, re.MULTILINE)
    assert ids == [c.check_id for c in verify_suite().checks]


def test_verify_check_fields_are_filled():
    report = verify_suite(quick=True)
    for c in report.checks:
        assert c.check_id and c.detail
        assert c.status in ("pass", "fail", "expected_fail")


def test_verify_closed_vs_oracle_errors_match_the_per_point_loops():
    # reference: the scalar closed wrappers against each oracle on one
    # kraus_apply state per (theta, axis, t), and x against z for every
    # closed measure and the concurrence and geometric discord oracles
    closed_fns = {
        "concurrence": concurrence_closed,
        "geometric_discord": geometric_discord_closed,
        "quantum_discord": quantum_discord_closed,
    }
    oracles = {
        "concurrence": concurrence,
        "geometric_discord": geometric_discord,
        "quantum_discord": quantum_discord,
    }
    err = dict.fromkeys(closed_fns, 0.0)
    err_xz = 0.0
    thetas, times = _verify_grid(quick=True)
    for theta in thetas:
        params = make_params(theta)
        rho0 = initial_state(params)
        for t in times:
            values = {}
            for axis in ("x", "y", "z"):
                channel = ChannelSpec(axis=axis)
                rho = kraus_apply(rho0, channel, t)
                for name in closed_fns:
                    closed = closed_fns[name](params, channel, t).value
                    oracle = oracles[name](rho).value
                    err[name] = max(err[name], abs(oracle - closed))
                    values[axis, name] = (closed, oracle)
            for name in closed_fns:
                (closed_x, oracle_x), (closed_z, oracle_z) = values["x", name], values["z", name]
                err_xz = max(err_xz, abs(closed_x - closed_z))
                if name != "quantum_discord":
                    err_xz = max(err_xz, abs(oracle_x - oracle_z))

    report = {c.check_id: c.max_error for c in verify_suite(quick=True).checks}
    for name in closed_fns:
        assert report[f"{name}_closed_vs_oracle"] == err[name]
    assert report["x_and_z_axes_agree"] == err_xz


def test_verify_expanded_form_errors_match_the_per_point_loops():
    # reference: each retained literal discord form against the scalar
    # closed discord, one point at a time, with the suite's seed and draws
    rng = np.random.default_rng(20260822)
    n_pairs = 50
    err_xz = 0.0
    for _ in range(n_pairs):
        theta = float(rng.uniform(0.1, math.pi - 0.1))
        t = float(rng.uniform(0.0, 3.0))
        params = make_params(theta)
        channel = ChannelSpec(axis="x" if rng.integers(2) else "z")
        err_xz = max(err_xz, abs(quantum_discord_xz_expanded(params, channel, t)
                                 - quantum_discord_closed(params, channel, t).value))
    err_y = 0.0
    for _ in range(n_pairs // 2):
        theta = float(rng.uniform(0.1, math.pi / 2))
        t = float(rng.uniform(0.0, 3.0))
        params = make_params(theta)
        channel = ChannelSpec(axis="y")
        err_y = max(err_y, abs(quantum_discord_y_expanded(params, channel, t)
                               - quantum_discord_closed(params, channel, t).value))

    report = {c.check_id: c.max_error for c in verify_suite(quick=True).checks}
    # repr tells a float from an np.float64 of the same value
    assert repr(report["discord_expanded_form_identity_xz"]) == repr(err_xz)
    assert repr(report["discord_expanded_form_identity_y"]) == repr(err_y)


def test_verify_closed_kernels_see_at_most_the_expanded_form_draws(monkeypatch):
    # the expanded-form check stacks its 200 draws; no closed kernel call
    # should see a theta x t grid of them
    sizes = []
    for name, kernel in measures._TRIPLE_MEASURES.items():
        def recording(c, kernel=kernel):
            sizes.append(math.prod(c.shape[:-1]))
            return kernel(c)
        monkeypatch.setitem(measures._TRIPLE_MEASURES, name, recording)
    assert verify_suite().passed
    assert sizes and max(sizes) <= 200


def test_verify_matrix_checks_read_the_sweep_states():
    # reference: one kraus_apply state per (theta, axis, t), as the checks
    # computed them before the sweep handed its states over
    err_v = err_x = 0.0
    thetas, times = _verify_grid(quick=True)
    for theta in thetas:
        params = make_params(theta)
        for axis in ("x", "y", "z"):
            channel = ChannelSpec(axis=axis)
            for t in times:
                rho = kraus_apply(initial_state(params), channel, t)
                err_v = max(err_v, float(np.abs(rho - analytic_evolve(params, channel, t)).max()))
                err_x = max(err_x, x_structure_defect(rho))
    report = {c.check_id: c.max_error for c in verify_suite(quick=True).checks}
    assert report["analytic_matrix_vs_kraus"] == err_v
    assert report["evolved_states_keep_x_shape"] == err_x


def test_oracle_sweep_hands_back_its_states():
    grid = SweepGrid(thetas=(0.4, 2.2), times=(0.0, 0.7, 1.5))
    table = sweep(grid, axes=("x", "y"), measures=("concurrence",), include_oracle=True)
    assert table.states.shape == (2, 2, 3, 4, 4)
    for a, axis in enumerate(("x", "y")):
        for i, theta in enumerate(grid.thetas):
            for j, t in enumerate(grid.times):
                want = kraus_apply(initial_state(theta), ChannelSpec(axis=axis), t)
                assert table.states[a, i, j].tobytes() == want.tobytes()
    assert sweep(grid, axes=("x",), measures=("concurrence",)).states is None
    # empty axes or measures keep the shape of every block
    for oracle in (False, True):
        empty = sweep(grid, axes=(), include_oracle=oracle)
        assert empty.closed.shape == (3, 0, 2, 3) and len(empty) == 0
        none = sweep(grid, measures=(), include_oracle=oracle)
        assert none.closed.shape == (0, 3, 2, 3) and len(none) == 0
        if oracle:
            assert empty.oracle.shape == (3, 0, 2, 3) and empty.states.shape == (0, 2, 3, 4, 4)
            assert none.oracle.shape == (0, 3, 2, 3) and none.states.shape == (3, 2, 3, 4, 4)


def test_verify_checks_the_discord_oracle_near_the_sudden_change(monkeypatch):
    # 16 states within 1e-5 decay times of t_sc, where the compass search
    # from the grid alone crept to its round cap before its steps could grow
    def near(report):
        (check,) = [c for c in report.checks if c.check_id == "discord_oracle_near_sudden_change"]
        return check

    for quick in (True, False):
        check = near(verify_suite(quick=quick))
        assert check.status == "pass" and check.tolerance == 1e-12
        assert check.max_error <= 1e-15
    optimize = measures._optimize
    monkeypatch.setattr(measures, "_optimize",
                        lambda r, side, settings, seeded: optimize(r, side, settings, seeded=False))
    monkeypatch.setattr(measures, "_GROW_AFTER", measures._MAX_ROUNDS)
    assert near(verify_suite(quick=True)).status == "fail"


def test_verify_grid_doubling_runs_the_given_settings(monkeypatch):
    # verify passes the given settings on to the optimizer checks and passes
    # with them; the seeded discord run is the near-t_sc stack's, with the
    # given settings, and the search from the grid alone runs on twice the
    # grid, with the given tolerance; at the largest grid the grid-only run
    # takes half
    robust, reached, seen = dynamics._optimizer_robust, [], []

    def robust_spy(thetas, times, optimizer):
        reached.append(optimizer)
        return robust(thetas, times, optimizer)

    monkeypatch.setattr(dynamics, "_optimizer_robust", robust_spy)
    given = OptimizerSettings(grid_points=32, final_tolerance=1e-8)
    assert verify_suite(quick=True, optimizer=given).passed
    assert reached == [given]

    def stack_spy(rho, names, settings=None):
        seen.append((settings, True))
        return measures.oracle_values(rho, names, settings)

    def seedless_spy(name, rho, side, settings, *, seeded):
        seen.append((settings, seeded))
        return measures._single_oracle(name, rho, side, settings, seeded=seeded)

    monkeypatch.setattr(dynamics, "oracle_values", stack_spy)
    monkeypatch.setattr(dynamics, "_single_oracle", seedless_spy)
    checks = list(robust(*_verify_grid(quick=True), given))
    assert [c.status for c in checks] == ["pass", "pass"]
    assert seen == [(given, True), (OptimizerSettings(grid_points=64, final_tolerance=1e-8), False)]

    def stack_record(rho, names, settings=None):
        seen.append(settings.grid_points)
        return {name: np.zeros(len(rho)) for name in names}

    def lone_record(name, rho, side, settings, *, seeded):
        seen.append(settings.grid_points)
        return measures.MeasureResult(0.0, "oracle")

    seen.clear()
    monkeypatch.setattr(dynamics, "oracle_values", stack_record)
    monkeypatch.setattr(dynamics, "_single_oracle", lone_record)
    largest = measures.MAX_GRID_POINTS
    next(robust(*_verify_grid(quick=True), OptimizerSettings(grid_points=largest)))
    assert seen == [largest, largest // 2]


def test_verify_groups_read_whole_stacks(monkeypatch):
    # the expanded-form check makes no scalar closed-form call and one
    # family_triple call per channel drawn; both seeded discord checks share
    # one optimizer run over the 16 near-t_sc states and rho_ref, beside the
    # grid-alone run on rho_ref
    group, calls = [None], []

    def tag(name):
        run = getattr(dynamics, name)

        def tagged(*args):
            group[0] = name
            try:
                yield from run(*args)
            finally:
                group[0] = None

        monkeypatch.setattr(dynamics, name, tagged)

    def spy(module, attr, describe):
        real = getattr(module, attr)

        def spying(*args, **kwargs):
            if group[0] is not None:
                calls.append((group[0], describe(*args, **kwargs)))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, spying)

    tag("_expanded_forms")
    tag("_optimizer_robust")
    for module in (dynamics, measures):
        spy(module, "closed_values", lambda *args, **kwargs: "closed_values")
        spy(module, "family_triple",
            lambda params, channel=None, t=0.0: f"family_triple {channel.axis}")
    spy(measures, "_optimize",
        lambda r, side, settings, seeded=True: f"_optimize {len(r)} seeded={seeded}")
    for quick in (False, True):
        calls.clear()
        assert verify_suite(quick=quick).passed
        expanded = sorted(call for name, call in calls if name == "_expanded_forms")
        assert expanded == ["family_triple x", "family_triple y", "family_triple z"]
        runs = [call for name, call in calls
                if name == "_optimizer_robust" and call.startswith("_optimize")]
        assert runs == ["_optimize 17 seeded=True", "_optimize 1 seeded=False"]


@pytest.mark.parametrize(
    "column, measure",
    [
        ("closed", "concurrence"),
        ("closed", "geometric_discord"),
        ("closed", "quantum_discord"),
        ("oracle", "concurrence"),
        ("oracle", "geometric_discord"),
    ],
)
def test_every_x_and_z_term_is_checked(monkeypatch, column, measure):
    # moving one z slice off its x twin must fail the check on its own
    real_sweep = dynamics.sweep

    def nudged(*args, **kwargs):
        table = real_sweep(*args, **kwargs)
        getattr(table, column)[table.measures.index(measure), table.axes.index("z")] += 1e-6
        return table

    monkeypatch.setattr(dynamics, "sweep", nudged)
    statuses = {c.check_id: c.status for c in verify_suite(quick=True).checks}
    assert statuses["x_and_z_axes_agree"] == "fail"


@pytest.mark.parametrize("theta", [1e-163, 1e-200])
def test_closed_death_time_is_finite_where_eta_underflows(theta):
    # eta = sin^2(theta)/4 is 0 below |sin theta| ~ 1e-162, where this
    # returned None although the family still dies at a finite time
    assert make_params(theta).eta == 0.0
    for angle in (theta, -theta):
        for axis in ("x", "z"):
            for gamma in (1.0, 4.0):
                got = closed_death_time(make_params(angle), ChannelSpec(axis=axis, gamma=gamma))
                assert got == closed_death_time_trig(angle, gamma)
    assert closed_death_time(make_params(theta), ChannelSpec(axis="y")) is None
    if theta == 1e-163:
        assert closed_death_time(make_params(theta), ChannelSpec(axis="z")) == pytest.approx(
            375.66794374830937, rel=1e-15)
