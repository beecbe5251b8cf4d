"""Sweeps, death-time root finding, and the verification suite."""
import math

import numpy as np
import pytest

from qcorr import dynamics
from qcorr.channels import ChannelSpec, kraus_apply
from qcorr.dynamics import (
    MEASURE_NAMES,
    SweepGrid,
    _verify_grid,
    closed_death_time,
    closed_death_time_trig,
    death_time,
    sweep,
    verify_suite,
)
from qcorr.measures import (
    concurrence,
    concurrence_closed,
    geometric_discord,
    geometric_discord_closed,
    quantum_discord,
    quantum_discord_closed,
)
from qcorr.states import initial_state, make_params

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


def test_death_time_asymptotic_for_pure_plateau_state():
    # eta = 0: the concurrence decays as mu and never crosses zero
    res = death_time(make_params(0.0), ChannelSpec(axis="z"))
    assert res.kind == "asymptotic"
    assert res.time is None


def test_death_time_uncertified_at_tiny_eta():
    # the score crosses the threshold but never turns decisively negative
    res = death_time(make_params(0.001), ChannelSpec(axis="z"))
    assert res.kind == "asymptotic"
    assert res.time is None
    assert res.bracket is not None


def test_death_time_gamma_scaling():
    p = make_params(math.pi / 4)
    t1 = death_time(p, ChannelSpec(axis="z", gamma=1.0)).time
    t2 = death_time(p, ChannelSpec(axis="z", gamma=2.0)).time
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-6)


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


def test_death_time_rejects_unknown_measure():
    with pytest.raises(ValueError):
        death_time(make_params(1.0), ChannelSpec(axis="z"), measure="entropy")


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
