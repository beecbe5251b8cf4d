"""Measure oracles against textbook cases, closed forms against oracles, and
the retained faulty variants against both."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcorr.channels import ChannelSpec, decay_factor, evolution_point, kraus_apply
from qcorr.dynamics import MEASURE_NAMES, SweepGrid, sweep
from qcorr.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, ZERO_EIGENVALUE_TOL, binary_entropy
from qcorr import measures
from qcorr.measures import (
    MAX_GRID_POINTS,
    OptimizerSettings,
    _conditional_entropy_batch,
    _conditional_entropy_scalar,
    _fibonacci_sphere,
    _side_bloch,
    classical_correlation,
    classical_correlation_closed,
    closed_spectrum,
    closed_values,
    concurrence,
    concurrence_closed,
    geometric_discord,
    geometric_discord_closed,
    mutual_information,
    mutual_information_closed,
    optimal_conditional_entropy,
    optimal_entropy_bound,
    oracle_values,
    quantum_discord,
    quantum_discord_closed,
    quantum_discord_xz_expanded,
    quantum_discord_y_expanded,
    uncorrected_x_concurrence,
    wootters_score,
)
from qcorr.states import InvalidStateError, bloch_decompose, initial_state, make_params

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def pure(vec):
    return np.outer(vec, vec.conj())


def werner(p):
    return p * pure(PSI_MINUS) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_concurrence_of_bell_states_is_one():
    assert concurrence(pure(PSI_MINUS)).value == pytest.approx(1.0, abs=1e-12)
    assert concurrence(pure(PHI_PLUS)).value == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_product_state_is_zero():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert concurrence(rho).value == 0.0


def test_concurrence_of_werner_states():
    # known result: C = max(0, (3p - 1)/2)
    for p in np.linspace(0.0, 1.0, 21):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner(float(p))).value == pytest.approx(expected, abs=1e-10)


def test_concurrence_closed_at_t_zero():
    for theta in np.linspace(0.0, math.pi, 15):
        p = make_params(float(theta))
        want = 2.0 * (abs(p.xi) - abs(p.eta))
        got = concurrence_closed(p).value
        assert got == pytest.approx(max(0.0, want), abs=1e-12)
        assert concurrence(initial_state(p)).value == pytest.approx(got, abs=1e-9)


def test_concurrence_closed_y_axis_equals_lambda():
    p = make_params(math.pi / 4)
    got = concurrence_closed(p, ChannelSpec(axis="y"), 0.5).value
    assert got == pytest.approx(0.18393972058572117, abs=1e-15)


def test_concurrence_dies_exactly_at_one_third_decay():
    # mu xi = eta at mu = 1/3 for eta = 1/8, xi = 3/8
    p = make_params(math.pi / 4)
    t_death = math.log(3.0) / 2.0
    assert concurrence_closed(p, ChannelSpec(axis="z"), t_death).value == pytest.approx(
        0.0, abs=1e-15
    )


def test_everything_vanishes_at_the_balanced_angle():
    p = make_params(math.pi / 2)
    rho = initial_state(p)
    for t in (0.0, 0.8):
        for axis in "xyz":
            ch = ChannelSpec(axis=axis)
            assert concurrence_closed(p, ch, t).value == 0.0
            assert geometric_discord_closed(p, ch, t).value == pytest.approx(0.0, abs=1e-15)
            assert quantum_discord_closed(p, ch, t).value == pytest.approx(0.0, abs=1e-12)
    assert concurrence(rho).value == pytest.approx(0.0, abs=1e-9)
    assert geometric_discord(rho).value == pytest.approx(0.0, abs=1e-9)
    assert quantum_discord(rho).value == pytest.approx(0.0, abs=1e-7)


def test_wootters_score_goes_negative_past_death():
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="z")
    t_death = math.log(math.sqrt(p.xi / p.eta))
    rho = kraus_apply(initial_state(p), ch, t_death + 0.5)
    mu = math.exp(-2.0 * (t_death + 0.5))
    assert wootters_score(rho) == pytest.approx(2.0 * (mu * p.xi - p.eta), abs=1e-10)
    assert concurrence(rho).value == 0.0


def test_concurrence_general_route_handles_negative_dust():
    # smallest eigenvalue sits between the validation floor and the clamp;
    # the Hermitian route clips it to zero before the square root
    rho = np.diag([0.5, 0.5 + 5e-11, -5e-11, 0.0]).astype(complex)
    assert concurrence(rho).value == pytest.approx(0.0, abs=1e-6)


def test_uncorrected_x_concurrence_is_visibly_wrong():
    p0 = make_params(0.0)
    ch = ChannelSpec(axis="x")
    # the faulty closed form gives 4 for a state whose concurrence is 1
    assert uncorrected_x_concurrence(p0, ch, 0.0) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        uncorrected_x_concurrence(p0, ChannelSpec(axis="z"), 0.0)


# ---------------------------------------------------------------------------
# geometric discord
# ---------------------------------------------------------------------------

def test_geometric_discord_extremes():
    assert geometric_discord(pure(PSI_MINUS)).value == pytest.approx(0.5, abs=1e-13)
    product = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert geometric_discord(product).value == pytest.approx(0.0, abs=1e-13)


def test_geometric_discord_closed_at_t_zero():
    for theta in np.linspace(0.1, math.pi - 0.1, 9):
        p = make_params(float(theta))
        q = 1.0 - 4.0 * p.eta
        assert geometric_discord_closed(p).value == pytest.approx(q * q / 2.0, abs=1e-14)
        assert geometric_discord(initial_state(p)).value == pytest.approx(q * q / 2.0, abs=1e-12)


def test_geometric_discord_closed_spot_values():
    p = make_params(math.pi / 4)  # q = 1/2
    # dephasing at mu = 0.8: (1/4)[q^2 + mu^2(1 + q^2)] - (1/4) mu^2
    t = -math.log(0.8) / 2.0
    assert geometric_discord_closed(p, ChannelSpec(axis="z"), t).value == pytest.approx(
        0.1025, abs=1e-12
    )
    assert geometric_discord_closed(p, ChannelSpec(axis="y"), 0.5).value == pytest.approx(
        0.016916910404576588, abs=1e-15
    )


# ---------------------------------------------------------------------------
# entropic measures
# ---------------------------------------------------------------------------

def test_mutual_information_known_values():
    assert mutual_information(pure(PHI_PLUS)).value == pytest.approx(2.0, abs=1e-10)
    product = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert mutual_information(product).value == pytest.approx(0.0, abs=1e-12)
    p = make_params(math.pi / 4)
    assert mutual_information_closed(p).value == pytest.approx(1.188721875540867, abs=1e-13)
    assert mutual_information(initial_state(p)).value == pytest.approx(
        1.188721875540867, abs=1e-10
    )


def test_optimal_conditional_entropy_spot_value():
    p = make_params(math.pi / 4)  # q = 1/2
    rho = kraus_apply(initial_state(p), ChannelSpec(axis="z"), 0.5)
    res = optimal_conditional_entropy(rho)
    # h((1 + max(q, mu))/2) with q = 1/2 > mu = e^-1
    assert res.value == pytest.approx(0.8112781244591328, abs=1e-9)
    assert res.optimizer is not None
    u = np.array(res.optimizer.best_direction)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
    assert res.optimizer.refinement_iterations >= 1


def test_optimal_conditional_entropy_at_four_fifths_decay():
    # mu = 0.8 beats q = 1/2, so the bound is h(0.9)
    p = make_params(math.pi / 4)
    t = -math.log(0.8) / 2.0
    rho = kraus_apply(initial_state(p), ChannelSpec(axis="z"), t)
    res = optimal_conditional_entropy(rho)
    assert res.value == pytest.approx(0.4689955935892812, abs=1e-9)


def test_optimal_conditional_entropy_is_zero_on_initial_family():
    # a full-strength correlation direction survives at t = 0, so some
    # measurement predicts the other qubit perfectly
    for theta in (0.3, math.pi / 4, 1.4):
        res = optimal_conditional_entropy(initial_state(theta))
        assert res.value <= 1e-7


def test_optimal_conditional_entropy_validation():
    rho = initial_state(1.0)
    with pytest.raises(ValueError):
        optimal_conditional_entropy(rho, measured_side="Q")
    with pytest.raises(ValueError):
        optimal_conditional_entropy(rho, settings=OptimizerSettings(grid_points=8))


def test_measured_side_is_irrelevant_for_this_family():
    rho = kraus_apply(initial_state(1.1), ChannelSpec(axis="x"), 0.6)
    a = optimal_conditional_entropy(rho, measured_side="A").value
    b = optimal_conditional_entropy(rho, measured_side="B").value
    assert a == pytest.approx(b, abs=1e-9)


def test_classical_correlation_spot_values():
    p = make_params(math.pi / 4)
    assert classical_correlation_closed(p).value == pytest.approx(1.0, abs=1e-12)
    assert classical_correlation(initial_state(p)).value == pytest.approx(1.0, abs=1e-7)
    t = 0.5
    got = classical_correlation_closed(p, ChannelSpec(axis="z"), t).value
    assert got == pytest.approx(1.0 - 0.8112781244591328, abs=1e-13)


def test_classical_correlation_survives_y_noise_untouched():
    # the strongest correlation direction is immune to y damping
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="y")
    for t in (0.3, 0.5, 1.2):
        assert classical_correlation_closed(p, ch, t).value == pytest.approx(1.0, abs=1e-12)
        rho = kraus_apply(initial_state(p), ch, t)
        assert classical_correlation(rho).value == pytest.approx(1.0, abs=1e-7)


def test_classical_correlation_of_product_state_is_zero():
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    assert classical_correlation(pure(ket00)).value == pytest.approx(0.0, abs=1e-9)


def test_closed_spectrum_at_half_decay():
    p = make_params(math.pi / 4)
    t = math.log(2.0) / 2.0  # mu = 1/2
    for axis in "xz":
        levels = closed_spectrum(p, ChannelSpec(axis=axis), t)
        assert np.allclose(
            sorted(levels, reverse=True),
            [9.0 / 16.0, 3.0 / 16.0, 3.0 / 16.0, 1.0 / 16.0],
            atol=1e-14,
        )
        rho = kraus_apply(initial_state(p), ChannelSpec(axis=axis), t)
        assert np.allclose(
            sorted(np.linalg.eigvalsh(rho), reverse=True),
            sorted(levels, reverse=True),
            atol=1e-13,
        )


def test_quantum_discord_closed_spot_values():
    p = make_params(math.pi / 4)
    assert quantum_discord_closed(p).value == pytest.approx(0.18872187554086717, abs=1e-13)
    assert quantum_discord_closed(p, ChannelSpec(axis="y"), 0.5).value == pytest.approx(
        0.024545464160185326, abs=1e-14
    )


def test_quantum_discord_textbook_endpoints():
    assert quantum_discord(pure(PSI_MINUS)).value == pytest.approx(1.0, abs=1e-7)
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    assert quantum_discord(pure(ket00)).value == pytest.approx(0.0, abs=1e-9)
    assert concurrence(np.eye(4, dtype=complex) / 4.0).value == 0.0


def test_quantum_discord_equals_mutual_information_minus_classical():
    rng = np.random.default_rng(31)
    for _ in range(4):
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        t = float(rng.uniform(0.0, 2.0))
        axis = "xyz"[rng.integers(3)]
        rho = kraus_apply(initial_state(theta), ChannelSpec(axis=axis), t)
        d = quantum_discord(rho).value
        i_minus_cc = mutual_information(rho).value - classical_correlation(rho).value
        assert d == pytest.approx(i_minus_cc, abs=1e-12)


def test_quantum_discord_oracle_tracks_closed_form():
    p = make_params(2 * math.pi / 5)
    for axis in "xyz":
        ch = ChannelSpec(axis=axis)
        for t in (0.0, 0.4, 1.7):
            rho = kraus_apply(initial_state(p), ch, t)
            assert quantum_discord(rho).value == pytest.approx(
                quantum_discord_closed(p, ch, t).value, abs=1e-7
            )


def test_expanded_discord_forms_match_pipeline():
    rng = np.random.default_rng(37)
    for _ in range(30):
        theta = float(rng.uniform(0.15, math.pi - 0.15))
        t = float(rng.uniform(0.0, 3.0))
        p = make_params(theta)
        axis = "xz"[rng.integers(2)]
        ch = ChannelSpec(axis=axis)
        assert quantum_discord_xz_expanded(p, ch, t) == pytest.approx(
            quantum_discord_closed(p, ch, t).value, abs=1e-12
        )
        chy = ChannelSpec(axis="y")
        assert quantum_discord_y_expanded(p, chy, t) == pytest.approx(
            quantum_discord_closed(p, chy, t).value, abs=1e-12
        )


def test_expanded_discord_domain_errors():
    p = make_params(1.0)
    with pytest.raises(ValueError):
        quantum_discord_xz_expanded(p, ChannelSpec(axis="y"), 0.5)
    with pytest.raises(ValueError):
        quantum_discord_xz_expanded(make_params(0.0), ChannelSpec(axis="x"), 0.5)
    with pytest.raises(ValueError):
        quantum_discord_y_expanded(p, ChannelSpec(axis="x"), 0.5)
    with pytest.raises(ValueError):
        quantum_discord_y_expanded(make_params(0.0), ChannelSpec(axis="y"), 0.0)  # lam = 1


def test_measures_respect_bounds_on_random_states():
    rng = np.random.default_rng(41)
    for _ in range(6):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert 0.0 <= concurrence(rho).value <= 1.0 + 1e-12
        assert 0.0 <= geometric_discord(rho).value <= 0.5 + 1e-12
        assert quantum_discord(rho).value >= 0.0
        assert classical_correlation(rho).value >= 0.0


# ---------------------------------------------------------------------------
# the Bloch-vector kernel against the 4x4 projector route it replaced
# ---------------------------------------------------------------------------

def _reference_entropy_2x2(m):
    w = np.linalg.eigvalsh(m)
    w = np.where(np.abs(w) <= ZERO_EIGENVALUE_TOL, 0.0, w)
    w = np.clip(w, 0.0, None)
    terms = np.where(w > 0.0, -w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return terms.sum(axis=-1)


def _reference_conditional_entropy(rho, dirs, side):
    """Average conditional entropy from explicit 4x4 projectors (I +- n.sigma)/2
    on the measured qubit and partial traces of the projected states."""
    n = dirs.shape[0]
    proj = 0.5 * (
        np.broadcast_to(PAULI_I, (n, 2, 2))
        + dirs[:, 0, None, None] * PAULI_X
        + dirs[:, 1, None, None] * PAULI_Y
        + dirs[:, 2, None, None] * PAULI_Z
    )
    total = np.zeros(n)
    for p_meas in (proj, PAULI_I[None] - proj):
        if side == "A":
            M = np.einsum("nab,cd->nacbd", p_meas, PAULI_I).reshape(n, 4, 4)
        else:
            M = np.einsum("ab,ncd->nacbd", PAULI_I, p_meas).reshape(n, 4, 4)
        sub = M @ rho @ M
        p = np.einsum("nii->n", sub).real
        r = sub.reshape(n, 2, 2, 2, 2)
        cond = np.einsum("nabcb->nac", r) if side == "B" else np.einsum("nabad->nbd", r)
        safe_p = np.where(p > 1e-14, p, 1.0)
        entropies = _reference_entropy_2x2(cond / safe_p[:, None, None])
        total += np.where(p > 1e-14, p * entropies, 0.0)
    return total


_KERNEL_DIRS = np.vstack([_fibonacci_sphere(256), np.eye(3), -np.eye(3)])


def _assert_kernel_matches_reference(rho):
    for side in ("A", "B"):
        want = _reference_conditional_entropy(rho, _KERNEL_DIRS, side)
        a, b, T = _side_bloch(rho, side)
        np.testing.assert_allclose(
            _conditional_entropy_batch(a, b, T, _KERNEL_DIRS), want, rtol=0.0, atol=1e-12
        )
        a, b, T = a.tolist(), b.tolist(), T.tolist()
        scalar = [_conditional_entropy_scalar(a, b, T, tuple(n)) for n in _KERNEL_DIRS.tolist()]
        np.testing.assert_allclose(scalar, want, rtol=0.0, atol=1e-12)


def test_bloch_kernel_matches_projector_route_on_random_states():
    rng = np.random.default_rng(2012)
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert np.linalg.eigvalsh(rho).min() > 1e-6
        _assert_kernel_matches_reference(rho)


def test_bloch_kernel_matches_projector_route_on_evolved_family():
    for theta in (1e-4, 0.3, math.pi / 4, math.pi / 2, math.pi - 1e-3):
        rho0 = initial_state(theta)
        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, qubit=qubit)
                for t in (0.0, 0.35, 2.5):
                    _assert_kernel_matches_reference(kraus_apply(rho0, ch, t))


def test_bloch_kernel_drops_impossible_outcome():
    # |0><0| on A: measuring A along +-z gives one outcome with p = 0 exactly
    ket_b = np.array([0.6, 0.8j])
    rho = np.kron(np.diag([1.0, 0.0]), np.outer(ket_b, ket_b.conj()))
    _assert_kernel_matches_reference(rho)
    a, b, T = _side_bloch(rho, "A")
    assert _conditional_entropy_batch(a, b, T, np.array([[0.0, 0.0, 1.0]]))[0] == 0.0


def test_fibonacci_grid_is_cached_and_read_only():
    dirs = _fibonacci_sphere(64)
    assert _fibonacci_sphere(64) is dirs
    assert not dirs.flags.writeable
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_points": 31},
        {"grid_points": MAX_GRID_POINTS + 1},
        {"final_tolerance": -1.0},
        {"final_tolerance": float("nan")},
        {"max_passes": 0},
    ],
)
def test_optimizer_settings_reject_bad_values(kwargs):
    with pytest.raises(ValueError):
        OptimizerSettings(**kwargs)


def test_optimizer_settings_accept_the_limits():
    # construction only: the largest grid is never run here
    assert OptimizerSettings(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
    assert OptimizerSettings(grid_points=32, final_tolerance=0.0, max_passes=1).max_passes == 1


def test_optimizer_reports_its_work():
    rho = kraus_apply(initial_state(1.1), ChannelSpec(axis="x"), 0.6)
    diag = optimal_conditional_entropy(rho, settings=OptimizerSettings(grid_points=256)).optimizer
    assert diag.evaluations > diag.grid_points + 2 * diag.refinement_iterations
    first_window = 2.0 * 3.6 / math.sqrt(256)
    assert diag.final_window == pytest.approx(
        max(first_window * 0.25 ** (diag.refinement_iterations - 1), 1e-5), rel=1e-12
    )


def test_optimizer_is_bit_identical_across_runs():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    for side in "AB":
        first = optimal_conditional_entropy(rho, side)
        assert optimal_conditional_entropy(rho, side) == first


def test_oracle_values_share_one_optimizer_run():
    rho = kraus_apply(initial_state(0.9), ChannelSpec(axis="z"), 0.4)
    values = oracle_values(rho, MEASURE_NAMES)
    assert values["quantum_discord"] == quantum_discord(rho).value
    assert values["classical_correlation"] == classical_correlation(rho).value
    assert values["concurrence"] == concurrence(rho).value
    with pytest.raises(ValueError):
        oracle_values(rho, ["nope"])


def test_oracle_sweep_rows_match_per_measure_oracles():
    grid = SweepGrid(thetas=(0.4, 2.2), times=(0.0, 0.7))
    rows = sweep(grid, axes=("x", "y"), measures=MEASURE_NAMES, include_oracle=True)
    oracles = {
        "concurrence": lambda r: concurrence(r).value,
        "geometric_discord": lambda r: geometric_discord(r).value,
        "quantum_discord": lambda r: quantum_discord(r).value,
        "mutual_information": lambda r: mutual_information(r).value,
        "classical_correlation": lambda r: classical_correlation(r).value,
    }
    assert len(rows) == len(MEASURE_NAMES) * 2 * 2 * 2
    for row in rows:
        rho = kraus_apply(initial_state(row.theta), ChannelSpec(axis=row.channel), row.gamma_t)
        assert row.value_oracle == pytest.approx(oracles[row.measure](rho), abs=1e-12)


# ---------------------------------------------------------------------------
# the correlation-triple core against the per-axis closed forms it replaced
# ---------------------------------------------------------------------------

def _ref_concurrence(params, channel, t):
    eta, xi = params.eta, params.xi
    if channel is None or t == 0.0:
        return 2.0 * (abs(xi) - abs(eta))
    point = evolution_point(channel, t, params)
    if channel.axis == "y":
        return 0.5 * (abs(point.lam + 1.0) - abs(point.lam - 1.0))
    return max(0.0, 2.0 * (point.mu * xi - eta))


def _ref_geometric_discord(params, channel, t):
    q = 1.0 - 4.0 * params.eta
    if channel is None or t == 0.0:
        return 0.5 * q * q
    mu = decay_factor(channel, t)
    if channel.axis == "y":
        return 0.5 * (mu * q) ** 2
    return 0.25 * (q * q + mu * mu * (1.0 + q * q)) - 0.25 * max(mu * mu, q * q, mu * mu * q * q)


def _ref_spectrum(params, channel, t):
    eta, xi = params.eta, params.xi
    if channel is None or t == 0.0:
        w = [2.0 * xi, 2.0 * eta, 0.0, 0.0]
    else:
        point = evolution_point(channel, t, params)
        if channel.axis == "y":
            w = [(1.0 + point.lam) / 2.0, (1.0 - point.lam) / 2.0, 0.0, 0.0]
        else:
            mu = point.mu
            w = [xi * (1.0 + mu), xi * (1.0 - mu), eta * (1.0 + mu), eta * (1.0 - mu)]
    return np.sort(np.asarray(w))[::-1]


def _ref_spectrum_entropy(params, channel, t):
    w = _ref_spectrum(params, channel, t)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _ref_entropy_bound(params, channel, t):
    q = 1.0 - 4.0 * params.eta
    if channel is None or t == 0.0 or channel.axis == "y":
        phi = 1.0
    else:
        mu = decay_factor(channel, t)
        phi = max(q, mu, mu * q)
    return phi, binary_entropy((1.0 + phi) / 2.0)


_REFERENCE_CLOSED = {
    "concurrence": (concurrence_closed, _ref_concurrence),
    "geometric_discord": (geometric_discord_closed, _ref_geometric_discord),
    "mutual_information": (
        mutual_information_closed,
        lambda p, ch, t: 2.0 - _ref_spectrum_entropy(p, ch, t),
    ),
    "classical_correlation": (
        classical_correlation_closed,
        lambda p, ch, t: 1.0 - _ref_entropy_bound(p, ch, t)[1],
    ),
    "quantum_discord": (
        quantum_discord_closed,
        lambda p, ch, t: 1.0 - _ref_spectrum_entropy(p, ch, t) + _ref_entropy_bound(p, ch, t)[1],
    ),
}

EDGE_THETAS = np.concatenate(
    [np.logspace(-4.0, 0.0, 9), [math.pi / 2], math.pi - np.logspace(-4.0, 0.0, 9)]
)


def test_triple_core_matches_the_per_axis_closed_forms():
    cases = [(None, 0.0)] + [
        (ChannelSpec(axis=axis, qubit=qubit), t)
        for axis in "xyz"
        for qubit in "AB"
        for t in (0.0, 1e-6, 3.0, 50.0)
    ]
    for theta in EDGE_THETAS.tolist():
        p = make_params(theta)
        for channel, t in cases:
            for name, (closed_fn, reference) in _REFERENCE_CLOSED.items():
                got = closed_fn(p, channel, t).value
                want = max(0.0, reference(p, channel, t))
                assert abs(got - want) <= 1e-14, (name, theta, channel, t)
            np.testing.assert_allclose(
                closed_spectrum(p, channel, t), _ref_spectrum(p, channel, t), rtol=0.0, atol=1e-14
            )
            phi, sc = optimal_entropy_bound(p, channel, t)
            ref_phi, ref_sc = _ref_entropy_bound(p, channel, t)
            assert phi == ref_phi and abs(sc - ref_sc) <= 1e-14


def test_closed_values_grid_shape_and_names():
    params = [make_params(theta) for theta in (0.2, 1.0, 2.9)]
    ch = ChannelSpec(axis="x")
    values = closed_values(params, ch, (0.0, 0.5), ("concurrence", "quantum_discord"))
    assert list(values) == ["concurrence", "quantum_discord"]
    assert values["concurrence"].shape == (3, 2)
    assert values["quantum_discord"][1, 1] == quantum_discord_closed(params[1], ch, 0.5).value
    assert closed_values(params[0], ch, 0.5)["geometric_discord"].shape == ()
    with pytest.raises(ValueError):
        closed_values(params, ch, 0.5, ("nope",))
    with pytest.raises(ValueError):
        closed_values(params, ch, (0.5, float("nan")))


def test_closed_sweep_rows_equal_the_scalar_wrappers_bit_for_bit():
    thetas = tuple(EDGE_THETAS.tolist())
    times = (0.0, 1e-7, 0.3, 3.0, 50.0, math.inf)
    wrappers = {name: fn for name, (fn, _) in _REFERENCE_CLOSED.items()}
    for qubit in "AB":
        rows = sweep(SweepGrid(thetas, times), measures=MEASURE_NAMES, gamma=1.3, noisy_qubit=qubit)
        keys = [(m, a, th, t) for m in MEASURE_NAMES for a in "xyz" for th in thetas for t in times]
        assert len(rows) == len(keys)
        for row, (name, axis, theta, t) in zip(rows, keys):
            channel = ChannelSpec(axis=axis, gamma=1.3, qubit=qubit)
            assert row.value_closed == wrappers[name](make_params(theta), channel, t).value


def test_small_discord_keeps_its_relative_accuracy():
    # Near theta = pi/2 every |c_i| is small at long times, and the discord
    # (1e-16 to 1e-11 here) is what is left after its parts cancel.  Reference:
    # the same formula in 60-digit decimals on the same q and mu.
    p = make_params(math.pi / 2 + 1.5e-3)
    ch = ChannelSpec(axis="x")
    signs = ((-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1))
    with localcontext() as ctx:
        ctx.prec = 60

        def g(x):
            return (1 + x) * (1 + x).ln() if 1 + x > 0 else Decimal(0)

        for t in (4.0, 6.69, 9.0):
            q, mu = Decimal(1.0 - 4.0 * p.eta), Decimal(decay_factor(ch, t))
            c = (-q, -mu, -mu * q)
            x = [sum(s * ci for s, ci in zip(row, c)) for row in signs]
            phi = max(abs(ci) for ci in c)
            want = float((sum(map(g, x)) / 4 - (g(phi) + g(-phi)) / 2) / Decimal(2).ln())
            assert 0.0 < want < 1e-10
            assert quantum_discord_closed(p, ch, t).value == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# validation at the API boundary
# ---------------------------------------------------------------------------

_VALIDATED_ORACLES = {
    "oracle_values": lambda rho: oracle_values(rho, MEASURE_NAMES),
    "quantum_discord": quantum_discord,
    "classical_correlation": classical_correlation,
    "concurrence": concurrence,
    "geometric_discord": geometric_discord,
    "mutual_information": mutual_information,
    "optimal_conditional_entropy": optimal_conditional_entropy,
}


@pytest.mark.parametrize("name", sorted(_VALIDATED_ORACLES))
def test_each_oracle_call_validates_its_state_once(monkeypatch, name):
    rho = kraus_apply(initial_state(make_params(0.7)), ChannelSpec(axis="z"), 0.3)
    calls = []

    def counting(m):
        calls.append(m)
        return validate(m)

    validate = measures.validate_density_matrix
    monkeypatch.setattr(measures, "validate_density_matrix", counting)
    _VALIDATED_ORACLES[name](rho)
    assert len(calls) == 1


_NOT_STATES = {
    "trace_two": (2.0 * werner(0.5), "trace deviates"),
    "non_hermitian": (werner(0.5) + np.diag([1e-3, 0.0, 0.0], k=1), "Hermiticity defect"),
    "negative_eigenvalue": (np.diag([0.501, 0.3, 0.2, -1e-3]).astype(complex), "negative eigenvalue"),
}


@pytest.mark.parametrize("case", sorted(_NOT_STATES))
@pytest.mark.parametrize(
    "oracle",
    [*_VALIDATED_ORACLES.values(), wootters_score, bloch_decompose],
    ids=[*_VALIDATED_ORACLES, "wootters_score", "bloch_decompose"],
)
def test_every_oracle_rejects_non_states(oracle, case):
    rho, message = _NOT_STATES[case]
    with pytest.raises(InvalidStateError, match=message):
        oracle(rho)
