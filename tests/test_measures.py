"""Measure oracles against textbook cases, closed forms against oracles, and
the retained faulty variants against both."""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcorr.channels import ChannelSpec, analytic_evolve, decay_factor, family_triple, kraus_apply
from qcorr.dynamics import MEASURE_NAMES, SweepGrid, sweep
from qcorr.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ZERO_EIGENVALUE_TOL,
    dag,
    hermitian_eigen,
    partial_trace,
    pauli_coefficients,
    von_neumann_entropy,
)
from qcorr import measures
from qcorr.measures import (
    MAX_GRID_POINTS,
    MeasureResult,
    OptimizerSettings,
    _conditional_entropy,
    _fibonacci_hemisphere,
    _fibonacci_sphere,
    _measurement_frame,
    _optimize,
    _wootters_scores,
    classical_correlation,
    closed_values,
    concurrence,
    concurrence_closed,
    geometric_discord,
    geometric_discord_closed,
    mutual_information,
    optimal_conditional_entropy,
    oracle_values,
    quantum_discord,
    quantum_discord_closed,
    quantum_discord_xz_expanded,
    quantum_discord_y_expanded,
    uncorrected_x_concurrence,
    wootters_score,
)
from qcorr.states import (
    InvalidStateError,
    bloch_decompose,
    initial_state,
    make_params,
    validate_density_matrix,
)

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
    # smallest eigenvalue sits between the validation floor and zero; the
    # tau route clips it to zero before scaling its eigenvector by the root
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
    assert closed_values(p, None, 0.0, ("mutual_information",))["mutual_information"] == \
        pytest.approx(1.188721875540867, abs=1e-13)
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
    assert closed_values(p, None, 0.0, ("classical_correlation",))["classical_correlation"] == \
        pytest.approx(1.0, abs=1e-12)
    assert classical_correlation(initial_state(p)).value == pytest.approx(1.0, abs=1e-7)
    t = 0.5
    got = closed_values(p, ChannelSpec(axis="z"), t, ("classical_correlation",))[
        "classical_correlation"]
    assert got == pytest.approx(1.0 - 0.8112781244591328, abs=1e-13)


def test_classical_correlation_survives_y_noise_untouched():
    # the strongest correlation direction is immune to y damping
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="y")
    for t in (0.3, 0.5, 1.2):
        got = closed_values(p, ch, t, ("classical_correlation",))["classical_correlation"]
        assert got == pytest.approx(1.0, abs=1e-12)
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
        levels = np.linalg.eigvalsh(analytic_evolve(p, ChannelSpec(axis=axis), t))
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
    with pytest.raises(ValueError, match="eta > 0"):
        quantum_discord_xz_expanded(make_params(0.0), ChannelSpec(axis="x"), 0.5)
    # eta = 2.5e-311 > 0, but xi/eta overflows to inf
    with pytest.raises(ValueError, match="overflows"):
        quantum_discord_xz_expanded(make_params(1e-155), ChannelSpec(axis="z"), 0.5)
    # just above the overflow the form keeps its value
    assert quantum_discord_xz_expanded(
        make_params(1e-150), ChannelSpec(axis="z"), 0.5) == 0.0999544084764823
    # there at gamma t = 1e-10, (8 vt)^4 xi^3 eta underflows to 0 before its
    # logarithm, while the closed discord is 0.999999996533802
    with pytest.raises(ValueError, match="underflows"):
        quantum_discord_xz_expanded(make_params(1e-150), ChannelSpec(axis="z"), 1e-10)
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


def _stacked_conditional_entropy(rho, dirs, side):
    m, b1 = _measurement_frame(pauli_coefficients(rho)[None], side)
    return _conditional_entropy(dirs @ m, b1[:, None, :])[0]


def _assert_kernel_matches_reference(rho):
    for side in ("A", "B"):
        want = _reference_conditional_entropy(rho, _KERNEL_DIRS, side)
        np.testing.assert_allclose(
            _stacked_conditional_entropy(rho, _KERNEL_DIRS, side), want, rtol=0.0, atol=1e-12
        )
        a, b, T = (v.tolist() for v in _side_bloch(rho, side))
        scalar = [_conditional_entropy_scalar(a, b, T, tuple(n)) for n in _KERNEL_DIRS.tolist()]
        np.testing.assert_allclose(scalar, want, rtol=0.0, atol=1e-12)


def _family_states():
    """The evolved family states the kernel tests use: edge and interior
    angles, every axis, either noisy qubit, three times."""
    return [
        kraus_apply(initial_state(theta), ChannelSpec(axis=axis, qubit=qubit), t)
        for theta in (1e-4, 0.3, math.pi / 4, math.pi / 2, math.pi - 1e-3)
        for axis in "xyz"
        for qubit in "AB"
        for t in (0.0, 0.35, 2.5)
    ]


def _random_states(n, seed):
    """n seeded full-rank states G G† / tr(G G†)."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return states


def test_bloch_kernel_matches_projector_route_on_random_states():
    for rho in _random_states(50, 2012):
        assert np.linalg.eigvalsh(rho).min() > 1e-6
        _assert_kernel_matches_reference(rho)


def test_bloch_kernel_matches_projector_route_on_evolved_family():
    for rho in _family_states():
        _assert_kernel_matches_reference(rho)


def test_conditional_entropy_is_the_same_along_n_and_minus_n():
    # (I +- n.sigma)/2 and (I -+ n.sigma)/2 are one measurement: the two
    # outcome terms swap, and their sum keeps every bit
    dirs = _fibonacci_sphere(256)
    for rho in _random_states(20, 2012) + _family_states():
        for side in "AB":
            np.testing.assert_array_equal(
                _stacked_conditional_entropy(rho, -dirs, side),
                _stacked_conditional_entropy(rho, dirs, side),
            )


def test_bloch_kernel_drops_impossible_outcome():
    # |0><0| on A: measuring A along +-z gives one outcome with p = 0 exactly
    ket_b = np.array([0.6, 0.8j])
    rho = np.kron(np.diag([1.0, 0.0]), np.outer(ket_b, ket_b.conj()))
    _assert_kernel_matches_reference(rho)
    assert _stacked_conditional_entropy(rho, np.array([[0.0, 0.0, 1.0]]), "A")[0] == 0.0


# ---------------------------------------------------------------------------
# the stacked oracles against the one-state scalar kernels they replaced
# ---------------------------------------------------------------------------

def _side_bloch(rho, measured_side):
    """(a, b, T): the measured and unmeasured Bloch vectors and the
    correlation matrix indexed [measured, unmeasured]."""
    r = pauli_coefficients(rho)
    if measured_side == "A":
        return r[1:, 0], r[0, 1:], r[1:, 1:]
    return r[0, 1:], r[1:, 0], r[1:, 1:].T


def _conditional_entropy_scalar(a, b, T, n):
    """The conditional entropy for one direction in scalar arithmetic; a, b
    and n are three floats each and T is a list of three rows."""
    n0, n1, n2 = n
    an = a[0] * n0 + a[1] * n1 + a[2] * n2
    t0 = T[0][0] * n0 + T[1][0] * n1 + T[2][0] * n2
    t1 = T[0][1] * n0 + T[1][1] * n1 + T[2][1] * n2
    t2 = T[0][2] * n0 + T[1][2] * n1 + T[2][2] * n2
    total = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * an)
        if p > 1e-14:
            radius = math.hypot(b[0] + sign * t0, b[1] + sign * t1, b[2] + sign * t2) / (2.0 * p)
            entropy = 0.0
            for w in (0.5 * (1.0 - radius), 0.5 * (1.0 + radius)):
                if w > ZERO_EIGENVALUE_TOL:
                    entropy -= w * math.log2(w)
            total += p * entropy
    return total


def _golden_section_scalar(f, lo, hi, angle_tol=1e-6):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > angle_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


# coordinate-descent passes after which the scalar reference stops regardless
_SCALAR_MAX_PASSES = 60


def _optimal_conditional_entropy_scalar(rho, side, settings=OptimizerSettings()):
    """The one-state coordinate descent the compass search replaced: the grid
    through the scalar kernel, then scalar golden-section line searches in
    the spherical angles of n, until a pass gains less than
    settings.final_tolerance.  It stalls near the poles, where phi barely
    moves n, so it bounds the optimizer from above."""
    a, b, T = (v.tolist() for v in _side_bloch(rho, side))
    dirs = _fibonacci_sphere(settings.grid_points)
    values = [_conditional_entropy_scalar(a, b, T, n) for n in map(tuple, dirs.tolist())]
    best = min(values)
    x, y, z = min(tuple(n) for n, v in zip(dirs.tolist(), values) if v == best)
    theta_s, phi_s = math.acos(max(-1.0, min(1.0, z))), math.atan2(y, x)

    def objective(th, ph):
        st = math.sin(th)
        return _conditional_entropy_scalar(a, b, T, (st * math.cos(ph), st * math.sin(ph), math.cos(th)))

    window = 2.0 * 3.6 / math.sqrt(settings.grid_points)
    for _ in range(_SCALAR_MAX_PASSES):
        previous = best
        theta_s, best = _golden_section_scalar(
            lambda th: objective(th, phi_s), theta_s - window, theta_s + window
        )
        phi_s, best = _golden_section_scalar(
            lambda ph: objective(theta_s, ph), phi_s - window, phi_s + window
        )
        window = max(window * 0.25, 1e-5)
        if previous - best < settings.final_tolerance:
            break
    return best


def _wootters_score_sqrt_route(rho):
    """chi1 - chi2 - chi3 - chi4 from the eigenvalues of sqrt(rho) rho~ sqrt(rho)."""
    w, V = hermitian_eigen(rho)
    sqrt_rho = (V * np.sqrt(np.clip(w, 0.0, None))) @ dag(V)
    flip = np.kron(PAULI_Y, PAULI_Y)
    ev = np.linalg.eigvalsh(sqrt_rho @ flip @ rho.conj() @ flip @ sqrt_rho)
    ev[np.abs(ev) <= ZERO_EIGENVALUE_TOL] = 0.0
    chi = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return float(chi[0] - chi[1] - chi[2] - chi[3])


def test_stacked_optimizer_matches_the_scalar_reference():
    # never above the coordinate descent it replaced, on either side
    states = _random_states(50, 1998) + _family_states()
    stack = np.array(states)
    for side in "AB":
        values, _ = _optimize(pauli_coefficients(stack), side, OptimizerSettings())
        for i, rho in enumerate(states):
            assert values[i] <= _optimal_conditional_entropy_scalar(rho, side) + 1e-12, (side, i)


def _bloch_conditional_entropy(a, b, T, dirs):
    """The conditional entropy of each state along each of its directions,
    in plain NumPy: a, b are (states, 3), T is (states, 3, 3) indexed
    [measured, unmeasured] and dirs is (states, k, 3)."""
    total = 0.0
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * (dirs @ a[:, :, None])[:, :, 0])
        live = p > 1e-14
        bloch = b[:, None, :] + sign * (dirs @ T)
        radius = np.linalg.norm(bloch, axis=2) / (2.0 * np.where(live, p, 1.0))
        w = np.clip(0.5 * (1.0 + np.array([radius, -radius])), 0.0, 1.0)
        entropy = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=0)
        total = total + np.where(live, p * entropy, 0.0)
    return total


def _reference_minima(states, side, grid_points=2**12, seeds=4, half_width=0.05):
    """The minimal conditional entropy of each state by brute force: a dense
    Fibonacci grid, then, around each of its four lowest points, nested
    11 x 11 patches of the tangent plane, each a third as wide as the last,
    down to 1e-9 rad."""
    r = pauli_coefficients(np.array(states))
    if side == "B":
        r = np.swapaxes(r, 1, 2)
    a, b, T = r[:, 1:, 0], r[:, 0, 1:], r[:, 1:, 1:]
    i = np.arange(grid_points) + 0.5
    z = 1.0 - 2.0 * i / grid_points
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    dirs = np.column_stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z])
    values = _bloch_conditional_entropy(a, b, T, np.broadcast_to(dirs, (len(r),) + dirs.shape))
    centre = dirs[np.argsort(values, axis=1)[:, :seeds]]
    u = np.linspace(-1.0, 1.0, 11)
    while half_width > 1e-9:
        e1 = np.cross(centre, np.eye(3)[np.abs(centre).argmin(axis=2)])
        e1 /= np.linalg.norm(e1, axis=2, keepdims=True)
        e2 = np.cross(centre, e1)
        patch = (centre[:, :, None, None] + half_width * u[:, None, None] * e1[:, :, None, None]
                 + half_width * u[:, None] * e2[:, :, None, None]).reshape(len(r), -1, 3)
        patch /= np.linalg.norm(patch, axis=2, keepdims=True)
        values = _bloch_conditional_entropy(a, b, T, patch).reshape(len(r), seeds, -1)
        best = values.argmin(axis=2)
        centre = patch.reshape(len(r), seeds, -1, 3)[
            np.arange(len(r))[:, None], np.arange(seeds), best
        ]
        half_width /= 3.0
    return values.min(axis=(1, 2))


def test_optimizer_finds_the_brute_force_minimum_on_both_sides():
    states = _random_states(50, 1998) + _family_states()
    for side in "AB":
        values, _ = _optimize(pauli_coefficients(np.array(states)), side, OptimizerSettings())
        reference = _reference_minima(states, side)
        for i in range(len(states)):
            assert abs(values[i] - reference[i]) <= 1e-12, (side, i)


def test_the_smallest_grids_find_the_brute_force_minimum_on_both_sides():
    # 32 and 33 points seed the search from 16 directions each
    states = _random_states(50, 1998) + _family_states()
    for side in "AB":
        reference = _reference_minima(states, side)
        for grid_points in (32, 33):
            settings = OptimizerSettings(grid_points=grid_points)
            values, _ = _optimize(pauli_coefficients(np.array(states)), side, settings)
            for i in range(len(states)):
                assert abs(values[i] - reference[i]) <= 1e-12, (side, grid_points, i)


def _near_sudden_change():
    """The family around its sudden change t_sc = ln(1/q)/2 (gamma = 1), where
    the conditional entropy's valley is flat: five angles, x and z noise on
    either qubit, and 25 times, t_sc and t_sc +- 10^k for 12 k from -1 to
    -7; the states as one stack, with their closed discords."""
    offsets = [0.0] + [sign * 10.0 ** k for sign in (-1.0, 1.0) for k in np.linspace(-1, -7, 12)]
    states, closed = [], []
    for theta in (0.5, 0.9, 1.2, 2.0, 2.6):
        params = make_params(theta)
        times = [math.log(1.0 / params.q) / 2.0 + offset for offset in offsets]
        for axis in "xz":
            for qubit in "AB":
                channel = ChannelSpec(axis=axis, qubit=qubit)
                states.append(kraus_apply(initial_state(params), channel, times))
                closed.append(closed_values(params, channel, times, ("quantum_discord",)))
    return np.concatenate(states), np.concatenate([c["quantum_discord"] for c in closed])


_DEFAULT_GRID = OptimizerSettings().grid_points


@pytest.mark.parametrize("grid_points", [_DEFAULT_GRID // 2, _DEFAULT_GRID, 1024])
def test_the_discord_oracle_reaches_the_closed_form_near_the_sudden_change(grid_points):
    # without the step growth, 102 of these 500 runs crept along the valley
    # to the round cap at 1,024 points, up to 5.2e-6 above the closed
    # discord, and 58 at 64 points, up to 1.2e-5 above
    states, closed = _near_sudden_change()
    settings = OptimizerSettings(grid_points=grid_points)
    values = oracle_values(states, ("quantum_discord",), settings)["quantum_discord"]
    np.testing.assert_allclose(values, closed, rtol=0.0, atol=1e-12)
    for side in "AB":
        _, diagnostics = _optimize(pauli_coefficients(states), side, settings)
        assert max(d.refinement_iterations for d in diagnostics) < measures._MAX_ROUNDS, side


def test_step_growth_changes_only_runs_past_40_rounds(monkeypatch):
    states = np.concatenate(
        [_near_sudden_change()[0], np.array(_random_states(50, 1998) + _family_states())])
    stack = pauli_coefficients(states)
    # from the grid alone: the singular-vector seeds start these runs at the
    # minimum, so none of them reaches round 40
    grown = {side: _optimize(stack, side, OptimizerSettings(), seeded=False) for side in "AB"}
    grow_after, cap = measures._GROW_AFTER, measures._MAX_ROUNDS
    monkeypatch.setattr(measures, "_GROW_AFTER", cap)
    for side in "AB":
        plain_values, plain_diagnostics = _optimize(stack, side, OptimizerSettings(), seeded=False)
        values, diagnostics = grown[side]
        rounds = [d.refinement_iterations for d in plain_diagnostics]
        # the corpus holds runs on both sides of round 40, and stalls without
        # the growth
        assert min(rounds) <= grow_after < max(rounds) == cap
        for i, count in enumerate(rounds):
            if count <= grow_after:
                assert (values[i], diagnostics[i]) == (plain_values[i], plain_diagnostics[i])


def _ranked_states(per_rank, seed):
    """per_rank seeded states of each rank 1-4, G G† / tr(G G†) with G of
    shape (4, rank)."""
    rng = np.random.default_rng(seed)
    states = []
    for rank in range(1, 5):
        for _ in range(per_rank):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho).real)
    return states


def _local_unitary(rng):
    """A random U_A x U_B, each factor an SU(2) matrix from a normalised
    Gaussian quaternion."""
    units = []
    for _ in "AB":
        q = rng.normal(size=4)
        a, b = complex(q[0], q[1]), complex(q[2], q[3])
        units.append(np.array([[a, -b.conjugate()], [b, a.conjugate()]]) / np.linalg.norm(q))
    return np.kron(*units)


_BELL_SIGNS = np.array([[-1, -1, -1], [1, -1, 1], [-1, 1, 1], [1, 1, -1]])


def _rotated_triple_state(c, rng):
    """(I + sum_k c_k sigma_k x sigma_k)/4 under a random local unitary."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    rho = (np.eye(4) + sum(ck * np.kron(p, p) for ck, p in zip(c, paulis))) / 4.0
    u = _local_unitary(rng)
    return u @ rho @ u.conj().T


def _rotated_bell_diagonal(n, seed):
    """n seeded Bell-diagonal states (I + sum_k c_k sigma_k x sigma_k)/4 under
    random local unitaries, each with its largest |c_k| at least 0.05 above
    the next, and their minimal conditional entropies 1 - CC(c), which local
    unitaries keep."""
    rng = np.random.default_rng(seed)
    states, triples = [], []
    while len(states) < n:
        c = rng.uniform(-1.0, 1.0, 3)
        _, mid, top = np.sort(np.abs(c))
        if top - mid < 0.05 or (1.0 + _BELL_SIGNS @ c).min() < 1e-9:
            continue
        states.append(_rotated_triple_state(c, rng))
        triples.append(c)
    cc = measures._triple_values(np.array(triples), ("classical_correlation",))
    return np.array(states), 1.0 - cc["classical_correlation"]


def _rotated_near_sudden_change():
    """The family at and around its sudden change t_sc (gamma = 1) on x and
    z noise: four angles and seven times, t_sc and t_sc +- 1e-6, 1e-5 and
    1e-3, each state under the same eight seeded random local unitaries,
    with its closed discord."""
    rng = np.random.default_rng(5)
    units = [_local_unitary(rng) for _ in range(8)]
    states, closed = [], []
    for theta in (0.9, 2.0, 0.5, 1.2):
        params = make_params(theta)
        t_sc = math.log(1.0 / params.q) / 2.0
        times = [t_sc + offset for offset in (0.0, -1e-6, 1e-6, -1e-5, 1e-5, -1e-3, 1e-3)]
        for axis in "xz":
            channel = ChannelSpec(axis=axis)
            evolved = kraus_apply(initial_state(params), channel, times)
            discord = closed_values(params, channel, times, ("quantum_discord",))["quantum_discord"]
            for u in units:
                states.append(u @ evolved @ u.conj().T)
                closed.append(discord)
    return np.concatenate(states), np.concatenate(closed)


def _rotated_near_degenerate(n, seed):
    """n seeded Bell-diagonal states whose two largest |c_k| differ by e,
    log-uniform in [1e-12, 1e-3], under random local unitaries, with their
    closed discords."""
    rng = np.random.default_rng(seed)
    states, triples = [], []
    while len(states) < n:
        mid = rng.uniform(0.05, 0.95)
        c = np.array([mid + 10.0 ** rng.uniform(-12.0, -3.0), mid, rng.uniform(0.0, mid)])
        c = rng.permutation(c * rng.choice([-1.0, 1.0], 3))
        if (1.0 + _BELL_SIGNS @ c).min() < 1e-9:
            continue
        states.append(_rotated_triple_state(c, rng))
        triples.append(c)
    closed = measures._triple_values(np.array(triples), ("quantum_discord",))
    return np.array(states), closed["quantum_discord"]


def _discord_runs(states, side, settings=None, seeded=True):
    """The stacked oracle discord of each state, qubit side measured, and
    its optimizer diagnostics."""
    stack = measures._Stack(validate_density_matrix(states), side, settings, seeded)
    return measures._STACK_ORACLES["quantum_discord"](stack), stack.optimum[1]


@pytest.mark.parametrize("corpus", [
    _rotated_near_sudden_change,
    lambda: _rotated_near_degenerate(52, 6),
], ids=["family_near_sudden_change", "near_degenerate"])
def test_the_discord_oracle_is_exact_on_rotated_bell_diagonal_states(corpus):
    # from the grid alone, 256 of the 448 rotated family runs per side ended
    # at the round cap, up to 2.3e-5 above the closed discord, and 27-28 of
    # the 52 near-degenerate ones, up to 2.0e-6; seeded from T's singular
    # vectors the worst was 1.1e-15 on either corpus and side
    states, closed = corpus()
    for side in "AB":
        discord, diagnostics = _discord_runs(states, side)
        assert max(d.refinement_iterations for d in diagnostics) < measures._MAX_ROUNDS, side
        np.testing.assert_allclose(discord, closed, rtol=0.0, atol=4e-15, err_msg=side)
        for i, rho in enumerate(states):
            assert quantum_discord(rho, side).value == max(0.0, discord[i]), (side, i)


def test_pure_states_stop_once_every_direction_reads_zero():
    # every direction of a pure state reads zero to rounding, and its runs
    # used to move on that noise: up to 295 rounds on side A, seeded or not,
    # and 239 on side B from the grid alone (80 seeded); 12 rounds is a run
    # that never moves.  A run may move once more: where an outcome is rare
    # (p = 2.3e-3 for state 87, side A, seeded), rounding of the Bloch radius
    # leaves the pure conditional state an eigenvalue of up to 3e-14, above
    # the 1e-14 entropy cutoff, so its compass reads up to 14 eps for a few
    # rounds and the zero stop waits (13 rounds)
    stack = pauli_coefficients(np.array(_ranked_states(200, 3)[:200]))
    for side in "AB":
        for seeded in (True, False):
            values, diagnostics = _optimize(stack, side, OptimizerSettings(), seeded=seeded)
            assert np.abs(values).max() <= measures._ZERO_BAND, (side, seeded)
            assert max(d.refinement_iterations for d in diagnostics) <= 13, (side, seeded)


def test_the_zero_stop_moves_no_value_and_only_runs_that_end_at_zero(monkeypatch):
    # states of ranks 2-4 and the family; the runs it shortens are the
    # family's at t = 0 near theta = 0 and pi, whose minimum is exactly 0
    states = np.concatenate([
        np.array(_ranked_states(25, 2022)[25:] + _random_states(50, 1998) + _family_states()),
        _near_sudden_change()[0],
    ])
    stack = pauli_coefficients(states)
    runs = [(side, seeded) for side in "AB" for seeded in (True, False)]
    stopped = [_optimize(stack, side, OptimizerSettings(), seeded=seeded) for side, seeded in runs]
    band = measures._ZERO_BAND
    monkeypatch.setattr(measures, "_ZERO_BAND", -1.0)
    for (side, seeded), (values, diagnostics) in zip(runs, stopped):
        plain_values, plain_diagnostics = _optimize(stack, side, OptimizerSettings(), seeded=seeded)
        np.testing.assert_array_equal(values, plain_values, err_msg=f"{side} {seeded}")
        for i, value in enumerate(values):
            if value > band:
                assert diagnostics[i] == plain_diagnostics[i], (side, seeded, i)


@pytest.fixture(scope="module")
def grid_corpus():
    ranked = _ranked_states(25, 2022)
    rotated, rotated_minima = _rotated_bell_diagonal(40, 2023)
    cases = []
    for side in "AB":
        cases.append((side, np.array(ranked), _reference_minima(ranked, side)))
        cases.append((side, rotated, rotated_minima))
    return cases


@pytest.mark.parametrize("grid_points", [_DEFAULT_GRID // 2, _DEFAULT_GRID])
def test_the_default_grid_and_half_of_it_find_the_best_minimum(grid_corpus, grid_points):
    # random states of ranks 1-4 against the brute-force minima, rotated
    # Bell-diagonal states against their closed minima; the family near its
    # sudden change is tested above
    settings = OptimizerSettings(grid_points=grid_points)
    for side, states, minima in grid_corpus:
        values, _ = _optimize(pauli_coefficients(states), side, settings)
        np.testing.assert_allclose(values, minima, rtol=0.0, atol=1e-12, err_msg=side)


@pytest.mark.parametrize("grid_points", [_DEFAULT_GRID // 2, _DEFAULT_GRID])
def test_the_grid_alone_finds_the_best_minimum_in_the_standard_basis(grid_corpus, grid_points):
    # the search without the singular-vector seeds, the route verify's
    # grid-doubling check compares with, on the corpora above and on the
    # family near its sudden change
    settings = OptimizerSettings(grid_points=grid_points)
    for side, states, minima in grid_corpus:
        values, _ = _optimize(pauli_coefficients(states), side, settings, seeded=False)
        np.testing.assert_allclose(values, minima, rtol=0.0, atol=1e-12, err_msg=side)
    states, closed = _near_sudden_change()
    for side in "AB":
        discord, diagnostics = _discord_runs(states, side, settings, seeded=False)
        np.testing.assert_allclose(discord, closed, rtol=0.0, atol=1e-12, err_msg=side)
        assert max(d.refinement_iterations for d in diagnostics) < measures._MAX_ROUNDS, side


def test_best_direction_follows_the_dominant_correlation_axis():
    # theta = 0.9, gamma = 1: the discord is frozen along y until the sudden
    # change at t_sc = ln(1/cos^2 theta)/2 = 0.4754, then decays along the
    # noise axis on x and z; the direction is pinned only up to its sign
    t_sc = math.log(1.0 / math.cos(0.9) ** 2) / 2.0
    expected_after = {"x": 0, "y": 1, "z": 2}
    for axis in "xyz":
        for t in (0.0, 0.2, 0.45, 0.5, 0.6, 1.0, 3.0):
            rho = kraus_apply(initial_state(0.9), ChannelSpec(axis=axis), t)
            n = quantum_discord(rho).optimizer.best_direction
            want = 1 if t < t_sc else expected_after[axis]
            assert np.abs(n).argmax() == want, (axis, t, n)


def test_stacked_entropic_oracles_match_the_scalar_route():
    # the six von_neumann_entropy calls per state the stacked kernels replaced
    states = _random_states(50, 1998) + _family_states()
    values = oracle_values(np.array(states), MEASURE_NAMES)
    conditional, _ = _optimize(pauli_coefficients(np.array(states)), "A", OptimizerSettings())
    for i, rho in enumerate(states):
        s_a = von_neumann_entropy(partial_trace(rho, "A"))
        s_b = von_neumann_entropy(partial_trace(rho, "B"))
        s_ab = von_neumann_entropy(rho)
        sc = conditional[i]
        assert abs(values["mutual_information"][i] - max(0.0, s_a + s_b - s_ab)) <= 1e-12
        assert abs(values["quantum_discord"][i] - max(0.0, s_a - s_ab + sc)) <= 1e-12
        assert abs(values["classical_correlation"][i] - max(0.0, s_b - sc)) <= 1e-12


def test_tau_route_matches_the_sqrt_route_on_full_rank_states():
    states = _random_states(50, 1998)
    scores = _wootters_scores(np.array(states))
    for score, rho in zip(scores, states):
        assert abs(score - _wootters_score_sqrt_route(rho)) <= 1e-12


def test_each_state_gets_the_same_bits_alone_or_in_a_stack():
    family, random = _family_states(), _random_states(20, 7)
    states = [s for pair in zip(family, random) for s in pair] + family[len(random):]
    stacked = oracle_values(np.array(states), MEASURE_NAMES)
    for i, rho in enumerate(states):
        alone = oracle_values(rho, MEASURE_NAMES)
        for name in MEASURE_NAMES:
            assert stacked[name][i] == alone[name], (name, i)
    for side in "AB":
        values, diagnostics = _optimize(pauli_coefficients(np.array(states)), side, OptimizerSettings())
        for i, rho in enumerate(states):
            alone = optimal_conditional_entropy(rho, side)
            assert (alone.value, alone.optimizer) == (max(0.0, values[i]), diagnostics[i])


def test_a_long_stack_is_taken_in_chunks_with_the_same_bits(monkeypatch):
    states = np.array(_family_states()[:10] + _random_states(10, 11))
    whole = oracle_values(states, MEASURE_NAMES)
    monkeypatch.setattr(measures, "_STACK_CHUNK", 7)
    chunked = oracle_values(states, MEASURE_NAMES)
    for name in MEASURE_NAMES:
        np.testing.assert_array_equal(chunked[name], whole[name])


def test_oracle_values_on_a_stack_returns_arrays():
    states = np.array(_family_states()[:4])
    values = oracle_values(states, ("concurrence", "quantum_discord"))
    assert list(values) == ["concurrence", "quantum_discord"]
    assert values["concurrence"].shape == (4,)
    with pytest.raises(InvalidStateError, match="expected a 4x4"):
        concurrence(states)


def test_fibonacci_grid_is_cached_and_read_only():
    dirs = _fibonacci_sphere(64)
    assert _fibonacci_sphere(64) is dirs
    assert not dirs.flags.writeable
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("n", [32, 33, 1024])
def test_fibonacci_hemisphere_is_the_cached_read_only_upper_half(n):
    half = _fibonacci_hemisphere(n)
    assert _fibonacci_hemisphere(n) is half
    assert not half.flags.writeable
    full = _fibonacci_sphere(n)
    assert len(half) == n // 2
    np.testing.assert_array_equal(half, full[full[:, 2] > 0.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid_points": 31},
        {"grid_points": MAX_GRID_POINTS + 1},
        {"final_tolerance": -1.0},
        {"final_tolerance": float("nan")},
    ],
)
def test_optimizer_settings_reject_bad_values(kwargs):
    with pytest.raises(ValueError):
        OptimizerSettings(**kwargs)


def test_optimizer_settings_accept_the_limits():
    # construction only: the largest grid is never run here
    assert OptimizerSettings(grid_points=MAX_GRID_POINTS).grid_points == MAX_GRID_POINTS
    assert OptimizerSettings(grid_points=32, final_tolerance=0.0).final_tolerance == 0.0


@pytest.mark.parametrize("kwargs", [
    {"grid_points": 64.5},
    {"grid_points": 64.0},
    {"grid_points": "64"},
    {"grid_points": None},
    {"final_tolerance": None},
    {"final_tolerance": "1e-7"},
])
def test_optimizer_settings_reject_values_of_the_wrong_type(kwargs):
    # 64.5 once ran np.arange(64.5), and "64" or None raised TypeError
    with pytest.raises(ValueError, match="must be"):
        OptimizerSettings(**kwargs)


def test_optimizer_settings_accept_numpy_numbers():
    rho = kraus_apply(initial_state(1.1), ChannelSpec(axis="x"), 0.6)
    given = OptimizerSettings(grid_points=np.int64(64), final_tolerance=np.float64(1e-7))
    assert given == OptimizerSettings()
    assert (optimal_conditional_entropy(rho, settings=given)
            == optimal_conditional_entropy(rho, settings=OptimizerSettings()))


def test_optimizer_reports_its_work():
    rho = kraus_apply(initial_state(1.1), ChannelSpec(axis="x"), 0.6)
    settings = OptimizerSettings(grid_points=256)
    diag = optimal_conditional_entropy(rho, settings=settings).optimizer
    assert diag.refinement_iterations >= 1
    # the grid, the three singular-vector seeds and eight points a round
    assert diag.evaluations == diag.grid_points + 3 + 8 * diag.refinement_iterations
    assert diag.final_tolerance < diag.final_window <= 4 * diag.final_tolerance
    (plain,) = _optimize(pauli_coefficients(rho[None]), "A", settings, seeded=False)[1]
    assert plain.evaluations == plain.grid_points + 8 * plain.refinement_iterations


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


@pytest.mark.parametrize("evaluate", [
    lambda names: closed_values(make_params(0.9), ChannelSpec(axis="z"), 0.4, names),
    lambda names: oracle_values(initial_state(0.9), names),
    lambda names: oracle_values(np.stack([initial_state(0.9)] * 2), names),
], ids=["closed_values", "oracle_values", "oracle_values_stack"])
def test_unknown_measure_names_share_one_message(evaluate):
    with pytest.raises(ValueError) as err:
        evaluate(("concurrence", "nope"))
    assert str(err.value) == f"unknown measure 'nope'; choose from {list(MEASURE_NAMES)}"


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
    mu = decay_factor(channel, t)
    if channel.axis == "y":
        lam = mu * (1.0 - 4.0 * eta)
        return 0.5 * (abs(lam + 1.0) - abs(lam - 1.0))
    return max(0.0, 2.0 * (mu * xi - eta))


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
        mu = decay_factor(channel, t)
        if channel.axis == "y":
            lam = mu * (1.0 - 4.0 * eta)
            w = [(1.0 + lam) / 2.0, (1.0 - lam) / 2.0, 0.0, 0.0]
        else:
            w = [xi * (1.0 + mu), xi * (1.0 - mu), eta * (1.0 + mu), eta * (1.0 - mu)]
    return np.sort(np.asarray(w))[::-1]


def _ref_spectrum_entropy(params, channel, t):
    w = _ref_spectrum(params, channel, t)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _ref_optimal_entropy(params, channel, t):
    """h((1 + phi)/2) in bits, phi = max |c_i| the dominant correlation."""
    q = 1.0 - 4.0 * params.eta
    if channel is None or t == 0.0 or channel.axis == "y":
        phi = 1.0
    else:
        mu = decay_factor(channel, t)
        phi = max(q, mu, mu * q)
    p = (1.0 + phi) / 2.0
    if p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _one_closed(name):
    """The scalar wrapper a closed measure without one would have."""
    return lambda p, ch, t: MeasureResult(
        float(closed_values(p, ch, t, (name,))[name]), "closed_form"
    )


_REFERENCE_CLOSED = {
    "concurrence": (concurrence_closed, _ref_concurrence),
    "geometric_discord": (geometric_discord_closed, _ref_geometric_discord),
    "mutual_information": (
        _one_closed("mutual_information"),
        lambda p, ch, t: 2.0 - _ref_spectrum_entropy(p, ch, t),
    ),
    "classical_correlation": (
        _one_closed("classical_correlation"),
        lambda p, ch, t: 1.0 - _ref_optimal_entropy(p, ch, t),
    ),
    "quantum_discord": (
        quantum_discord_closed,
        lambda p, ch, t: 1.0 - _ref_spectrum_entropy(p, ch, t) + _ref_optimal_entropy(p, ch, t),
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



def test_closed_discord_against_a_60_digit_reference():
    # Reference: mutual information minus classical correlation in 60-digit
    # arithmetic on the same float triple, where their cancellation is
    # harmless.  theta runs log-spaced toward 0, pi/2 and pi.
    import mpmath

    steps = np.logspace(-1.0, -8.0, 15)
    thetas = np.concatenate([steps, math.pi / 2 - steps, math.pi / 2 + steps, math.pi - steps])
    params = [make_params(theta) for theta in thetas.tolist()]
    times = (0.0, 1e-6, 1e-3, 0.4, 3.0, 30.0)
    signs = ((-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1))
    worst = 0.0
    with mpmath.workdps(60):

        def g(x):  # (1 + x) log2(1 + x), 0 at x = -1
            return (1 + x) * mpmath.log(1 + x, 2) if 1 + x > 0 else mpmath.mpf(0)

        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, qubit=qubit)
                got = closed_values(params, ch, times, ("quantum_discord",))["quantum_discord"]
                for c, value in zip(family_triple(params, ch, times).reshape(-1, 3).tolist(),
                                    got.ravel().tolist()):
                    c = [mpmath.mpf(ci) for ci in c]
                    x = [sum(s * ci for s, ci in zip(row, c)) for row in signs]
                    phi = max(abs(ci) for ci in c)
                    want = sum(map(g, x)) / 4 - (g(phi) + g(-phi)) / 2
                    if want > mpmath.mpf("1e-30"):
                        worst = max(worst, float(abs(value - want) / want))
                    else:
                        assert value <= 1e-30
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# validation at the API boundary
# ---------------------------------------------------------------------------

_VALIDATED_ORACLES = {
    "oracle_values": lambda rho: oracle_values(rho, MEASURE_NAMES),
    "oracle_values_stack": lambda rho: oracle_values(np.stack([rho, rho, rho]), MEASURE_NAMES),
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


@pytest.mark.parametrize("case", sorted(_NOT_STATES))
def test_a_stack_with_one_bad_member_is_rejected_with_its_message(case):
    bad, message = _NOT_STATES[case]
    good = kraus_apply(initial_state(0.7), ChannelSpec(axis="x"), 0.3)
    stack = np.stack([good, good, bad, good])
    with pytest.raises(InvalidStateError, match=message) as stacked:
        validate_density_matrix(stack)
    with pytest.raises(InvalidStateError) as alone:
        validate_density_matrix(bad)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(InvalidStateError, match=message):
        oracle_values(stack, MEASURE_NAMES)
