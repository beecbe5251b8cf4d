"""Pauli noise on one qubit: Kraus map, closed matrices, Lindblad generator,
RK4 integrator."""
import math

import numpy as np
import pytest

from qcorr.channels import (
    MAX_RK4_STEPS,
    ChannelSpec,
    analytic_evolve,
    apply_pauli_channel,
    decay_factor,
    integrate_rk4,
    jump_operator,
    kraus_apply,
    lindblad_rhs,
    uncorrected_y_matrix,
)
from qcorr.states import initial_state, make_params, x_structure_defect

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
I2 = np.eye(2, dtype=complex)


def reference_mixture(rho, axis, gamma, t, qubit="B"):
    # hand-built two-operator Kraus mixture, kept independent of the package
    mu = math.exp(-2.0 * gamma * t)
    s = np.kron(PAULI[axis], I2) if qubit == "A" else np.kron(I2, PAULI[axis])
    return 0.5 * (1.0 + mu) * rho + 0.5 * (1.0 - mu) * (s @ rho @ s)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(axis="w")
    with pytest.raises(ValueError):
        ChannelSpec(axis="x", gamma=0.0)
    with pytest.raises(ValueError):
        ChannelSpec(axis="x", qubit="C")
    # both ends of the rate range keep 2 gamma, 1/gamma and the search horizon finite
    for gamma in (1e-300, 1e300):
        ch = ChannelSpec(axis="z", gamma=gamma)
        assert math.isfinite(2.0 * ch.gamma) and math.isfinite(51.0 / ch.gamma)
        assert decay_factor(ch, 0.0) == 1.0
    for gamma in (1e-320, 0.99e-300, 1.01e300, 1e308, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="gamma must be in"):
            ChannelSpec(axis="z", gamma=gamma)


def test_decay_factor():
    ch = ChannelSpec(axis="z", gamma=0.7)
    assert math.isclose(decay_factor(ch, 0.0), 1.0, abs_tol=1e-15)
    assert math.isclose(decay_factor(ch, 2.0), math.exp(-2.8), rel_tol=1e-15)
    with pytest.raises(ValueError):
        decay_factor(ch, -0.1)
    with pytest.raises(ValueError):
        decay_factor(ch, math.nan)
    assert decay_factor(ch, math.inf) == 0.0


def test_jump_operator_placement():
    for axis in "xyz":
        np.testing.assert_array_equal(
            jump_operator(ChannelSpec(axis=axis, qubit="B")), np.kron(I2, PAULI[axis])
        )
        np.testing.assert_array_equal(
            jump_operator(ChannelSpec(axis=axis, qubit="A")), np.kron(PAULI[axis], I2)
        )
        shared = jump_operator(ChannelSpec(axis=axis))
        assert jump_operator(ChannelSpec(axis=axis)) is shared
        assert not shared.flags.writeable


def test_apply_pauli_channel_limits():
    rho = initial_state(1.0)
    np.testing.assert_allclose(apply_pauli_channel(rho, "z", 1.0), rho, atol=1e-15)
    # mu = 0 kills the coherences the z axis is responsible for
    fully = apply_pauli_channel(rho, "z", 0.0)
    assert abs(fully[0, 3]) < 1e-15 and abs(fully[1, 2]) < 1e-15
    np.testing.assert_allclose(np.diag(fully), np.diag(rho), atol=1e-15)
    with pytest.raises(ValueError):
        apply_pauli_channel(rho, "z", 1.2)


def test_channel_is_unital_and_trace_preserving():
    rng = np.random.default_rng(23)
    mixed = np.eye(4, dtype=complex) / 4.0
    for axis in "xyz":
        np.testing.assert_allclose(apply_pauli_channel(mixed, axis, 0.4), mixed, atol=1e-16)
        rho = kraus_apply(initial_state(0.9), ChannelSpec(axis=axis), float(rng.uniform(0, 3)))
        assert math.isclose(np.trace(rho).real, 1.0, abs_tol=1e-13)


def test_kraus_apply_matches_reference_mixture():
    rng = np.random.default_rng(29)
    for _ in range(25):
        theta = float(rng.uniform(0.0, math.pi))
        t = float(rng.uniform(0.0, 3.0))
        gamma = float(rng.uniform(0.2, 2.0))
        axis = "xyz"[rng.integers(3)]
        rho = initial_state(theta)
        got = kraus_apply(rho, ChannelSpec(axis=axis, gamma=gamma), t)
        np.testing.assert_allclose(got, reference_mixture(rho, axis, gamma, t), atol=1e-15)


def test_kraus_apply_over_times_stacks_the_scalar_calls():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full_rank = a @ a.conj().T / np.trace(a @ a.conj().T).real
    times = [0.0, 1e-12, 0.3, 1.0, 7.5, 40.0, 1e3]
    for rho in (initial_state(0.9), full_rank):
        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, gamma=2.5, qubit=qubit)
                stacked = kraus_apply(rho, ch, times)
                assert stacked.shape == (len(times), 4, 4)
                want = np.array([kraus_apply(rho, ch, t) for t in times])
                assert stacked.tobytes() == want.tobytes()
                grid = kraus_apply(rho, ch, np.reshape(times[:6], (2, 3)))
                assert grid.tobytes() == want[:6].tobytes() and grid.shape == (2, 3, 4, 4)
    assert kraus_apply(full_rank, ChannelSpec("x"), 0.4).shape == (4, 4)
    # a stack of starts of shape S gives S + T + (4, 4), each start evolved
    # to the bytes of its one-state call
    starts = np.array([initial_state(0.9), full_rank, initial_state(2.4),
                       initial_state(1e-6), full_rank.conj(), initial_state(0.0)])
    ch = ChannelSpec(axis="y", gamma=2.5, qubit="A")
    for stack in (starts[:2], starts.reshape(2, 3, 4, 4)):
        for t in (times, np.reshape(times[:6], (2, 3)), 0.7):
            got = kraus_apply(stack, ch, t)
            assert got.shape == stack.shape[:-2] + np.shape(t) + (4, 4)
            want = np.array([kraus_apply(rho, ch, t) for rho in stack.reshape(-1, 4, 4)])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [-1e-3, math.nan, [0.5, -1.0], [math.nan]])
def test_kraus_apply_rejects_negative_or_nan_times(bad):
    with pytest.raises(ValueError):
        kraus_apply(initial_state(0.9), ChannelSpec(axis="z"), bad)


def test_noise_on_either_qubit_agrees_on_this_family():
    # the family is symmetric under swapping the qubits, so which one the
    # noise hits cannot matter
    p = make_params(1.2)
    rho = initial_state(p)
    for axis in "xyz":
        a = kraus_apply(rho, ChannelSpec(axis=axis, qubit="A"), 0.8)
        b = kraus_apply(rho, ChannelSpec(axis=axis, qubit="B"), 0.8)
        np.testing.assert_allclose(a, b, atol=1e-15)


def test_analytic_evolve_matches_kraus_everywhere():
    for theta in np.linspace(0.05, math.pi - 0.05, 9):
        p = make_params(float(theta))
        rho = initial_state(p)
        for axis in "xyz":
            ch = ChannelSpec(axis=axis)
            for t in (0.0, 0.3, 1.1, 2.7):
                np.testing.assert_allclose(
                    analytic_evolve(p, ch, t), kraus_apply(rho, ch, t), atol=1e-14
                )


def per_axis_matrix(params, channel, t):
    """The hand-written per-axis matrices analytic_evolve used to keep, one
    branch per axis, as an independent reference for the triple's matrix."""
    eta, xi = params.eta, params.xi
    mu = decay_factor(channel, t)
    lam = mu * (1.0 - 4.0 * eta)
    rho = np.zeros((4, 4), dtype=complex)
    if channel.axis == "x":
        rho[0, 0] = rho[3, 3] = (1.0 - lam) / 4.0
        rho[1, 1] = rho[2, 2] = (1.0 + lam) / 4.0
        rho[0, 3] = rho[3, 0] = (1.0 + mu - 4.0 * xi) / 4.0
        rho[1, 2] = rho[2, 1] = (1.0 - mu - 4.0 * xi) / 4.0
    elif channel.axis == "y":
        rho[0, 0] = rho[3, 3] = (1.0 - lam) / 4.0
        rho[1, 1] = rho[2, 2] = (1.0 + lam) / 4.0
        rho[0, 3] = rho[3, 0] = (1.0 - lam) / 4.0
        rho[1, 2] = rho[2, 1] = -(1.0 + lam) / 4.0
    else:
        rho[0, 0] = rho[3, 3] = eta
        rho[1, 1] = rho[2, 2] = xi
        rho[0, 3] = rho[3, 0] = eta * mu
        rho[1, 2] = rho[2, 1] = -xi * mu
    return rho


def test_triple_matrix_matches_the_per_axis_matrices():
    for theta in np.linspace(0.0, math.pi, 121).tolist():
        p = make_params(theta)
        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, qubit=qubit)
                for t in (0.0, 0.3, 3.0, math.inf):
                    err = np.abs(analytic_evolve(p, ch, t) - per_axis_matrix(p, ch, t)).max()
                    assert err <= 2e-16, (theta, axis, qubit, t)


def test_stacked_analytic_evolve_equals_the_per_point_calls():
    params = [make_params(theta) for theta in (0.0, 0.4, math.pi / 2, 2.2, math.pi)]
    times = (0.0, 0.3, 3.0, math.inf)
    for axis in "xyz":
        ch = ChannelSpec(axis=axis, gamma=1.3)
        stack = analytic_evolve(params, ch, times)
        assert stack.shape == (5, 4, 4, 4)
        for i, p in enumerate(params):
            np.testing.assert_array_equal(analytic_evolve(p, ch, times), stack[i])
            for j, t in enumerate(times):
                np.testing.assert_array_equal(analytic_evolve(p, ch, t), stack[i, j])
    assert analytic_evolve(params[1], ChannelSpec(axis="z"), 0.5).shape == (4, 4)


def test_x_structure_defect_of_a_stack_is_its_worst_member():
    rng = np.random.default_rng(59)
    stack = analytic_evolve([make_params(0.3), make_params(1.9)], ChannelSpec(axis="y"),
                            (0.0, 0.5, 2.0))
    leaky = stack + 1e-9 * rng.normal(size=stack.shape)
    members = leaky.reshape(-1, 4, 4)
    assert x_structure_defect(leaky) == max(x_structure_defect(rho) for rho in members)
    assert x_structure_defect(stack) == 0.0


def test_analytic_evolve_entries_spot_check():
    p = make_params(math.pi / 3)  # eta = 3/16, xi = 5/16, q = 1/4
    t = 0.7
    mu = math.exp(-1.4)
    lam = mu * 0.25
    rho_z = analytic_evolve(p, ChannelSpec(axis="z"), t)
    assert rho_z[0, 0].real == pytest.approx(3.0 / 16.0, abs=1e-15)
    assert rho_z[0, 3].real == pytest.approx(3.0 / 16.0 * mu, abs=1e-15)
    assert rho_z[1, 2].real == pytest.approx(-5.0 / 16.0 * mu, abs=1e-15)
    rho_x = analytic_evolve(p, ChannelSpec(axis="x"), t)
    assert rho_x[0, 0].real == pytest.approx((1.0 - lam) / 4.0, abs=1e-15)
    assert rho_x[0, 3].real == pytest.approx((1.0 + mu - 4.0 * 5.0 / 16.0) / 4.0, abs=1e-15)
    assert rho_x[1, 2].real == pytest.approx((1.0 - mu - 4.0 * 5.0 / 16.0) / 4.0, abs=1e-15)
    rho_y = analytic_evolve(p, ChannelSpec(axis="y"), t)
    assert rho_y[0, 3].real == pytest.approx((1.0 - lam) / 4.0, abs=1e-15)
    assert rho_y[1, 2].real == pytest.approx(-(1.0 + lam) / 4.0, abs=1e-15)
    np.testing.assert_allclose(rho_y, rho_y.conj().T, atol=1e-16)


def test_pure_y_conjugation_swaps_the_weights():
    # mu = -1 selects the bare sigma_y arm of the mixture
    p = make_params(1.0)
    rho = initial_state(p)
    swapped = apply_pauli_channel(rho, "y", -1.0)
    np.testing.assert_allclose(np.diag(swapped).real, [p.xi, p.eta, p.eta, p.xi], atol=1e-15)
    assert swapped[0, 3] == pytest.approx(p.xi)
    assert swapped[1, 2] == pytest.approx(-p.eta)


def test_analytic_z_at_one_third_decay():
    # mu = 1/3 at t = ln(3)/2: corners scale, diagonal frozen
    p = make_params(math.pi / 4)
    rho = analytic_evolve(p, ChannelSpec(axis="z"), math.log(3.0) / 2.0)
    np.testing.assert_allclose(np.diag(rho).real, [0.125, 0.375, 0.375, 0.125], atol=1e-15)
    assert rho[0, 3].real == pytest.approx(1.0 / 24.0, abs=1e-15)
    assert rho[1, 2].real == pytest.approx(-0.125, abs=1e-15)


def test_semigroup_composition():
    rho = initial_state(0.6)
    ch = ChannelSpec(axis="x", gamma=1.3)
    step = kraus_apply(kraus_apply(rho, ch, 0.4), ch, 0.9)
    np.testing.assert_allclose(step, kraus_apply(rho, ch, 1.3), atol=1e-14)


def test_lindblad_rhs_is_the_generator():
    # centered finite difference of the exact trajectory
    p = make_params(1.0)
    rho0 = initial_state(p)
    ch = ChannelSpec(axis="y", gamma=0.8)
    t, h = 0.9, 1e-5
    deriv = (kraus_apply(rho0, ch, t + h) - kraus_apply(rho0, ch, t - h)) / (2.0 * h)
    np.testing.assert_allclose(deriv, lindblad_rhs(kraus_apply(rho0, ch, t), ch), atol=1e-9)


def test_lindblad_rhs_spot_and_structure():
    # dephasing hits the singlet's coherences at rate -2: entry (2,3) moves
    # from -1/2 toward 0 at speed +1
    singlet = initial_state(0.0)
    rhs = lindblad_rhs(singlet, ChannelSpec(axis="z", gamma=1.0))
    assert rhs[1, 2].real == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(lindblad_rhs(np.eye(4, dtype=complex) / 4.0,
                                            ChannelSpec(axis="x")), 0.0, atol=1e-16)
    rng = np.random.default_rng(47)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = lindblad_rhs(rho, ChannelSpec(axis="xyz"[rng.integers(3)], gamma=1.7))
        assert abs(np.trace(out)) < 1e-13
        assert np.abs(out - out.conj().T).max() < 1e-13


def test_rk4_matches_exact_map():
    rho = initial_state(math.pi / 5)
    for axis in "xyz":
        ch = ChannelSpec(axis=axis)
        err = np.abs(integrate_rk4(rho, ch, 1.5, steps=600) - kraus_apply(rho, ch, 1.5)).max()
        assert err < 1e-8


def test_rk4_is_fourth_order():
    rho = initial_state(math.pi / 3)
    ch = ChannelSpec(axis="x")
    exact = kraus_apply(rho, ch, 1.0)
    e40 = np.abs(integrate_rk4(rho, ch, 1.0, steps=40) - exact).max()
    e80 = np.abs(integrate_rk4(rho, ch, 1.0, steps=80) - exact).max()
    assert math.log2(e40 / e80) == pytest.approx(4.0, abs=0.3)


def rk4_step_loop(rho0, channel, t, steps):
    """The four-stage RK4 loop on lindblad_rhs, one step at a time."""
    rho = np.asarray(rho0, dtype=complex).copy()
    h = t / steps
    for _ in range(steps):
        k1 = lindblad_rhs(rho, channel)
        k2 = lindblad_rhs(rho + (h / 2.0) * k1, channel)
        k3 = lindblad_rhs(rho + (h / 2.0) * k2, channel)
        k4 = lindblad_rhs(rho + h * k3, channel)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("steps", [1, 40, 80, 1000])
def test_rk4_propagator_matches_the_step_loop(steps):
    # one step may span at most gamma t = 1, so that case runs to t = 0.5
    t = 0.5 if steps == 1 else 3.0
    rng = np.random.default_rng(53)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full_rank = g @ g.conj().T / np.trace(g @ g.conj().T).real
    for rho in (initial_state(math.pi / 5), full_rank):
        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, gamma=1.3, qubit=qubit)
                want = rk4_step_loop(rho, ch, t, steps)
                assert np.abs(integrate_rk4(rho, ch, t, steps) - want).max() <= 1e-13


def rk4_per_basis(rho0, channel, t, steps):
    """integrate_rk4 with its generator built from 16 lindblad_rhs calls,
    one per basis matrix, as column k of A."""
    hA = (t / steps) * np.stack(
        [lindblad_rhs(basis, channel).ravel() for basis in np.eye(16).reshape(16, 4, 4)], axis=1)
    term = P = np.eye(16, dtype=complex)
    for k in range(1, 5):
        term = term @ hA / k
        P = P + term
    rho = (np.linalg.matrix_power(P, steps) @ np.asarray(rho0, dtype=complex).ravel()).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("gamma", [1.0, 0.37, 1e-3, 250.0])
def test_rk4_generator_from_one_stacked_call_keeps_the_bits(gamma):
    # the 16 basis matrices go through lindblad_rhs as one stack; the
    # propagator, and so the result, keeps the bytes of 16 separate calls
    rng = np.random.default_rng(59)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    full_rank = g @ g.conj().T / np.trace(g @ g.conj().T).real
    for rho in (initial_state(0.7), full_rank):
        for axis in "xyz":
            for qubit in "AB":
                ch = ChannelSpec(axis=axis, gamma=gamma, qubit=qubit)
                for t, steps in ((0.01, 3), (0.5, 7), (1.0, 1000)):
                    if steps >= gamma * t:
                        got = integrate_rk4(rho, ch, t, steps)
                        assert got.tobytes() == rk4_per_basis(rho, ch, t, steps).tobytes()


def test_rk4_argument_validation():
    rho = initial_state(1.0)
    ch = ChannelSpec(axis="x")
    with pytest.raises(ValueError):
        integrate_rk4(rho, ch, 1.0, steps=0)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_rk4(rho, ch, t, steps=10)
    # a step count that is not an integer, a bool among them, or lies past
    # the cap, at t = 0 too, where no step is taken (10**18 steps once
    # returned rho unchanged, and 10**400 raised OverflowError)
    for steps in (2.5, 10.0, math.inf, "10", None, True, MAX_RK4_STEPS + 1, 10**18, 10**400):
        for t in (0.0, 1.0):
            with pytest.raises(ValueError, match="integer"):
                integrate_rk4(rho, ch, t, steps=steps)
    out = integrate_rk4(rho, ch, 0.0, steps=5)
    np.testing.assert_array_equal(out, rho)
    assert out is not rho
    # NumPy's integers are integers
    np.testing.assert_array_equal(integrate_rk4(rho, ch, 1.0, steps=np.int64(40)),
                                  integrate_rk4(rho, ch, 1.0, steps=40))
    # at the cap rounding stays far below the --check tolerance of 1e-8
    rho, ch = initial_state(0.7), ChannelSpec(axis="z")
    at_cap = integrate_rk4(rho, ch, 1.0, MAX_RK4_STEPS)
    assert np.abs(at_cap - kraus_apply(rho, ch, 1.0)).max() <= 1e-11


def test_rk4_rejects_fewer_steps_than_gamma_t():
    # 2 gamma h = 200 is far past RK4's stability edge, where the propagator
    # power returns entries of order 1e77
    rho = initial_state(0.7)
    with pytest.raises(ValueError, match="gamma\\*t"):
        integrate_rk4(rho, ChannelSpec("x"), 1e3, 10)
    for t, steps in ((1e300, 1000), (4.0, 3), (5.0, 1)):
        with pytest.raises(ValueError):
            integrate_rk4(rho, ChannelSpec("x"), t, steps)
    # one decay time per step is the limit, and it is allowed
    assert np.isfinite(integrate_rk4(rho, ChannelSpec("x", gamma=2.0), 5.0, 10)).all()


def test_uncorrected_y_matrix_is_not_hermitian():
    p = make_params(math.pi / 4)
    ch = ChannelSpec(axis="y")
    bad = uncorrected_y_matrix(p, ch, 0.5)
    lam = decay_factor(ch, 0.5) * (1.0 - 4.0 * p.eta)
    defect = np.abs(bad - bad.conj().T).max()
    assert defect == pytest.approx(lam / 2.0, abs=1e-15)
    good = analytic_evolve(p, ch, 0.5)
    assert np.abs(good - good.conj().T).max() < 1e-16
    # the channel is used as given, so only a y channel is accepted
    for axis in "xz":
        with pytest.raises(ValueError, match="y axis"):
            uncorrected_y_matrix(p, ChannelSpec(axis=axis), 0.5)
    ch = ChannelSpec(axis="y", gamma=0.8, qubit="A")
    bad = uncorrected_y_matrix(p, ch, 0.5)
    good = analytic_evolve(p, ch, 0.5)
    assert bad[2, 1] != good[2, 1]
    bad[2, 1] = good[2, 1]
    np.testing.assert_array_equal(bad, good)
