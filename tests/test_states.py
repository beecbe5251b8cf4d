"""The one-parameter Bell-mixture family and its X-shaped matrix form."""
import math

import numpy as np
import pytest

from qcorr import states
from qcorr.states import (
    InvalidStateError,
    bloch_decompose,
    initial_state,
    make_params,
    state_from_json,
    state_to_json,
    validate_density_matrix,
    x_structure_defect,
)

PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def test_weights_sum_to_half_exactly():
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=50):
        p = make_params(float(theta))
        assert p.eta + p.xi == pytest.approx(0.5, abs=1e-15)
        assert p.eta == pytest.approx(math.sin(theta) ** 2 / 4.0, abs=1e-15)


def test_params_spot_values():
    p = make_params(math.pi / 3)
    assert math.isclose(p.eta, 3.0 / 16.0, abs_tol=1e-15)
    assert math.isclose(p.xi, 5.0 / 16.0, abs_tol=1e-15)
    p0 = make_params(0.0)
    assert p0.eta == 0.0 and p0.xi == 0.5


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        make_params(math.nan)
    with pytest.raises(ValueError):
        make_params(math.inf)
    # past half the largest float, 2 theta overflows inside cos(2 theta)
    for theta in (1e308, -1e308):
        with pytest.raises(ValueError, match=r"\|theta\| <= 8\.98846567431\d*e\+307"):
            make_params(theta)


def test_initial_state_is_bell_mixture():
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0.0, math.pi, size=20):
        p = make_params(float(theta))
        expected = 2.0 * p.xi * np.outer(PSI_MINUS, PSI_MINUS.conj()) + 2.0 * p.eta * np.outer(
            PHI_PLUS, PHI_PLUS.conj()
        )
        np.testing.assert_allclose(initial_state(p), expected, atol=1e-15)


_EDGE_THETAS = [0.0, 1e-300, 1e-155, math.pi / 8, math.pi / 2, math.pi - 1e-9, math.pi, -0.7]


def test_stacked_starts_equal_the_one_member_calls_byte_for_byte(monkeypatch):
    params = [make_params(theta) for theta in _EDGE_THETAS]
    shapes = []

    def counting(rho):
        shapes.append(np.shape(rho))
        return validate(rho)

    validate = states.validate_density_matrix
    monkeypatch.setattr(states, "validate_density_matrix", counting)
    stack = states._initial_states(params)
    assert shapes == [(len(params), 4, 4)]
    for p, rho in zip(params, stack):
        assert rho.tobytes() == initial_state(p).tobytes()
        # the sum of the two scaled projectors, as one state alone forms it
        alone = 2.0 * p.xi * np.outer(PSI_MINUS, PSI_MINUS.conj()) + 2.0 * p.eta * np.outer(
            PHI_PLUS, PHI_PLUS.conj())
        assert rho.tobytes() == alone.tobytes()


def test_initial_state_matrix_entries():
    p = make_params(math.pi / 4)
    rho = initial_state(p)
    np.testing.assert_allclose(np.diag(rho).real, [p.eta, p.xi, p.xi, p.eta], atol=1e-15)
    assert rho[0, 3] == pytest.approx(p.eta)
    assert rho[1, 2] == pytest.approx(-p.xi)
    assert x_structure_defect(rho) == 0.0


def test_initial_state_accepts_bare_angle():
    np.testing.assert_array_equal(initial_state(0.7), initial_state(make_params(0.7)))


def test_initial_state_at_theta_zero_is_the_singlet():
    np.testing.assert_allclose(initial_state(0.0), np.outer(PSI_MINUS, PSI_MINUS.conj()),
                               atol=1e-16)


def test_spectrum_and_marginals_across_the_range():
    for theta in np.linspace(0.01, math.pi - 0.01, 100):
        p = make_params(float(theta))
        rho = validate_density_matrix(initial_state(p))
        w = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(w, sorted([2 * p.xi, 2 * p.eta, 0.0, 0.0], reverse=True),
                                   atol=1e-12)
    # marginals are maximally mixed on both sides
    from qcorr.linalg import partial_trace

    rho = initial_state(1.234)
    np.testing.assert_allclose(partial_trace(rho, "A"), np.eye(2) / 2.0, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "B"), np.eye(2) / 2.0, atol=1e-12)


def test_theta_mirror_symmetry():
    for theta in (0.3, 1.0, 1.5):
        a = initial_state(make_params(theta))
        b = initial_state(make_params(math.pi - theta))
        assert np.abs(a - b).max() < 1e-15


def test_bloch_form_of_family():
    theta = 1.1
    p = make_params(theta)
    form = bloch_decompose(initial_state(p))
    q = 1.0 - 4.0 * p.eta
    np.testing.assert_allclose(form.x, 0.0, atol=1e-14)
    np.testing.assert_allclose(form.y, 0.0, atol=1e-14)
    np.testing.assert_allclose(form.T, np.diag([-q, -1.0, -q]), atol=1e-14)


def test_validate_rejects_bad_matrices():
    good = initial_state(1.0)
    with pytest.raises(InvalidStateError, match="trace"):
        validate_density_matrix(1.01 * good)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(InvalidStateError, match="Hermiticity"):
        validate_density_matrix(bad_herm)
    with pytest.raises(InvalidStateError, match="eigenvalue"):
        validate_density_matrix(np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex))
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.eye(3) / 3.0)


def test_validate_accepts_family_and_returns_array():
    rho = validate_density_matrix(initial_state(0.3).tolist())
    assert isinstance(rho, np.ndarray) and rho.dtype == complex


def test_x_structure_defect_flags_leakage():
    rho = initial_state(0.8)
    assert x_structure_defect(rho) == 0.0
    leaky = rho.copy()
    leaky[0, 1] = 1e-6
    assert x_structure_defect(leaky) == pytest.approx(1e-6)


def test_json_round_trip_is_exact():
    rho = initial_state(make_params(2.0))
    again = state_from_json(state_to_json(rho))
    np.testing.assert_array_equal(again, rho)
    # integer entries, flat or nested 4x4, are numbers too
    pure = np.zeros((4, 4))
    pure[0, 0] = 1.0
    for re, im in (([1] + [0] * 15, [0] * 16), (pure.astype(int).tolist(), [[0.0] * 4] * 4)):
        np.testing.assert_array_equal(state_from_json({"dim": 4, "re": re, "im": im}), pure)


def test_json_rejects_invalid_payload():
    payload = state_to_json(initial_state(1.0))
    payload["re"][0] += 0.2  # breaks the trace
    with pytest.raises(InvalidStateError):
        state_from_json(payload)


@pytest.mark.parametrize("payload", [
    {"dim": 4},
    {"dim": 4, "re": [0.0] * 16},
    [],
    None,
    {"dim": 4, "re": [{}] * 16, "im": [0.0] * 16},
    # a JSON integer too large for a float
    {"dim": 4, "re": [10**400] + [0.0] * 15, "im": [0.0] * 16},
    # booleans and strings, which a float conversion reads as |00><00| and 0.25
    {"dim": 4, "re": [True] + [0] * 15, "im": [0] * 16},
    {"dim": 4, "re": [0.25, 0, 0, 0, 0, "0.25"] + [0] * 10, "im": [0.0] * 16},
    {"dim": 4, "re": [[0.25, 0, 0, 0]] * 4, "im": [[False] * 4] * 4},
    {"dim": 4, "re": [None] * 16, "im": [0.0] * 16},
    # ragged lists, which NumPy refuses with a message that names no field
    {"dim": 4, "re": [[0.25] * 4] * 3 + [[0.25] * 3], "im": [[0.0] * 4] * 4},
    {"dim": 4, "re": [[0.25] * 4] * 4, "im": [[0.0] * 4] * 3 + [[0.0] * 5]},
])
def test_json_malformed_payload_raises_value_error(payload):
    with pytest.raises(ValueError, match="JSON object|'re' and 'im'|must hold numbers"):
        state_from_json(payload)
