"""Kernel checks: tensor products, partial traces, eigensolver wrapper,
entropies."""
import math

import numpy as np
import pytest

from qcorr.linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    dag,
    hermitian_eigen,
    partial_trace,
    spectrum_entropy,
    tensor,
    von_neumann_entropy,
)


def random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_pauli_algebra():
    for s in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(s @ s, PAULI_I, atol=1e-15)
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z, atol=1e-15)


def test_dag_is_conjugate_transpose():
    m = np.array([[1.0, 2.0 + 1j], [3.0 - 2j, 4.0]])
    np.testing.assert_array_equal(dag(m), m.conj().T)


def test_tensor_matches_kron():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(tensor(a, b), np.kron(a, b), atol=1e-15)


def test_tensor_rejects_wrong_shape():
    with pytest.raises(ValueError):
        tensor(np.eye(3), np.eye(2))


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        ab = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(ab, "A"), a, atol=1e-14)
        np.testing.assert_allclose(partial_trace(ab, "B"), b, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(13)
    rho = random_density(rng)
    for keep in ("A", "B"):
        assert math.isclose(np.trace(partial_trace(rho, keep)).real, 1.0, abs_tol=1e-13)


def test_partial_trace_bad_args():
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), "A")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), "C")


def test_hermitian_eigen_reconstructs():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.conj().T
        w, v = hermitian_eigen(m)
        assert all(w[i] >= w[i + 1] for i in range(3))  # descending
        np.testing.assert_allclose((v * w) @ dag(v), m, atol=1e-12)
        assert math.isclose(w.sum(), np.trace(m).real, abs_tol=1e-10)
        np.testing.assert_allclose(dag(v) @ v, np.eye(4), atol=1e-10)


def test_hermitian_eigen_of_rank_two_mixture():
    from qcorr.states import initial_state

    w, _ = hermitian_eigen(initial_state(math.pi / 4))
    np.testing.assert_allclose(w, [0.75, 0.25, 0.0, 0.0], atol=1e-14)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_entropy_known_values():
    assert math.isclose(von_neumann_entropy(np.eye(4) / 4.0), 2.0, abs_tol=1e-13)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    # rank-2 diagonal: entropy is the binary entropy of the split
    rho = np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex)
    assert math.isclose(von_neumann_entropy(rho), 0.8112781244591328, abs_tol=1e-14)


def test_entropy_rejects_decisively_negative():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex))


def test_entropy_tolerates_negative_dust():
    rho = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)
    assert math.isclose(von_neumann_entropy(rho), 0.0, abs_tol=1e-8)


def test_entropy_is_additive_on_product_states():
    rng = np.random.default_rng(43)
    for _ in range(8):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        total = von_neumann_entropy(np.kron(a, b))
        assert math.isclose(
            total, von_neumann_entropy(a) + von_neumann_entropy(b), abs_tol=1e-10
        )


def test_spectrum_entropy_drops_dust_and_sums_along_its_axis():
    # entries at or below 1e-12 count as zeros; 1e-11 still contributes
    w = np.array([[0.5, 0.5, 1e-13, -1e-13], [1.0 - 1e-11, 1e-11, 0.0, 0.0]])
    h = spectrum_entropy(w)
    assert h[0] == 1.0
    big, small = 1.0 - 1e-11, 1e-11
    assert h[1] == pytest.approx(-big * math.log2(big) - small * math.log2(small), rel=1e-12)
    np.testing.assert_array_equal(spectrum_entropy(w.T, axis=0), h)


def test_spectrum_entropy_of_stacked_spectra_matches_the_checked_route():
    rng = np.random.default_rng(23)
    states = np.array([random_density(rng) for _ in range(6)])
    w = np.linalg.eigh(states)[0][:, ::-1]
    for got, rho in zip(spectrum_entropy(w), states):
        assert got == pytest.approx(von_neumann_entropy(rho), abs=1e-14)
