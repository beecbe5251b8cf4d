"""Dense complex matrix kernel: Pauli constants, tensor products, partial
traces, Hermitian eigendecomposition, and entropies (base 2)."""
from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "PAULI_BASIS",
    "dag",
    "tensor",
    "partial_trace",
    "pauli_coefficients",
    "is_hermitian",
    "hermitian_eigen",
    "clamp_spectrum",
    "von_neumann_entropy",
    "binary_entropy",
]

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

# sigma_i (x) sigma_j for i, j in (I, x, y, z), stored at index 4 i + j
PAULI_BASIS = np.array([np.kron(a, b) for a in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
                        for b in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)])
PAULI_BASIS.setflags(write=False)

# Eigenvalues this close to zero are treated as exact zeros (the state family
# is rank-deficient by construction, so dust of this size is always noise).
ZERO_EIGENVALUE_TOL = 1e-12


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit (2x2) operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(f"tensor expects two 2x2 operators, got {a.shape} and {b.shape}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    Parameters
    ----------
    rho : (4, 4) array
        Two-qubit operator in the computational product basis.
    keep : {"A", "B"}
        Which qubit's reduced operator to return.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got shape {rho.shape}")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    return np.einsum("abad->bd", r)


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 array R with R[i, j] = Re tr(rho sigma_i (x) sigma_j), where
    sigma_0 = I; for a density matrix R[0, 0] = 1, R[1:, 0] and R[0, 1:] are
    the local Bloch vectors of A and B, and R[1:, 1:] is the correlation
    matrix."""
    return np.einsum("kij,ji->k", PAULI_BASIS, rho).real.reshape(4, 4)


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.abs(m - dag(m)).max() <= tol)


def hermitian_eigen(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with w[0] >= w[1] >= ... and V[:, i] the unit eigenvector
    for w[i]; V is unitary and sum(w) equals trace(m) to rounding.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hermitian_eigen expects a square matrix, got shape {m.shape}")
    if not is_hermitian(m, tol):
        raise ValueError(f"matrix is not Hermitian within {tol}")
    w, V = np.linalg.eigh(m)
    return w[::-1], V[:, ::-1]


def clamp_spectrum(w: np.ndarray, tol: float = ZERO_EIGENVALUE_TOL) -> np.ndarray:
    """Zero out eigenvalues within tol of zero."""
    w = np.asarray(w, dtype=float).copy()
    w[np.abs(w) <= tol] = 0.0
    return w


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(w log2 w) of a density matrix, in bits.

    Eigenvalues within 1e-12 of zero are clamped to zero first; an eigenvalue
    below -1e-10 means the input is not a state and raises.
    """
    w, _ = hermitian_eigen(rho)
    if w.min() < -1e-10:
        raise ValueError(f"negative eigenvalue {w.min():.3e} — not a density matrix")
    w = clamp_spectrum(w)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def binary_entropy(p: float) -> float:
    """Entropy of a (p, 1-p) distribution, in bits.

    Arguments within 1e-12 outside [0, 1] are treated as the nearest
    endpoint; anything further out is rejected.
    """
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    p = min(1.0, max(0.0, p))
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))
