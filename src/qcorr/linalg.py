"""Dense complex matrix kernel: Pauli constants, tensor products, partial
traces, Hermitian eigendecomposition, and entropies (base 2).

spectrum_entropy is the one entropy kernel: the stacked oracles in measures
feed it the eigenvalues of whole stacks of states and marginals, and the
two-outcome spectra of the discord optimizer; von_neumann_entropy is its
checked face for one matrix."""
from __future__ import annotations

import numpy as np

__all__ = [
    "QUBITS",
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
    "hermitian_eigen",
    "spectrum_entropy",
    "von_neumann_entropy",
]

# the two tensor factors, in order: the first is qubit A, the second qubit B
QUBITS = ("A", "B")

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
    rho : (..., 4, 4) array
        Two-qubit operator in the computational product basis, or a stack of
        them.
    keep : {"A", "B"}
        Which qubit's reduced operator to return.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got shape {rho.shape}")
    if keep not in QUBITS:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    return np.einsum("...abad->...bd", r)


# sigma_i (x) sigma_j has one nonzero entry per row r, at column
# _PAULI_COLUMNS[k, r] with value _PAULI_ENTRIES[k, r] in {+-1, +-i}
_PAULI_COLUMNS = np.abs(PAULI_BASIS).argmax(axis=2)
_PAULI_ENTRIES = np.take_along_axis(PAULI_BASIS, _PAULI_COLUMNS[..., None], axis=2)[..., 0]


def pauli_coefficients(rho: np.ndarray) -> np.ndarray:
    """Real 4x4 array R with R[i, j] = Re tr(rho sigma_i (x) sigma_j), where
    sigma_0 = I; for a density matrix R[0, 0] = 1, R[1:, 0] and R[0, 1:] are
    the local Bloch vectors of A and B, and R[1:, 1:] is the correlation
    matrix.  A stack of shape (..., 4, 4) gives one R per member.

    Each trace is the sum of the four products sigma[r, c] rho[c, r], added
    in row order, so a state's R does not depend on the stack around it."""
    rho = np.asarray(rho, dtype=complex)
    terms = rho[..., _PAULI_COLUMNS, np.arange(4)] * _PAULI_ENTRIES
    return terms.real.sum(axis=-1).reshape(rho.shape[:-2] + (4, 4))


def hermitian_eigen(m: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with w[0] >= w[1] >= ... and V[:, i] the unit eigenvector
    for w[i]; V is unitary and sum(w) equals trace(m) to rounding.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"hermitian_eigen expects a square matrix, got shape {m.shape}")
    if not np.abs(m - dag(m)).max() <= tol:
        raise ValueError(f"matrix is not Hermitian within {tol}")
    w, V = np.linalg.eigh(m)
    return w[::-1], V[:, ::-1]


def spectrum_entropy(w: np.ndarray, axis: int = -1) -> np.ndarray:
    """Entropy -sum(w log2 w) in bits of each spectrum laid out along axis.

    Entries at or below 1e-12 count as exact zeros.  The terms are added in
    the order given, so callers pass eigenvalues largest first."""
    keep = w > ZERO_EIGENVALUE_TOL
    return np.where(keep, -w * np.log2(np.where(keep, w, 1.0)), 0.0).sum(axis=axis)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy of one density matrix, in bits.

    The matrix must be Hermitian within 1e-10, and an eigenvalue below
    -1e-10 means the input is not a state and raises; eigenvalues within
    1e-12 of zero count as exact zeros.
    """
    w, _ = hermitian_eigen(rho)
    if w.min() < -1e-10:
        raise ValueError(f"negative eigenvalue {w.min():.3e} — not a density matrix")
    return float(spectrum_entropy(w))
