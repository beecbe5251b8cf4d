"""Initial two-qubit state family, density-matrix validation, Bloch form,
and JSON interchange.

The family is the one-parameter Bell mixture

    rho(0; theta) = 2*xi |psi-><psi-| + 2*eta |phi+><phi+|,

with eta = sin^2(theta)/4 and xi = (3 + cos 2*theta)/8, so eta + xi = 1/2
exactly.  It is an X state with maximally mixed marginals for every theta.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .linalg import pauli_coefficients

__all__ = [
    "StateParams",
    "make_params",
    "initial_state",
    "BlochForm",
    "bloch_decompose",
    "InvalidStateError",
    "validate_density_matrix",
    "x_structure_defect",
    "state_to_json",
    "state_from_json",
]

# the largest |theta| for which cos(2 theta) has a finite argument
_THETA_MAX = sys.float_info.max / 2.0
_BELL_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
_BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


class InvalidStateError(ValueError):
    """A matrix claimed to be a density matrix fails validation."""


@dataclass(frozen=True)
class StateParams:
    """Angle and the two derived mixture weights (eta + xi = 1/2)."""

    theta: float
    eta: float
    xi: float


def make_params(theta: float) -> StateParams:
    """Build StateParams from an angle in radians.

    Any angle with |theta| <= 8.99e307 (half the largest float, so that
    2*theta is finite) is accepted; NaN, infinities and larger angles raise
    ValueError.  eta and xi depend on theta only through sin^2 and
    cos 2*theta, so theta and pi - theta label the same state.
    """
    theta = float(theta)
    if not abs(theta) <= _THETA_MAX:
        raise ValueError(
            f"theta must be finite with |theta| <= {_THETA_MAX!r}, got {theta}")
    eta = math.sin(theta) ** 2 / 4.0
    xi = (3.0 + math.cos(2.0 * theta)) / 8.0
    return StateParams(theta=theta, eta=eta, xi=xi)


def initial_state(params: StateParams | float) -> np.ndarray:
    """Density matrix of the initial family member."""
    if not isinstance(params, StateParams):
        params = make_params(params)
    rho = 2.0 * params.xi * np.outer(_BELL_PSI_MINUS, _BELL_PSI_MINUS.conj()) + \
        2.0 * params.eta * np.outer(_BELL_PHI_PLUS, _BELL_PHI_PLUS.conj())
    return validate_density_matrix(rho)


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors x (qubit A), y (qubit B) and correlation matrix T."""

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Extract x_i = tr(rho sigma_i x I), y_i = tr(rho I x sigma_i),
    t_ij = tr(rho sigma_i x sigma_j)."""
    r = pauli_coefficients(validate_density_matrix(rho))
    return BlochForm(x=r[1:, 0], y=r[0, 1:], T=r[1:, 1:])


_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
# tolerates integrator-sized dust on the family's exact zero eigenvalues
_EIG_FLOOR = -1e-10


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check trace one, Hermiticity, and positivity; return rho as complex array.

    rho is one 4x4 matrix or an (n, 4, 4) stack, checked as a whole.  Raises
    InvalidStateError with a description of the first violated property;
    for a stack, the message is the one the first member violating it would
    raise on its own.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvalidStateError("density matrix contains non-finite entries")
    defect = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    if (defect > _TRACE_TOL).any():
        raise InvalidStateError(f"trace deviates from 1 by {_first(defect > _TRACE_TOL, defect):.3e}")
    herm = np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max(axis=(-2, -1))
    if (herm > _HERM_TOL).any():
        raise InvalidStateError(
            f"Hermiticity defect {_first(herm > _HERM_TOL, herm):.3e} exceeds {_HERM_TOL}"
        )
    low = np.linalg.eigvalsh(rho)[..., 0]
    if (low < _EIG_FLOOR).any():
        raise InvalidStateError(
            f"negative eigenvalue {_first(low < _EIG_FLOOR, low):.3e} below floor {_EIG_FLOOR}"
        )
    return rho


def _first(bad: np.ndarray, values: np.ndarray) -> float:
    """The value of the first flagged member (values may be 0-d)."""
    return float(values.ravel()[np.flatnonzero(bad)[0]])


# the eight entries an X state keeps at zero
_NON_X = ~np.eye(4, dtype=bool) & ~np.eye(4, dtype=bool)[::-1]


def x_structure_defect(rho: np.ndarray) -> float:
    """Largest magnitude among the eight entries an X state must keep at
    zero, over one 4x4 matrix or any stack of them."""
    return float(np.abs(np.asarray(rho)[..., _NON_X]).max())


def state_to_json(rho: np.ndarray) -> dict:
    """Row-major split-real serialization: {"dim": 4, "re": [...], "im": [...]}."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return {
        "dim": 4,
        "re": [float(v) for v in rho.real.ravel()],
        "im": [float(v) for v in rho.imag.ravel()],
    }


def state_from_json(data: dict) -> np.ndarray:
    """Inverse of state_to_json (validates the result as a density matrix).
    Any malformed payload raises ValueError."""
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    dim = data.get("dim")
    if dim != 4:
        raise ValueError(f"expected dim 4, got {dim!r}")
    if "re" not in data or "im" not in data:
        raise ValueError("payload needs both 're' and 'im' entries")
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"re and im must hold numbers: {exc}") from None
    if re.size != 16 or im.size != 16:
        raise ValueError("re and im must each hold 16 entries")
    rho = (re + 1j * im).reshape(4, 4)
    return validate_density_matrix(rho)
