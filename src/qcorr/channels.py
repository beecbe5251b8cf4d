"""Single-qubit Pauli-Lindblad channels and the three mutually checking
evolution paths: closed-form matrices, Kraus application, fixed-step RK4.

The jump operator is a bare Pauli on one qubit (default B) with H = 0, so the
master equation collapses to drho/dt = gamma (L rho L - rho) and the exact
solution is the two-element Kraus mixture with weights (1 +- mu)/2, where
mu = exp(-2 gamma t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_I, PAULIS, dag, tensor
from .states import StateParams, validate_density_matrix

__all__ = [
    "ChannelSpec",
    "decay_factor",
    "jump_operator",
    "lindblad_rhs",
    "apply_pauli_channel",
    "kraus_apply",
    "analytic_evolve",
    "uncorrected_y_matrix",
    "integrate_rk4",
]

_AXES = ("x", "y", "z")
_QUBITS = ("A", "B")


@dataclass(frozen=True)
class ChannelSpec:
    """Noise axis and coupling rate; `qubit` selects which tensor factor the
    jump operator acts on (default B, the second factor)."""

    axis: str
    gamma: float = 1.0
    qubit: str = "B"

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.qubit not in _QUBITS:
            raise ValueError(f"qubit must be 'A' or 'B', got {self.qubit!r}")


def decay_factor(channel: ChannelSpec, t: float) -> float:
    """exp(-2 gamma t), the single scalar all closed forms depend on.

    t = inf gives the mu = 0 limit; a negative or NaN t raises ValueError."""
    if not t >= 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    return math.exp(-2.0 * channel.gamma * t)


_JUMP_OPERATORS = {
    (axis, qubit): tensor(PAULIS[axis], PAULI_I) if qubit == "A" else tensor(PAULI_I, PAULIS[axis])
    for axis in _AXES
    for qubit in _QUBITS
}
for _op in _JUMP_OPERATORS.values():
    _op.setflags(write=False)


def jump_operator(channel: ChannelSpec) -> np.ndarray:
    """The 4x4 jump operator: sigma on the selected qubit, identity elsewhere
    (a shared read-only array)."""
    return _JUMP_OPERATORS[(channel.axis, channel.qubit)]


def lindblad_rhs(rho: np.ndarray, channel: ChannelSpec) -> np.ndarray:
    """gamma (L rho L† - rho); traceless and Hermitian for Hermitian input.

    The anticommutator term of the general dissipator is absorbed because
    L†L = I for a Pauli jump operator.
    """
    rho = np.asarray(rho, dtype=complex)
    L = jump_operator(channel)
    return channel.gamma * (L @ rho @ dag(L) - rho)


def apply_pauli_channel(rho: np.ndarray, axis: str, mu: float, qubit: str = "B") -> np.ndarray:
    """Apply the channel at a given decay scalar mu = exp(-2 gamma t).

    rho(t) = (1+mu)/2 rho + (1-mu)/2 (sigma-on-qubit) rho (sigma-on-qubit).
    Exposed separately from kraus_apply so that the mu -> 0 limit (t -> inf)
    is reachable directly.
    """
    if not -1.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [-1, 1], got {mu}")
    rho = np.asarray(rho, dtype=complex)
    L = jump_operator(ChannelSpec(axis=axis, qubit=qubit))
    p_plus = (1.0 + mu) / 2.0
    p_minus = (1.0 - mu) / 2.0
    return p_plus * rho + p_minus * (L @ rho @ dag(L))


def kraus_apply(rho: np.ndarray, channel: ChannelSpec, t: float) -> np.ndarray:
    """Exact channel action at time t via the two-element Kraus mixture."""
    mu = decay_factor(channel, t)
    return apply_pauli_channel(rho, channel.axis, mu, channel.qubit)


def analytic_evolve(params: StateParams, channel: ChannelSpec, t: float) -> np.ndarray:
    """Closed-form evolved matrix of the initial family member.

    Entrywise identical (to rounding) to kraus_apply(initial_state(params)).
    The family is invariant under swapping the two qubits, so the A/B qubit
    choice does not change the result here.
    """
    eta, xi = params.eta, params.xi
    mu = decay_factor(channel, t)
    lam = mu * (1.0 - 4.0 * eta)
    rho = np.zeros((4, 4), dtype=complex)
    if channel.axis == "x":
        d_out, d_in = (1.0 - lam) / 4.0, (1.0 + lam) / 4.0
        rho[0, 0] = rho[3, 3] = d_out
        rho[1, 1] = rho[2, 2] = d_in
        rho[0, 3] = rho[3, 0] = (1.0 + mu - 4.0 * xi) / 4.0
        rho[1, 2] = rho[2, 1] = (1.0 - mu - 4.0 * xi) / 4.0
    elif channel.axis == "y":
        d_out, d_in = (1.0 - lam) / 4.0, (1.0 + lam) / 4.0
        rho[0, 0] = rho[3, 3] = d_out
        rho[1, 1] = rho[2, 2] = d_in
        rho[0, 3] = rho[3, 0] = (1.0 - lam) / 4.0
        rho[1, 2] = rho[2, 1] = -(1.0 + lam) / 4.0
    else:
        rho[0, 0] = rho[3, 3] = eta
        rho[1, 1] = rho[2, 2] = xi
        rho[0, 3] = rho[3, 0] = eta * mu
        rho[1, 2] = rho[2, 1] = -xi * mu
    return validate_density_matrix(rho)


def uncorrected_y_matrix(params: StateParams, channel: ChannelSpec, t: float) -> np.ndarray:
    """Known-inconsistent variant of the y-axis evolved matrix, kept only for
    the discrepancy report: its (3,2) entry is -(1-lam)/4 instead of the
    Hermitian partner -(1+lam)/4, so it fails Hermiticity by |lam|/2 for t > 0
    and does not reduce to the initial state at t = 0."""
    lam = decay_factor(channel, t) * (1.0 - 4.0 * params.eta)
    rho = analytic_evolve(params, ChannelSpec("y", channel.gamma, channel.qubit), t)
    rho = rho.copy()
    rho[2, 1] = -(1.0 - lam) / 4.0
    return rho


def integrate_rk4(rho0: np.ndarray, channel: ChannelSpec, t: float, steps: int) -> np.ndarray:
    """Classical fixed-step fourth-order Runge-Kutta on lindblad_rhs.

    lindblad_rhs is linear, rho' = A rho with A the 16x16 matrix of its
    action on the basis matrices, so one RK4 step of size h is the fixed
    propagator P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24; it is built
    once and applied steps times.  The output is re-Hermitized by
    (M + M†)/2 at the end.  With 1000 steps over gamma t <= 3 the result
    matches the exact Kraus map within 1e-8 entrywise (in practice far
    better).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    rho = np.asarray(rho0, dtype=complex).copy()
    if t == 0:
        return rho
    hA = (t / steps) * np.stack(
        [lindblad_rhs(basis, channel).ravel() for basis in np.eye(16).reshape(16, 4, 4)], axis=1
    )
    term = P = np.eye(16, dtype=complex)
    for k in range(1, 5):
        term = term @ hA / k
        P = P + term
    v = rho.ravel()
    for _ in range(steps):
        v = P @ v
    rho = v.reshape(4, 4)
    return (rho + dag(rho)) / 2.0
