"""Single-qubit Pauli-Lindblad channels and the three mutually checking
evolution paths: the closed evolution rule, Kraus application, fixed-step RK4.

The jump operator is a bare Pauli on one qubit (default B) with H = 0, so the
master equation collapses to drho/dt = gamma (L rho L - rho) and the exact
solution is the two-element Kraus mixture with weights (1 +- mu)/2, where
mu = exp(-2 gamma t).

Every evolved family member is Bell-diagonal, (I + sum_k c_k sigma_k x
sigma_k)/4, and family_triple holds the one closed evolution rule for c:
analytic_evolve is its matrix and the closed measures read it; the Kraus and
RK4 routes share nothing with it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import PAULI_I, PAULIS, QUBITS, dag, tensor
from .states import StateParams, validate_density_matrix

__all__ = [
    "AXES",
    "ChannelSpec",
    "decay_factor",
    "jump_operator",
    "lindblad_rhs",
    "apply_pauli_channel",
    "kraus_apply",
    "family_triple",
    "analytic_evolve",
    "uncorrected_y_matrix",
    "integrate_rk4",
    "MAX_RK4_STEPS",
]

AXES = tuple(PAULIS)
# rates this far inside the float range keep 2 gamma, 1/gamma and 51/gamma finite
_GAMMA_MIN, _GAMMA_MAX = 1e-300, 1e300
# most steps integrate_rk4 takes; past it rounding, not the step, sets the error
MAX_RK4_STEPS = 1_000_000


@dataclass(frozen=True)
class ChannelSpec:
    """Noise axis and coupling rate; `qubit` selects which tensor factor the
    jump operator acts on (default B, the second factor)."""

    axis: str
    gamma: float = 1.0
    qubit: str = "B"

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not _GAMMA_MIN <= self.gamma <= _GAMMA_MAX:
            raise ValueError(
                f"gamma must be in [{_GAMMA_MIN:g}, {_GAMMA_MAX:g}], got {self.gamma}")
        if self.qubit not in QUBITS:
            raise ValueError(f"qubit must be 'A' or 'B', got {self.qubit!r}")


def decay_factor(channel: ChannelSpec, t: float) -> float:
    """exp(-2 gamma t), the single scalar all closed forms depend on.

    t = inf gives the mu = 0 limit; a negative or NaN t raises ValueError."""
    if not t >= 0.0:
        raise ValueError(f"t must be non-negative, got {t}")
    return math.exp(-2.0 * channel.gamma * t)


def _decay_factors(channel: ChannelSpec, t: np.ndarray) -> np.ndarray:
    """decay_factor at every time in t, in the shape of t."""
    return np.array([decay_factor(channel, x) for x in t.ravel().tolist()]).reshape(t.shape)


_JUMP_OPERATORS = {
    (axis, qubit): tensor(PAULIS[axis], PAULI_I) if qubit == "A" else tensor(PAULI_I, PAULIS[axis])
    for axis in AXES
    for qubit in QUBITS
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
    It takes mu directly, with no rate or time (kraus_apply at t = inf gives
    the same mu = 0 limit bit for bit); verify's fixed-point check uses it.
    """
    if not -1.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [-1, 1], got {mu}")
    return _mix(rho, jump_operator(ChannelSpec(axis=axis, qubit=qubit)), np.asarray(mu))


def _mix(rho: np.ndarray, L: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(1+mu)/2 rho + (1-mu)/2 L rho L† for every start in rho (shape
    S + (4, 4)) and every mu: shape S + mu.shape + (4, 4).  L rho L† is
    formed once per start, on the stack as given, and only then do the
    time axes go in."""
    rho = np.asarray(rho, dtype=complex)
    flipped = L @ rho @ dag(L)
    at = rho.shape[:-2] + (1,) * mu.ndim + rho.shape[-2:]
    p_plus = ((1.0 + mu) / 2.0)[..., None, None]
    p_minus = ((1.0 - mu) / 2.0)[..., None, None]
    return p_plus * rho.reshape(at) + p_minus * flipped.reshape(at)


def kraus_apply(
    rho: np.ndarray, channel: ChannelSpec, t: float | Sequence[float]
) -> np.ndarray:
    """Exact channel action via the two-element Kraus mixture, for every
    start in rho at every time in t: shape S + T + (4, 4) for starts of
    shape S + (4, 4) and times of shape T (a single 4x4 for one start and
    a scalar t).  L rho L† is formed once per start for all times, and
    each (start, time) gives exactly the state a one-state scalar call
    gives.  A negative or NaN time raises ValueError."""
    return _mix(rho, jump_operator(channel), _decay_factors(channel, np.asarray(t, dtype=float)))


# the components of c that a Pauli channel along each axis scales by mu
_ORTHOGONAL = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


def family_triple(
    params: StateParams | Sequence[StateParams],
    channel: ChannelSpec | None = None,
    t: float | Sequence[float] = 0.0,
) -> np.ndarray:
    """c = (c1, c2, c3) with T = diag(c) for every evolved family member.

    The initial state has c = (-q, -1, -q) with q = 1 - 4 eta.  A Pauli
    channel on either qubit multiplies the two components orthogonal to its
    axis by mu = exp(-2 gamma t); no channel leaves c as it is.  The result
    has shape P + T + (3,), where P and T are the shapes of params and t
    (empty for a single StateParams or a scalar time).
    """
    single = isinstance(params, StateParams)
    q = np.array(params.q if single else [p.q for p in params], dtype=float)
    times = np.asarray(t, dtype=float)
    c = np.empty(q.shape + times.shape + (3,))
    c[...] = -q.reshape(q.shape + (1,) * (times.ndim + 1))
    c[..., 1] = -1.0
    if channel is not None:
        mu = _decay_factors(channel, times)
        for k in _ORTHOGONAL[channel.axis]:
            c[..., k] *= mu
    return c


def analytic_evolve(
    params: StateParams | Sequence[StateParams],
    channel: ChannelSpec,
    t: float | Sequence[float],
) -> np.ndarray:
    """(I + sum_k c_k sigma_k x sigma_k)/4 for c = family_triple(params,
    channel, t): shape P + T + (4, 4), validated as one stack, and entrywise
    identical (to rounding) to kraus_apply(initial_state(params)) with the
    noise on either qubit, since the family is symmetric under the swap."""
    c1, c2, c3 = np.moveaxis(family_triple(params, channel, t), -1, 0)
    rho = np.zeros(c1.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = (1.0 + c3) / 4.0
    rho[..., 1, 1] = rho[..., 2, 2] = (1.0 - c3) / 4.0
    rho[..., 0, 3] = rho[..., 3, 0] = (c1 - c2) / 4.0
    rho[..., 1, 2] = rho[..., 2, 1] = (c1 + c2) / 4.0
    return validate_density_matrix(rho.reshape(-1, 4, 4)).reshape(rho.shape)


def uncorrected_y_matrix(params: StateParams, channel: ChannelSpec, t: float) -> np.ndarray:
    """Known-inconsistent variant of the y-axis evolved matrix, kept only for
    the discrepancy report: its (3,2) entry is -(1-lam)/4 instead of the
    Hermitian partner -(1+lam)/4, so it fails Hermiticity by |lam|/2 for t > 0
    and does not reduce to the initial state at t = 0."""
    if channel.axis != "y":
        raise ValueError("the uncorrected variant is specific to the y axis")
    lam = decay_factor(channel, t) * params.q
    rho = analytic_evolve(params, channel, t)
    rho[2, 1] = -(1.0 - lam) / 4.0
    return rho


def integrate_rk4(rho0: np.ndarray, channel: ChannelSpec, t: float, steps: int) -> np.ndarray:
    """Classical fixed-step fourth-order Runge-Kutta on lindblad_rhs.

    lindblad_rhs is linear, rho' = A rho with A the 16x16 matrix of its
    action on the basis matrices, taken from one lindblad_rhs call on the
    stack of all 16, so one RK4 step of size h is the fixed
    propagator P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24; it is built
    once and raised to the power steps by repeated squaring (at most
    2 log2(steps) 16x16 products), and P^steps is applied to rho once.
    The output is re-Hermitized by (M + M†)/2 at the end.  With 1000 steps
    over gamma t <= 3 the result matches the exact Kraus map within 1e-8
    entrywise (in practice far better).

    A negative, infinite or NaN t raises ValueError, and so does a step
    count that is not an integer (NumPy's integers are, a bool is not), is
    below gamma t, or lies outside [1, MAX_RK4_STEPS].  Below gamma t the
    decaying modes' one-step factor leaves [-1, 1] once 2 gamma h passes
    about 2.785, and the result diverges.  Above the cap rounding takes
    over: P's entries near 1 carry a relative error of about 1e-16 each,
    which the power multiplies by the step count.  With theta = 0.7, z
    noise and t = 1 the result is 1.9e-12 off the exact map at 10**6 steps
    (2e-11 with x noise), 1.1e-2 at 10**16, and at 10**18 hA vanishes
    beside I, so rho0 comes back unchanged.
    """
    if isinstance(steps, bool) or not (
            isinstance(steps, numbers.Integral) and 1 <= steps <= MAX_RK4_STEPS):
        raise ValueError(f"steps must be an integer in [1, {MAX_RK4_STEPS}], got {steps!r}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")
    if not steps >= channel.gamma * t:
        raise ValueError(f"steps must be >= gamma*t = {channel.gamma * t:g}, got {steps}")
    rho = np.asarray(rho0, dtype=complex).copy()
    if t == 0:
        return rho
    # column k of A is lindblad_rhs of basis matrix k
    hA = (t / steps) * lindblad_rhs(np.eye(16).reshape(16, 4, 4), channel).reshape(16, 16).T
    term = P = np.eye(16, dtype=complex)
    for k in range(1, 5):
        term = term @ hA / k
        P = P + term
    rho = (np.linalg.matrix_power(P, steps) @ rho.ravel()).reshape(4, 4)
    return (rho + dag(rho)) / 2.0
