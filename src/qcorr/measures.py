"""Correlation measures: concurrence, geometric discord, mutual information,
classical correlation, and quantum discord.

Every measure comes in two mutually checking flavors: a general numerical
oracle that works on any two-qubit density matrix, and a closed form for the
one-parameter family evolved under the Pauli channels.  The discord oracle
minimizes the post-measurement conditional entropy over all rank-one
projective measurements on one side, using a deterministic Fibonacci-sphere
grid followed by coordinate-descent refinement; there is no randomness
anywhere, so repeated runs agree bit for bit on one platform.

The conditional entropy is evaluated in Bloch form, which holds for any
two-qubit state: with rho = (1/4)(I + a.sigma x I + I x b.sigma +
sum_ij T_ij sigma_i x sigma_j), measuring A along the unit vector n gives
outcome +-1 with probability p = (1 +- a.n)/2 and leaves B with the Bloch
vector r = (b +- T^T n)/(2p), whose entropy is h((1 + |r|)/2).  Measuring B
swaps a and b and uses T in place of T^T.

The closed forms use that every evolved family member is Bell-diagonal:
a = b = 0 and T = diag(c) with c = (-q, -1, -q), q = 1 - 4 eta, and a Pauli
channel on either qubit multiplies the two components of c orthogonal to
its axis by mu = exp(-2 gamma t).  With the Bell weights w = (1 + s.c)/4
(s = (-1,-1,-1), (1,-1,1), (-1,1,1), (1,1,-1) for psi-, phi+, phi-, psi+):

    concurrence            max(0, 2 max w - 1)            (Wootters)
    geometric discord      (sum c_i^2 - max c_i^2)/4      (Dakic-Vedral-Brukner)
    mutual information     2 - H(w)
    classical correlation  1 - h((1 + max |c_i|)/2)       (Luo)
    quantum discord        mutual information - classical correlation

The two entropies are evaluated as sum_k w_k log2(4 w_k) and
[(1+phi) log2(1+phi) + (1-phi) log2(1-phi)]/2 with phi = max |c_i|, through
log1p, so a discord that is small because every |c_i| is small keeps its
relative accuracy.  One array-valued core (closed_values) evaluates all of
them over whole (theta, t) grids; the per-measure *_closed functions are
scalar wrappers around it.

All entropies are base 2 (bits).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import ChannelSpec, decay_factor, evolution_point
from .linalg import (
    PAULI_Y,
    ZERO_EIGENVALUE_TOL,
    clamp_spectrum,
    dag,
    hermitian_eigen,
    partial_trace,
    pauli_coefficients,
    von_neumann_entropy,
)
from .states import InvalidStateError, StateParams, bloch_decompose, validate_density_matrix

__all__ = [
    "MeasureResult",
    "MAX_GRID_POINTS",
    "OptimizerSettings",
    "OptimizerDiagnostics",
    "wootters_score",
    "concurrence",
    "concurrence_closed",
    "uncorrected_x_concurrence",
    "geometric_discord",
    "geometric_discord_closed",
    "mutual_information",
    "mutual_information_closed",
    "optimal_conditional_entropy",
    "optimal_entropy_bound",
    "classical_correlation",
    "classical_correlation_closed",
    "quantum_discord",
    "quantum_discord_closed",
    "quantum_discord_xz_expanded",
    "quantum_discord_y_expanded",
    "closed_spectrum",
    "MEASURE_NAMES",
    "closed_values",
    "oracle_values",
]

_SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)
_SIDE_NAMES = ("A", "B")


@dataclass(frozen=True)
class MeasureResult:
    """A measure value plus how it was obtained."""

    value: float
    method: str  # "closed_form" or "oracle"
    optimizer: Optional["OptimizerDiagnostics"] = None


MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the measurement-sphere search; bad values raise ValueError."""

    grid_points: int = 1024
    final_tolerance: float = 1e-7
    max_passes: int = 60

    def __post_init__(self) -> None:
        if not 32 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be in [32, {MAX_GRID_POINTS}], got {self.grid_points}"
            )
        if not self.final_tolerance >= 0.0:
            raise ValueError(f"final_tolerance must be >= 0, got {self.final_tolerance}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


@dataclass(frozen=True)
class OptimizerDiagnostics:
    """Where the sphere search ended up and how hard it worked.

    evaluations counts objective evaluations (grid plus line searches);
    final_window is the half-width in radians of the last pass's line
    searches."""

    best_direction: tuple[float, float, float]
    grid_points: int
    refinement_iterations: int
    final_tolerance: float
    evaluations: int
    final_window: float


def _finalize(value: float) -> float:
    """Clamp negative dust to zero; anything decisively negative is a bug."""
    if value < -1e-9:
        raise InvalidStateError(f"measure evaluated to {value:.3e}, below the -1e-9 floor")
    return 0.0 if value < 0.0 else float(value)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def _spin_flip(rho: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) — entrywise complex
    conjugate in the computational basis, not the adjoint."""
    return _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP


def wootters_score(rho: np.ndarray) -> float:
    """Signed spin-flip score chi1 - chi2 - chi3 - chi4 (before clamping at 0).

    The chi_i are the descending square roots of the eigenvalues of
    rho @ spin_flip(rho), computed through the Hermitian form
    sqrt(rho) @ spin_flip(rho) @ sqrt(rho) whenever rho is Hermitian PSD, with
    a general-eigenvalue fallback otherwise.  Eigenvalues within 1e-12 of zero
    are treated as exact zeros before the square root; the family's states
    always carry such structural zeros, and taking sqrt of their dust would
    cost eight orders of magnitude of accuracy.
    """
    rho = validate_density_matrix(rho)
    flipped = _spin_flip(rho)
    w, V = hermitian_eigen(rho)
    if w.min() >= -ZERO_EIGENVALUE_TOL:
        sqrt_rho = (V * np.sqrt(np.clip(w, 0.0, None))) @ dag(V)
        ev = np.linalg.eigvalsh(sqrt_rho @ flipped @ sqrt_rho)
    else:
        ev = np.linalg.eigvals(rho @ flipped).real
        ev = np.where((ev < 0.0) & (ev >= -1e-10), 0.0, ev)
    ev = clamp_spectrum(ev)
    chi = np.sqrt(np.clip(ev, 0.0, None))
    chi = np.sort(chi)[::-1]
    return float(chi[0] - chi[1] - chi[2] - chi[3])


def concurrence(rho: np.ndarray) -> MeasureResult:
    """Spin-flip concurrence max(0, chi1 - chi2 - chi3 - chi4) in [0, 1]."""
    return MeasureResult(value=_finalize(max(0.0, wootters_score(rho))), method="oracle")


def uncorrected_x_concurrence(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Known-faulty closed-form variant of the bit-flip concurrence, kept only
    for the discrepancy report: (1/2)[mu + lam + 4(8 xi^2 - 3 xi + 1)].  It
    evaluates to 4 at theta = 0, t = 0, so it cannot be a concurrence; the
    verify suite reports its deviation from the spin-flip oracle."""
    if channel.axis != "x":
        raise ValueError("the uncorrected variant is specific to the x axis")
    point = evolution_point(channel, t, params)
    xi = params.xi
    return 0.5 * (point.mu + point.lam + 4.0 * (8.0 * xi * xi - 3.0 * xi + 1.0))


# ---------------------------------------------------------------------------
# geometric discord
# ---------------------------------------------------------------------------

def geometric_discord(rho: np.ndarray) -> MeasureResult:
    """Hilbert-Schmidt geometric discord from Bloch data.

    DG = (1/4)(|y|^2 + |T|^2 - k) with k the largest eigenvalue of
    y y^T + T^T T; bounded by 1/2 for two qubits.
    """
    form = bloch_decompose(rho)
    y, T = form.y, form.T
    k = float(np.linalg.eigvalsh(np.outer(y, y) + T.T @ T)[-1])
    value = 0.25 * (float(y @ y) + float(np.sum(T * T)) - k)
    return MeasureResult(value=_finalize(value), method="oracle")


# ---------------------------------------------------------------------------
# entropic measures
# ---------------------------------------------------------------------------

def mutual_information(rho: np.ndarray) -> MeasureResult:
    """I = S(A) + S(B) - S(AB) in bits."""
    rho = validate_density_matrix(rho)
    value = (
        von_neumann_entropy(partial_trace(rho, "A"))
        + von_neumann_entropy(partial_trace(rho, "B"))
        - von_neumann_entropy(rho)
    )
    return MeasureResult(value=_finalize(value), method="oracle")


def quantum_discord_xz_expanded(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Literal hyperbolic-scalar form of the x/z discord, retained to verify
    it is algebraically identical to the entropy pipeline.

    With nu = sqrt(mu) cosh(gamma t) = (1+mu)/2 and
    vt = sqrt(mu) sinh(gamma t) = (1-mu)/2:

        D = -1 + sum_{u in {nu, vt}} u/ln16 [ln((8u)^4 xi^3 eta)
            + (8 xi - 3) ln(xi/eta)] + SC.

    Requires eta > 0 (the logarithm ratio degenerates at theta = 0); the
    vt = 0 term at t = 0 contributes zero by the x log x convention.
    """
    if channel.axis not in ("x", "z"):
        raise ValueError("the expanded form covers the x and z axes only")
    eta, xi = params.eta, params.xi
    if eta <= 0.0:
        raise ValueError("the expanded form requires eta > 0")
    mu = decay_factor(channel, t)
    nu = (1.0 + mu) / 2.0
    vt = (1.0 - mu) / 2.0
    ln16 = math.log(16.0)
    log_ratio = math.log(xi / eta)

    def term(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return u / ln16 * (math.log((8.0 * u) ** 4 * xi**3 * eta) + (8.0 * xi - 3.0) * log_ratio)

    _, sc = optimal_entropy_bound(params, channel, t)
    return -1.0 + term(nu) + term(vt) + sc


def quantum_discord_y_expanded(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Literal log-ratio form of the y-axis discord,

        D = 2/ln16 [lam ln((1+lam)/(1-lam)) + ln((1+lam)(1-lam))],

    retained to verify it matches the entropy pipeline (it equals
    1 - h((1+lam)/2) identically for lam in [0, 1))."""
    if channel.axis != "y":
        raise ValueError("the log-ratio form covers the y axis only")
    lam = evolution_point(channel, t, params).lam
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"the log-ratio form requires lam in [0, 1), got {lam}")
    ln16 = math.log(16.0)
    if lam == 0.0:
        return 0.0
    return 2.0 / ln16 * (
        lam * math.log((1.0 + lam) / (1.0 - lam)) + math.log((1.0 + lam) * (1.0 - lam))
    )


# ---------------------------------------------------------------------------
# closed forms on the correlation triple
# ---------------------------------------------------------------------------

# the components of c that a Pauli channel along each axis scales by mu
_ORTHOGONAL = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


def _correlation_triple(
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
    if isinstance(params, StateParams):
        eta = np.array(params.eta)
    else:
        eta = np.array([p.eta for p in params], dtype=float)
    q = 1.0 - 4.0 * eta
    times = np.asarray(t, dtype=float)
    c = np.empty(q.shape + times.shape + (3,))
    c[...] = -q.reshape(q.shape + (1,) * (times.ndim + 1))
    c[..., 1] = -1.0
    if channel is not None:
        mu = np.array([decay_factor(channel, x) for x in times.ravel().tolist()])
        mu = mu.reshape(times.shape)
        for k in _ORTHOGONAL[channel.axis]:
            c[..., k] *= mu
    return c


# Bell-state sign patterns s, one row each for |psi->, |phi+>, |phi->, |psi+>
_BELL_SIGNS = np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])


def _bell_projections(c: np.ndarray) -> np.ndarray:
    """x = s.c for each Bell state along a new last axis; its weight is
    w = (1 + x)/4."""
    return (c[..., None, :] * _BELL_SIGNS).sum(axis=-1)


def _one_plus_x_log2(x: np.ndarray) -> np.ndarray:
    """(1 + x) log2(1 + x) elementwise, 0 where 1 + x <= 0.

    Both entropic measures are sums of this term whose parts linear in x
    cancel, so log1p keeps them accurate when every |x| is small.
    """
    x = np.where(x > -1.0, x, 0.0)
    return (1.0 + x) * np.log1p(x) / math.log(2.0)


def _mutual_information_triple(c: np.ndarray) -> np.ndarray:
    # 2 - H(w) = sum w log2(4 w)
    return 0.25 * _one_plus_x_log2(_bell_projections(c)).sum(axis=-1)


def _classical_correlation_triple(c: np.ndarray) -> np.ndarray:
    # 1 - h((1 + phi)/2) = [(1 + phi) log2(1 + phi) + (1 - phi) log2(1 - phi)]/2
    phi = np.abs(c).max(axis=-1)
    return 0.5 * (_one_plus_x_log2(phi) + _one_plus_x_log2(-phi))


_TRIPLE_MEASURES = {
    # 2 max w - 1 = (max x - 1)/2
    "concurrence": lambda c: np.maximum(0.5 * (_bell_projections(c).max(axis=-1) - 1.0), 0.0),
    # the two smaller squares: sum c^2 - max c^2 without the cancellation
    "geometric_discord": lambda c: 0.25 * np.sort(c * c, axis=-1)[..., :2].sum(axis=-1),
    "quantum_discord": lambda c: _mutual_information_triple(c) - _classical_correlation_triple(c),
    "mutual_information": _mutual_information_triple,
    "classical_correlation": _classical_correlation_triple,
}

MEASURE_NAMES: tuple[str, ...] = tuple(_TRIPLE_MEASURES)


def _finalize_array(values: np.ndarray) -> np.ndarray:
    """_finalize elementwise."""
    low = values < -1e-9
    if low.any():
        raise InvalidStateError(
            f"measure evaluated to {values[low].min():.3e}, below the -1e-9 floor"
        )
    return np.where(values < 0.0, 0.0, values)


def closed_values(
    params: StateParams | Sequence[StateParams],
    channel: ChannelSpec | None = None,
    t: float | Sequence[float] = 0.0,
    names: Sequence[str] = MEASURE_NAMES,
) -> dict[str, np.ndarray]:
    """Closed-form value of each named measure for every family member in
    params evolved to every time in t, as arrays of shape P + T (see
    _correlation_triple).  The counterpart of oracle_values."""
    for name in names:
        if name not in _TRIPLE_MEASURES:
            raise ValueError(f"unknown measure {name!r}; choose from {sorted(MEASURE_NAMES)}")
    c = _correlation_triple(params, channel, t)
    return {name: _finalize_array(_TRIPLE_MEASURES[name](c)) for name in names}


def _closed_result(
    name: str, params: StateParams, channel: ChannelSpec | None, t: float
) -> MeasureResult:
    value = closed_values(params, channel, t, (name,))[name]
    return MeasureResult(value=float(value), method="closed_form")


def concurrence_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form concurrence max(0, 2 max w - 1) of the evolved family.

    Under x or z noise it vanishes at finite time, when mu xi = eta; under y
    noise it decays as mu (1 - 4 eta) without a finite death.
    """
    return _closed_result("concurrence", params, channel, t)


def geometric_discord_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form geometric discord (sum c^2 - max c^2)/4 of the evolved family."""
    return _closed_result("geometric_discord", params, channel, t)


def mutual_information_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """2 - H(w) for the family (both marginals stay maximally mixed)."""
    return _closed_result("mutual_information", params, channel, t)


def classical_correlation_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """1 - h((1 + max |c_i|)/2) for the family (the unmeasured marginal is
    maximally mixed)."""
    return _closed_result("classical_correlation", params, channel, t)


def quantum_discord_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form discord: mutual information minus classical correlation."""
    return _closed_result("quantum_discord", params, channel, t)


def closed_spectrum(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> np.ndarray:
    """Eigenvalues of the evolved family member (the Bell weights), largest first."""
    w = 0.25 * (1.0 + _bell_projections(_correlation_triple(params, channel, t)))
    return np.sort(w, axis=-1)[..., ::-1]


def optimal_entropy_bound(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> tuple[float, float]:
    """Closed-form (phi, SC) for the family: the dominant correlation
    magnitude phi = max |c_i| and the optimal conditional entropy
    h((1+phi)/2)."""
    c = _correlation_triple(params, channel, t)
    return float(np.abs(c).max(axis=-1)), float(1.0 - _classical_correlation_triple(c))


# ---------------------------------------------------------------------------
# measurement-sphere optimizer
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly equidistributed unit vectors (read-only)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * i / golden
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dirs.setflags(write=False)
    return dirs


def _side_bloch(rho: np.ndarray, measured_side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) with a the measured qubit's Bloch vector, b the unmeasured
    one's, and T the correlation matrix indexed [measured, unmeasured]."""
    r = pauli_coefficients(rho)
    if measured_side == "A":
        return r[1:, 0], r[0, 1:], r[1:, 1:]
    return r[0, 1:], r[1:, 0], r[1:, 1:].T


def _bloch_entropy(radius: np.ndarray) -> np.ndarray:
    """Entropies (bits) of qubit states with Bloch vectors of length radius."""
    w = 0.5 * (1.0 + np.stack([-radius, radius]))
    keep = w > ZERO_EIGENVALUE_TOL
    return np.where(keep, -w * np.log2(np.where(keep, w, 1.0)), 0.0).sum(axis=0)


def _conditional_entropy_batch(
    a: np.ndarray, b: np.ndarray, T: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured qubit for every
    measurement direction n in dirs (shape (k, 3)), from _side_bloch data."""
    an = dirs @ a
    tn = dirs @ T
    total = np.zeros(dirs.shape[0])
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * an)
        live = p > 1e-14
        radius = np.linalg.norm(b + sign * tn, axis=1) / (2.0 * np.where(live, p, 1.0))
        total += np.where(live, p * _bloch_entropy(radius), 0.0)
    return total


def _conditional_entropy_scalar(a: list, b: list, T: list, n: tuple) -> float:
    """_conditional_entropy_batch for one direction in scalar arithmetic; a, b
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


def _direction(theta_s: float, phi_s: float) -> tuple[float, float, float]:
    st = math.sin(theta_s)
    return (st * math.cos(phi_s), st * math.sin(phi_s), math.cos(theta_s))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, angle_tol: float = 1e-6) -> tuple[float, float]:
    """Minimize a smooth scalar function on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > angle_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def optimal_conditional_entropy(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """Minimum over rank-one projective measurements of the average
    conditional entropy of the unmeasured qubit.

    The projectors are (I +- n.sigma)/2 for a unit direction n.  A
    deterministic Fibonacci-sphere grid (settings.grid_points directions)
    seeds a coordinate descent in the spherical angles of n, each coordinate
    refined by golden-section line search, until one full pass improves the
    entropy by less than settings.final_tolerance.  An outcome with
    probability below 1e-14 contributes zero.  Ties on the grid resolve to
    the lexicographically smallest direction, keeping the result unique.
    """
    if measured_side not in _SIDE_NAMES:
        raise ValueError(f"measured_side must be 'A' or 'B', got {measured_side!r}")
    settings = settings or OptimizerSettings()
    a, b, T = _side_bloch(validate_density_matrix(rho), measured_side)

    dirs = _fibonacci_sphere(settings.grid_points)
    values = _conditional_entropy_batch(a, b, T, dirs)
    best_value = float(values.min())
    ties = dirs[values == best_value]
    best_dir = min(map(tuple, ties))

    theta_s = math.acos(max(-1.0, min(1.0, best_dir[2])))
    phi_s = math.atan2(best_dir[1], best_dir[0])

    a_f, b_f, T_f = a.tolist(), b.tolist(), T.tolist()
    evaluations = settings.grid_points

    def objective(th: float, ph: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _conditional_entropy_scalar(a_f, b_f, T_f, _direction(th, ph))

    window = 2.0 * 3.6 / math.sqrt(settings.grid_points)
    iterations = 0
    for _ in range(settings.max_passes):
        previous = best_value
        theta_s, best_value = _golden_section(
            lambda th: objective(th, phi_s), theta_s - window, theta_s + window
        )
        phi_s, best_value = _golden_section(
            lambda ph: objective(theta_s, ph), phi_s - window, phi_s + window
        )
        iterations += 1
        final_window = window
        window = max(window * 0.25, 1e-5)
        if previous - best_value < settings.final_tolerance:
            break

    diag = OptimizerDiagnostics(
        best_direction=_direction(theta_s, phi_s),
        grid_points=settings.grid_points,
        refinement_iterations=iterations,
        final_tolerance=settings.final_tolerance,
        evaluations=evaluations,
        final_window=final_window,
    )
    return MeasureResult(value=_finalize(best_value), method="oracle", optimizer=diag)


def _classical_from(rho: np.ndarray, measured_side: str, sc: MeasureResult) -> MeasureResult:
    other = "B" if measured_side == "A" else "A"
    s_other = von_neumann_entropy(partial_trace(rho, other))
    value = s_other - sc.value
    return MeasureResult(value=_finalize(value), method="oracle", optimizer=sc.optimizer)


def _discord_from(rho: np.ndarray, measured_side: str, sc: MeasureResult) -> MeasureResult:
    s_measured = von_neumann_entropy(partial_trace(rho, measured_side))
    value = s_measured - von_neumann_entropy(rho) + sc.value
    return MeasureResult(value=_finalize(value), method="oracle", optimizer=sc.optimizer)


def classical_correlation(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """CC = S(unmeasured marginal) - min conditional entropy."""
    rho = validate_density_matrix(rho)
    sc = optimal_conditional_entropy(rho, measured_side, settings)
    return _classical_from(rho, measured_side, sc)


def quantum_discord(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """D = S(measured marginal) - S(rho) + min conditional entropy.

    Identical to I - CC by construction (the two share the optimizer value);
    the mutual-information route is exercised by the tests.
    """
    rho = validate_density_matrix(rho)
    sc = optimal_conditional_entropy(rho, measured_side, settings)
    return _discord_from(rho, measured_side, sc)


# looked up at call time, so wrappers installed on this module see every call
_DIRECT_ORACLES = {
    "concurrence": lambda rho: concurrence(rho),
    "geometric_discord": lambda rho: geometric_discord(rho),
    "mutual_information": lambda rho: mutual_information(rho),
}
_OPTIMIZER_ORACLES = {
    "quantum_discord": _discord_from,
    "classical_correlation": _classical_from,
}


def oracle_values(
    rho: np.ndarray, names: Sequence[str], settings: OptimizerSettings | None = None
) -> dict[str, float]:
    """Oracle value of each named measure on one state, qubit A measured.

    quantum_discord and classical_correlation share one optimizer run, so
    each gets the value its own function would return.
    """
    rho = validate_density_matrix(rho)
    sc: MeasureResult | None = None
    values: dict[str, float] = {}
    for name in names:
        if name in _OPTIMIZER_ORACLES:
            if sc is None:
                sc = optimal_conditional_entropy(rho, "A", settings)
            values[name] = _OPTIMIZER_ORACLES[name](rho, "A", sc).value
        elif name in _DIRECT_ORACLES:
            values[name] = _DIRECT_ORACLES[name](rho).value
        else:
            raise ValueError(f"unknown measure {name!r}")
    return values
