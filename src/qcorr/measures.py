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

All entropies are base 2 (bits).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channels import ChannelSpec, analytic_evolve, decay_factor, evolution_point
from .linalg import (
    PAULI_Y,
    ZERO_EIGENVALUE_TOL,
    binary_entropy,
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


def concurrence_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form concurrence of the evolved family.

    No channel (or t = 0): 2(|xi| - |eta|).  Dephasing (z) and bit flip (x):
    2 max(0, mu xi - eta), which vanishes at finite time when mu xi = eta.
    The y axis gives lam = mu (1 - 4 eta) > 0 for eta < 1/4 — decay without a
    finite death.
    """
    eta, xi = params.eta, params.xi
    if channel is None or t == 0.0:
        value = 2.0 * (abs(xi) - abs(eta))
    else:
        point = evolution_point(channel, t, params)
        if channel.axis == "y":
            value = 0.5 * (abs(point.lam + 1.0) - abs(point.lam - 1.0))
        else:
            value = max(0.0, 2.0 * (point.mu * xi - eta))
    return MeasureResult(value=_finalize(value), method="closed_form")


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


def geometric_discord_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form geometric discord of the evolved family.

    q = 1 - 4 eta.  No channel: q^2/2.  x/z (one shared formula):
    (1/4)[q^2 + mu^2 (1 + q^2)] - (1/4) max(mu^2, q^2, mu^2 q^2).
    y: mu^2 q^2 / 2.
    """
    q = 1.0 - 4.0 * params.eta
    if channel is None or t == 0.0:
        value = 0.5 * q * q
    else:
        mu = decay_factor(channel, t)
        if channel.axis == "y":
            value = 0.5 * (mu * q) ** 2
        else:
            value = 0.25 * (q * q + mu * mu * (1.0 + q * q)) - 0.25 * max(
                mu * mu, q * q, mu * mu * q * q
            )
    return MeasureResult(value=_finalize(value), method="closed_form")


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


def closed_spectrum(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> np.ndarray:
    """Eigenvalues of the evolved family member, largest first.

    No channel: {2 xi, 2 eta, 0, 0}.  x/z: {xi(1+mu), xi(1-mu), eta(1+mu),
    eta(1-mu)}.  y: {(1+lam)/2, (1-lam)/2, 0, 0}.
    """
    eta, xi = params.eta, params.xi
    if channel is None or t == 0.0:
        w = [2.0 * xi, 2.0 * eta, 0.0, 0.0]
    else:
        point = evolution_point(channel, t, params)
        if channel.axis == "y":
            w = [(1.0 + point.lam) / 2.0, (1.0 - point.lam) / 2.0, 0.0, 0.0]
        else:
            mu = point.mu
            w = [xi * (1.0 + mu), xi * (1.0 - mu), eta * (1.0 + mu), eta * (1.0 - mu)]
    return np.sort(np.asarray(w))[::-1]


def _spectrum_entropy(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def mutual_information_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """2 - S(rho(t)) for the family (both marginals stay maximally mixed)."""
    value = 2.0 - _spectrum_entropy(closed_spectrum(params, channel, t))
    return MeasureResult(value=_finalize(value), method="closed_form")


def optimal_entropy_bound(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> tuple[float, float]:
    """Closed-form (phi, SC) for the family: the dominant correlation
    magnitude phi and the optimal conditional entropy h((1+phi)/2).

    phi = max(q, mu, mu q) for x/z with q = 1 - 4 eta; the y channel and the
    initial state keep a full-strength correlation (phi = 1, SC = 0).
    """
    q = 1.0 - 4.0 * params.eta
    if channel is None or t == 0.0:
        phi = 1.0
    elif channel.axis == "y":
        phi = 1.0
    else:
        mu = decay_factor(channel, t)
        phi = max(q, mu, mu * q)
    return phi, binary_entropy((1.0 + phi) / 2.0)


def classical_correlation_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """1 - SC for the family (the unmeasured marginal is maximally mixed)."""
    _, sc = optimal_entropy_bound(params, channel, t)
    return MeasureResult(value=_finalize(1.0 - sc), method="closed_form")


def quantum_discord_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form discord 1 - S(rho(t)) + SC for the evolved family."""
    s = _spectrum_entropy(closed_spectrum(params, channel, t))
    _, sc = optimal_entropy_bound(params, channel, t)
    return MeasureResult(value=_finalize(1.0 - s + sc), method="closed_form")


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
