"""Correlation measures: concurrence, geometric discord, mutual information,
classical correlation, and quantum discord.

Every measure comes in two mutually checking flavors: a general numerical
oracle that works on any two-qubit density matrix, and a closed form for the
one-parameter family evolved under the Pauli channels.  The discord oracle
minimizes the post-measurement conditional entropy over all rank-one
projective measurements on one side by a compass search on the sphere.  It
starts from the best of the z > 0 half of a deterministic Fibonacci-sphere
grid (n and -n are one measurement) and the three left singular vectors of
the correlation matrix T; nothing is random, so runs agree bit for bit on one
platform.

The conditional entropy is evaluated in Bloch form, which holds for any
two-qubit state: with rho = (1/4)(I + a.sigma x I + I x b.sigma +
sum_ij T_ij sigma_i x sigma_j), measuring A along the unit vector n gives
outcome +-1 with probability p = (1 +- a.n)/2 and leaves B with the Bloch
vector r = (b +- T^T n)/(2p), whose entropy is h((1 + |r|)/2).  Measuring B
swaps a and b and uses T in place of T^T.

Every oracle kernel works on an (n, 4, 4) stack of validated states; the
public one-state functions run the same kernels with n = 1.  The optimizer
evaluates its grid in blocks of (state, direction) pairs and its seeds from
one batched SVD, then refines all states in rounds: each round evaluates
eight compass points in the tangent plane for every state whose search is
still running, as one array of those states alone, and each state keeps its
own step, stopping rule and tie-breaks, and its tangent basis until it
moves.  Diagnostics are built only for a one-state result that reports them.
Every kernel adds its terms in an order that does not depend on the stack,
so a state's values are bit for bit the same alone or inside any stack.

The closed forms read the Bell-diagonal triple c of channels.family_triple,
the one closed evolution rule (T = diag(c), a = b = 0).  With the Bell
weights w = (1 + s.c)/4 (s = (-1,-1,-1), (1,-1,1), (-1,1,1), (1,1,-1) for
psi-, phi+, phi-, psi+) and k = argmax |c_i|:

    concurrence            max(0, 2 max w - 1)            (Wootters)
    geometric discord      (sum c_i^2 - max c_i^2)/4      (Dakic-Vedral-Brukner)
    mutual information     2 - H(w)
    classical correlation  1 - h((1 + |c_k|)/2)           (Luo)
    quantum discord        sum_{sigma=+-1} r F(delta/r)   (Luo)

The discord is the relative entropy between the weights and their pair means
along axis k: r = (1 + sigma c_k)/4 and delta = (c_i - sigma c_j)/4 for the
other two axes, with F(x) = (1+x) log2(1+x) + (1-x) log2(1-x).  It equals
mutual information minus classical correlation without their cancellation,
so it keeps its relative accuracy where it is far smaller than either.  One
triple -> values entry (_triple_values) evaluates all of them on any stack
of triples; closed_values runs it on whole (theta, t) grids of the family,
and the per-measure *_closed functions are scalar wrappers.

The concurrence, geometric discord, mutual information and classical
correlation kernels work elementwise on c1, c2, c3 and reduce over no short
last axis, which costs NumPy a loop per point.  Mutual information writes
out its four Bell projections s.c as (s1 c1 + s2 c2) + s3 c3 and adds its
four terms in Bell-state order.  The concurrence's max x is the larger of
|c1 + c2| - c3 and |c1 - c2| + c3, since the four projections are
+-(c1 + c2) - c3 and +-(c1 - c2) + c3; classical correlation takes max |c_k|
as an elementwise maximum; the geometric discord is a quarter of the least
of the three pairwise sums of squares.  Rounding is monotone and odd, so
each of these has the bits of the reduction it replaces.  The discord still
gathers its pair matrix per point (_PAIRS).  The optimizer's inner loop
does the same: the conditional entropy sums the squares of the three
components of each outcome's Bloch vector as x1 x1 + x2 x2 + x3 x3, and the
compass normalises its tangent vectors and points with the same sum
(_norm).  NumPy adds fewer than eight terms in order, so each radius and
length keeps the bits of the sum over a last axis it replaces.

All entropies are base 2 (bits).  The oracles take every von Neumann and
post-measurement entropy from linalg.spectrum_entropy, the one entropy
kernel; the closed forms need none, since their entropies are log1p and
atanh sums, accurate when every |c_i| is small.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .channels import ChannelSpec, decay_factor, family_triple
from .linalg import PAULI_Y, QUBITS, partial_trace, pauli_coefficients, spectrum_entropy
from .states import InvalidStateError, StateParams, validate_density_matrix

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
    "optimal_conditional_entropy",
    "classical_correlation",
    "quantum_discord",
    "quantum_discord_closed",
    "quantum_discord_xz_expanded",
    "quantum_discord_y_expanded",
    "MEASURE_NAMES",
    "PAPER_MEASURES",
    "closed_values",
    "oracle_values",
]

_SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class MeasureResult:
    """A measure value plus how it was obtained."""

    value: float
    method: str  # "closed_form" or "oracle"
    optimizer: Optional["OptimizerDiagnostics"] = None


MAX_GRID_POINTS = 2**20
# compass rounds after which the sphere search stops regardless
_MAX_ROUNDS = 400
# rounds after which a successful compass move doubles the step, up to
# _MAX_STEP rad
_GROW_AFTER = 40
_MAX_STEP = 1.0
# conditional entropies within this of zero read zero to rounding; on 2,000
# random pure states, whose every direction is zero, the largest |value| was
# 6.4e-16, about 2.9 eps
_ZERO_BAND = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class OptimizerSettings:
    """Knobs for the measurement-sphere search; bad values raise ValueError.

    grid_points sizes the Fibonacci-sphere grid whose z > 0 half, with the
    three singular vectors of T, seeds the compass search, from 32 to
    MAX_GRID_POINTS.  The default 64 (32 grid directions) is the smallest
    size that, with the next size down, finds the best minimum within 1e-12
    on random states of ranks 1-4, rotated Bell-diagonal states away from
    degeneracy and the family near its sudden change, with no run at the
    round cap, even from the grid alone.  final_tolerance is the step, in
    radians, at or below which the search stops."""

    grid_points: int = 64
    final_tolerance: float = 1e-7

    def __post_init__(self) -> None:
        # numbers.Integral and numbers.Real hold NumPy's integers and floats
        # too, and keep out non-integral sizes, strings and None
        points, tolerance = self.grid_points, self.final_tolerance
        if not (isinstance(points, numbers.Integral) and 32 <= points <= MAX_GRID_POINTS):
            raise ValueError(
                f"grid_points must be an integer in [32, {MAX_GRID_POINTS}], got {points!r}")
        if not (isinstance(tolerance, numbers.Real) and tolerance >= 0.0):
            raise ValueError(f"final_tolerance must be a number >= 0, got {tolerance!r}")


@dataclass(frozen=True)
class OptimizerDiagnostics:
    """Where the sphere search ended up and how hard it worked.

    grid_points counts the grid directions evaluated, the z > 0 half of the
    settings' sphere; refinement_iterations counts compass rounds, and 400
    (the round cap) marks a run that stopped before its step fell to the
    tolerance, whose value may sit above the minimum; evaluations counts
    objective evaluations, grid_points + 3 singular-vector seeds + 8 per
    round (no seeds on a run from the grid alone); final_window is the step
    in radians of the last round."""

    best_direction: tuple[float, float, float]
    grid_points: int
    refinement_iterations: int
    final_tolerance: float
    evaluations: int
    final_window: float


def _finalize(values: np.ndarray | float) -> np.ndarray:
    """Clamp negative dust to zero elementwise; anything decisively negative is a bug."""
    values = np.asarray(values, dtype=float)
    low = values < -1e-9
    if low.any():
        raise InvalidStateError(
            f"measure evaluated to {values[low].min():.3e}, below the -1e-9 floor"
        )
    return np.where(values < 0.0, 0.0, values)


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def wootters_score(rho: np.ndarray) -> float:
    """Signed spin-flip score chi1 - chi2 - chi3 - chi4 (before clamping at 0).

    The chi_i are the descending singular values of Wootters' matrix
    tau = Psi^T (sigma_y x sigma_y) Psi, where Psi = V sqrt(max(p, 0)) holds
    the eigenvectors of rho scaled by the square roots of their eigenvalues
    (Wootters, PRL 80, 2245 (1998)).  Since rho = Psi Psi^dagger, the chi_i^2
    are the eigenvalues of rho (sigma_y x sigma_y) conj(rho) (sigma_y x
    sigma_y), and no square root of a product of small eigenvalues is
    taken, so a small score keeps its accuracy.
    """
    return float(_wootters_scores(_validated_one(rho)[None])[0])


def _wootters_scores(rho: np.ndarray) -> np.ndarray:
    """wootters_score for each member of a validated (n, 4, 4) stack."""
    p, V = np.linalg.eigh(rho)
    psi = V * np.sqrt(np.maximum(p, 0.0))[:, None, :]
    tau = np.swapaxes(psi, 1, 2) @ _SPIN_FLIP @ psi
    chi = np.linalg.svd(tau, compute_uv=False)
    return chi[:, 0] - chi[:, 1] - chi[:, 2] - chi[:, 3]


def concurrence(rho: np.ndarray) -> MeasureResult:
    """Spin-flip concurrence max(0, chi1 - chi2 - chi3 - chi4) in [0, 1]."""
    return _single_oracle("concurrence", rho)


def uncorrected_x_concurrence(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Known-faulty closed-form variant of the bit-flip concurrence, kept only
    for the discrepancy report: (1/2)[mu + lam + 4(8 xi^2 - 3 xi + 1)].  It
    evaluates to 4 at theta = 0, t = 0, so it cannot be a concurrence; the
    verify suite reports its deviation from the spin-flip oracle."""
    if channel.axis != "x":
        raise ValueError("the uncorrected variant is specific to the x axis")
    mu = decay_factor(channel, t)
    lam = mu * params.q
    xi = params.xi
    return 0.5 * (mu + lam + 4.0 * (8.0 * xi * xi - 3.0 * xi + 1.0))


# ---------------------------------------------------------------------------
# geometric discord
# ---------------------------------------------------------------------------

def geometric_discord(rho: np.ndarray) -> MeasureResult:
    """Hilbert-Schmidt geometric discord from Bloch data.

    DG = (1/4)(|y|^2 + |T|^2 - k) with k the largest eigenvalue of
    y y^T + T^T T, y the Bloch vector of B; bounded by 1/2 for two qubits.
    """
    return _single_oracle("geometric_discord", rho)


def _geometric_discords(r: np.ndarray) -> np.ndarray:
    """Geometric discord from an (n, 4, 4) stack of Pauli coefficients.

    Every sum runs over fewer than eight terms, which NumPy adds in order
    whatever the stack's size, so a state's value does not depend on it."""
    y, T = r[:, 0, 1:], r[:, 1:, 1:]
    k = np.linalg.eigvalsh(y[:, :, None] * y[:, None, :] + np.swapaxes(T, 1, 2) @ T)[:, -1]
    return 0.25 * ((y * y).sum(axis=1) + (T * T).sum(axis=2).sum(axis=1) - k)


# ---------------------------------------------------------------------------
# entropic measures
# ---------------------------------------------------------------------------

def mutual_information(rho: np.ndarray) -> MeasureResult:
    """I = S(A) + S(B) - S(AB) in bits."""
    return _single_oracle("mutual_information", rho)


def quantum_discord_xz_expanded(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Literal hyperbolic-scalar form of the x/z discord, retained to verify
    it is algebraically identical to the entropy pipeline.

    With nu = sqrt(mu) cosh(gamma t) = (1+mu)/2 and
    vt = sqrt(mu) sinh(gamma t) = (1-mu)/2:

        D = -1 + sum_{u in {nu, vt}} u/ln16 [ln((8u)^4 xi^3 eta)
            + (8 xi - 3) ln(xi/eta)] + SC,

    where SC = 1 - classical correlation is the optimal conditional entropy.
    Requires eta > 0 (the logarithm ratio degenerates at theta = 0), a
    finite xi/eta, which overflows for eta below about 3e-309 (|theta| below
    about 1e-154), and a normal (8 vt)^4 xi^3 eta, at least
    sys.float_info.min, which it falls below where eta and vt are both tiny
    (to 0 at theta = 1e-150 with gamma t = 1e-10; to a subnormal, whose lost
    bits put the form 1.2e-6 off the closed discord, at theta = 1e-153 with
    gamma t = 1.58e-5); the vt = 0 term at t = 0 contributes zero by the
    x log x convention.
    """
    if channel.axis not in ("x", "z"):
        raise ValueError("the expanded form covers the x and z axes only")
    eta, xi = params.eta, params.xi
    if eta <= 0.0:
        raise ValueError("the expanded form requires eta > 0")
    if math.isinf(xi / eta):
        raise ValueError(f"the expanded form requires a finite xi/eta, which overflows for"
                         f" eta = {eta!r} (below about 3e-309)")
    mu = decay_factor(channel, t)
    # the vt term's logarithm argument, as 8 vt = 4 (1 - mu) exactly; a
    # subnormal one has lost bits before its logarithm is taken
    if mu < 1.0 and (4.0 * (1.0 - mu)) ** 4 * xi**3 * eta < sys.float_info.min:
        raise ValueError(f"(8 vt)^4 xi^3 eta underflows below the smallest normal float"
                         f" ({sys.float_info.min!r}) in the expanded form at t = {t!r}")
    cc = closed_values(params, channel, t, ("classical_correlation",))["classical_correlation"]
    return _xz_expanded(eta, xi, mu, float(cc))


def _xz_expanded(eta: float, xi: float, mu: float, cc: float) -> float:
    """The arithmetic of quantum_discord_xz_expanded at mixture weights eta
    and xi, decay factor mu and classical correlation cc, without its domain
    checks."""
    nu = (1.0 + mu) / 2.0
    vt = (1.0 - mu) / 2.0
    ln16 = math.log(16.0)
    log_ratio = math.log(xi / eta)

    def term(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return u / ln16 * (math.log((8.0 * u) ** 4 * xi**3 * eta) + (8.0 * xi - 3.0) * log_ratio)

    return -1.0 + term(nu) + term(vt) + (1.0 - cc)


def quantum_discord_y_expanded(params: StateParams, channel: ChannelSpec, t: float) -> float:
    """Literal log-ratio form of the y-axis discord,

        D = 2/ln16 [lam ln((1+lam)/(1-lam)) + ln((1+lam)(1-lam))],

    retained to verify it matches the entropy pipeline (it equals
    1 - h((1+lam)/2) identically for lam in [0, 1))."""
    if channel.axis != "y":
        raise ValueError("the log-ratio form covers the y axis only")
    lam = decay_factor(channel, t) * params.q
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

def _components(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c1, c2 and c3 as views of shape c.shape[:-1]."""
    return c[..., 0], c[..., 1], c[..., 2]


def _one_plus_x_log2(x: np.ndarray) -> np.ndarray:
    """(1 + x) log2(1 + x) elementwise, 0 where 1 + x <= 0.

    Both entropic measures are sums of this term whose parts linear in x
    cancel, so log1p keeps them accurate when every |x| is small.
    """
    x = np.where(x > -1.0, x, 0.0)
    return (1.0 + x) * np.log1p(x) / math.log(2.0)


def _concurrence_triple(c: np.ndarray) -> np.ndarray:
    # 2 max w - 1 = (max x - 1)/2, where the projections are the pairs
    # +-(c1 + c2) - c3 and +-(c1 - c2) + c3; rounding is monotone and odd,
    # so the larger of each pair rounds as |c1 + c2| - c3 or |c1 - c2| + c3
    c1, c2, c3 = _components(c)
    x = np.maximum(abs(c1 + c2) - c3, abs(c1 - c2) + c3)
    return np.maximum(0.5 * (x - 1.0), 0.0)


def _mutual_information_triple(c: np.ndarray) -> np.ndarray:
    # 2 - H(w) = sum w log2(4 w), added over psi-, phi+, phi-, psi+ in order,
    # with w = (1 + x)/4 and each projection x = s.c as (s1 c1 + s2 c2) + s3 c3
    c1, c2, c3 = _components(c)
    x = np.array([(-c1 - c2) - c3, (c1 - c2) + c3, (c2 - c1) + c3, (c1 + c2) - c3])
    return 0.25 * np.add.reduce(_one_plus_x_log2(x), axis=0)


def _classical_correlation_triple(c: np.ndarray) -> np.ndarray:
    # 1 - h((1 + phi)/2) = [(1 + phi) log2(1 + phi) + (1 - phi) log2(1 - phi)]/2
    a1, a2, a3 = _components(np.abs(c))
    phi = np.maximum(np.maximum(a1, a2), a3)
    g = _one_plus_x_log2(np.array([phi, -phi]))
    return 0.5 * (g[0] + g[1])


def _geometric_discord_triple(c: np.ndarray) -> np.ndarray:
    # the two smaller squares, sum c^2 - max c^2 without the cancellation:
    # rounding is monotone, so the least rounded pair sum is the rounded sum
    # of the two smallest squares
    s1, s2, s3 = _components(c * c)
    return 0.25 * np.minimum(np.minimum(s1 + s2, s1 + s3), s2 + s3)


def _pair_log2(x: np.ndarray) -> np.ndarray:
    """F(x) = (1 + x) log2(1 + x) + (1 - x) log2(1 - x) elementwise: below
    |x| = 1/2 as [2 x atanh(x) + log1p(-x^2)]/ln 2, whose terms do not cancel
    as x -> 0, above as the log1p pair, which stays accurate as |x| -> 1."""
    small = np.abs(x) < 0.5
    s = x * small  # 0 where |x| >= 1/2, which keeps atanh finite
    near_zero = (2.0 * s * np.arctanh(s) + np.log1p(-s * s)) / math.log(2.0)
    return np.where(small, near_zero, _one_plus_x_log2(x) + _one_plus_x_log2(-x))


_SIGMA = np.array([1.0, -1.0])
# _PAIRS[k] takes c to (sigma c_k, c_i - sigma c_j) for sigma = +1, -1, with
# (i, j) the two axes after k in cyclic order; its zeros add exact zeros, so
# each entry rounds as the two-term expression does
_PAIRS = np.zeros((3, 3, 4))
for _k in range(3):
    _PAIRS[_k, _k, :2] = _SIGMA
    _PAIRS[_k, (_k + 1) % 3, 2:] = 1.0
    _PAIRS[_k, (_k + 2) % 3, 2:] = -_SIGMA


def _quantum_discord_triple(c: np.ndarray) -> np.ndarray:
    """sum_{sigma=+-1} r F(delta/r) along the dominant axis k (see the module
    docstring); a pair with r = 0 adds 0."""
    y = (c[..., None, :] @ _PAIRS[np.abs(c).argmax(axis=-1)])[..., 0, :]
    r = (1.0 + y[..., :2]) / 4.0
    delta = y[..., 2:] / 4.0
    return (r * _pair_log2(delta / np.where(r > 0.0, r, 1.0))).sum(axis=-1)


_TRIPLE_MEASURES = {
    "concurrence": _concurrence_triple,
    "geometric_discord": _geometric_discord_triple,
    "quantum_discord": _quantum_discord_triple,
    "mutual_information": _mutual_information_triple,
    "classical_correlation": _classical_correlation_triple,
}

MEASURE_NAMES: tuple[str, ...] = tuple(_TRIPLE_MEASURES)
# the three measures the paper compares, and the ones death_time follows
PAPER_MEASURES = ("concurrence", "geometric_discord", "quantum_discord")


def _check_names(names: Sequence[str], known: Sequence[str] = MEASURE_NAMES) -> None:
    """Raise ValueError at the first of names that is not in known."""
    for name in names:
        if name not in known:
            raise ValueError(f"unknown measure {name!r}; choose from {list(known)}")


def closed_values(
    params: StateParams | Sequence[StateParams],
    channel: ChannelSpec | None = None,
    t: float | Sequence[float] = 0.0,
    names: Sequence[str] = MEASURE_NAMES,
) -> dict[str, np.ndarray]:
    """Closed-form value of each named measure for every family member in
    params evolved to every time in t, as arrays of shape P + T (see
    channels.family_triple).  The counterpart of oracle_values."""
    return _triple_values(family_triple(params, channel, t), names)


def _triple_values(c: np.ndarray, names: Sequence[str]) -> dict[str, np.ndarray]:
    """Closed-form value of each named measure for every triple in a stack c
    of shape S + (3,), as arrays of shape S."""
    _check_names(names)
    return {name: _finalize(_TRIPLE_MEASURES[name](c)) for name in names}


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


def quantum_discord_closed(
    params: StateParams, channel: ChannelSpec | None = None, t: float = 0.0
) -> MeasureResult:
    """Closed-form discord (Luo's relative-entropy form of I - CC)."""
    return _closed_result("quantum_discord", params, channel, t)


# ---------------------------------------------------------------------------
# measurement-sphere optimizer
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly equidistributed unit vectors, sorted
    lexicographically so that the first of tied grid minima is the
    lexicographically smallest (read-only)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * i / golden
    dirs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dirs = dirs[np.lexsort(dirs.T[::-1])]
    dirs.setflags(write=False)
    return dirs


@functools.lru_cache(maxsize=8)
def _fibonacci_hemisphere(n: int) -> np.ndarray:
    """The n // 2 rows of _fibonacci_sphere(n) with z > 0, in order (read-only)."""
    dirs = _fibonacci_sphere(n)[_fibonacci_sphere(n)[:, 2] > 0.0]
    dirs.setflags(write=False)
    return dirs


# the grid is evaluated for at most this many (state, direction) pairs at
# once (64 states of the default 32 seed directions, four of a 1,024-point
# grid); blocks of 8,192 ran a 108-state sweep about 25% slower and raised
# its peak memory by 2.5 MB
_GRID_BLOCK = 2048
_OUTCOME_SIGNS = np.array([1.0, -1.0])


def _conditional_entropy(u: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Average post-measurement entropy of the unmeasured qubit.

    u = (a.n, T^T n) holds, along its last axis, the projections of one
    measurement direction n; b1 = (1, b) broadcasts against it.  Both
    outcomes +-1 are evaluated in one array: 1 +- a.n is twice the outcome
    probability p and b +- T^T n is 2p times the unmeasured Bloch vector.
    """
    x = b1 + _OUTCOME_SIGNS.reshape((2,) + (1,) * u.ndim) * u
    p = 0.5 * x[..., 0]
    live = p > 1e-14
    x1, x2, x3 = x[..., 1], x[..., 2], x[..., 3]
    radius = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3) / (2.0 * np.where(live, p, 1.0))
    w = 0.5 * (1.0 + _OUTCOME_SIGNS.reshape((2,) + (1,) * radius.ndim) * radius)
    entropy = spectrum_entropy(w, axis=0)
    return np.where(live, p * entropy, 0.0).sum(axis=0)


def _measurement_frame(r: np.ndarray, measured_side: str) -> tuple[np.ndarray, np.ndarray]:
    """(m, b1) from an (n, 4, 4) stack of Pauli coefficients: m[:, i] is
    (a_i, T_i1, T_i2, T_i3), so that n^T m = (a.n, T^T n) for a direction n,
    and b1 = (1, b).  a is the measured qubit's Bloch vector, b the other's,
    and T is indexed [measured, unmeasured]."""
    if measured_side == "B":
        r = np.swapaxes(r, 1, 2)
    b1 = r[:, 0, :].copy()
    b1[:, 0] = 1.0
    return r[:, 1:, :], b1


# the compass search's eight headings k pi/4, as (cos, sin) in the tangent plane
_COMPASS = np.stack([np.cos(np.arange(8) * np.pi / 4), np.sin(np.arange(8) * np.pi / 4)], axis=1)
_X_HAT, _Y_HAT = np.eye(3)[:2]
_NEXT, _AFTER_NEXT = [1, 2, 0], [2, 0, 1]


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v along the last axis (np.cross does the same at several times
    the dispatch cost)."""
    return u[..., _NEXT] * v[..., _AFTER_NEXT] - u[..., _AFTER_NEXT] * v[..., _NEXT]


def _norm(v: np.ndarray) -> np.ndarray:
    """The length of v along a last axis of 3, kept as an axis of 1: the
    bits of np.linalg.norm(v, axis=-1, keepdims=True), without its
    reduction over a short last axis."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])[..., None]


def _tangent_basis(d: np.ndarray) -> np.ndarray:
    """An (n, 2, 3) tangent basis (e1, e2) at each unit direction of the
    (n, 3) stack d: e1 is d crossed with whichever of x and y is far from d,
    normalised, and e2 = d x e1."""
    e1 = _cross(d, np.where(np.abs(d[:, :1]) < 0.6, _X_HAT, _Y_HAT))
    e1 /= _norm(e1)
    return np.stack([e1, _cross(d, e1)], axis=1)


def _improve(candidates: np.ndarray, m: np.ndarray, b1: np.ndarray, rows: np.ndarray,
             value: np.ndarray, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one candidate step of the sphere search: evaluate the candidate
    directions, one (k, 3) set for every row or a (rows, k, 3) stack, with
    the measurement frame (m, b1) of the states rows, and move each state
    to its first least candidate where that is strictly lower than its
    value.  Returns the candidates' values and which rows moved."""
    values = _conditional_entropy(candidates @ m, b1[:, None, :])
    each, k = np.arange(len(rows)), values.argmin(axis=1)
    best = values[each, k]
    moved = best < value[rows]
    value[rows[moved]] = best[moved]
    direction[rows[moved]] = (candidates[k] if candidates.ndim == 2 else candidates[each, k])[moved]
    return values, moved


class _Runs(NamedTuple):
    """Where each state's sphere search ended, one row per state: its best
    direction (n, 3), its compass rounds (n,) and the step of its last
    round (n,)."""

    direction: np.ndarray
    rounds: np.ndarray
    final_window: np.ndarray


def _diagnostics(runs: _Runs, i: int, settings: OptimizerSettings, seeded: bool
                 ) -> OptimizerDiagnostics:
    """State i's OptimizerDiagnostics from a search with these settings."""
    grid, count = len(_fibonacci_hemisphere(settings.grid_points)), int(runs.rounds[i])
    return OptimizerDiagnostics(
        best_direction=tuple(runs.direction[i].tolist()),
        grid_points=grid,
        refinement_iterations=count,
        final_tolerance=settings.final_tolerance,
        evaluations=grid + 3 * seeded + len(_COMPASS) * count,
        final_window=float(runs.final_window[i]),
    )


def _optimize(
    r: np.ndarray, measured_side: str, settings: OptimizerSettings, *, seeded: bool = True
) -> tuple[np.ndarray, _Runs]:
    """Minimal conditional entropy for each state of an (n, 4, 4) stack of
    Pauli coefficients, qubit measured_side measured, and where each run
    ended.  seeded=False skips the singular-vector seeds, so the search
    starts from the grid alone.

    The compass rounds redo only what changed.  The running states'
    direction, value, step, frame and tangent basis live in their own
    compacted arrays, which shrink only in a round where some run ends; a
    state keeps its basis until it moves, and a run that ends writes its
    value, direction, rounds and last step back to its own row.  No
    OptimizerDiagnostics is built here: _diagnostics builds one for a
    result that reports it."""
    m, b1 = _measurement_frame(r, measured_side)
    n = r.shape[0]

    # the grid, the seeds and every compass round take _improve's step, so
    # the first grid block moves every state off value = +inf
    dirs = _fibonacci_hemisphere(settings.grid_points)
    value = np.full(n, math.inf)
    direction = np.zeros((n, 3))
    per_block = max(1, _GRID_BLOCK // len(dirs))
    for lo in range(0, n, per_block):
        block = slice(lo, lo + per_block)
        _improve(dirs, m[block], b1[block], np.arange(n)[block], value, direction)
    if seeded:
        # the left singular vectors of T, turned to z >= 0, as rows
        seeds = np.swapaxes(np.linalg.svd(m[:, :, 1:])[0], 1, 2)
        seeds *= np.where(seeds[:, :, 2:] < 0.0, -1.0, 1.0)
        _improve(seeds, m, b1, np.arange(n), value, direction)

    rounds, final_window = np.empty(n, dtype=int), np.empty(n)
    # the running states, compacted: row in the stack, frame (m, b1),
    # direction, value, step and tangent basis
    at, d, v = np.arange(n), direction.copy(), value.copy()
    s = np.full(n, 3.6 / math.sqrt(settings.grid_points))
    basis = _tangent_basis(d)
    for done in range(_MAX_ROUNDS):
        if not len(at):
            break
        candidates = d[:, None, :] + _COMPASS @ (s[:, None, None] * basis)
        candidates /= _norm(candidates)
        # the centre and its eight points all read zero, the conditional
        # entropy's floor, to rounding: a move among them follows noise (on a
        # pure state every direction reads zero), so the run ends with it;
        # the centre is read before the step moves it
        floor = np.abs(v) <= _ZERO_BAND
        values, moved = _improve(candidates, m, b1, np.arange(len(at)), v, d)
        floor &= np.abs(values).max(axis=1) <= _ZERO_BAND
        # every running state has done the same number of rounds; a run still
        # going past _GROW_AFTER creeps along a flat valley, so its moves
        # double the step from then on
        grown = np.minimum(2.0 * s, _MAX_STEP) if done >= _GROW_AFTER else s
        last, s = s, np.where(moved, grown, s / 4.0)
        running = (s > settings.final_tolerance) & ~(moved & floor) & (done + 1 < _MAX_ROUNDS)
        if not running.all():
            ended, rows = ~running, at[~running]
            value[rows], direction[rows] = v[ended], d[ended]
            rounds[rows], final_window[rows] = done + 1, last[ended]
            at, m, b1, d, v, s, basis, moved = (
                x[running] for x in (at, m, b1, d, v, s, basis, moved))
        if moved.any():
            basis[moved] = _tangent_basis(d[moved])
    return value, _Runs(direction, rounds, final_window)


def optimal_conditional_entropy(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """Minimum over rank-one projective measurements of the average
    conditional entropy of the unmeasured qubit.

    The projectors are (I +- n.sigma)/2 for a unit direction n, so n and -n
    are one measurement.  The search starts at the best of the grid_points
    // 2 directions with z > 0 of a deterministic Fibonacci-sphere grid of
    settings.grid_points directions; each of the three left singular vectors
    of the correlation matrix T (indexed [measured, unmeasured]), turned to
    z >= 0, replaces it only where it is strictly lower.  On a state with
    maximally mixed marginals, every Bell-diagonal state among them, one of
    those vectors is the optimal axis (Luo, PRA 77, 042303 (2008)) in any
    local basis.  A compass search on the sphere refines the start.  Each
    round evaluates the eight points normalize(n + s(cos(k pi/4) e1 +
    sin(k pi/4) e2)) around the current n, with (e1, e2) a tangent basis at
    n, moves to the best of them if it is strictly lower and otherwise
    divides the step s by 4; after 40 rounds a move also doubles s, up to
    1 rad, so a run creeping along a flat valley speeds up.  The step starts
    at 3.6/sqrt(grid_points) rad, and the search stops once it is at most
    settings.final_tolerance rad, after 400 rounds, or with a move among
    nine values (n and its eight points) that all lie within 4 eps of zero,
    the floor of the conditional entropy, where a pure state's every
    direction lies.  An outcome with probability below 1e-14 contributes
    zero.  Ties resolve to the first point: the lexicographically smallest
    grid direction, then the first singular vector (the largest singular
    value), the lowest k.
    """
    return _single_oracle("conditional_entropy", rho, measured_side, settings)


def classical_correlation(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """CC = S(unmeasured marginal) - min conditional entropy."""
    return _single_oracle("classical_correlation", rho, measured_side, settings)


def quantum_discord(
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
) -> MeasureResult:
    """D = S(measured marginal) - S(rho) + min conditional entropy.

    Identical to I - CC by construction (the two share the optimizer value);
    the mutual-information route is exercised by the tests.
    """
    return _single_oracle("quantum_discord", rho, measured_side, settings)


# ---------------------------------------------------------------------------
# oracles on a stack of states
# ---------------------------------------------------------------------------

class _Stack:
    """A validated (n, 4, 4) stack and the pieces its oracles share, each
    computed once, on first use, for the whole stack."""

    def __init__(
        self, rho: np.ndarray, measured_side: str, settings: OptimizerSettings | None,
        seeded: bool = True,
    ):
        if measured_side not in QUBITS:
            raise ValueError(f"measured_side must be 'A' or 'B', got {measured_side!r}")
        self.rho = rho
        self.measured = measured_side
        self.unmeasured = "B" if measured_side == "A" else "A"
        self.settings = settings or OptimizerSettings()
        self.seeded = seeded

    @functools.cached_property
    def bloch(self) -> np.ndarray:
        return pauli_coefficients(self.rho)

    @functools.cached_property
    def entropy(self) -> dict[str, np.ndarray]:
        """S(AB), S(A) and S(B), each from one batched eigvalsh, largest
        eigenvalue first."""
        spectra = {"AB": np.linalg.eigvalsh(self.rho)}
        for side in QUBITS:
            spectra[side] = np.linalg.eigvalsh(partial_trace(self.rho, side))
        return {key: spectrum_entropy(w[:, ::-1]) for key, w in spectra.items()}

    @functools.cached_property
    def optimum(self) -> tuple[np.ndarray, _Runs]:
        """The optimizer's values and where each state's run ended."""
        return _optimize(self.bloch, self.measured, self.settings, seeded=self.seeded)


# each kernel reads one _Stack and returns one value per state, before the floor
_STACK_ORACLES = {
    "concurrence": lambda s: np.maximum(_wootters_scores(s.rho), 0.0),
    "geometric_discord": lambda s: _geometric_discords(s.bloch),
    "quantum_discord": lambda s: s.entropy[s.measured] - s.entropy["AB"] + s.optimum[0],
    "mutual_information": lambda s: s.entropy["A"] + s.entropy["B"] - s.entropy["AB"],
    "classical_correlation": lambda s: s.entropy[s.unmeasured] - s.optimum[0],
    "conditional_entropy": lambda s: s.optimum[0],
}
_USES_OPTIMIZER = ("quantum_discord", "classical_correlation", "conditional_entropy")
# the kernels' temporaries grow with the stack, about 3 kB per state, so a
# long sweep is taken this many states at a time
_STACK_CHUNK = 1024


def _validated_one(rho: np.ndarray) -> np.ndarray:
    """One validated 4x4 state; a stack is rejected like any other shape."""
    if np.shape(rho) != (4, 4):
        raise InvalidStateError(f"expected a 4x4 density matrix, got shape {np.shape(rho)}")
    return validate_density_matrix(rho)


def _single_oracle(
    name: str,
    rho: np.ndarray,
    measured_side: str = "A",
    settings: OptimizerSettings | None = None,
    *,
    seeded: bool = True,
) -> MeasureResult:
    """One oracle on one state; seeded=False runs the optimizer from its
    grid alone (see _optimize)."""
    stack = _Stack(_validated_one(rho)[None], measured_side, settings, seeded)
    value = float(_finalize(_STACK_ORACLES[name](stack)[0]))
    optimizer = None
    if name in _USES_OPTIMIZER:
        optimizer = _diagnostics(stack.optimum[1], 0, stack.settings, seeded)
    return MeasureResult(value=value, method="oracle", optimizer=optimizer)


def oracle_values(
    rho: np.ndarray, names: Sequence[str], settings: OptimizerSettings | None = None
) -> dict[str, float] | dict[str, np.ndarray]:
    """Oracle value of each named measure, qubit A measured.

    rho is one 4x4 state, which gives a float per measure, or an (n, 4, 4)
    stack, which gives an array of n values per measure.  The stack is
    validated once, and every kernel runs on up to _STACK_CHUNK states at a
    time: one eigendecomposition per entropy, one optimizer run shared by
    quantum_discord and classical_correlation.  Each state's values are bit
    for bit those it gets on its own.
    """
    _check_names(names)
    rho = validate_density_matrix(rho)
    stack = rho.reshape(-1, 4, 4)
    parts = []
    for lo in range(0, max(len(stack), 1), _STACK_CHUNK):
        chunk = _Stack(stack[lo:lo + _STACK_CHUNK], "A", settings)
        parts.append([_finalize(_STACK_ORACLES[name](chunk)) for name in names])
    values = {name: np.concatenate(column) for name, column in zip(names, zip(*parts))}
    if rho.ndim == 2:
        return {name: float(v[0]) for name, v in values.items()}
    return values
