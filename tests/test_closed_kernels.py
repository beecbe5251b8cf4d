"""The closed-form kernels against the array reductions they replaced, bit
for bit, on family triples (edge and random angles, times up to gamma t = 20
and inf, all three axes, stacks of 1, 63 and 10,050 points) and on random
triples of every sign pattern, which the family, whose triples are never
positive, does not reach."""
import math

import numpy as np
import pytest

from qcorr import measures
from qcorr.channels import ChannelSpec, family_triple
from qcorr.states import make_params

# ---------------------------------------------------------------------------
# the previous formulas, as they stood
# ---------------------------------------------------------------------------

_BELL_SIGNS = np.array([[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0]])


def _reference_projections(c):
    return (c[..., None, :] * _BELL_SIGNS).sum(axis=-1)


def _reference_concurrence(c):
    return np.maximum(0.5 * (_reference_projections(c).max(axis=-1) - 1.0), 0.0)


def _reference_geometric_discord(c):
    return 0.25 * np.sort(c * c, axis=-1)[..., :2].sum(axis=-1)


def _reference_mutual_information(c):
    return 0.25 * measures._one_plus_x_log2(_reference_projections(c)).sum(axis=-1)


def _reference_classical_correlation(c):
    phi = np.abs(c).max(axis=-1)
    return 0.5 * (measures._one_plus_x_log2(phi) + measures._one_plus_x_log2(-phi))


REFERENCE = {
    "concurrence": _reference_concurrence,
    "geometric_discord": _reference_geometric_discord,
    "mutual_information": _reference_mutual_information,
    "classical_correlation": _reference_classical_correlation,
}

EDGE_THETAS = (0.0, 1e-8, math.pi / 4, math.pi / 2, math.pi - 1e-8, math.pi)


def _thetas(n, seed):
    rng = np.random.default_rng(seed)
    extra = rng.uniform(0.0, math.pi, max(n - len(EDGE_THETAS), 0)).tolist()
    return (list(EDGE_THETAS) + extra)[:n]


def _times(n, seed):
    """n times in [0, 20] with inf among them (n >= 2)."""
    rng = np.random.default_rng(seed)
    return [0.0, math.inf] + sorted(rng.uniform(0.0, 20.0, n - 2).tolist())


# (thetas, times) grids of 1, 63 and 10,050 points, plus the edge angles at
# every time shape the searches and sweeps use
STACKS = {
    "1": ([math.pi / 3], 0.7),
    "1x1": ([math.pi / 5], [2.0]),
    "edge-x-inf": (list(EDGE_THETAS), [math.inf]),
    "63": (_thetas(7, 1), _times(9, 2)),
    "63-flat": ([math.pi / 2 - 1e-8], _times(63, 3)),
    "10050": (_thetas(50, 4), _times(201, 5)),
}


def _triples():
    for stack, (thetas, times) in STACKS.items():
        params = [make_params(theta) for theta in thetas]
        for axis in "xyz":
            yield f"{stack}-{axis}", family_triple(params, ChannelSpec(axis=axis), times)
    for theta in EDGE_THETAS:
        for t in (0.0, 1e-3, 20.0, math.inf):
            for axis in "xyz":
                c = family_triple(make_params(theta), ChannelSpec(axis=axis), t)
                yield f"{theta!r}-{t!r}-{axis}", c


def _random_triples():
    rng = np.random.default_rng(6)
    for shape in ((), (1,), (63,), (50, 201)):
        c = rng.uniform(-1.0, 1.0, shape + (3,))
        c *= 10.0 ** rng.integers(-9, 1, c.shape)
        yield f"random-{shape}", c


TRIPLES = list(_triples()) + list(_random_triples())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_closed_kernels_keep_the_bits_of_the_array_reductions(name):
    kernel = measures._TRIPLE_MEASURES[name]
    for label, c in TRIPLES:
        got, want = np.asarray(kernel(c)), np.asarray(REFERENCE[name](c))
        assert got.shape == want.shape, label
        assert got.tobytes() == want.tobytes(), label
