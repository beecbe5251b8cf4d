"""Property tests over the whole parameter range: theta in [0, pi], gamma t in
[0, 50], every noise axis and either noisy qubit.

Every oracle is compared with its closed form over all of it, small angles
included: the concurrence oracle takes the spin-flip values as singular
values of Wootters' tau matrix, so no square root of a product of small
eigenvalues loses them to rounding.  Every oracle is also compared with
itself on the same state under a random local unitary.  The entropic
oracles still miss by more than the tolerance near gamma t = 1e-12, in
either comparison, and those cases are marked as failing.

The death-time search's post-miss tree holds every bisection walk's next
steps, whatever the bracket and the root.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcorr import dynamics
from qcorr.channels import ChannelSpec, kraus_apply
from qcorr.linalg import pauli_coefficients
from qcorr.measures import (
    _conditional_entropy,
    _measurement_frame,
    classical_correlation,
    closed_values,
    concurrence,
    geometric_discord,
    mutual_information,
    optimal_conditional_entropy,
    quantum_discord,
)
from qcorr.states import initial_state, make_params
from test_measures import _local_unitary

TOL = 1e-12
MIXED = np.eye(4, dtype=complex) / 4.0
SWAP = np.eye(4)[[0, 2, 1, 3]]

thetas = st.floats(0.0, math.pi)
times = st.floats(0.0, 50.0)
channels = st.builds(ChannelSpec, axis=st.sampled_from("xyz"), qubit=st.sampled_from("AB"))
seeds = st.integers(0, 2**32 - 1)
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3)


def random_state(seed: int) -> np.ndarray:
    """A full-rank density matrix G G† / tr(G G†) from a complex Gaussian G."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def assert_density_matrix(rho: np.ndarray) -> None:
    assert abs(np.trace(rho) - 1.0) <= TOL
    assert np.abs(rho - rho.conj().T).max() <= TOL
    assert np.linalg.eigvalsh(rho).min() >= -TOL


@given(theta=thetas, seed=seeds, channel=channels, t=times)
def test_channel_is_cptp_and_unital(theta, seed, channel, t):
    for rho in (initial_state(make_params(theta)), random_state(seed)):
        assert_density_matrix(kraus_apply(rho, channel, t))
    assert np.abs(kraus_apply(MIXED, channel, t) - MIXED).max() <= TOL


@given(theta=thetas, channel=channels, t=times)
def test_closed_measures_stay_within_their_bounds(theta, channel, t):
    v = {k: float(x) for k, x in closed_values(make_params(theta), channel, t).items()}
    assert 0.0 <= v["concurrence"] <= 1.0 + TOL
    assert 0.0 <= v["geometric_discord"] <= 0.5 + TOL
    assert 0.0 <= v["quantum_discord"] <= 1.0 + TOL
    assert 0.0 <= v["classical_correlation"] <= v["mutual_information"] + TOL
    assert v["mutual_information"] <= 2.0 + TOL


@given(theta=thetas, channel=channels, t=times)
def test_concurrence_oracle_matches_its_closed_form(theta, channel, t):
    params = make_params(theta)
    oracle = concurrence(kraus_apply(initial_state(params), channel, t)).value
    assert abs(oracle - float(closed_values(params, channel, t, ("concurrence",))["concurrence"])) <= TOL


# With an entropy cutoff of 1e-12 the entropic oracles dropped up to about
# 4e-11 bits near gamma t = 1e-12 that the closed forms keep; the cutoff is
# now 1e-14.  The first example is hypothesis's own falsifying case at 1e-12,
# the second one a random scan found where classical correlation missed too.
@pytest.mark.parametrize("oracle", [
    geometric_discord, quantum_discord, mutual_information, classical_correlation,
], ids=lambda f: f.__name__)
@given(theta=thetas, channel=channels, t=times)
@example(theta=0.0, channel=ChannelSpec(axis="x", qubit="A"), t=1e-13)
@example(theta=0.017928044978067045, channel=ChannelSpec(axis="x", qubit="A"), t=1e-12)
def test_other_oracles_match_their_closed_forms(oracle, theta, channel, t):
    params = make_params(theta)
    value = oracle(kraus_apply(initial_state(params), channel, t)).value
    name = oracle.__name__
    assert abs(value - float(closed_values(params, channel, t, (name,))[name])) <= TOL


SIDED = (quantum_discord, classical_correlation, optimal_conditional_entropy)


@pytest.mark.parametrize("oracle", [
    concurrence, geometric_discord, classical_correlation, optimal_conditional_entropy,
    quantum_discord, mutual_information,
], ids=lambda f: f.__name__)
@given(theta=thetas, channel=channels, t=times, side=st.sampled_from("AB"), seed=seeds)
@example(theta=0.9, channel=ChannelSpec(axis="z", qubit="B"), t=0.47543244358581427, side="B",
         seed=0)
@example(theta=1e-12, channel=ChannelSpec(axis="y", qubit="B"), t=1e-12, side="B", seed=723)
def test_oracles_are_invariant_under_local_unitaries(oracle, theta, channel, t, side, seed):
    # the first example is 1e-5 decay times before the sudden change, where
    # the discord search from the grid alone ended 4.2e-6 off once rotated;
    # in the second, rho has an eigenvalue just below 1e-12 and the rotated
    # state the same one just above it, which a cutoff of 1e-12 split
    rho = kraus_apply(initial_state(make_params(theta)), channel, t)
    u = _local_unitary(np.random.default_rng(seed))
    rotated = u @ rho @ u.conj().T
    value = (lambda r: oracle(r, side).value) if oracle in SIDED else (lambda r: oracle(r).value)
    assert abs(value(rotated) - value(rho)) <= TOL


@given(theta=thetas, qubit=st.sampled_from("AB"), t=times)
def test_x_and_z_noise_give_the_same_closed_values(theta, qubit, t):
    params = make_params(theta)
    x = closed_values(params, ChannelSpec(axis="x", qubit=qubit), t)
    z = closed_values(params, ChannelSpec(axis="z", qubit=qubit), t)
    for name in x:
        assert abs(float(x[name]) - float(z[name])) <= TOL


@given(theta=thetas, seed=seeds, axis=st.sampled_from("xyz"), t=times)
def test_noise_on_a_is_noise_on_b_conjugated_by_swap(theta, seed, axis, t):
    on_a, on_b = ChannelSpec(axis=axis, qubit="A"), ChannelSpec(axis=axis, qubit="B")
    rho0 = initial_state(make_params(theta))
    assert np.abs(kraus_apply(rho0, on_a, t) - SWAP @ kraus_apply(rho0, on_b, t) @ SWAP).max() <= TOL
    # off the family, which is swap-symmetric, the input is swapped as well
    rho = random_state(seed)
    swapped = SWAP @ kraus_apply(SWAP @ rho @ SWAP, on_b, t) @ SWAP
    assert np.abs(kraus_apply(rho, on_a, t) - swapped).max() <= TOL


@given(seed=seeds, direction=directions, side=st.sampled_from("AB"))
def test_optimal_conditional_entropy_is_below_every_direction(seed, direction, side):
    rho = random_state(seed)
    n = np.array(direction) / math.hypot(*direction)
    m, b1 = _measurement_frame(pauli_coefficients(rho)[None], side)
    along_n = float(_conditional_entropy(n @ m, b1)[0])
    assert optimal_conditional_entropy(rho, side).value <= along_n + TOL


@given(lo=st.floats(0.0, 1e6), width=st.floats(1e-12, 1e6), where=st.floats(0.0, 1.0),
       decay_time=st.floats(1e-6, 1e6), depth=st.integers(1, 5))
@example(lo=0.0, width=1.0, where=0.5, decay_time=1.0, depth=3)
@example(lo=1.0, width=1.0, where=1.0, decay_time=1.0, depth=3)
def test_every_walk_starts_inside_the_post_miss_tree(lo, width, where, decay_time, depth):
    hi = lo + width
    root = lo + where * (hi - lo)
    walk = dynamics._walks(lo, hi, decay_time, [root], depth)
    # the post-miss tree: the walks toward the centres of the even leaves
    leaf = (hi - lo) / 2 ** depth
    centres = [lo + (k + 0.5) * leaf for k in range(0, 2 ** depth, 2)]
    tree = dynamics._walks(lo, hi, decay_time, centres, depth)
    assert set(walk) <= set(tree)
    # the tree is every full walk's midpoints and no other, so it has at
    # most 2^depth - 1 of them
    assert len(tree) <= 2 ** depth - 1
