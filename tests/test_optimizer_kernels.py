"""The discord optimizer's inner kernels against the array reductions they
replaced, bit for bit: the conditional entropy on a grid block of 4 states x
512 directions, on n x 8 compass stacks and on one state, and the compass
normalisation on the tangent vectors and compass points it divides.  The
inputs reach every branch: an outcome of probability 0 (a pure product state
measured along its own axis), a pure unmeasured remainder (a Bell state, so
radius 1 and a zero Bell weight) and the maximally mixed state, next to the
evolved family and random full-rank states.  With both old kernels put back,
_optimize returns the same values, best directions, rounds and last steps on
the benchmark's seed-31 oracle-sweep stack and on verify's 300-state stack.
The compass rounds on a compacted running set give every state of a mixed
stack the run that the rounds as they stood, and the state alone, give it."""
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from qcorr import measures
from qcorr.channels import ChannelSpec, kraus_apply
from qcorr.dynamics import _verify_grid
from qcorr.linalg import ZERO_EIGENVALUE_TOL, pauli_coefficients, spectrum_entropy
from qcorr.measures import OptimizerSettings, _fibonacci_hemisphere, _measurement_frame, _optimize
from qcorr.states import initial_state, make_params
from test_measures import _family_states, _near_sudden_change, _random_states, _ranked_states

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# ---------------------------------------------------------------------------
# the previous kernels, as they stood
# ---------------------------------------------------------------------------


def _reference_conditional_entropy(u, b1):
    x = b1 + measures._OUTCOME_SIGNS.reshape((2,) + (1,) * u.ndim) * u
    p = 0.5 * x[..., 0]
    live = p > 1e-14
    radius = np.sqrt((x[..., 1:] * x[..., 1:]).sum(axis=-1)) / (2.0 * np.where(live, p, 1.0))
    w = 0.5 * (1.0 + measures._OUTCOME_SIGNS.reshape((2,) + (1,) * radius.ndim) * radius)
    entropy = spectrum_entropy(w, axis=0)
    return np.where(live, p * entropy, 0.0).sum(axis=0)


def _reference_norm(v):
    return np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_AXES = np.vstack([np.eye(3), -np.eye(3)])  # +-x, +-y, +-z


def _edge_states():
    up = np.zeros((4, 4), dtype=complex)
    up[0, 0] = 1.0  # |00><00|: measured along z, one outcome has p = 0
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5  # the remainder is pure
    return [up, bell, np.eye(4, dtype=complex) / 4.0]


STATES = np.array(_edge_states() + _family_states() + _random_states(20, 1213))
FRAMES = {side: _measurement_frame(pauli_coefficients(STATES), side) for side in "AB"}
# the default grid's 512 directions with the six axis directions in place of its last six
GRID = np.vstack([_fibonacci_hemisphere(1024)[:-6], _AXES])


def _compass(d, s):
    """The eight compass points around each unit direction d at step s, built
    with the previous normalisation, as (n, 8, 3); also the tangent vectors
    before normalisation, as (n, 3)."""
    raw = measures._cross(d, np.where(np.abs(d[:, :1]) < 0.6, measures._X_HAT, measures._Y_HAT))
    e1 = raw / _reference_norm(raw)
    tangent = s[:, None, None] * np.stack([e1, measures._cross(d, e1)], axis=1)
    candidates = d[:, None, :] + measures._COMPASS @ tangent
    return candidates / _reference_norm(candidates), raw, candidates


def _compass_inputs(n, seed):
    """Directions: the six axes, then seeded random ones; steps from the
    default start down to below the stopping tolerance."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= _reference_norm(d)
    d[:6] = _AXES[: min(n, 6)]
    s = 3.6 / math.sqrt(1024) * 0.25 ** rng.integers(0, 16, n)
    return d, s


def _compass_u(m, b1, seed):
    """A compass stack: each state's eight compass points, the first six of
    them replaced by the six axis directions exactly."""
    d, s = _compass_inputs(len(m), seed)
    candidates, _, _ = _compass(d, s)
    candidates[:, :6] = _AXES
    return candidates @ m, b1[:, None, :]


def _cases():
    for side, (m, b1) in FRAMES.items():
        for lo in range(0, len(m), 4):  # grid blocks of 4 states x 512 directions
            yield f"{side}-grid-{lo}", GRID @ m[lo:lo + 4], b1[lo:lo + 4, None, :]
        yield f"{side}-compass-all", *_compass_u(m, b1, 7)
        for i in (0, 1, 2, 10, len(m) - 1):  # one state, in a grid block and a compass stack
            yield f"{side}-grid-one-{i}", GRID @ m[i:i + 1], b1[i:i + 1, None, :]
            yield f"{side}-compass-one-{i}", *_compass_u(m[i:i + 1], b1[i:i + 1], i)


CASES = list(_cases())


def test_the_inputs_reach_every_branch():
    dead = pure = mixed = False
    for _, u, b1 in CASES:
        x = b1 + measures._OUTCOME_SIGNS.reshape((2,) + (1,) * u.ndim) * u
        p = 0.5 * x[..., 0]
        dead |= bool((p <= 1e-14).any())
        radius = np.sqrt((x[..., 1:] ** 2).sum(axis=-1)) / (2.0 * np.where(p > 1e-14, p, 1.0))
        pure |= bool(((p > 1e-14) & (0.5 * (1.0 - radius) <= ZERO_EIGENVALUE_TOL)).any())
        mixed |= bool((radius == 0.0).any())
    assert dead and pure and mixed


@pytest.mark.parametrize("label, u, b1", CASES, ids=[case[0] for case in CASES])
def test_conditional_entropy_keeps_the_bits_of_the_array_reduction(label, u, b1):
    got = measures._conditional_entropy(u, b1)
    want = _reference_conditional_entropy(u, b1)
    assert got.shape == want.shape == u.shape[:-1]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 8, 108, 300])
def test_compass_norm_keeps_the_bits_of_linalg_norm(n):
    d, s = _compass_inputs(n, n)
    _, raw, candidates = _compass(d, s)
    rng = np.random.default_rng(n)
    scaled = rng.normal(size=(n, 8, 3)) * 10.0 ** rng.integers(-150, 150, (n, 8, 1))
    for v in (raw, candidates, scaled, np.zeros((n, 3))):
        got, want = measures._norm(v), _reference_norm(v)
        assert got.shape == want.shape == v.shape[:-1] + (1,)
        assert got.tobytes() == want.tobytes()


def _oracle_sweep_stack(monkeypatch):
    """The 108 states the benchmark's oracle_sweep workload evaluates at seed 31."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    plan = importlib.import_module("workloads").plan_oracle_sweep(31)
    return _sweep_stack(plan.thetas, plan.times)


def _sweep_stack(thetas, times):
    """The oracle stack of dynamics.sweep over x, y, z at gamma 1, qubit B."""
    initial = np.array([initial_state(make_params(theta)) for theta in thetas])
    evolved = [kraus_apply(initial, ChannelSpec(axis=axis), times) for axis in "xyz"]
    return np.array(evolved).reshape(-1, 4, 4)


STACKS = {
    "oracle-sweep-31": _oracle_sweep_stack,
    "verify-300": lambda monkeypatch: _sweep_stack(*_verify_grid(False)),
}


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_optimizer_is_unchanged_with_the_previous_kernels(stack, monkeypatch):
    r = pauli_coefficients(STACKS[stack](monkeypatch))
    assert len(r) == {"oracle-sweep-31": 108, "verify-300": 300}[stack]
    for side in "AB":
        values, runs = _optimize(r, side, OptimizerSettings())
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_conditional_entropy", _reference_conditional_entropy)
            patch.setattr(measures, "_norm", _reference_norm)
            want_values, want_runs = _optimize(r, side, OptimizerSettings())
        assert values.tobytes() == want_values.tobytes(), side
        # each state's best direction, rounds and last step
        assert [a.tobytes() for a in runs] == [a.tobytes() for a in want_runs], side


# ---------------------------------------------------------------------------
# the compass rounds as they stood, against the compacted running set
# ---------------------------------------------------------------------------


def _reference_rounds(r, side, settings, seeded, monkeypatch):
    """The compass rounds before the running states were compacted: each
    round gathers the running rows of full-size arrays and builds every
    tangent basis anew.  They start where _optimize stands after the grid
    and the seeds, which it returns when it may take no round."""
    with monkeypatch.context() as patch:
        patch.setattr(measures, "_MAX_ROUNDS", 0)
        value, start = _optimize(r, side, settings, seeded=seeded)
    direction = start.direction
    m, b1 = _measurement_frame(r, side)
    step = np.full(len(r), 3.6 / math.sqrt(settings.grid_points))
    final_window, rounds = np.empty(len(r)), np.zeros(len(r), dtype=int)
    running = np.ones(len(r), dtype=bool)
    for done in range(measures._MAX_ROUNDS):
        rows = np.flatnonzero(running)
        d, s = direction[rows], step[rows]
        candidates, _, _ = _compass(d, s)
        floor = np.abs(value[rows]) <= measures._ZERO_BAND
        values, moved = measures._improve(candidates, m[rows], b1[rows], rows, value, direction)
        floor &= np.abs(values).max(axis=1) <= measures._ZERO_BAND
        final_window[rows] = s
        grown = np.minimum(2.0 * s, measures._MAX_STEP) if done >= measures._GROW_AFTER else s
        step[rows] = np.where(moved, grown, s / 4.0)
        rounds[rows] += 1
        running[rows] = (step[rows] > settings.final_tolerance) & ~(moved & floor)
        if not running.any():
            break
    return value, measures._Runs(direction, rounds, final_window)


def _mixed_states():
    """States whose runs end at scattered rounds, interleaved: pure states
    (some stop at the zero floor), family states (a seeded run of these
    never moves: 12 rounds), random full-rank states (20-30 rounds) and the
    family near its sudden change (past _GROW_AFTER from the grid alone)."""
    groups = [_ranked_states(4, 3)[:4], _family_states()[::9][:8], _random_states(4, 11),
              list(_near_sudden_change()[0][::60])]
    return np.array([g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)])


@pytest.mark.parametrize("settings, seeded", [
    (OptimizerSettings(), True),
    (OptimizerSettings(), False),
    # every run that does not stop at the zero floor ends at the round cap
    (OptimizerSettings(final_tolerance=0.0), True),
], ids=["seeded", "grid-alone", "tolerance-0"])
def test_compacted_rounds_give_each_state_its_own_run(settings, seeded, monkeypatch):
    states = _mixed_states()
    r = pauli_coefficients(states)
    for side in "AB":
        values, runs = _optimize(r, side, settings, seeded=seeded)
        want_values, want_runs = _reference_rounds(r, side, settings, seeded, monkeypatch)
        assert values.tobytes() == want_values.tobytes(), side
        assert [a.tobytes() for a in runs] == [a.tobytes() for a in want_runs], side
        for i, rho in enumerate(states):
            alone = measures._single_oracle("conditional_entropy", rho, side, settings,
                                            seeded=seeded)
            assert (alone.value, alone.optimizer) == (
                max(0.0, values[i]), measures._diagnostics(runs, i, settings, seeded)), (side, i)
        # the runs end at several rounds, through the exits this setting has
        rounds = runs.rounds
        floor = rounds[np.abs(values) <= measures._ZERO_BAND]
        assert len(set(rounds.tolist())) >= 3 and floor.min() < 12, side
        if settings.final_tolerance == 0.0:
            assert rounds.max() == measures._MAX_ROUNDS, side
        elif seeded:
            assert 12 in rounds and rounds.max() < measures._GROW_AFTER, side
        else:
            assert rounds.max() > measures._GROW_AFTER, side
