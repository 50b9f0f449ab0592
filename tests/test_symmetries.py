"""Exact symmetries of the discrete SO(3) strands, as bit-level oracles.

A pi-rotation about the first axis, R = diag(1, -1, -1), commutes with every
diagonal inertia or anisotropy operator, and the cross product is
equivariant under it: (R a) x (R b) = R (a x b).  In floating point R only
negates, so a run from rotated initial data equals the rotated original run
bit for bit.  A slip in the component order of the cross product, or in the
layout of a packed state, breaks the identity.

Two more act on the node index, on the model's right-hand side stepped with
``rk4_step``.  A shift by whole nodes commutes with the run because the
periodic stencil treats every node alike, wrap bands included.  The
reflection s -> -s, node j -> -j mod N_s, with (u, v) -> (u, -v), or
(X, Y) -> (-Y, -X) for aniso_xy, commutes with it because a centered
difference of the reflected field is the negated reflected difference,
exactly.  A stencil that is off by one node or one-sided breaks the
reflection.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gstrand import ScenarioConfig, run_scenario
from gstrand.sim_harness import MODEL_SPECS, rk4_step
from gstrand.stencil import DerivativeStencil

TWO_PI = 2.0 * math.pi
R = np.array([1.0, -1.0, -1.0])

# model -> (field names, diagonal operators); the spin chain is the hyperbolic one
MODELS = {
    "spin_chain": (("u", "v"), {"A": [1.0, 2.0, 3.0], "B": [-2.0, -1.0, -1.0]}),
    "chiral": (("u", "v"), {}),
    "aniso_uv": (("u", "v"), {"P": [1.0, 2.0, 0.0]}),
    "aniso_xy": (("X", "Y"), {"P": [1.0, 2.0, 3.0]}),
}
U = [[[0.6, 1.0, 0.0]], [[0.3, 2.0, 1.0]], [[0.5, 1.0, 0.5 * math.pi]]]
V = [[[0.2, 1.0, 0.5]], [[0.7, 1.0, 0.5 * math.pi]], [[0.1, 3.0, 0.0]]]

harmonic = st.tuples(
    st.floats(-1.0, 1.0), st.integers(0, 3), st.floats(0.0, TWO_PI)
).map(list)
field = st.lists(st.lists(harmonic, max_size=2), min_size=3, max_size=3)


def scenario(model, initial):
    names, diagonals = MODELS[model]
    return {
        "model": model,
        "grid": {"S": TWO_PI, "N_s": 32, "dt": 0.02, "t_end": 0.4},
        "params": {**diagonals, "initial": dict(zip(names, initial))},
        "diagnostics": [],
        "output": {"directory": None, "cadence": 2},
    }


def rotated(columns):
    """The harmonic columns of R times the field: components 2 and 3 negated."""
    return [columns[0]] + [[[-a, k, phase] for a, k, phase in column] for column in columns[1:]]


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(first=field, second=field)
@example(first=U, second=V)
def test_pi_rotation_commutes_with_the_run(model, first, second):
    """The run of R-rotated initial data, through ``ScenarioConfig.from_dict``
    and ``run_scenario``, stores R times every stored level of the original
    run.  The levels compare with ``np.array_equal``, which takes -0.0 and
    +0.0 as equal: the harmonic sum starts from +0.0, so where every term of
    a negated column is zero the rotated field holds +0.0, not -0.0."""
    original = run_scenario(ScenarioConfig.from_dict(scenario(model, (first, second))))
    rotation = run_scenario(ScenarioConfig.from_dict(
        scenario(model, (rotated(first), rotated(second)))))
    assert original.status == rotation.status == "ok"
    assert len(original.snapshots) == len(rotation.snapshots) == 11
    for y, z in zip(original.snapshots, rotation.snapshots):
        assert np.array_equal(z, y * R)


N_S = 64
STEPS = 40
state = arrays(np.float64, (2, N_S, 3), elements=st.floats(-1.0, 1.0))


def assert_commutes(model, transform, y, same):
    """Step ``y`` and ``transform(y)`` side by side, STEPS times, with
    ``rk4_step`` on the model's right-hand side (the diagonals of MODELS,
    N_s = 64 on a strand of length 2 pi), and check after every step that
    ``same(stepped transform, transform of stepped)`` holds."""
    cfg = ScenarioConfig.from_dict(scenario(model, (U, V)))
    spec = next(spec for spec in MODEL_SPECS if spec.name == model)
    rhs = spec.rhs(cfg.params, DerivativeStencil(order=2, ds=TWO_PI / N_S))
    z = transform(y)
    for _ in range(STEPS):
        y, z = rk4_step(y, rhs, 0.02), rk4_step(z, rhs, 0.02)
        assert same(z, transform(y))


def same_bits(a, b):
    """a and b hold the same doubles, sign bits included."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(y=state, shift=st.integers(1, N_S - 1))
def test_shift_by_whole_nodes_commutes_with_the_run(model, y, shift):
    """Shifting the nodes of the initial state by ``shift`` (``np.roll`` on
    the node axis) shifts the state after each of 40 steps by as many
    nodes, bit for bit."""
    assert_commutes(model, lambda y: np.roll(y, shift, axis=1), y, same_bits)


def reflected(model, y):
    """The reflection of the packed state ``y``: node j takes node -j mod N_s,
    and (u, v) -> (u, -v), or (X, Y) -> (-Y, -X) for aniso_xy."""
    mirror = y[:, -np.arange(N_S) % N_S]
    if model == "aniso_xy":
        return -mirror[::-1]
    return np.stack((mirror[0], -mirror[1]))


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(y=state)
def test_reflection_commutes_with_the_run(model, y):
    """The run of the reflected initial state is the reflected run after
    each of 40 steps, bit for bit but for the sign of a zero:
    ``np.array_equal`` takes -0.0 and +0.0 as equal, and a zero that a
    difference forms is +0.0 on both sides where the reflection would
    negate it."""
    assert_commutes(model, lambda y: reflected(model, y), y, np.array_equal)
