"""Exact symmetries of the discrete SO(3) strands, as bit-level oracles.

A pi-rotation about the first axis, R = diag(1, -1, -1), commutes with every
diagonal inertia or anisotropy operator, and the cross product is
equivariant under it: (R a) x (R b) = R (a x b).  In floating point R only
negates, so a run from rotated initial data equals the rotated original run
bit for bit.  A slip in the component order of the cross product, or in the
layout of a packed state, breaks the identity.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gstrand import ScenarioConfig, run_scenario

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
