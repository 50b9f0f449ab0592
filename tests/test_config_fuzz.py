"""Config parsing under mutation: one valid config per model, one leaf replaced.

Whatever JSON value replaces a leaf, ``ScenarioConfig.from_dict`` either
parses the result or raises ConfigError, never another exception.  A
non-finite number or a bool in place of a number is always rejected.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrand import ConfigError, ScenarioConfig, list_scenarios

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

GRID = {"S": TWO_PI, "N_s": 16, "dt": 0.05, "t_end": 0.2}
OUTPUT = {"directory": None, "cadence": 1}
U = [[[0.5, 1.0, 0.0]], [], [[1.0, 0.0, HALF_PI]]]
V = [[], [[0.3, 2.0, 0.1], [0.2, 0.0, HALF_PI]], []]
PROFILE = {
    "type": "superposition",
    "parts": [
        {"type": "traveling", "terms": [[0.3, 1.0, 0.0]], "direction": -1},
        {"type": "standing", "amplitude": 0.1, "wavenumber": 2.0},
    ],
}
PAIR_PROFILE = {
    "type": "superposition",
    "parts": [
        {"type": "traveling", "terms": [[1.0, 0.0, HALF_PI]], "direction": 1},
        {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
    ],
}
PARAMS = {
    "spin_chain": {"A": [1.0, 2.0, 3.0], "B": [2.0, 1.0, 1.0], "initial": {"u": U, "v": V}},
    "chiral": {"initial": {"u": U, "v": V}},
    "aniso_uv": {"P": [1.0, 0.5, 2.0], "initial": {"u": U, "v": V}},
    "aniso_xy": {"P": [1.0, 0.5, 2.0], "initial": {"X": U, "Y": V}},
    "peakon": {
        "count": 2,
        "initial": {
            "q": [[[1.0, 0.0, HALF_PI]], [[-1.0, 0.0, HALF_PI], [0.1, 1.0, 0.0]]],
            "m": [[[0.5, 0.0, HALF_PI]], []],
            "n": [[], [[0.1, 1.0, 0.0]]],
        },
    },
    "peakon_single_exact": {"profile": PROFILE},
    "peakon_collision_exact": {"profile": PAIR_PROFILE, "branch": 1},
}
DIAGNOSTICS = {
    "spin_chain": [{"kind": "zero_curvature"}],
    "chiral": [{"kind": "zero_curvature", "lambdas": [0.5, 2.0]}],
    "aniso_uv": [{"kind": "lax", "lambdas": [0.0, 1.0]}],
    "aniso_xy": [{"kind": "invariant_drift"}],
}
PEAKON_DIAGNOSTICS = [{"kind": "s_constraint"}, {"kind": "conservation_sums"}]
VALID = {
    model: {
        "model": model,
        "grid": GRID,
        "params": params,
        "diagnostics": DIAGNOSTICS.get(model, PEAKON_DIAGNOSTICS),
        "output": OUTPUT,
    }
    for model, params in PARAMS.items()
}


def leaves(node, path=()):
    """(path, value) of every scalar or empty-list leaf of a JSON tree."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaves(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from leaves(child, path + (i,))
    else:
        yield path, node


def replaced(d, path, value):
    out = copy.deepcopy(d)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


LEAVES = {model: [path for path, _ in leaves(d)] for model, d in VALID.items()}
NUMERIC_LEAVES = [
    (model, path)
    for model, d in VALID.items()
    for path, value in leaves(d)
    if isinstance(value, (int, float)) and not isinstance(value, bool)
]

# values at the edges of the float range, drawn more often than st.floats() would
EDGE_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324, 10**400])
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | EDGE_NUMBERS
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def test_every_model_has_a_valid_base_config():
    assert sorted(VALID) == sorted(name for name, _ in list_scenarios())
    for d in VALID.values():
        ScenarioConfig.from_dict(d)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_leaf_parses_or_raises_config_error(data):
    model = data.draw(st.sampled_from(sorted(VALID)))
    path = data.draw(st.sampled_from(LEAVES[model]))
    value = data.draw(JSON_VALUES)
    try:
        ScenarioConfig.from_dict(replaced(VALID[model], path, value))
    except ConfigError:
        pass


def test_non_finite_or_bool_number_always_rejected():
    """Every numeric leaf of every base config, each bad value: exhaustive."""
    for model, path in NUMERIC_LEAVES:
        for value in (math.nan, math.inf, -math.inf, True, False):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(replaced(VALID[model], path, value))
