"""Config parsing under mutation: one valid config per model, one node replaced.

Whatever JSON value replaces a leaf, ``ScenarioConfig.from_dict`` either
parses the result or raises ConfigError, never another exception.  A
non-finite number or a bool in place of a number is always rejected.  Any
list emptied gives a config that is rejected or that runs, and a malformed
wave profile is rejected with a message that names the bad entry's path.
"""

import copy
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrand import ConfigError, ScenarioConfig, SimulationError, list_scenarios, run_scenario

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
    "spin_chain": {"A": [1.0, 2.0, 3.0], "B": [-2.0, -1.0, -1.0], "initial": {"u": U, "v": V}},
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


def list_nodes(node, path=()):
    """Path of every non-empty list in a JSON tree."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from list_nodes(child, path + (key,))
    elif isinstance(node, list) and node:
        yield path
        for i, child in enumerate(node):
            yield from list_nodes(child, path + (i,))


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


# the base configs, plus each exact model on each part of its profile alone,
# so that a bare traveling profile loses its terms too
BASES = dict(VALID)
for model in ("peakon_single_exact", "peakon_collision_exact"):
    for i, part in enumerate(VALID[model]["params"]["profile"]["parts"]):
        BASES[f"{model}.parts[{i}]"] = replaced(VALID[model], ("params", "profile"), part)
EMPTIED = [(base, path) for base, d in BASES.items() for path in list_nodes(d)]


@pytest.mark.parametrize(
    "base,path", EMPTIED, ids=[f"{b}:{'.'.join(map(str, p))}" for b, p in EMPTIED]
)
def test_emptied_list_is_rejected_or_runs(base, path):
    """An empty harmonic series is a zero field; other lists may be rejected."""
    try:
        cfg = ScenarioConfig.from_dict(replaced(BASES[base], path, []))
    except ConfigError:
        return
    try:
        run_scenario(cfg, keep_snapshots=False)
    except SimulationError:
        pass


@pytest.mark.parametrize(
    "bad,where",
    [
        pytest.param({"type": "standing", "amplitude": 0.5},
                     "parts[1] is missing required keys ['wavenumber']", id="no-wavenumber"),
        pytest.param({"type": "traveling", "terms": [[0.3, 1.0, 0.0]]},
                     "parts[1] is missing required keys ['direction']", id="no-direction"),
        pytest.param({"type": "traveling", "terms": [[0.3, 1.0]], "direction": 1},
                     "parts[1].terms[0] must be an [amp, k, phase] triple", id="term-of-2"),
        pytest.param({"type": "traveling", "terms": 5, "direction": 1},
                     "parts[1].terms must be a list", id="terms-5"),
        pytest.param({"type": "superposition", "parts": 5},
                     "parts[1].parts must be a non-empty list", id="parts-5"),
        pytest.param({"type": "superposition", "parts": []},
                     "parts[1].parts must be a non-empty list", id="parts-empty"),
        pytest.param({"type": "traveling", "terms": [[0.3, 1.0, 0.0]], "direction": 2},
                     "parts[1].direction must be +1 or -1, got 2", id="direction-2"),
    ],
)
def test_malformed_profile_is_rejected_by_its_path(bad, where):
    d = copy.deepcopy(VALID["peakon_single_exact"])
    d["params"]["profile"] = {"type": "superposition", "parts": [PROFILE["parts"][0], bad]}
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(d)
    message = str(info.value)
    assert message.startswith("params.profile: bad profile descriptor: ")
    assert where in message
    assert not re.search(r"unpack|not iterable|: '\w+'$", message), message
