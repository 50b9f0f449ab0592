"""Scenario validation, RK4 stepping, run reports, and file outputs."""

import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from gstrand import (
    BlowUpError,
    ConfigError,
    DerivativeStencil,
    ScenarioConfig,
    SimulationError,
    SingularConfigurationError,
    WaveProfile,
    _g17,
    aniso_lax,
    build_J,
    chiral_lax,
    convergence_study,
    embed_so4,
    integrability,
    invariant_drift,
    list_scenarios,
    peakon_dynamics,
    peakon_rhs,
    rk4_step,
    run_scenario,
    s_constraint_residual,
    sim_harness,
    single_peakon_exact,
    so3_dynamics,
    zero_curvature_residual,
)
from gstrand.analytic_solutions import MAX_PROFILE_DEPTH
from gstrand.cli import main
from gstrand.peakon_dynamics import K0
from oracles import compatibility_residual
from test_analytic_solutions import node_bound

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def chiral_dict():
    return {
        "model": "chiral",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "initial": {
                "u": [[[1.0, 1.0, 0.0]], [], [[1.0, 1.0, HALF_PI]]],
                "v": [[], [[1.0, 1.0, HALF_PI]], []],
            }
        },
        "diagnostics": [{"kind": "zero_curvature"}],
        "output": {"directory": None, "cadence": 1},
    }


def single_exact_dict():
    return {
        "model": "peakon_single_exact",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "profile": {
                "type": "superposition",
                "parts": [
                    {"type": "traveling", "terms": [[0.3, 1.0, 0.0]], "direction": 1},
                    {"type": "traveling", "terms": [[0.1, 2.0, 0.0]], "direction": -1},
                ],
            }
        },
        "diagnostics": [{"kind": "s_constraint"}],
        "output": {"directory": None, "cadence": 1},
    }


# ------------------------------------------------------------------------- rk4


def test_rk4_frozen_decay_step():
    out = rk4_step(1.0, lambda y: -y, 0.1)
    assert abs(float(out) - 0.9048375) < 1e-15


def test_rk4_zero_rhs_identity():
    y = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(rk4_step(y, lambda y: np.zeros_like(y), 0.3), y)


def test_rk4_global_order_four():
    errs = []
    for steps in (20, 40):
        y = 1.0
        dt = 1.0 / steps
        for _ in range(steps):
            y = rk4_step(y, lambda y: -y, dt)
        errs.append(abs(y - math.exp(-1.0)))
    order = math.log2(errs[0] / errs[1])
    assert 3.9 < order < 4.1


def test_rk4_rejects_bad_dt():
    with pytest.raises(ValueError):
        rk4_step(1.0, lambda y: -y, 0.0)
    with pytest.raises(ValueError):
        rk4_step(1.0, lambda y: -y, -0.1)


def test_rk4_flags_non_finite_result():
    with pytest.raises(BlowUpError):
        rk4_step(np.array([1.0]), lambda y: y * np.inf, 0.1)


def sum_form_rk4(state, rhs, dt):
    """The step as one expression, as rk4_step formed it before it accumulated
    the update in place; a bitwise oracle."""
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def signed_zero_packed(rng, shape=(2, 16, 3)):
    y = rng.standard_normal(shape)
    y[rng.random(shape) < 0.25] = 0.0
    y[rng.random(shape) < 0.25] = -0.0
    return y


def read_only(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("model", ["spin_chain", "chiral", "aniso_uv", "aniso_xy"])
def test_rk4_bitwise_equals_sum_form(model):
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()[model])
    sten = DerivativeStencil(2, cfg.s_length / cfg.n_nodes)
    rhs = sim_harness._SPECS[model].rhs(cfg.params, sten,
                                        sim_harness._nodes(cfg.s_length, cfg.n_nodes))
    rng = np.random.default_rng(17)
    for dt in (0.02, 1.0 / 3.0):
        y = signed_zero_packed(rng, (2, cfg.n_nodes, 3))
        got, want = rk4_step(y, rhs, dt), sum_form_rk4(y, rhs, dt)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def read_only_rhs(log):
    """An RHS whose every result is read-only; the third is a view of its input."""

    def rhs(y):
        k = read_only(y.view() if len(log) == 2 else np.sin(y) * y - 0.5 * y)
        log.append((k, k.copy()))
        return k

    return rhs


def test_rk4_writes_into_nothing_it_was_handed():
    """A read-only state and read-only stage derivatives, one of them the
    stage input itself: the step raises nothing and returns the old bits."""
    state = read_only(signed_zero_packed(np.random.default_rng(4)))
    before = state.copy()
    returned = []
    got = rk4_step(state, read_only_rhs(returned), 0.1)
    want = sum_form_rk4(before, read_only_rhs([]), 0.1)
    assert len(returned) == 4
    assert state.tobytes() == before.tobytes()
    for k, saved in returned:
        assert k.tobytes() == saved.tobytes()
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_rk4_holds_three_arrays_and_drops_each_stage_input():
    """The step never has more than three arrays of its own alive: it drops
    each stage input once its derivative is returned, and each derivative
    once it is in the update and the next stage input.  Arrays that the step
    forms from a state of an ndarray subclass are of that class, so each is
    counted as it is made, with the count of those alive then, itself
    included; the state is not counted.  A step that held each stage input
    until the next was formed, and k1 until the third was, formed the last
    two stage inputs with four alive."""
    alive, births = set(), []
    tokens = itertools.count()

    class Counted(np.ndarray):
        def __array_finalize__(self, obj):
            if self.dtype == np.float64:
                token = next(tokens)
                alive.add(token)
                weakref.finalize(self, alive.discard, token)
                self.alive_at_birth = len(alive)
                births.append(len(alive))

    state = signed_zero_packed(np.random.default_rng(5)).view(Counted)
    alive.clear()
    births.clear()
    inputs = []  # the count at each stage input's birth

    def rhs(y):
        inputs.append(None if y is state else y.alive_at_birth)
        return np.negative(y)

    got = rk4_step(state, rhs, 0.1)
    assert inputs == [None, 2, 3, 3]
    assert max(births) == 3
    want = sum_form_rk4(state.view(np.ndarray), np.negative, 0.1)
    assert np.array_equal(got.view(np.ndarray), want)


@pytest.mark.parametrize("state", [0.75, -0.0, np.float64(0.75), read_only(np.array(0.75)),
                                   read_only(np.array([0.75, -0.0]))])
def test_rk4_scalar_and_zero_dim_states(state):
    def rhs(y):
        return -y * y

    got, want = rk4_step(state, rhs, 0.1), sum_form_rk4(state, rhs, 0.1)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ------------------------------------------------------------ config validation


def test_valid_config_parses():
    cfg = ScenarioConfig.from_dict(chiral_dict())
    assert cfg.model == "chiral"
    assert cfg.n_steps == 8
    assert cfg.n_nodes == 64
    assert cfg.diagnostics[0]["kind"] == "zero_curvature"
    assert cfg.diagnostics[0]["lambdas"] == (0.5, 1.0, 2.0, -1.0)


def mutate(path, value):
    d = chiral_dict()
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return d


@pytest.mark.parametrize(
    "path,value",
    [
        (("model",), "heat"),
        (("grid", "N_s"), 4),
        (("grid", "N_s"), 64.5),
        (("grid", "N_s"), True),
        (("grid", "dt"), 0.0),
        (("grid", "dt"), 0.05),           # CFL 0.509 > 0.5
        (("grid", "t_end"), 0.105),       # not a multiple of dt
        (("grid", "t_end"), 0.001),       # shorter than one step
        (("grid", "S"), -1.0),
        (("output", "cadence"), 0),
        (("output", "cadence"), 3),       # does not divide 8 steps
        (("output", "directory"), 42),
        (("diagnostics",), "zero_curvature"),
        (("diagnostics",), [{"kind": "s_constraint"}]),
        (("diagnostics",), [{"kind": "zero_curvature"}, {"kind": "zero_curvature"}]),
        (("diagnostics",), [{"kind": "zero_curvature", "lambdas": [0.0]}]),
        (("diagnostics",), [{"kind": "zero_curvature", "lambdas": []}]),
        (("diagnostics",), [{"kind": "zero_curvature", "window": 2}]),
        (("params",), {}),
        (("params", "initial"), {"u": [[], [], []]}),
        (("params", "initial", "u"), [[[1.0, 1.5, 0.0]], [], []]),  # aperiodic k
        (("params", "initial", "u"), [[], []]),
        (("grid", "t_end"), 1e308),       # t_end / dt overflows to inf
        pytest.param(("grid", "S"), 10**400, id="S-beyond-float"),
        pytest.param(("grid", "dt"), 10**400, id="dt-beyond-float"),
        pytest.param(("grid", "N_s"), 10**400, id="N_s-beyond-float"),
        (("grid", "S"), 5e-324),          # S / N_s underflows to 0
        (("params", "initial", "u"), [[[1.0, 1e308, 0.0]], [], []]),  # k * S overflows
        (("grid", "t_end"), 1e300),       # 8e301 steps: a run that never ends
        pytest.param(("grid", "t_end"), (sim_harness.MAX_STEPS + 1) * 0.0125,
                     id="t_end-one-step-over-MAX_STEPS"),
    ],
)
def test_config_rejects(path, value):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(mutate(path, value))


def traveling(amp=0.3, k=1.0, phase=0.0, direction=1):
    return {"type": "traveling", "terms": [[amp, k, phase]], "direction": direction}


def standing(amp=0.5, k=1.0):
    return {"type": "standing", "amplitude": amp, "wavenumber": k}


@pytest.mark.parametrize(
    "profile",
    [
        traveling(amp=math.nan),
        traveling(amp=math.inf),
        traveling(amp=-math.inf),
        traveling(amp=True),
        traveling(amp=False),
        traveling(amp="0.5"),
        traveling(amp=10**400),
        traveling(k=math.nan),
        traveling(k=math.inf),
        traveling(phase=math.nan),
        traveling(phase=-math.inf),
        traveling(direction=True),
        standing(amp=math.nan),
        standing(amp=math.inf),
        standing(amp="0.5"),
        standing(amp=True),
        standing(k=math.nan),
        standing(k=-math.inf),
        standing(k=1e308),
        standing(k=False),
        {"type": "superposition", "parts": [traveling(), standing(amp=math.nan)]},
    ],
)
def test_profile_numbers_validated_at_config_time(profile):
    d = single_exact_dict()
    d["params"]["profile"] = profile
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(d)


def test_nested_profile_error_names_its_prefix_once():
    inner = {"type": "superposition", "parts": [traveling(amp=math.nan)]}
    d = single_exact_dict()
    d["params"]["profile"] = {"type": "superposition", "parts": [standing(), inner]}
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(d)
    message = str(info.value)
    assert message.count("bad profile descriptor") == 1
    assert "parts[1].parts[0].terms[0][0] must be finite" in message


def test_step_count_bound():
    """MAX_STEPS steps parse; one more is a ConfigError naming the count, also via refined."""
    d = chiral_dict()
    d["grid"]["t_end"] = sim_harness.MAX_STEPS * 0.0125
    assert ScenarioConfig.from_dict(d).n_steps == sim_harness.MAX_STEPS
    d["grid"]["t_end"] = (sim_harness.MAX_STEPS + 1) * 0.0125
    with pytest.raises(ConfigError, match=f"{sim_harness.MAX_STEPS + 1} steps"):
        ScenarioConfig.from_dict(d)
    d["grid"]["t_end"] = (sim_harness.MAX_STEPS // 2 + 1) * 0.0125
    with pytest.raises(ConfigError, match="limit"):
        ScenarioConfig.from_dict(d).refined(2)


def test_node_count_bound():
    """MAX_NODES nodes parse; one more is a ConfigError naming the limit, also via refined."""
    top = sim_harness.MAX_NODES
    d = chiral_dict()
    d["grid"].update({"N_s": top, "dt": 2.0**-20, "t_end": 2.0**-18})
    assert ScenarioConfig.from_dict(d).n_nodes == top
    d["grid"]["N_s"] = top + 1
    with pytest.raises(ConfigError, match=f"at most {top}, got {top + 1}"):
        ScenarioConfig.from_dict(d)
    d["grid"]["N_s"] = top // 2
    cfg = ScenarioConfig.from_dict(d)
    assert cfg.refined(2).n_nodes == top
    with pytest.raises(ConfigError, match=f"at most {top}, got {2 * top}"):
        cfg.refined(4)


def test_config_rejects_unknown_top_key():
    d = chiral_dict()
    d["seed"] = 7
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig.from_dict(d)


def test_config_rejects_missing_output():
    d = chiral_dict()
    del d["output"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(d)


def test_cadence_must_leave_three_snapshots_for_curvature():
    d = chiral_dict()
    d["output"]["cadence"] = 8  # stores only t = 0 and t_end
    with pytest.raises(ConfigError, match="3"):
        ScenarioConfig.from_dict(d)


def test_spin_chain_compatibility_takes_no_lambdas():
    d = chiral_dict()
    d["model"] = "spin_chain"
    d["params"]["A"] = [1.0, 2.0, 3.0]
    d["params"]["B"] = [-2.0, -1.0, -1.0]
    d["diagnostics"] = [{"kind": "zero_curvature", "lambdas": [1.0]}]
    with pytest.raises(ConfigError, match="spectral"):
        ScenarioConfig.from_dict(d)


def test_peakon_count_must_match_initial_lists():
    d = {
        "model": "peakon",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.05},
        "params": {
            "count": 2,
            "initial": {
                "q": [[[1.0, 0.0, HALF_PI]]],  # only one peakon given
                "m": [[[0.5, 0.0, HALF_PI]], []],
                "n": [[], []],
            },
        },
        "diagnostics": [],
        "output": {"directory": None, "cadence": 1},
    }
    with pytest.raises(ConfigError, match="2"):
        ScenarioConfig.from_dict(d)


def test_collision_branch_validated():
    d = {
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.05},
        "params": {
            "profile": {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
            "branch": 0,
        },
        "diagnostics": [],
        "output": {"directory": None, "cadence": 1},
    }
    with pytest.raises(ConfigError, match="branch"):
        ScenarioConfig.from_dict(d)


def test_bad_profile_descriptor_is_config_error():
    d = single_exact_dict()
    d["params"]["profile"] = {"type": "sawtooth"}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(d)


def model_dict(model):
    """``chiral_dict`` switched to ``model``, with the parameters it needs."""
    d = chiral_dict()
    d["model"] = model
    d["diagnostics"] = []
    if model == "spin_chain":
        d["params"].update(A=[1.0, 2.0, 3.0], B=[-2.0, -1.0, -1.0])
    elif model == "aniso_uv":
        d["params"]["P"] = [1.0, 2.0, 3.0]
    elif model == "aniso_xy":
        initial = d["params"]["initial"]
        d["params"].update(P=[1.0, 2.0, 3.0], initial={"X": initial["u"], "Y": initial["v"]})
    elif model == "peakon":
        d["params"] = {
            "count": 1,
            "initial": {"q": [[[1.0, 0.0, HALF_PI]]], "m": [[]], "n": [[]]},
        }
    return d


@pytest.mark.parametrize(
    "model,path,value,where",
    [
        pytest.param("chiral", ("grid",), [64], "grid", id="section-not-object"),
        pytest.param("chiral", ("params", "initial", "u"), [[[1.0, 1.0]], [], []],
                     "params.initial.u[0][0]", id="term-not-triple"),
        pytest.param("aniso_uv", ("params", "P"), [1.0, 2.0], "params.P",
                     id="diagonal-length-2"),
        pytest.param("spin_chain", ("params", "A"), [1.0, 0.0, 3.0], "params.A",
                     id="zero-inertia"),
        # the zero check runs before the ellipticity check, which would name params.B
        pytest.param("spin_chain", ("params", "A"), [1.0, -0.0, 3.0], "params.A",
                     id="negative-zero-inertia-A"),
        pytest.param("spin_chain", ("params", "B"), [-2.0, 0.0, -1.0], "params.B",
                     id="zero-inertia-B"),
        pytest.param("spin_chain", ("params", "A"), [1.0, 2.0, 3.0, 4.0], "params.A",
                     id="diagonal-length-4"),
        pytest.param("spin_chain", ("params", "B"), -2.0, "params.B", id="diagonal-not-list"),
        pytest.param("spin_chain", ("params", "B"), [-2.0, math.nan, -1.0], "params.B[1]",
                     id="nan-inertia-B"),
        pytest.param("spin_chain", ("params", "A"), [1.0, 2.0, math.inf], "params.A[2]",
                     id="inf-inertia-A"),
        pytest.param("aniso_uv", ("params", "P"), [math.nan, 2.0, 3.0], "params.P[0]",
                     id="nan-weight"),
        pytest.param("aniso_uv", ("params", "P"), [1.0, True, 3.0], "params.P[1]",
                     id="bool-weight"),
        pytest.param("aniso_xy", ("params", "P"), [1.0, 2.0, 3.0, 4.0], "params.P",
                     id="xy-diagonal-length-4"),
        pytest.param("aniso_xy", ("params", "P"), [1.0, "2", 3.0], "params.P[1]",
                     id="xy-string-weight"),
        pytest.param("peakon", ("params", "count"), 0, "params.count", id="count-0"),
        pytest.param("peakon", ("params", "count"), 9, "params.count", id="count-over-max"),
    ],
)
def test_config_rejection_names_its_path(model, path, value, where):
    d = model_dict(model)
    ScenarioConfig.from_dict(copy.deepcopy(d))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(d)
    assert str(info.value).startswith(where)


@pytest.mark.parametrize("model,key", [
    ("spin_chain", "A"), ("spin_chain", "B"), ("aniso_uv", "P"), ("aniso_xy", "P"),
])
def test_parsed_diagonal_is_a_float_copy_of_its_entries(model, key):
    """A diagonal parses to a (3,) float64 array of its entries, -0.0 keeping
    its sign, and changing the source list afterwards changes nothing."""
    d = model_dict(model)
    entries = {"A": [1, 2, 3], "B": [-2, -1, -1], "P": [-0.0, 2, 3]}[key]
    d["params"][key] = entries
    cfg = ScenarioConfig.from_dict(d)
    got = cfg.params[key]
    assert got.shape == (3,) and got.dtype == np.float64
    want = np.array(entries, dtype=float)
    assert got.tobytes() == want.tobytes()
    entries[0] = 99
    assert cfg.params[key].tobytes() == want.tobytes()


DIAGONAL_RHS = {
    "spin_chain": lambda y, p, sten: so3_dynamics.spin_chain_rhs(y, p["A"], p["B"], sten),
    "aniso_uv": lambda y, p, sten: so3_dynamics.aniso_rhs_uv(y, p["P"], sten),
    "aniso_xy": lambda y, p, sten: so3_dynamics.aniso_rhs_XY(y, p["P"], sten),
}


@pytest.mark.parametrize("model", sorted(DIAGONAL_RHS))
def test_rhs_builder_equals_the_plain_diagonal(model):
    """The RHS a run builds, with its diagonals tiled to the nodes, has the
    bits of the kernel given the parsed (3,) diagonals, for each of several
    node counts in turn; +-0.0, inf and nan entries included, and the
    read-only input is never written."""
    d = model_dict(model)
    d["params"].update({"spin_chain": {"A": [0.5, -2.0, 3.0], "B": [-1.5, 0.25, -7.0]},
                        "aniso_uv": {"P": [-0.0, 1.25, 0.0]},
                        "aniso_xy": {"P": [1.5, -0.0, -2.0]}}[model])
    spec = sim_harness._SPECS[model]
    p = spec.parse(d["params"], TWO_PI)
    rng = np.random.default_rng(25)
    for n_nodes in (7, 12, 2):
        sten = DerivativeStencil(2, TWO_PI / n_nodes)
        rhs = spec.rhs(p, sten, sim_harness._nodes(TWO_PI, n_nodes))
        y = signed_zero_packed(rng, (2, n_nodes, 3))
        y[1, 0] = [-0.0, np.inf, -np.inf]
        y[0, -1, 2] = np.nan
        y = read_only(y)
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, inf - inf
            got, want = rhs(y), np.stack(DIAGONAL_RHS[model](y, p, sten))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", ["aniso_uv", "aniso_xy"])
def test_singular_weights_parse_and_run(model):
    """Only the inertia operators must be invertible: weights P with 0.0 and
    -0.0 entries parse and run, and the run equals the one with +0.0 in
    place of -0.0 (signed zeros compare equal)."""
    reports = []
    for middle in (-0.0, 0.0):
        d = output_digests.small_runs()[model]
        d["params"]["P"] = [0.0, middle, 1.5]
        reports.append(run_scenario(ScenarioConfig.from_dict(d)))
    signed, unsigned = reports
    assert signed.status == unsigned.status == "ok"
    assert len(signed.snapshots) == len(unsigned.snapshots) > 1
    for y, z in zip(signed.snapshots, unsigned.snapshots):
        assert np.isfinite(y).all() and np.array_equal(y, z)


@pytest.mark.parametrize(
    "model,kind,lambdas",
    [
        ("chiral", "zero_curvature", [0.5, 0.5]),
        ("chiral", "zero_curvature", [1.0000001, 1.0000002]),
        ("aniso_uv", "lax", [0.5, 0.5000001]),
    ],
)
def test_lambdas_must_name_distinct_columns(model, kind, lambdas):
    d = model_dict(model)
    d["diagnostics"] = [{"kind": kind, "lambdas": lambdas}]
    with pytest.raises(ConfigError, match="more than once"):
        ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("lam", [0.0, -0.0, 5e-324, 1e-309, -1e-309])
def test_chiral_lambda_at_the_pole_is_config_error(lam):
    """A chiral lambda of 0, or one whose 1/lambda overflows, is rejected
    with the entry that names it; 1e-308 still has a finite 1/lambda."""
    d = chiral_dict()
    d["diagnostics"] = [{"kind": "zero_curvature", "lambdas": [0.5, lam]}]
    with pytest.raises(ConfigError, match=r"^diagnostics\[0\]\.lambdas\[1\] = .*pole at lambda 0"):
        ScenarioConfig.from_dict(d)
    d["diagnostics"][0]["lambdas"][1] = 1e-308
    assert ScenarioConfig.from_dict(d).diagnostics[0]["lambdas"] == (0.5, 1e-308)


def test_profile_nesting_bound():
    """MAX_PROFILE_DEPTH nested superpositions parse; one more is a ConfigError."""

    def nested(depth):
        profile = standing(amp=0.3)
        for _ in range(depth):
            profile = {"type": "superposition", "parts": [profile]}
        d = single_exact_dict()
        d["params"]["profile"] = profile
        return d

    ScenarioConfig.from_dict(nested(MAX_PROFILE_DEPTH))
    with pytest.raises(ConfigError, match=f"more than {MAX_PROFILE_DEPTH} deep"):
        ScenarioConfig.from_dict(nested(MAX_PROFILE_DEPTH + 1))


@pytest.mark.parametrize("profile", [standing, traveling], ids=["standing", "traveling"])
def test_exact_profiles_parse_at_every_periodic_wavenumber(profile):
    """Factory profiles are exact, so no finite-difference check may reject them;
    one did from k = 10 (standing) and k = 23 (traveling) up."""
    for k in range(1, 2001):
        d = single_exact_dict()
        d["params"]["profile"] = profile(amp=1.0, k=k)
        ScenarioConfig.from_dict(d)


def test_from_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ScenarioConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        ScenarioConfig.from_file(bad)


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(chiral_dict()), encoding="utf-8")
    cfg = ScenarioConfig.from_file(path)
    assert cfg.n_steps == 8


def test_refined_halves_jointly():
    cfg = ScenarioConfig.from_dict(chiral_dict())
    fine = cfg.refined(2)
    assert fine.n_nodes == 128
    assert fine.dt == 0.00625
    assert fine.directory is None
    assert fine.n_steps == 16
    with pytest.raises(ConfigError):
        cfg.refined(0)


@pytest.mark.parametrize("factor", [True, False, 2.0, "2"])
def test_refined_rejects_a_factor_that_is_no_integer(factor):
    """A bool is no factor, though True == 1 is an int to isinstance."""
    cfg = ScenarioConfig.from_dict(chiral_dict())
    with pytest.raises(ConfigError, match="refinement factor must be a positive integer"):
        cfg.refined(factor)


# ----------------------------------------------------------------- run_scenario


def test_chiral_run_report_shape():
    cfg = ScenarioConfig.from_dict(chiral_dict())
    rep = run_scenario(cfg)
    assert rep.status == "ok"
    assert rep.n_steps == 8
    assert len(rep.snapshots) == 9
    assert rep.times[0] == 0.0
    assert abs(rep.times[-1] - 0.1) < 1e-12
    assert set(rep.diagnostics) == {"zero_curvature"}
    cols = rep.diagnostics["zero_curvature"]["columns"]
    assert set(cols) == {"lam_0.5", "lam_1", "lam_2", "lam_-1"}
    # the pair degenerates to zero at lambda = -1, so its residual is exact
    np.testing.assert_array_equal(cols["lam_-1"], np.zeros(7))
    assert 0.0 < np.max(cols["lam_1"]) < 1e-2


def test_chiral_fixed_point_stays_exact():
    """Aligned constant fields u = v = e3 solve the model exactly; every
    snapshot and every curvature residual must be identically zero."""
    d = chiral_dict()
    d["params"]["initial"] = {
        "u": [[], [], [[1.0, 0.0, HALF_PI]]],
        "v": [[], [], [[1.0, 0.0, HALF_PI]]],
    }
    rep = run_scenario(ScenarioConfig.from_dict(d))
    for y in rep.snapshots:
        np.testing.assert_array_equal(y, rep.snapshots[0])
    for series in rep.diagnostics["zero_curvature"]["columns"].values():
        np.testing.assert_array_equal(series, np.zeros_like(series))


def test_spin_chain_run_compatibility_residual():
    d = chiral_dict()
    d["model"] = "spin_chain"
    d["params"]["A"] = [1.0, 2.0, 3.0]
    d["params"]["B"] = [-2.0, -1.0, -1.0]
    rep = run_scenario(ScenarioConfig.from_dict(d))
    cols = rep.diagnostics["zero_curvature"]["columns"]
    assert set(cols) == {"residual"}
    assert 0.0 < np.max(cols["residual"]) < 1e-2


def spin_chain_dict(a, b, n_nodes=64, dt=0.0125, steps=8):
    """``chiral_dict`` as a spin chain with inertia diagonals ``a`` and ``b``."""
    d = chiral_dict()
    d["model"] = "spin_chain"
    d["params"].update(A=list(a), B=list(b))
    d["grid"].update(N_s=n_nodes, dt=dt, t_end=steps * dt)
    return d


@pytest.mark.parametrize("a,b,bad", [
    ([1.0, 2.0, 3.0], [2.0, 1.0, 1.0], 0),  # the spin-chain run data before the check
    ([1.0, 1.0, 1.0], [-1.0, 2.0, -1.0], 1),
    ([1.0, 1.0, 1.0], [-1.0, -1.0, 1e-300], 2),
    ([1.0, 1.0, -2.0], [-1.0, -1.0, -1.0], 2),  # a negative A entry too
])
def test_elliptic_spin_chain_is_rejected_naming_the_component(a, b, bad):
    """B_i / A_i > 0 makes the linearised chain u_tt = -(B_i / A_i) u_ss
    elliptic: an ill-posed initial-value problem."""
    where = rf"^params\.B\[{bad}\] / params\.A\[{bad}\] = "
    with pytest.raises(ConfigError, match=where + ".*elliptic"):
        ScenarioConfig.from_dict(spin_chain_dict(a, b))


def test_spin_chain_with_negative_a_and_positive_b_is_hyperbolic():
    cfg = ScenarioConfig.from_dict(spin_chain_dict([-1.0, 1.0, 1.0], [4.0, -1.0, -1.0]))
    assert sim_harness._SPECS["spin_chain"].wave_speed(cfg.params) == 2.0


def test_wave_speed_is_the_fastest_spin_chain_wave_and_one_elsewhere():
    for name, d in output_digests.small_runs().items():
        cfg = ScenarioConfig.from_dict(d)
        speed = sim_harness._SPECS[cfg.model].wave_speed(cfg.params)
        assert speed == (math.sqrt(2.0) if cfg.model == "spin_chain" else 1.0), name


def test_spin_chain_cfl_number_counts_the_wave_speed():
    """c_max dt/ds, not dt/ds, is held to CFL_LIMIT: with B = -9 A (c = 3)
    dt/ds = 1/6 parses and 1/5 does not, though both are under 0.5."""
    ds = TWO_PI / 64
    ScenarioConfig.from_dict(spin_chain_dict([1.0, 2.0, 3.0], [-9.0, -18.0, -3.0], dt=ds / 6))
    with pytest.raises(ConfigError, match=r"dt/ds = 0\.6, with wave speed c_max = 3, exceeds"):
        ScenarioConfig.from_dict(
            spin_chain_dict([1.0, 2.0, 3.0], [-9.0, -18.0, -3.0], dt=ds / 5))


def test_refined_spin_chain_checks_the_wave_speed_again():
    """A refined copy checks c_max dt/ds on its own grid."""
    ds = TWO_PI / 64
    cfg = ScenarioConfig.from_dict(spin_chain_dict([1.0] * 3, [-9.0] * 3, dt=ds / 8))
    assert cfg.refined(4).dt == cfg.dt / 4
    fast = dataclasses.replace(cfg, dt=2.0 * cfg.dt, n_steps=cfg.n_steps // 2)
    with pytest.raises(ConfigError, match="c_max"):
        fast.refined(2)


def test_hyperbolic_spin_chain_final_states_converge_at_second_order():
    """The spin-chain run data (B = [-2, -1, -1]) to t = 0.6: successive
    levels' final states, compared on the coarse nodes, differ at order
    about 2 from N_s = 32 to 256."""
    d = output_digests.small_runs()["spin_chain"]
    d["grid"]["t_end"] = 30 * d["grid"]["dt"]
    d["output"]["cadence"] = 30
    d["diagnostics"] = []
    cfg = ScenarioConfig.from_dict(d)
    finals = [run_scenario(cfg.refined(2**k)).snapshots[-1][:, ::2**k] for k in range(4)]
    diffs = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(finals, finals[1:])]
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    assert min(orders) >= 1.8, (diffs, orders)


def test_aniso_xy_run_preserves_node_magnitudes():
    d = {
        "model": "aniso_xy",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "P": [1.0, 2.0, 3.0],
            "initial": {
                "X": [[[1.0, 0.0, HALF_PI]], [], []],
                "Y": [[], [[1.0, 0.0, HALF_PI]], []],
            },
        },
        "diagnostics": [{"kind": "invariant_drift"}],
        "output": {"directory": None, "cadence": 1},
    }
    rep = run_scenario(ScenarioConfig.from_dict(d))
    cols = rep.diagnostics["invariant_drift"]["columns"]
    assert np.max(cols["drift_X"]) < 1e-8
    assert np.max(cols["drift_Y"]) < 1e-8


def test_single_exact_reference_error_tracked():
    rep = run_scenario(ScenarioConfig.from_dict(single_exact_dict()))
    err = rep.reference_error["columns"]
    assert set(err) == {"err_Q", "err_M", "err_N"}
    assert err["err_Q"][0] == 0.0
    assert np.max(err["err_Q"]) < 2e-3
    assert np.max(rep.diagnostics["s_constraint"]["columns"]["residual"]) < 5e-3


def test_collision_run_away_from_interaction():
    """Profile 1 + small standing wave keeps h away from 0: no singularity."""
    d = {
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "profile": {
                "type": "superposition",
                "parts": [
                    {"type": "traveling", "terms": [[1.0, 0.0, HALF_PI]], "direction": 1},
                    {"type": "standing", "amplitude": 0.25, "wavenumber": 1.0},
                ],
            },
            "branch": 1,
        },
        "diagnostics": [{"kind": "s_constraint"}, {"kind": "conservation_sums"}],
        "output": {"directory": None, "cadence": 1},
    }
    rep = run_scenario(ScenarioConfig.from_dict(d))
    assert rep.status == "ok"
    assert set(rep.reference_error["columns"]) == {"err_X"}
    assert np.max(rep.reference_error["columns"]["err_X"]) < 0.05
    sums = rep.diagnostics["conservation_sums"]["columns"]
    assert set(sums) == {"sum_M", "sum_N_skew"}
    assert np.max(np.abs(sums["sum_M"] - sums["sum_M"][0])) < 1e-10


def test_single_peakon_conservation_has_no_skew_column():
    d = single_exact_dict()
    d["diagnostics"] = [{"kind": "conservation_sums"}]
    rep = run_scenario(ScenarioConfig.from_dict(d))
    assert set(rep.diagnostics["conservation_sums"]["columns"]) == {"sum_M"}


@pytest.mark.parametrize("model", ["peakon_single_exact", "peakon"])
def test_lone_peakon_run_never_builds_the_kernel(model, monkeypatch):
    """A = 1: neither the right-hand side nor the s-constraint forms the kernel
    or asks for its pair layout."""
    def forbidden(*args):
        raise AssertionError("kernel formed for a lone peakon")

    for name in ("_checked_kernel", "_sorted_terms", "_pair_layout", "kernel_matrix"):
        monkeypatch.setattr(peakon_dynamics, name, forbidden)
    if model == "peakon":
        d = model_dict("peakon")
        d["params"]["initial"]["n"] = [[[0.2, 1.0, 0.0]]]
        d["diagnostics"] = [{"kind": "s_constraint"}]
    else:
        d = single_exact_dict()
    report = run_scenario(ScenarioConfig.from_dict(d))
    assert report.status == "ok"
    assert report.diagnostics["s_constraint"]["columns"]["residual"].shape == (9,)


def test_collision_hits_interaction_node(tmp_path, monkeypatch):
    """With 64 nodes one grid point sits where h = 0 at t = 0: the two peakon
    positions coincide there and the coincidence guard must fire on the
    first RHS call, reported against the initial data, with the t = 0
    snapshot still written."""
    calls = []

    def counted_rhs(*args):
        calls.append(args)
        return peakon_rhs(*args)

    monkeypatch.setattr(sim_harness, "peakon_rhs", counted_rhs)
    d = {
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "profile": {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
            "branch": 1,
        },
        "diagnostics": [],
        "output": {"directory": str(tmp_path), "cadence": 1},
    }
    with pytest.raises(SingularConfigurationError, match=r"\(initial data, t = 0\)$"):
        run_scenario(ScenarioConfig.from_dict(d))
    assert len(calls) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"].startswith("failed: coincident peakons")
    assert len((tmp_path / "Q.csv").read_text().splitlines()) == 1 + 64


def test_blow_up_annotated_and_partial_outputs_written(tmp_path):
    d = chiral_dict()
    d["params"]["initial"]["u"] = [[[1e160, 1.0, 0.0]], [], []]
    out = tmp_path / "boom"
    d["output"]["directory"] = str(out)
    with pytest.raises(BlowUpError, match=r"step 1"):
        run_scenario(ScenarioConfig.from_dict(d))
    assert (out / "report.json").exists()
    assert (out / "u.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["status"].startswith("failed")


def test_each_state_is_scanned_for_non_finite_values_once(monkeypatch):
    """The first stage of every step after the first reads the state that
    rk4_step has just checked, so only the initial data and the three inner
    stages of each step are scanned: 3 n + 1 scans for n steps."""
    scans = []
    guard = sim_harness._guard_finite
    monkeypatch.setattr(sim_harness, "_guard_finite", lambda y: scans.append(guard(y)))
    cfg = ScenarioConfig.from_dict(chiral_dict())
    run_scenario(cfg, keep_snapshots=False)
    assert cfg.n_steps == 8 and len(scans) == 3 * 8 + 1


@pytest.mark.parametrize("model", ["chiral", "aniso_uv", "aniso_xy"])
def test_one_stencil_call_per_rhs_evaluation_and_none_per_curvature_level(model, monkeypatch):
    """Each stage differentiates both fields in one call on the node-first
    view; the chiral curvature, read from the step's first stage, makes none."""
    calls = []
    original = DerivativeStencil.__call__
    monkeypatch.setattr(DerivativeStencil, "__call__",
                        lambda self, f: calls.append(np.shape(f)) or original(self, f))
    d = output_digests.small_runs()[model]
    d["diagnostics"] = [{"kind": "zero_curvature"}] if model == "chiral" else []
    cfg = ScenarioConfig.from_dict(d)
    run_scenario(cfg, keep_snapshots=False)
    assert calls == [(cfg.n_nodes, 2, 3)] * (4 * cfg.n_steps)


def test_non_finite_initial_data_fails_in_the_first_stage(tmp_path):
    """Initial data that overflows is still caught by the first stage, located at
    t = 0, with the initial level written."""
    d = chiral_dict()
    d["params"]["initial"]["u"] = [[[1e308, 1.0, 0.0], [1e308, 1.0, 0.0]], [], []]
    out = tmp_path / "boom"
    d["output"]["directory"] = str(out)
    with pytest.raises(BlowUpError) as info, np.errstate(over="ignore"):
        run_scenario(ScenarioConfig.from_dict(d))
    assert str(info.value) == (
        "non-finite field values during stage evaluation (initial data, t = 0)")
    assert len((out / "u.csv").read_text().splitlines()) == 1 + 64


def test_runs_are_deterministic(tmp_path):
    d = chiral_dict()
    outs = []
    for name in ("a", "b"):
        d2 = copy.deepcopy(d)
        d2["output"]["directory"] = str(tmp_path / name)
        run_scenario(ScenarioConfig.from_dict(d2))
        outs.append(tmp_path / name)
    for fname in ("report.json", "u.csv", "v.csv", "zero_curvature.csv"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname


def test_csv_round_trip_exact(tmp_path):
    d = chiral_dict()
    d["grid"]["t_end"] = 0.025
    d["output"]["directory"] = str(tmp_path / "run")
    rep = run_scenario(ScenarioConfig.from_dict(d))
    lines = (tmp_path / "run" / "u.csv").read_text().splitlines()
    assert lines[0] == "t,s_index,u_1,u_2,u_3"
    # 17 significant digits reproduce the binary doubles exactly
    t, idx, *comps = lines[1 + 64 * 2].split(",")  # first row of final snapshot
    assert float(t) == rep.times[2]
    assert int(idx) == 0
    np.testing.assert_array_equal(np.array(comps, dtype=float), rep.snapshots[2][0][0])


# The per-value writer the template writer replaced, kept as the oracle for
# every byte of the CSV files: "%d" for ints, "%.17g" for floats, one join
# per row.
def oracle_fmt(v):
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    return "%.17g" % v


def oracle_csv(header, rows):
    return header + "\n" + "".join(",".join(oracle_fmt(v) for v in row) + "\n" for row in rows)


FIELDS = {"spin_chain": "uv", "chiral": "uv", "aniso_uv": "uv", "aniso_xy": "XY",
          "peakon": "QMN", "peakon_single_exact": "QMN", "peakon_collision_exact": "QMN"}


def oracle_files(model, report):
    """Every output file of ``report``, rendered by the oracle."""
    files = {}
    ncols = report.snapshots[0].shape[2]
    for slot, name in enumerate(FIELDS[model]):
        header = "t,s_index," + ",".join(f"{name}_{j + 1}" for j in range(ncols))
        rows = ((t, idx, *values) for t, y in zip(report.times, report.snapshots)
                for idx, values in enumerate(y[slot]))
        files[f"{name}.csv"] = oracle_csv(header, rows)
    for name, data in report.series().items():
        header = "t," + ",".join(data["columns"])
        files[f"{name}.csv"] = oracle_csv(header, zip(data["times"], *data["columns"].values()))
    files["report.json"] = json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
    return files


def assert_outputs_match_oracle(model, report, directory):
    written = {path.name: path.read_bytes() for path in directory.iterdir()}
    expected = oracle_files(model, report)
    assert sorted(written) == sorted(expected)
    for name, text in expected.items():
        assert written[name] == text.encode("utf-8"), name


def load_output_digests():
    """scripts/output_digests.py, whose scenario table these tests share."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_digests = load_output_digests()
BLOW_UP = "chiral_blow_up"  # the one small run that fails and writes partial outputs


@pytest.mark.parametrize("name", sorted(set(output_digests.small_runs()) - {BLOW_UP}))
def test_outputs_byte_equal_oracle(tmp_path, name):
    d = output_digests.small_runs()[name]
    report = run_scenario(ScenarioConfig.from_dict(d), out_dir=tmp_path)
    assert report.status == "ok"
    assert_outputs_match_oracle(d["model"], report, tmp_path)


def test_partial_outputs_byte_equal_oracle(tmp_path, monkeypatch):
    """A failed run writes the snapshots it has; they render like a full run."""
    written = []

    def keep_report(cfg, report, directory):
        written.append(report)
        return write(cfg, report, directory)

    write = sim_harness._write_outputs
    monkeypatch.setattr(sim_harness, "_write_outputs", keep_report)
    d = output_digests.small_runs()[BLOW_UP]
    with pytest.raises(BlowUpError):
        run_scenario(ScenarioConfig.from_dict(d), out_dir=tmp_path)
    (report,) = written
    assert report.status.startswith("failed") and len(report.snapshots) >= 1
    assert_outputs_match_oracle(d["model"], report, tmp_path)


def test_writer_renders_edge_values_like_oracle(tmp_path):
    values = [-0.0, 5e-324, 1e-300, 1e300, 2.0, 0.1]
    snapshot = np.array(values * 2).reshape(2, 2, 3)
    report = sim_harness.RunReport(
        model="chiral", n_steps=2, times=np.array([-0.0, 0.1, 1e300]),
        snapshots=[snapshot, snapshot[::-1], -snapshot], status="ok",
        diagnostics={"zero_curvature": {"times": np.array([0.1]),
                                        "columns": {"lam_1": np.array([5e-324]),
                                                    "lam_2": np.array([1e-300])}}},
        reference_error={"times": np.array([-0.0, 0.1, 1e300]),
                         "columns": {"err_Q": np.array(values[:3])}},
    )
    sim_harness._write_outputs(ScenarioConfig.from_dict(chiral_dict()), report, tmp_path)
    assert_outputs_match_oracle("chiral", report, tmp_path)
    assert (tmp_path / "u.csv").read_text().splitlines()[1] == "-0,0,-0,4.9406564584124654e-324,1e-300"


def run_writing(d, directory, monkeypatch):
    """Run scenario dict ``d`` into ``directory``; the report that was written.

    A run that blows up writes its partial report before raising.
    """
    written = []

    def keep_report(cfg, report, out):
        written.append(report)
        return write(cfg, report, out)

    write = sim_harness._write_outputs
    monkeypatch.setattr(sim_harness, "_write_outputs", keep_report)
    try:
        run_scenario(ScenarioConfig.from_dict(d), out_dir=directory)
    except BlowUpError:
        pass
    (report,) = written
    return report


@pytest.mark.parametrize("chunk", [2, 7, 100])
@pytest.mark.parametrize("name", ["chiral", "peakon_A1", "peakon_A3", BLOW_UP])
def test_chunk_cuts_keep_every_byte(tmp_path, monkeypatch, chunk, name):
    """The writer formats max(1, CSV_CHUNK // (1 + ncols)) rows at a time.
    Small chunks cut the files mid-level (32 rows a level here), chunks of 2
    and 7 hold one row of 3 values, and 224 field rows are no multiple of
    the 25 rows of a chunk of 100; the blow-up run's partial report holds
    one level."""
    monkeypatch.setattr(sim_harness, "CSV_CHUNK", chunk)
    d = output_digests.small_runs()[name]
    report = run_writing(d, tmp_path, monkeypatch)
    assert len(report.snapshots) == (1 if name == BLOW_UP else 7)
    assert_outputs_match_oracle(d["model"], report, tmp_path)


@pytest.mark.parametrize("chunk", [2, 7, 100])
@pytest.mark.parametrize("index", [True, False])
def test_chunks_of_different_widths_keep_every_byte(tmp_path, monkeypatch, chunk, index):
    """``_g17.cells`` sizes each chunk's cells by its largest integer part:
    blocks alternate between |x| < 10 (24-byte cells while t < 10) and
    |x| >= 1e13 (40 bytes), and t passes 10 (28 bytes), so consecutive
    chunks of 1 or 25 rows differ in width, and a width carried from one
    chunk into the next shows in the bytes."""
    monkeypatch.setattr(sim_harness, "CSV_CHUNK", chunk)
    rng = np.random.default_rng(21)
    per_block = 5 if index else 1
    times = np.linspace(0.0, 12.5, 11)
    blocks = []
    for b in range(times.size):
        values = rng.uniform(-10.0, 10.0, (per_block, 3))
        if b % 2:
            values = np.copysign(rng.uniform(1e13, 1e15, values.shape), values)
        blocks.append(values)
    header = "t,s_index,a,b,c" if index else "t,a,b,c"
    sim_harness._write_csv(tmp_path / "f.csv", header, times, blocks, index)
    rows = ((t, *((idx,) if index else ()), *values)
            for t, y in zip(times, blocks) for idx, values in enumerate(y))
    assert (tmp_path / "f.csv").read_bytes() == oracle_csv(header, rows).encode()
    widths = {_g17.cells(np.concatenate(([t], y.ravel()))).shape[1] for t, y in zip(times, blocks)}
    assert widths == {24, 28, 40}


@pytest.mark.parametrize("name", ["aniso_xy", "peakon_A3"])
def test_writer_peak_memory_follows_cell_width(tmp_path, name):
    """Writing the files of an aniso_xy run (two field files) or a peakon
    run with A = 3 (three) at N_s = 256 with 161 levels, the writer's extra
    tracemalloc peak stays under 125 B per cell of ``CSV_CHUNK``.  Each
    chunk is compacted and written before the next one forms, and the field
    files' values are below 10, so their cells are 24 bytes, not
    ``_g17.WIDTH``."""
    d = output_digests.small_runs()[name]
    dt = TWO_PI / 256 / 4.0
    d["grid"] = {"S": TWO_PI, "N_s": 256, "dt": dt, "t_end": 160 * dt}
    cfg = ScenarioConfig.from_dict(d)
    report = run_scenario(cfg, keep_snapshots=True)
    assert len(report.snapshots) == 161
    tracemalloc.start()
    try:
        sim_harness._write_outputs(cfg, report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 125 * sim_harness.CSV_CHUNK
    assert_outputs_match_oracle(d["model"], report, tmp_path)


def failing_open(file_name):
    """An ``open`` for ``sim_harness`` that raises OSError on ``file_name`` only."""
    def opener(path, *args, **kwargs):
        if Path(path).name == file_name:
            raise OSError(f"no space left for {path}")
        return open(path, *args, **kwargs)
    return opener


def test_field_file_that_cannot_be_written_in_its_thread(tmp_path, monkeypatch, capsys):
    """Y.csv cannot be opened by the thread that writes the files: the run
    raises ConfigError and the CLI exits with 2, and X.csv, written before
    it by the same thread, is whole."""
    written = []

    def keep_report(cfg, report, out):
        written.append(report)
        return write(cfg, report, out)

    write = sim_harness._write_outputs
    monkeypatch.setattr(sim_harness, "_write_outputs", keep_report)
    monkeypatch.setattr(sim_harness, "open", failing_open("Y.csv"), raising=False)
    d = output_digests.small_runs()["aniso_xy"]
    with pytest.raises(ConfigError, match="cannot write output file"):
        run_scenario(ScenarioConfig.from_dict(d), out_dir=tmp_path / "run")
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "cli")]) == 2
    assert "cannot write output file" in capsys.readouterr().err
    report, again = written
    x_csv = oracle_files("aniso_xy", report)["X.csv"].encode()
    assert oracle_files("aniso_xy", again)["X.csv"].encode() == x_csv
    for out in ("run", "cli"):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["X.csv"]
        assert (tmp_path / out / "X.csv").read_bytes() == x_csv


def bounded(call, timeout=60.0):
    """Run ``call()`` in a daemon thread for at most ``timeout`` seconds and
    return the exception it raised, or None; a call that does not return in
    time fails the test instead of hanging it."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the call did not return within {timeout} s"
    return raised[0] if raised else None


class SlowlyClosedFile:
    """A file whose ``close`` takes a tenth of a second."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        return self.fh.write(data)

    def close(self):
        time.sleep(0.1)
        self.fh.close()


@pytest.mark.parametrize("fail", [None, "X.csv", "Y.csv"])
def test_no_writer_thread_outlives_the_write(tmp_path, monkeypatch, fail):
    """Every file, each CSV and report.json, is opened by the calling
    thread while no other thread has started, and when ``_write_outputs``
    returns or raises no thread is left, although each CSV file takes a
    tenth of a second to close."""
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["aniso_xy"])
    report = run_scenario(cfg)
    opened = {}

    def recording_open(path, *args, **kwargs):
        opened[Path(path).name] = threading.current_thread(), threading.active_count()
        fh = opener(path, *args, **kwargs)
        return SlowlyClosedFile(fh) if Path(path).suffix == ".csv" else fh

    opener = open if fail is None else failing_open(fail)
    monkeypatch.setattr(sim_harness, "open", recording_open, raising=False)
    before = threading.active_count()
    caller = []

    def write():
        caller.append((threading.current_thread(), threading.active_count()))
        sim_harness._write_outputs(cfg, report, tmp_path)

    error = bounded(write)
    assert threading.active_count() == before
    assert opened and all(by == caller[0] for by in opened.values())
    if fail is None:
        assert error is None
        assert sorted(opened) == ["X.csv", "Y.csv", "invariant_drift.csv", "report.json"]
        assert_outputs_match_oracle("aniso_xy", report, tmp_path)
    else:
        assert isinstance(error, OSError) and fail in str(error)
        assert sorted(opened) == ["X.csv", "Y.csv"][:1 + (fail == "Y.csv")]


def test_concurrent_writes_under_a_short_switch_interval(tmp_path, monkeypatch):
    """Four calling threads write the files of one aniso_xy run at once,
    each into its own directory (four threads on two cores), in one-row
    chunks while the interpreter switches threads every 10 us: every file
    has its oracle bytes and every thread ends."""
    monkeypatch.setattr(sim_harness, "CSV_CHUNK", 4)
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["aniso_xy"])
    report = run_scenario(cfg)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=sim_harness._write_outputs,
                                    args=(cfg, report, tmp_path / str(i)), daemon=True)
                   for i in range(4)]
        for i, caller in enumerate(callers):
            (tmp_path / str(i)).mkdir()
            caller.start()
        for caller in callers:
            caller.join(60.0)
            assert not caller.is_alive(), "a write did not end within 60 s"
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    for i in range(4):
        assert_outputs_match_oracle("aniso_xy", report, tmp_path / str(i))


class RaisingFile:
    """A file opened by the writer whose ``write`` raises RuntimeError."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        raise RuntimeError("the disk went away")

    def close(self):
        self.fh.close()


def test_writer_error_that_is_no_oserror_reaches_the_caller(tmp_path, monkeypatch):
    """A RuntimeError raised by the first write of Y.csv is raised by
    ``_write_outputs`` and passes ``run_scenario`` as it is (only an
    OSError becomes a ConfigError); no thread is left either way, and
    nothing after Y.csv is opened."""
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["aniso_xy"])
    report = run_scenario(cfg)
    opened = []

    def raising_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        fh = open(path, *args, **kwargs)
        return RaisingFile(fh) if Path(path).name == "Y.csv" else fh

    monkeypatch.setattr(sim_harness, "open", raising_open, raising=False)
    before = threading.active_count()
    error = bounded(lambda: sim_harness._write_outputs(cfg, report, tmp_path))
    assert isinstance(error, RuntimeError) and "the disk went away" in str(error)
    assert threading.active_count() == before
    assert opened == ["X.csv", "Y.csv"]
    assert (tmp_path / "X.csv").read_bytes() == oracle_files("aniso_xy", report)["X.csv"].encode()
    run = tmp_path / "run"
    error = bounded(lambda: run_scenario(cfg, out_dir=run))
    assert type(error) is RuntimeError
    assert threading.active_count() == before


@pytest.mark.parametrize("failing_call", [1, 2, 5])
def test_formatting_error_reaches_the_caller(tmp_path, monkeypatch, failing_call):
    """An exception while the chunks are formatted is raised by
    ``_write_outputs``, and no thread is left.  With 64-row chunks, each
    field file of 224 rows takes 4 ``_g17.cells`` calls; the 1st, 2nd or
    5th call fails: the first chunk of X.csv, its second (formed after the
    first is written), or the first of Y.csv."""
    monkeypatch.setattr(sim_harness, "CSV_CHUNK", 4 * 64)
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["aniso_xy"])
    report = run_scenario(cfg)
    calls = []
    cells = _g17.cells

    def failing_cells(x, **kwargs):
        calls.append(len(x))
        if len(calls) == failing_call:
            raise MemoryError("no room for the cells")
        return cells(x, **kwargs)

    monkeypatch.setattr(sim_harness._g17, "cells", failing_cells)
    before = threading.active_count()
    error = bounded(lambda: sim_harness._write_outputs(cfg, report, tmp_path))
    assert isinstance(error, MemoryError) and "no room for the cells" in str(error)
    assert threading.active_count() == before
    assert len(calls) == failing_call
    assert not (tmp_path / "report.json").exists()


class FailingCloseFile:
    """A CSV file that notes its close in ``events``; closing it closes the
    file, then raises OSError when ``fail`` is true."""

    def __init__(self, fh, name, events, fail):
        self.fh, self.name, self.events, self.fail = fh, name, events, fail

    def write(self, data):
        return self.fh.write(data)

    def close(self):
        self.events.append(("close", self.name))
        self.fh.close()
        if self.fail:
            raise OSError(f"cannot close {self.name}")


def failing_close(file_name, events):
    """An ``open`` for ``sim_harness`` that notes each CSV's open and close in
    ``events``; closing the CSV ``file_name`` raises OSError."""
    def opener(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        name = Path(path).name
        if Path(path).suffix != ".csv":
            return fh
        events.append(("open", name))
        return FailingCloseFile(fh, name, events, name == file_name)
    return opener


def test_close_error_stops_the_write(tmp_path, monkeypatch, capsys):
    """Closing X.csv raises OSError as the writer moves on to Y.csv: the run
    raises ConfigError and the CLI exits with 2; Y.csv is never opened,
    report.json is not written, X.csv is whole, and no thread is left."""
    events = []
    monkeypatch.setattr(sim_harness, "open", failing_close("X.csv", events), raising=False)
    d = output_digests.small_runs()["aniso_xy"]
    before = threading.active_count()
    error = bounded(lambda: run_scenario(ScenarioConfig.from_dict(d), out_dir=tmp_path / "run"))
    assert isinstance(error, ConfigError) and "cannot write output file" in str(error)
    assert "cannot close X.csv" in str(error)
    assert threading.active_count() == before
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(d), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "cli")]) == 2
    assert "cannot close X.csv" in capsys.readouterr().err
    assert threading.active_count() == before
    assert ("open", "Y.csv") not in events and events[:2] == [("open", "X.csv"), ("close", "X.csv")]
    x_csv = oracle_files("aniso_xy", run_scenario(ScenarioConfig.from_dict(d)))["X.csv"].encode()
    for out in ("run", "cli"):
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["X.csv"]
        assert (tmp_path / out / "X.csv").read_bytes() == x_csv


def test_formatting_error_wins_over_a_close_error(tmp_path, monkeypatch):
    """With 64-row chunks, the 5th ``_g17.cells`` call, the first data chunk
    of Y.csv, raises, and closing Y.csv raises OSError: the formatting error
    is the one ``_write_outputs`` raises, Y.csv is closed, report.json is not
    written, and no thread is left."""
    monkeypatch.setattr(sim_harness, "CSV_CHUNK", 4 * 64)
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["aniso_xy"])
    report = run_scenario(cfg)
    calls = []
    cells = _g17.cells

    def failing_cells(x, **kwargs):
        calls.append(len(x))
        if len(calls) == 5:
            raise MemoryError("no room for the cells")
        return cells(x, **kwargs)

    events = []
    monkeypatch.setattr(sim_harness._g17, "cells", failing_cells)
    monkeypatch.setattr(sim_harness, "open", failing_close("Y.csv", events), raising=False)
    before = threading.active_count()
    error = bounded(lambda: sim_harness._write_outputs(cfg, report, tmp_path))
    assert isinstance(error, MemoryError) and "no room for the cells" in str(error)
    assert threading.active_count() == before
    assert events == [("open", "X.csv"), ("close", "X.csv"), ("open", "Y.csv"), ("close", "Y.csv")]
    assert not (tmp_path / "report.json").exists()


class RecordedFile:
    """A file opened by the writer, whose writes are kept in ``writes``."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, data):
        self.writes.append(bytes(data))
        return self.fh.write(data)

    def close(self):
        self.fh.close()


@pytest.mark.parametrize("chunk", [2, 7, 100])
@pytest.mark.parametrize("name", sorted(output_digests.small_runs()))
def test_every_csv_write_holds_whole_rows(tmp_path, monkeypatch, chunk, name):
    """After its header, each write of a CSV file ends a row and holds at
    most one chunk's rows, max(1, CSV_CHUNK // (1 + ncols)) rows of ncols
    values, field files and series files alike."""
    files = {}

    def recording_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).suffix != ".csv":
            return fh
        files[Path(path).name] = []
        return RecordedFile(fh, files[Path(path).name])

    monkeypatch.setattr(sim_harness, "CSV_CHUNK", chunk)
    monkeypatch.setattr(sim_harness, "open", recording_open, raising=False)
    run_writing(output_digests.small_runs()[name], tmp_path, monkeypatch)
    assert files and sorted(files) == sorted(p.name for p in tmp_path.glob("*.csv"))
    for file in files:
        header, *data = files[file]
        assert header.endswith(b"\n") and header.count(b"\n") == 1 and data
        ncols = header.count(b",") - header.startswith(b"t,s_index,")
        rows = max(1, chunk // (1 + ncols))
        for text in data:
            assert text.endswith(b"\n") and 1 <= text.count(b"\n") <= rows, file
        assert b"".join(files[file]) == (tmp_path / file).read_bytes()


def read_floats(path):
    """Header and every cell of a CSV file, parsed with float()."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def assert_same_bits(got, expected):
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("name", sorted(output_digests.small_runs()))
def test_every_csv_value_reads_back_exactly(tmp_path, monkeypatch, name):
    """Every float of every CSV parses back to the double that was written."""
    d = output_digests.small_runs()[name]
    report = run_writing(d, tmp_path, monkeypatch)
    levels = len(report.snapshots)
    n_nodes, ncols = report.snapshots[0].shape[1:]
    for slot, field in enumerate(FIELDS[d["model"]]):
        header, cells = read_floats(tmp_path / f"{field}.csv")
        assert header[:2] == ["t", "s_index"] and len(header) == 2 + ncols
        assert_same_bits(cells[:, 0], np.repeat(report.times, n_nodes))
        assert_same_bits(cells[:, 1], np.tile(np.arange(n_nodes), levels))
        assert_same_bits(cells[:, 2:].reshape(levels, n_nodes, ncols),
                         [y[slot] for y in report.snapshots])
    for series, data in report.series().items():
        header, cells = read_floats(tmp_path / f"{series}.csv")
        assert header == ["t", *data["columns"]]
        assert_same_bits(cells[:, 0], data["times"])
        for j, column in enumerate(data["columns"].values()):
            assert_same_bits(cells[:, 1 + j], column)


# ------------------------------------------------------------------ streaming


STREAMED_RUNS = {**output_digests.small_runs(), **output_digests.workload_runs()}


def run_or_failure(cfg, **kwargs):
    try:
        return run_scenario(cfg, **kwargs)
    except SimulationError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_series_equal(got, expected):
    assert np.array_equal(got.times, expected.times)
    assert list(got.series()) == list(expected.series())
    for name, data in expected.series().items():
        assert np.array_equal(got.series()[name]["times"], data["times"]), name
        columns = got.series()[name]["columns"]
        assert list(columns) == list(data["columns"]), name
        for key, series in data["columns"].items():
            assert np.array_equal(columns[key], series), (name, key)


@pytest.mark.parametrize("name", sorted(STREAMED_RUNS))
def test_streaming_equals_stored(name):
    """Dropping the snapshots changes no diagnostic, reference error or summary."""
    cfg = ScenarioConfig.from_dict(STREAMED_RUNS[name])
    stored = run_or_failure(cfg)
    streamed = run_or_failure(cfg, keep_snapshots=False)
    if isinstance(stored, str):
        assert streamed == stored
        return
    assert len(stored.snapshots) == len(stored.times)
    assert streamed.snapshots == []
    assert_series_equal(streamed, stored)
    assert streamed.summary() == stored.summary()


def trajectory_columns(cfg, snaps, times):
    """Every series of a run from the list functions over its whole trajectory."""
    sten = DerivativeStencil(2, cfg.s_length / cfg.n_nodes)
    dt = cfg.dt * cfg.cadence
    ds = cfg.s_length / cfg.n_nodes
    out = {}
    for entry in cfg.diagnostics:
        kind, lambdas = entry["kind"], entry.get("lambdas")
        if cfg.model == "chiral":
            columns = {
                name: np.max(np.abs(zero_curvature_residual(
                    [chiral_lax(y[0], y[1], lam) for y in snaps], sten, dt).fields),
                    axis=(1, 2, 3))
                for name, lam in zip(sim_harness._lambda_columns(lambdas), lambdas)
            }
        elif cfg.model == "spin_chain":
            u, v = np.stack(snaps).swapaxes(0, 1)
            residual = compatibility_residual(u, v, sten, dt)
            columns = {"residual": np.max(np.abs(residual), axis=(1, 2))}
        elif kind == "lax":
            columns = {
                name: np.max(np.abs(zero_curvature_residual(
                    [aniso_lax(2.0 * y[0], 2.0 * y[1], lam, cfg.params["P"]) for y in snaps],
                    sten, dt).fields), axis=(1, 2, 3))
                for name, lam in zip(sim_harness._lambda_columns(lambdas), lambdas)
            }
        elif kind == "invariant_drift":
            drift = invariant_drift(snaps)
            columns = {"drift_X": drift.x_series, "drift_Y": drift.y_series}
        elif kind == "s_constraint":
            columns = {"residual": np.array([
                np.max(np.abs(s_constraint_residual(y[0], y[2], sten))) for y in snaps])}
        else:
            columns = {"sum_M": np.array([np.sum(y[1]) * ds for y in snaps])}
            if snaps[0].shape[2] == 2:
                columns["sum_N_skew"] = np.array(
                    [np.sum(y[2][:, 0] - y[2][:, 1]) * ds for y in snaps])
        out[kind] = columns
    s = np.arange(cfg.n_nodes) * ds
    if cfg.model == "peakon_single_exact":
        exact = [single_peakon_exact(cfg.params["profile"], s, t) for t in times]
        out["reference_error"] = {
            key: np.array([np.max(np.abs(y[i] - ref[i][:, None]))
                           for y, ref in zip(snaps, exact)])
            for i, key in enumerate(("err_Q", "err_M", "err_N"))
        }
    elif cfg.model == "peakon_collision_exact":
        out["reference_error"] = {"err_X": np.array([
            np.max(np.abs((y[0][:, 0] - y[0][:, 1]) - cfg.params["solution"].separation(s, t)))
            for y, t in zip(snaps, times)])}
    return out


def residual_columns(cfg, snaps):
    """The centered columns from the leapfrog residual
    e = y_{k+1} - (f(y_k) 2 dt + y_{k-1}), in the run's order of operations:
    max |(a - b) e_u - (a + b) e_v| / (2 dt) with the chiral pair's
    a = (1 + lam)/4 and b = (1 + 1/lam)/4, max |e_v| / (2 dt), and the
    max-norm of the so(4) image embed_so4(e_v, e_u)(lam Id + J), divided by
    dt.  Each product of an embedded entry with the diagonal weight rounds
    once, so the matrix form has the bits of the run's vector form."""
    sten = DerivativeStencil(2, cfg.s_length / cfg.n_nodes)
    rhs = sim_harness._SPECS[cfg.model].rhs(cfg.params, sten,
                                            sim_harness._nodes(cfg.s_length, cfg.n_nodes))
    dt = cfg.dt * cfg.cadence
    residuals = [snaps[k + 1] - (rhs(snaps[k]) * (2.0 * dt) + snaps[k - 1])
                 for k in range(1, len(snaps) - 1)]
    (entry,) = cfg.diagnostics
    if cfg.model == "spin_chain":
        return {entry["kind"]: {"residual": np.array(
            [np.max(np.abs(e[1])) / (2.0 * dt) for e in residuals])}}
    lambdas = entry["lambdas"]
    if cfg.model == "chiral":
        pairs = [(0.25 * (1.0 + lam), 0.25 * (1.0 + 1.0 / lam)) for lam in lambdas]
        return {entry["kind"]: {
            name: np.array([np.max(np.abs((a - b) * e[0] - (a + b) * e[1])) / (2.0 * dt)
                            for e in residuals])
            for name, (a, b) in zip(sim_harness._lambda_columns(lambdas), pairs)}}
    return {entry["kind"]: {
        name: np.array([np.max(np.abs(embed_so4(e[1], e[0])
                                      @ (lam * np.eye(4) + build_J(cfg.params["P"])))) / dt
                        for e in residuals])
        for name, lam in zip(sim_harness._lambda_columns(lambdas), lambdas)}}


def centered_bound(cfg, snaps):
    """64 eps c (Y/dt + Y/ds + Y^2) with dt the level spacing and Y the largest
    |entry| of the run: how far the residual form of a centered column may
    sit from its field oracle by round-off.  c = 1 + |lam| + 1/|lam| for the
    chiral pair, 1 for the spin chain's compatibility residual, and
    2 (max |w| + 1)(1 + max |P|) for the doubled aniso_lax pair, w the
    diagonal of lam Id + J.  See
    ``tests/test_integrability.py::identity_bound``."""
    big = max(float(np.max(np.abs(y))) for y in snaps)
    c = 1.0
    if cfg.model == "chiral":
        c = max(1.0 + abs(lam) + 1.0 / abs(lam) for lam in cfg.diagnostics[0]["lambdas"])
    elif cfg.model == "aniso_uv":
        p = cfg.params["P"]
        w = max(float(np.max(np.abs(lam + np.diagonal(build_J(p)))))
                for lam in cfg.diagnostics[0]["lambdas"])
        c = 2.0 * (w + 1.0) * (1.0 + float(np.max(np.abs(p))))
    dt = cfg.dt * cfg.cadence
    return 64.0 * np.finfo(float).eps * c * (big / dt + big / (cfg.s_length / cfg.n_nodes)
                                            + big * big)


def node_reference_columns(cfg, snaps, times):
    """The reference error columns of the exact models from the profile bound
    to the nodes, ``WaveProfile.on_nodes``, in the run's order of operations."""
    s = np.arange(cfg.n_nodes) * (cfg.s_length / cfg.n_nodes)
    if cfg.model == "peakon_single_exact":
        qmn_at = cfg.params["profile"].on_nodes(s, (1.0, 1.0 / K0, -1.0 / K0))
        exact = [qmn_at(t) for t in times]
        return {key: np.array([np.max(np.abs(y[i][:, 0] - ref[i])) for y, ref in zip(snaps, exact)])
                for i, key in enumerate(("err_Q", "err_M", "err_N"))}
    separation = cfg.params["solution"].separation_on_nodes(s)
    return {"err_X": np.array([np.max(np.abs((y[0][:, 0] - y[0][:, 1]) - separation(t)))
                               for y, t in zip(snaps, times)])}


def reference_bound(cfg, snaps, times):
    """How far the node evaluator's reference error columns may sit from
    ``single_peakon_exact`` and ``CollisionSolution.separation`` by round-off:
    ``node_bound`` of the profile at the last time over K0, or, for the
    separation 2 log cosh h, whose slope is at most 2 in h, twice it plus
    8 eps of the largest separation."""
    s = np.arange(cfg.n_nodes) * (cfg.s_length / cfg.n_nodes)
    if cfg.model == "peakon_single_exact":
        return node_bound(cfg.params["profile"].descriptor, s, times[-1]) / K0
    big = max(float(np.max(np.abs(y[0][:, 0] - y[0][:, 1]))) for y in snaps)
    return (2.0 * node_bound(cfg.params["solution"].profile.descriptor, s, times[-1])
            + 8.0 * np.finfo(float).eps * (1.0 + big))


def assert_series_match_oracles(cfg, report):
    """Every series of a run against the functions applied to its whole stored
    trajectory.  Each has their bits, except that the chiral, spin_chain and
    aniso_uv centered columns, evaluated from the step's first stage, have
    those of ``residual_columns`` and match their field oracles in
    ``trajectory_columns`` within ``centered_bound``.  The reference errors
    have the bits of ``node_reference_columns`` and match the closed forms'
    within ``reference_bound``."""
    expected = trajectory_columns(cfg, report.snapshots, report.times)
    bitwise, near = dict(expected), {}
    bound = centered_bound(cfg, report.snapshots)
    if cfg.model in ("chiral", "spin_chain", "aniso_uv"):
        near = {kind: expected[kind] for kind in expected}
        bitwise.update(residual_columns(cfg, report.snapshots))
    elif "reference_error" in expected:
        near = {"reference_error": expected["reference_error"]}
        bitwise["reference_error"] = node_reference_columns(cfg, report.snapshots, report.times)
        bound = reference_bound(cfg, report.snapshots, report.times)
    series = report.series()
    assert list(series) == list(expected)
    for kind, columns in bitwise.items():
        got = series[kind]["columns"]
        assert list(got) == list(columns), kind
        for key, values in columns.items():
            assert np.array_equal(got[key], values), (kind, key)
            if kind in near:
                np.testing.assert_allclose(got[key], near[kind][key], rtol=0.0, atol=bound)


@pytest.mark.parametrize("name", sorted(set(output_digests.small_runs()) - {BLOW_UP}))
def test_per_level_series_equal_trajectory_functions(name):
    """Each series evaluated level by level has the bits of the list functions
    applied to the whole stored trajectory (the centered columns those of
    the leapfrog residual); see ``assert_series_match_oracles``."""
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()[name])
    assert_series_match_oracles(cfg, run_scenario(cfg))


@pytest.mark.parametrize("cadence", [2, 3])
@pytest.mark.parametrize("name", ["chiral", "spin_chain", "aniso_uv"])
def test_centered_columns_at_cadence_two_and_three_match_their_oracles(name, cadence):
    """A centered kind stored every ``cadence`` steps reads the first stage of
    the step leaving each stored level, and the level spacing cadence dt."""
    d = output_digests.small_runs()[name]
    d["output"]["cadence"] = cadence
    cfg = ScenarioConfig.from_dict(d)
    report = run_scenario(cfg)
    assert len(report.times) == 6 // cadence + 1
    assert_series_match_oracles(cfg, report)


def chiral_memory_peak(steps, **kwargs):
    """tracemalloc peak, in bytes, of a chiral zero_curvature run at N_s = 1024."""
    d = output_digests.small_runs()["chiral"]
    dt = TWO_PI / 1024 / 4.0
    d["grid"] = {"S": TWO_PI, "N_s": 1024, "dt": dt, "t_end": steps * dt}
    cfg = ScenarioConfig.from_dict(d)
    tracemalloc.start()
    try:
        run_scenario(cfg, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_run_length():
    """Without kept snapshots a run holds a few levels, however long it is;
    with them its peak grows with the number of stored levels."""
    short, long = (chiral_memory_peak(steps, keep_snapshots=False) for steps in (40, 320))
    assert long == pytest.approx(short, rel=0.2)
    short, long = (chiral_memory_peak(steps) for steps in (40, 320))
    assert long > 4 * short


def test_chiral_run_peaks_below_six_and_a_half_packed_states():
    """A chiral zero_curvature run at N_s = 1024 that keeps no snapshots
    peaks inside one RHS evaluation: the state, k1, the stage input, the RHS
    output with its ``_cross`` temporaries, and one diagnostic buffer, the
    prediction formed from k1 (or, before it, the stored level before the
    state).  6.16 packed states measured.  Holding two formed (u - v, u + v)
    levels peaked at 7.31; one formed level and a step that held four
    arrays peaked between RHS calls, at 6.31."""
    state_bytes = 2 * 1024 * 3 * 8
    assert chiral_memory_peak(40, keep_snapshots=False) < 6.5 * state_bytes


CENTERED_RHS = {"chiral": "chiral_rhs", "spin_chain": "spin_chain_rhs",
                "aniso_uv": "aniso_rhs_uv"}


@pytest.mark.parametrize("cadence", [1, 2])
@pytest.mark.parametrize("model", sorted(CENTERED_RHS))
def test_centered_run_makes_four_rhs_calls_a_step_and_holds_one_buffer(model, cadence,
                                                                       monkeypatch):
    """A centered run calls the model's right-hand side exactly four times a
    step, the stages alone.  While it runs, the run holds one diagnostic
    buffer besides the stored level it steps from: the stored level before
    that one, or, once the step's first stage is taken, the prediction
    formed from it.  Stored levels and predictions are tracked until they
    are freed."""
    tokens = itertools.count()
    alive = set()
    seen = []

    def track(array):
        token = next(tokens)
        alive.add(token)
        weakref.finalize(array, alive.discard, token)
        return array

    def counted_rhs(*args, rhs=getattr(sim_harness, CENTERED_RHS[model])):
        seen.append(len(alive))
        return rhs(*args)

    def tracked_diagnostics(y, *args, evaluate=sim_harness._evaluate_diagnostics):
        return evaluate(track(y), *args)

    monkeypatch.setattr(sim_harness, CENTERED_RHS[model], counted_rhs)
    monkeypatch.setattr(sim_harness, "_evaluate_diagnostics", tracked_diagnostics)
    monkeypatch.setattr(sim_harness, "_predicted",
                        lambda *args, predicted=sim_harness._predicted: track(predicted(*args)))
    d = output_digests.small_runs()[model]
    d["output"]["cadence"] = cadence
    cfg = ScenarioConfig.from_dict(d)
    report = run_scenario(cfg, keep_snapshots=False)
    assert report.status == "ok"
    assert len(report.series()[cfg.diagnostics[0]["kind"]]["times"]) == 6 // cadence - 1
    assert len(seen) == 4 * cfg.n_steps
    assert max(seen) == 2


@pytest.mark.parametrize("model, owner, name", [
    ("chiral", sim_harness, "_chiral_coefficients"),
    ("aniso_uv", sim_harness, "_aniso_weights"),
])
def test_run_constants_are_formed_once_per_run(model, owner, name, monkeypatch):
    """A centered kind forms its run constants when it is bound, once per run:
    the chiral (a, b) table and the aniso_uv J weights, not one per stored
    level."""
    calls = []

    def counted(*args, fn=getattr(owner, name)):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    report = run_scenario(ScenarioConfig.from_dict(output_digests.small_runs()[model]),
                          keep_snapshots=False)
    assert report.status == "ok"
    assert len(report.times) == 7
    assert len(calls) == 1


def series_run(name, steps):
    """A ``small_runs`` scenario, or a free peakon run with A = 8, lasting ``steps``."""
    runs = output_digests.small_runs()
    if name == "peakon_A8":
        d = runs["peakon_A3"]
        d["params"] = output_digests._peakons(8)
    else:
        d = runs[name]
    d["grid"] = output_digests._grid(steps=steps)
    return ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("name", ["peakon_single_exact", "peakon_A8", "chiral"])
def test_series_memory_per_stored_level(name):
    """A run that keeps no snapshots grows by its series alone: a few float64
    values per stored level (here 2 to 5 with the time), not a dict of them."""
    short, long = 50, 500
    peaks = []
    for steps in (short, long):
        cfg = series_run(name, steps)
        tracemalloc.start()
        try:
            run_scenario(cfg, keep_snapshots=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (long - short) <= 64


def report_arrays(report):
    return [report.times] + [
        column for data in report.series().values()
        for column in (data["times"], *data["columns"].values())
    ]


def test_series_are_not_shared_between_runs():
    first = run_scenario(series_run("peakon_single_exact", 6), keep_snapshots=False)
    kept = [np.array(a) for a in report_arrays(first)]
    second = run_scenario(series_run("peakon_single_exact", 9), keep_snapshots=False)
    for got, expected in zip(report_arrays(first), kept, strict=True):
        assert np.array_equal(got, expected)
        assert not any(np.shares_memory(got, other) for other in report_arrays(second))


def test_drift_field_selects_the_convergence_scalar(monkeypatch):
    """The ``drift`` field of a kind, not its name, collapses a series to its
    largest change from t = 0, in the summary and in the refinement study."""
    cfg = series_run("peakon_A3", 6)
    residual = run_scenario(cfg).diagnostics["s_constraint"]["columns"]["residual"]
    kinds = sim_harness._SPECS["peakon"].diagnostics
    monkeypatch.setitem(kinds, "s_constraint", kinds["s_constraint"]._replace(drift=True))
    summary = run_scenario(cfg).summary()["diagnostics"]
    assert summary["s_constraint"]["max"] == float(np.max(np.abs(residual - residual[0])))
    assert summary["s_constraint"]["max"] < summary["s_constraint"]["columns"]["residual"]
    monkeypatch.setitem(kinds, "conservation_sums",
                        kinds["conservation_sums"]._replace(drift=False))
    study = convergence_study(cfg, 3)["diagnostics"]
    summary = run_scenario(cfg).summary()["diagnostics"]
    assert study["s_constraint"]["errors"][0] == summary["s_constraint"]["max"]
    sums = summary["conservation_sums"]
    assert study["conservation_sums"]["errors"][0] == sums["max"] == max(sums["columns"].values())


CROSSES_PER_RHS = {"chiral": 1, "spin_chain": 3, "aniso_uv": 2}


@pytest.mark.parametrize("model", sorted(CROSSES_PER_RHS))
def test_centered_kinds_take_no_stencil_cross_or_lax_matrix_of_their_own(model, monkeypatch):
    """Every stencil call and cross product of a centered run is its RHS's,
    and no Lax connection, curvature field or compatibility stack is built."""
    counts = {"stencil": 0, "cross": 0}
    stencil, cross = DerivativeStencil.__call__, so3_dynamics._cross

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def forbidden(*args, **kwargs):
        pytest.fail("a centered diagnostic built its curvature from the fields")

    monkeypatch.setattr(DerivativeStencil, "__call__", counted("stencil", stencil))
    monkeypatch.setattr(so3_dynamics, "_cross", counted("cross", cross))
    for owner, name in ((sim_harness, "chiral_lax"), (sim_harness, "aniso_lax"),
                        (sim_harness, "zero_curvature_residual"), (integrability, "hat")):
        monkeypatch.setattr(owner, name, forbidden)
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()[model])
    report = run_scenario(cfg, keep_snapshots=False)
    assert len(report.series()[cfg.diagnostics[0]["kind"]]["times"]) == cfg.n_steps - 1
    rhs_calls = 4 * cfg.n_steps
    assert counts == {"stencil": rhs_calls * (2 if model == "spin_chain" else 1),
                      "cross": rhs_calls * CROSSES_PER_RHS[model]}


def test_report_summary_structure():
    rep = run_scenario(ScenarioConfig.from_dict(chiral_dict()))
    summary = rep.summary()
    assert summary["model"] == "chiral"
    assert summary["status"] == "ok"
    assert summary["n_steps"] == 8
    zc = summary["diagnostics"]["zero_curvature"]
    assert zc["max"] == max(zc["columns"].values())
    json.dumps(summary)  # must be serializable as-is


def test_out_dir_argument_overrides_config(tmp_path):
    cfg = ScenarioConfig.from_dict(chiral_dict())
    run_scenario(cfg, out_dir=tmp_path / "override")
    assert (tmp_path / "override" / "report.json").exists()


# ------------------------------------------------------------------ refinement


def assert_parsed_equal(got, expected, where):
    """Equal parsed values: profiles by descriptor, dataclasses field by field."""
    assert type(got) is type(expected), where
    if isinstance(expected, WaveProfile):
        assert got.descriptor == expected.descriptor, where
    elif dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            assert_parsed_equal(getattr(got, field.name), getattr(expected, field.name),
                                f"{where}.{field.name}")
    elif isinstance(expected, dict):
        assert list(got) == list(expected), where
        for key, value in expected.items():
            assert_parsed_equal(got[key], value, f"{where}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(got) == len(expected), where
        for i, (a, b) in enumerate(zip(got, expected)):
            assert_parsed_equal(a, b, f"{where}[{i}]")
    elif isinstance(expected, np.ndarray):
        assert np.array_equal(got, expected), where
    else:
        assert got == expected, where


def hand_refined(d, factor):
    d = copy.deepcopy(d)
    d["grid"]["N_s"] *= factor
    d["grid"]["dt"] /= factor
    d["output"]["directory"] = None
    return d


@pytest.mark.parametrize("name", sorted(output_digests.small_runs()))
def test_refined_equals_parse_of_refined_dict(name):
    """``refined`` gives the config, and the run, of the hand-refined scenario."""
    d = output_digests.small_runs()[name]
    fine = ScenarioConfig.from_dict(d).refined(2)
    expected = ScenarioConfig.from_dict(hand_refined(d, 2))
    assert_parsed_equal(fine, expected, "cfg")
    got, want = run_or_failure(fine), run_or_failure(expected)
    if isinstance(want, str):
        assert got == want
        return
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a, b)
    assert_series_equal(got, want)
    assert got.summary() == want.summary()


def test_refined_parses_nothing_again(monkeypatch):
    """Only the grid is checked again: no model parser and no diagnostics check runs."""
    calls = []

    def spy(function):
        def call(*args):
            calls.append(function)
            return function(*args)
        return call

    monkeypatch.setattr(sim_harness, "_validate_diagnostics",
                        spy(sim_harness._validate_diagnostics))
    for name, spec in sim_harness._SPECS.items():
        monkeypatch.setitem(sim_harness._SPECS, name, spec._replace(parse=spy(spec.parse)))
    for d in output_digests.small_runs().values():
        cfg = ScenarioConfig.from_dict(d)
        assert len(calls) == 2  # the spies see the parse
        calls.clear()
        for factor in (1, 2, 4):
            fine = cfg.refined(factor)
            assert fine.params is cfg.params and fine.diagnostics is cfg.diagnostics
        assert calls == []


def collision_dict(profile, n_nodes=64):
    return {
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": n_nodes, "dt": 0.0125, "t_end": 0.05},
        "params": {"profile": profile, "branch": 1},
        "diagnostics": [],
        "output": {"directory": None, "cadence": 1},
    }


def test_zero_collision_profile_is_rejected_at_its_node():
    """h exactly 0 at a node at t = 0 is a ConfigError naming the node and s."""
    with pytest.raises(ConfigError, match=r"^params\.profile: h = 0 at node 0 \(s = 0\) at t = 0"):
        ScenarioConfig.from_dict(collision_dict(traveling(amp=0.0)))
    # sin(s - t) is 0 at s = 0; standing waves on 64 nodes are 3e-17 at s = pi/2
    with pytest.raises(ConfigError, match=r"node 0 \(s = 0\)"):
        ScenarioConfig.from_dict(collision_dict(traveling(amp=1.0)))
    ScenarioConfig.from_dict(collision_dict(standing()))


def test_refinement_that_puts_a_node_on_a_zero_is_rejected(monkeypatch):
    """sin(s - pi/16) is 0 only between the nodes of 16, on node 1 of 32: the
    coarse grid parses, its refinement and a study over it do not, and the
    study runs no level."""
    d = collision_dict(traveling(amp=1.0, phase=-math.pi / 16.0), n_nodes=16)
    d["grid"]["dt"] = 0.05
    d["grid"]["t_end"] = 0.2
    cfg = ScenarioConfig.from_dict(d)
    with pytest.raises(ConfigError, match=r"node 1 \(s = 0\.196349541\) at t = 0"):
        cfg.refined(2)
    runs = []
    monkeypatch.setattr(sim_harness, "run_scenario", lambda *a, **k: runs.append(a))
    with pytest.raises(ConfigError, match="node 1"):
        convergence_study(cfg, 3)
    assert runs == []


def test_only_the_collision_model_checks_its_nodes(monkeypatch):
    """No other model evaluates its data while it is configured or refined."""
    def evaluated(*args):
        raise AssertionError("evaluated at config time")

    monkeypatch.setattr(WaveProfile, "jet", evaluated)
    monkeypatch.setattr(WaveProfile, "h", evaluated)
    monkeypatch.setattr(sim_harness, "_harmonic_sum", evaluated)
    for d in output_digests.small_runs().values():
        if d["model"] != "peakon_collision_exact":
            ScenarioConfig.from_dict(d).refined(2)
    with pytest.raises(AssertionError, match="config time"):
        ScenarioConfig.from_dict(output_digests.small_runs()["peakon_collision_exact"])


def test_single_errors_equal_the_per_field_loop():
    """One subtract/abs/max pass over the packed level gives the bits of
    the per-field errors against the bound evaluator's (Q, M, N), NaN and
    signed zeros included."""
    cfg = ScenarioConfig.from_dict(single_exact_dict())
    s = sim_harness._nodes(cfg.s_length, cfg.n_nodes)
    names, errors = sim_harness._single_reference(cfg.params, s)
    qmn_at = cfg.params["profile"].on_nodes(s, (1.0, 1.0 / K0, -1.0 / K0))
    rng = np.random.default_rng(7)
    for t in (0.0, 0.05, 0.1):
        exact = qmn_at(t)
        for noise in (0.0, 1e-9, 1.0):
            y = exact[:, :, None] + noise * rng.standard_normal((3, 64, 1))
            y[1, 5, 0] = -0.0
            if noise == 1.0:
                y[2, 7, 0] = np.nan
            got = list(errors(y, t))
            want = [np.max(np.abs(field - ref[:, None])) for field, ref in zip(y, exact)]
            assert names == ("err_Q", "err_M", "err_N")
            for key, a, b in zip(names, got, want):
                assert type(a) is type(b)
                assert np.array_equal(a, b, equal_nan=True), key


def single_exact_memory_peak(n_nodes=512, steps=24):
    """tracemalloc peak, in bytes, of a peakon_single_exact run that keeps
    no snapshots, with the two-wave profile of ``single_exact_dict``."""
    d = single_exact_dict()
    dt = 0.5 * TWO_PI / n_nodes
    d["grid"] = {"S": TWO_PI, "N_s": n_nodes, "dt": dt, "t_end": steps * dt}
    cfg = ScenarioConfig.from_dict(d)
    run_scenario(cfg, keep_snapshots=False)  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        run_scenario(cfg, keep_snapshots=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_exact_run_peaks_below_six_and_a_half_states():
    """A peakon_single_exact run at N_s = 512 that keeps no snapshots peaks
    inside an RHS evaluation: the state, k1, the stage input and the lone
    peakon's output, which takes each slope in its last slot, besides the
    reference's node rows (two harmonics, four rows of N_s doubles) and the
    run's small objects.  5.92 packed states measured.  The old A = 1 step
    held the (N_s, 2) slope input and output besides its output: with it
    and the node rows the run peaked at 7.25, and with it and the exact
    data formed afresh per level, keeping no rows, at 6.19."""
    state_bytes = 3 * 512 * 8
    assert single_exact_memory_peak() < 6.5 * state_bytes


def small_run_with_lambdas(name):
    d = output_digests.small_runs()[name]
    if name == "chiral":
        d["diagnostics"] = [{"kind": "zero_curvature", "lambdas": [0.5, 2.0]}]
    return d


@pytest.mark.parametrize(
    "name,path,value",
    [
        pytest.param("chiral", ("params", "initial", "u", 0, 0, 0), 0.9, id="initial-term"),
        pytest.param("chiral", ("diagnostics", 0, "lambdas", 0), 3.0, id="lambda"),
        pytest.param("spin_chain", ("params", "A", 0), 5.0, id="inertia"),
        pytest.param("peakon_single_exact",
                     ("params", "profile", "parts", 0, "terms", 0, 0), 0.5, id="profile-amp"),
    ],
)
def test_parse_does_not_alias_its_input(name, path, value):
    """Changing the input dict after the parse changes nothing in the run."""
    d = small_run_with_lambdas(name)
    cfg = ScenarioConfig.from_dict(d)
    expected = run_scenario(cfg, keep_snapshots=False).summary()
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert run_scenario(cfg, keep_snapshots=False).summary() == expected
    changed = run_scenario(ScenarioConfig.from_dict(d), keep_snapshots=False).summary()
    assert changed != expected  # the changed entry matters to the run


# ------------------------------------------------------------------ convergence


def test_convergence_study_chiral_order_two():
    d = chiral_dict()
    d["grid"]["N_s"] = 32
    d["grid"]["dt"] = 0.025
    d["grid"]["t_end"] = 0.2
    study = convergence_study(ScenarioConfig.from_dict(d), 3)
    assert [lvl["N_s"] for lvl in study["levels"]] == [32, 64, 128]
    assert study["levels"][2]["dt"] == 0.00625
    zc = study["diagnostics"]["zero_curvature"]
    assert zc["order"] is not None
    assert zc["order"] > 1.8
    assert all(o > 1.8 for o in zc["orders"])


def test_convergence_study_flags_floor_as_undefined():
    d = chiral_dict()
    d["params"]["initial"] = {
        "u": [[], [], [[1.0, 0.0, HALF_PI]]],
        "v": [[], [], [[1.0, 0.0, HALF_PI]]],
    }
    study = convergence_study(ScenarioConfig.from_dict(d), 3)
    zc = study["diagnostics"]["zero_curvature"]
    assert zc["order"] is None
    assert zc["orders"] is None


def test_convergence_study_checks_every_level_before_running(monkeypatch):
    cfg = ScenarioConfig.from_dict(chiral_dict())  # 8 steps; levels of 8, 16, 32
    monkeypatch.setattr(sim_harness, "MAX_STEPS", 20)
    runs = []
    monkeypatch.setattr(sim_harness, "run_scenario", lambda *a, **k: runs.append(a))
    with pytest.raises(ConfigError, match="limit of 20"):
        convergence_study(cfg, 3)
    assert runs == []


def test_convergence_study_needs_three_levels():
    with pytest.raises(ConfigError):
        convergence_study(ScenarioConfig.from_dict(chiral_dict()), 2)


def test_list_scenarios_registry():
    entries = list_scenarios()
    names = [name for name, _ in entries]
    assert len(entries) == 7
    assert set(names) == {
        "spin_chain",
        "chiral",
        "aniso_uv",
        "aniso_xy",
        "peakon",
        "peakon_single_exact",
        "peakon_collision_exact",
    }
    assert all(isinstance(desc, str) and desc for _, desc in entries)
