"""Scenario validation, RK4 stepping, run reports, and file outputs."""

import copy
import importlib.util
import json
import math
import tracemalloc
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
    aniso_lax,
    chiral_curvature_max,
    compatibility_residual,
    convergence_study,
    invariant_drift,
    list_scenarios,
    peakon_rhs,
    rk4_step,
    run_scenario,
    s_constraint_residual,
    sim_harness,
    single_peakon_exact,
    zero_curvature_residual,
)
from gstrand.analytic_solutions import MAX_PROFILE_DEPTH

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
    d["params"]["B"] = [2.0, 1.0, 1.0]
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
        d["params"].update(A=[1.0, 2.0, 3.0], B=[2.0, 1.0, 1.0])
    elif model == "aniso_uv":
        d["params"]["P"] = [1.0, 2.0, 3.0]
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
    d["params"]["B"] = [2.0, 1.0, 1.0]
    rep = run_scenario(ScenarioConfig.from_dict(d))
    cols = rep.diagnostics["zero_curvature"]["columns"]
    assert set(cols) == {"residual"}
    assert 0.0 < np.max(cols["residual"]) < 1e-2


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
            rows = chiral_curvature_max(snaps, lambdas, sten, dt)
            columns = dict(zip(sim_harness._lambda_columns(lambdas), rows))
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


@pytest.mark.parametrize("name", sorted(set(output_digests.small_runs()) - {BLOW_UP}))
def test_per_level_series_equal_trajectory_functions(name):
    """Each series evaluated level by level has the bits of the list functions
    applied to the whole stored trajectory."""
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()[name])
    report = run_scenario(cfg)
    expected = trajectory_columns(cfg, report.snapshots, report.times)
    series = report.series()
    assert list(series) == list(expected)
    for kind, columns in expected.items():
        assert list(series[kind]["columns"]) == list(columns), kind
        for key, values in columns.items():
            assert np.array_equal(series[kind]["columns"][key], values), (kind, key)


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


def test_spin_chain_levels_are_stacked_three_at_a_time(monkeypatch):
    shapes = []

    def spy(u, v, sten, dt):
        shapes.append(u.shape)
        return compatibility_residual(u, v, sten, dt)

    monkeypatch.setattr(sim_harness, "compatibility_residual", spy)
    cfg = ScenarioConfig.from_dict(output_digests.small_runs()["spin_chain"])
    run_scenario(cfg, keep_snapshots=False)
    assert shapes == [(3, cfg.n_nodes, 3)] * (cfg.n_steps - 1)


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
