"""Command-line interface: exit codes, output files, printed summaries."""

import json
import math

import pytest

from gstrand import BlowUpError, ConfigError, ScenarioConfig, cli, run_scenario, sim_harness
from gstrand.cli import main
from test_sim_harness import output_digests

TWO_PI = 2.0 * math.pi


def write_config(tmp_path, overrides=None, name="scenario.json"):
    d = {
        "model": "chiral",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "initial": {
                "u": [[[1.0, 1.0, 0.0]], [], [[1.0, 1.0, 0.5 * math.pi]]],
                "v": [[], [[1.0, 1.0, 0.5 * math.pi]], []],
            }
        },
        "diagnostics": [{"kind": "zero_curvature"}],
        "output": {"directory": None, "cadence": 1},
    }
    for path, value in (overrides or {}).items():
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    f = tmp_path / name
    f.write_text(json.dumps(d), encoding="utf-8")
    return f


def test_run_ok(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {("output", "directory"): str(out)})
    rc = main(["run", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "model chiral: ok after 8 steps" in captured.out
    assert "zero_curvature: max" in captured.out
    assert f"wrote {out}" in captured.out
    assert (out / "report.json").exists()
    assert (out / "u.csv").exists()
    assert (out / "v.csv").exists()
    assert (out / "zero_curvature.csv").exists()


def test_run_prints_the_reference_errors_of_report_json(tmp_path, capsys):
    """`run` on an exact model prints each reference error at %.6e, the value
    report.json holds, in the reference's column order."""
    d = output_digests.small_runs()["peakon_single_exact"]
    d["output"]["directory"] = str(tmp_path / "out")
    config = tmp_path / "single.json"
    config.write_text(json.dumps(d), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    printed = capsys.readouterr().out.splitlines()
    errors = json.loads((tmp_path / "out" / "report.json").read_text())["reference_error"]
    assert sorted(errors) == ["err_M", "err_N", "err_Q"]
    assert [line for line in printed if line.startswith("  err_")] == [
        f"  {key}: {errors[key]:.6e}" for key in ("err_Q", "err_M", "err_N")]


def test_run_out_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "flagged"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert f"wrote {out}" in capsys.readouterr().out


def test_run_and_converge_keep_no_snapshots(tmp_path, monkeypatch):
    calls = []

    def spy(run):
        def run_scenario(*args, **kwargs):
            calls.append(kwargs["keep_snapshots"])
            return run(*args, **kwargs)
        return run_scenario

    monkeypatch.setattr(cli, "run_scenario", spy(cli.run_scenario))
    monkeypatch.setattr(sim_harness, "run_scenario", spy(sim_harness.run_scenario))
    cfg = write_config(
        tmp_path,
        {("grid", "N_s"): 32, ("grid", "dt"): 0.025, ("grid", "t_end"): 0.2},
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["converge", "--config", str(cfg), "--levels", "3"]) == 0
    assert calls == [False] * 4


@pytest.mark.parametrize("under_file", [False, True])
def test_out_path_that_cannot_be_a_directory_is_config_error(
    tmp_path, capsys, monkeypatch, under_file
):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if under_file else blocker
    steps = []
    monkeypatch.setattr(sim_harness, "rk4_step", lambda *args: steps.append(args))
    cfg = write_config(tmp_path)
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert "cannot make output directory" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="cannot make output directory"):
        run_scenario(ScenarioConfig.from_file(cfg), out_dir=out)
    assert steps == []


@pytest.mark.parametrize("blow_up", [False, True])
def test_output_file_that_cannot_be_written(tmp_path, capsys, blow_up):
    """After the run: ConfigError naming the file (exit 2), or the run's own error (exit 3)."""
    bad_u = [[[1e160, 1.0, 0.0]], [], []]
    cfg = write_config(tmp_path, {("params", "initial", "u"): bad_u} if blow_up else {})
    out = tmp_path / "out"
    (out / "u.csv").mkdir(parents=True)
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if blow_up:
        assert rc == 3
        assert "non-finite" in err
        with pytest.raises(BlowUpError):
            run_scenario(ScenarioConfig.from_file(cfg), out_dir=out)
    else:
        assert rc == 2
        assert "cannot write output file" in err
        assert str(out / "u.csv") in err
        with pytest.raises(ConfigError, match="cannot write output file"):
            run_scenario(ScenarioConfig.from_file(cfg), out_dir=out)


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{oops", encoding="utf-8")
    rc = main(["run", "--config", str(f)])
    assert rc == 2
    assert "valid JSON" in capsys.readouterr().err


def test_cfl_violation_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {("grid", "dt"): 1.0, ("grid", "t_end"): 2.0})
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "CFL" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["converge", "--levels", "3"]])
@pytest.mark.parametrize("b,dt,message", [
    pytest.param([2.0, 1.0, 1.0], 0.0125, "elliptic", id="elliptic"),
    # c dt/ds = 4.07: once accepted, it ran 20 steps to a residual of 7.6e6
    pytest.param([-100.0] * 3, 0.04, "c_max dt/ds = 4.07437, with wave speed c_max = 10,",
                 id="over-fast"),
])
def test_ill_posed_spin_chain_exits_2_before_any_step(
    tmp_path, capsys, monkeypatch, command, b, dt, message
):
    cfg = write_config(tmp_path, {
        ("model",): "spin_chain", ("params", "A"): [1.0, 1.0, 1.0], ("params", "B"): b,
        ("grid", "dt"): dt, ("grid", "t_end"): 20 * dt,
    })
    monkeypatch.setattr(sim_harness, "rk4_step", lambda *a: pytest.fail("a step was taken"))
    rc = main([command[0], "--config", str(cfg), *command[1:]])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_hyperbolic_spin_chain_converges_under_converge(tmp_path, capsys):
    """The spin-chain run data's compatibility residual falls at order >= 1.8."""
    cfg = write_config(tmp_path, {
        ("model",): "spin_chain", ("params", "A"): [1.0, 2.0, 3.0],
        ("params", "B"): [-2.0, -1.0, -1.0],
    })
    assert main(["converge", "--config", str(cfg), "--levels", "4"]) == 0
    study = json.loads(capsys.readouterr().out)
    assert study["diagnostics"]["zero_curvature"]["order"] >= 1.8


def test_overflowing_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {("grid", "t_end"): 1e308})
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "grid.t_end" in capsys.readouterr().err


def test_blow_up_is_simulation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {("params", "initial", "u"): [[[1e160, 1.0, 0.0]], [], []]}
    )
    rc = main(["run", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "non-finite" in captured.err
    assert "step 1" in captured.err


def collision_config(tmp_path, profile, out):
    return write_config(tmp_path, {
        ("model",): "peakon_collision_exact",
        ("params",): {"profile": profile, "branch": 1},
        ("diagnostics",): [],
        ("output", "directory"): str(out),
    })


def test_zero_collision_profile_is_config_error_and_writes_no_files(tmp_path, capsys):
    """A collision profile that is exactly 0 at a node at t = 0 is rejected
    before the run (exit 2), by the node's index and s."""
    out = tmp_path / "out"
    cfg = collision_config(tmp_path, {"type": "traveling", "terms": [], "direction": 1}, out)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: params.profile: h = 0 at node 0 (s = 0) at t = 0, the collision instant, "
        "where the exact momenta are singular\n"
    )
    assert not out.exists()


def test_singular_initial_data_is_located(tmp_path, capsys):
    """On 64 nodes the standing wave 0.5 cos(s) cos(t) is 3e-17, not 0, at
    s = pi/2: it passes config, and the coincident-peakon guard of the first
    stage reports the initial data (exit 3)."""
    profile = {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0}
    cfg = collision_config(tmp_path, profile, tmp_path / "out")
    rc = main(["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: coincident peakons")
    assert err.endswith(" (initial data, t = 0)\n")


def test_converge_prints_study_json(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {("grid", "N_s"): 32, ("grid", "dt"): 0.025, ("grid", "t_end"): 0.2},
    )
    rc = main(["converge", "--config", str(cfg), "--levels", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    study = json.loads(captured.out)
    assert [lvl["N_s"] for lvl in study["levels"]] == [32, 64, 128]
    assert study["diagnostics"]["zero_curvature"]["order"] > 1.8


def test_converge_rejects_two_levels(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["converge", "--config", str(cfg), "--levels", "2"])
    assert rc == 2
    assert "refinement_levels" in capsys.readouterr().err


def test_converge_rejects_a_level_over_the_step_limit_before_running(
    tmp_path, capsys, monkeypatch
):
    cfg = write_config(tmp_path)  # 8 steps; levels of 8, 16, 32
    monkeypatch.setattr(sim_harness, "MAX_STEPS", 20)
    runs = []
    monkeypatch.setattr(sim_harness, "run_scenario", lambda *a, **k: runs.append(a))
    rc = main(["converge", "--config", str(cfg), "--levels", "3"])
    assert rc == 2
    assert "limit of 20" in capsys.readouterr().err
    assert runs == []


def test_node_count_over_the_limit_exits_2_before_any_array(tmp_path, capsys, monkeypatch):
    grid = {"S": TWO_PI, "N_s": 10**12, "dt": 1e-13, "t_end": 1e-13}
    cfg = write_config(tmp_path, {("grid",): grid, ("diagnostics",): []})
    monkeypatch.setattr(sim_harness, "_nodes", lambda *a: pytest.fail("nodes were formed"))
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert f"grid.N_s must be at most {sim_harness.MAX_NODES}" in capsys.readouterr().err


def test_converge_rejects_a_level_over_the_node_limit_before_running(
    tmp_path, capsys, monkeypatch
):
    cfg = write_config(tmp_path)  # N_s = 64; level 15 has 2**21 nodes
    runs = []
    monkeypatch.setattr(sim_harness, "run_scenario", lambda *a, **k: runs.append(a))
    rc = main(["converge", "--config", str(cfg), "--levels", "16"])
    assert rc == 2
    assert f"at most {sim_harness.MAX_NODES}, got {2**21}" in capsys.readouterr().err
    assert runs == []


def test_repeated_lambda_column_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {("diagnostics",): [{"kind": "zero_curvature", "lambdas": [0.5, 0.5]}]}
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "lam_0.5" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [5e-324, 1e-309])
def test_chiral_lambda_whose_reciprocal_overflows_exits_2(tmp_path, capsys, lam):
    cfg = write_config(
        tmp_path, {("diagnostics",): [{"kind": "zero_curvature", "lambdas": [lam]}]}
    )
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "diagnostics[0].lambdas[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"model": "chiral\xe9"}')
    rc = main(["run", "--config", str(f)])
    assert rc == 2
    assert "UTF-8" in capsys.readouterr().err


def test_json_nested_past_the_decoder_limit_is_config_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text('{"model": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    rc = main(["run", "--config", str(f)])
    assert rc == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_deeply_nested_profile_is_config_error(tmp_path, capsys):
    profile = {"type": "standing", "amplitude": 0.3, "wavenumber": 1.0}
    for _ in range(300):
        profile = {"type": "superposition", "parts": [profile]}
    cfg = write_config(tmp_path, {
        ("model",): "peakon_single_exact",
        ("params",): {"profile": profile},
        ("diagnostics",): [],
    })
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "superpositions nest more than" in capsys.readouterr().err


def test_list_scenarios_output(capsys):
    rc = main(["list-scenarios"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [ln for ln in captured.out.splitlines() if ln.strip()]
    assert len(lines) == 7
    assert any(ln.startswith("chiral:") for ln in lines)
    assert any(ln.startswith("peakon_collision_exact:") for ln in lines)


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
