"""Command-line interface: exit codes, output files, printed summaries."""

import json
import math

import pytest

from gstrand import ConfigError, ScenarioConfig, cli, run_scenario, sim_harness
from gstrand.cli import main

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


def test_repeated_lambda_column_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {("diagnostics",): [{"kind": "zero_curvature", "lambdas": [0.5, 0.5]}]}
    )
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "lam_0.5" in capsys.readouterr().err


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
