"""Print the SHA-256 of every file that a fixed set of runs writes.

    python3 scripts/output_digests.py [CHECKOUT]

Runs one small scenario per model (the free peakon model twice, with one
and with three peakons, so the CSV column counts differ), one run that
blows up and writes partial outputs, and seed 1 of every perfbench workload
generator, each with an output directory, then the single_converge
workload's seed-1 scenario through ``gstrand converge --levels 4``.  The
scenarios come from this checkout; the gstrand that runs them is imported
from ``CHECKOUT/src`` (default: this checkout), and the script exits with
status 1 when that is not the gstrand it imported.  One line per file,
``<run>/<file> <sha256>``, and one for the JSON that ``converge`` prints,
``single_converge-1/converge <sha256>``.  Two checkouts write the same
bytes when their tables are equal:

    diff <(python3 scripts/output_digests.py /path/to/parent) \\
         <(python3 scripts/output_digests.py)

``small_runs`` is also the scenario table of the byte-for-byte CSV oracle
tests in ``tests/test_sim_harness.py``.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi


def _grid(n_nodes=32, dt=0.02, steps=6):
    return {"S": TWO_PI, "N_s": n_nodes, "dt": dt, "t_end": steps * dt}


def _run(model, params, diagnostics, grid=None):
    return {
        "model": model,
        "grid": grid or _grid(),
        "params": params,
        "diagnostics": [{"kind": kind} for kind in diagnostics],
        "output": {"directory": None, "cadence": 1},
    }


def _uv(**diagonals):
    return {**diagonals, "initial": {
        "u": [[[0.6, 1.0, 0.0]], [[0.3, 2.0, 1.0]], [[0.5, 1.0, HALF_PI]]],
        "v": [[[0.2, 1.0, 0.5]], [[0.7, 1.0, HALF_PI]], [[0.1, 3.0, 0.0]]],
    }}


def _peakons(count):
    q, m, n = [], [], []
    for a in range(count):
        q.append([[a - 0.5 * (count - 1), 0, HALF_PI], [0.08, 1, 0.3 * a]])
        m.append([[0.2 + 0.05 * a, 0, HALF_PI], [0.03, 2, 0.0]])
        n.append([[0.05 * (a - 1), 0, HALF_PI], [0.02, 1, 1.0]])
    return {"count": count, "initial": {"q": q, "m": m, "n": n}}


def _wave(amp1, amp2):
    return {"type": "superposition", "parts": [
        {"type": "traveling", "terms": [[amp1, 1.0, 0.0]], "direction": 1},
        {"type": "traveling", "terms": [[amp2, 2.0, 0.0]], "direction": -1},
    ]}


def _collision_profile():
    return {"type": "superposition", "parts": [
        {"type": "traveling", "terms": [[1.0, 0.0, HALF_PI]], "direction": 1},
        {"type": "standing", "amplitude": 0.25, "wavenumber": 1.0},
    ]}


def small_runs():
    """One small scenario per model, plus a run that blows up."""
    peakon_diags = ("s_constraint", "conservation_sums")
    blow_up = _uv()
    blow_up["initial"]["u"][0] = [[1e160, 1.0, 0.0]]
    return {
        "spin_chain": _run("spin_chain", _uv(A=[1.0, 2.0, 3.0], B=[-2.0, -1.0, -1.0]),
                           ("zero_curvature",)),
        "chiral": _run("chiral", _uv(), ("zero_curvature",)),
        "aniso_uv": _run("aniso_uv", _uv(P=[1.0, 2.0, 0.0]), ("lax",)),
        "aniso_xy": _run("aniso_xy", {"P": [1.0, 2.0, 3.0], "initial": {
            "X": _uv()["initial"]["u"], "Y": _uv()["initial"]["v"]}}, ("invariant_drift",)),
        "peakon_A1": _run("peakon", _peakons(1), peakon_diags),
        "peakon_A3": _run("peakon", _peakons(3), peakon_diags),
        "peakon_single_exact": _run("peakon_single_exact", {"profile": _wave(0.3, 0.1)},
                                    peakon_diags),
        "peakon_collision_exact": _run("peakon_collision_exact",
                                       {"profile": _collision_profile(), "branch": 1},
                                       peakon_diags),
        "chiral_blow_up": _run("chiral", blow_up, ("zero_curvature",)),
    }


def workload_runs(seed=1):
    """Seed ``seed`` of every perfbench workload generator, as a single run."""
    sys.path.insert(0, str(HERE / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    return {f"{name}-{seed}": w.generate(seed) for name, w in WORKLOADS.items()}


def digests(scenarios, out_root):
    from gstrand import ScenarioConfig, SimulationError, run_scenario

    lines = []
    for name, scenario in scenarios.items():
        out = Path(out_root) / name
        try:
            run_scenario(ScenarioConfig.from_dict(scenario), out_dir=out)
        except SimulationError:
            pass  # partial outputs are written before the error is raised
        for path in sorted(out.iterdir()):
            lines.append(f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return lines


def converge_digest(scenario, levels, tmp):
    """SHA-256 of what ``gstrand converge`` prints for ``scenario``."""
    from gstrand.cli import main

    config = Path(tmp) / "converge.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        main(["converge", "--config", str(config), "--levels", str(levels)])
    return hashlib.sha256(printed.getvalue().encode()).hexdigest()


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else HERE
    scenarios = {**small_runs(), **workload_runs()}  # before gstrand is imported
    src = checkout / "src"
    if not (src / "gstrand" / "__init__.py").is_file():
        sys.exit(f"output_digests: no gstrand sources under {src}")
    sys.path.insert(0, str(src))
    import gstrand

    # an installed or already imported gstrand would make two tables compare one program
    if Path(gstrand.__file__).resolve().parent != (src / "gstrand").resolve():
        sys.exit(f"output_digests: imported gstrand from {gstrand.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(digests(scenarios, tmp)))
        converge = converge_digest(scenarios["single_converge-1"], 4, tmp)
        print(f"single_converge-1/converge {converge}")


if __name__ == "__main__":
    main(sys.argv[1:])
