"""Run every workload over several seeds, print every metric, record the baseline.

    python3 perfbench/suite.py

Each workload runs once per seed (1 to 10) with tracing off, and once more
(seed 1) with tracing on, for ``spec.RUN_SECONDS`` each, each time as ``perfbench/run.py`` in a process of its
own.  For every end-to-end metric the suite prints the median over seeds
with its unit, the quartiles and the spread (interquartile range over
median) against the metric's bound, the same for the raw (unscaled) wall and
set-up times and the calibration times, and for every workload the pass or
fail of its output checks and its error rate.

It writes ``BENCHMARK.json`` from ``spec.py`` and the workload list, and
``perfbench/baseline.json`` with the measured values and the machine they
were measured on (BLAS thread setting, core count, Python and numpy
versions).  It exits with status 1 when a check failed or a spread exceeds
its bound.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import program
import spec
from workloads import WORKLOADS

RUN = program.ROOT / "perfbench" / "run.py"
BASELINE = program.ROOT / "perfbench" / "baseline.json"
SEEDS = range(1, 11)
# the human-readable lines run.py prints for the unscaled times
RAW = re.compile(r"^(wall_s|setup_s|run_calibration_s|setup_calibration_s)(?: \(raw\))?: "
                 r"median (\S+) s", re.M)


def run_once(workload, seed, trace):
    """One ``run.py`` process; its result object, plus ``raw``: its unscaled medians."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw"] = {name: float(value) for name, value in RAW.findall(proc.stdout)}
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine_info():
    import numpy

    return {
        "blas_threads": {var: program.BLAS_THREADS for var in program.BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main():
    program.load()

    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    results = {}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            started = time.perf_counter()
            runs.append(run_once(name, seed, 0))
            values = " ".join(f"{k} {v['value']:.6g}" for k, v in runs[-1]["metrics"].items())
            print(f"{name} seed {seed}: {values} ({time.perf_counter() - started:.1f} s)",
                  file=sys.stderr)
        traced = run_once(name, SEEDS[0], 1)
        attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        correct = all(r["correct"] for r in runs) and traced["correct"]
        ok = ok and correct
        end_to_end = {}
        print(f"{name}: check {'pass' if correct else 'FAIL'}, {attempted} attempted, "
              f"{failed} failed, error_rate {failed / attempted:.6g}")
        for metric in bounds:
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats.update(unit=units[metric], bound=bounds[metric])
            end_to_end[metric] = stats
            ok = ok and stats["spread"] <= bounds[metric]
            print(f"  {metric}: {stats['median']:.6g} {units[metric]}  quartiles "
                  f"{stats['q1']:.6g} .. {stats['q3']:.6g}  spread {stats['spread']:.4f} "
                  f"(bound {bounds[metric]}, target below {bounds[metric] / 3:.4f})")
        raw = {}
        for metric in ("wall_s", "setup_s", "run_calibration_s", "setup_calibration_s"):
            raw[metric] = stats = summarize([r["raw"][metric] for r in runs])
            print(f"  {metric} (raw, not gated): {stats['median']:.6g} s  quartiles "
                  f"{stats['q1']:.6g} .. {stats['q3']:.6g}  spread {stats['spread']:.4f}")
        results[name] = {
            "seeds": list(SEEDS),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": end_to_end,
            "raw": raw,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    bench = spec.benchmark_json(WORKLOADS.values())
    (program.ROOT / "BENCHMARK.json").write_text(json.dumps(bench, indent=2) + "\n")
    baseline = {"machine": machine_info(), "run_seconds": spec.RUN_SECONDS,
                "workloads": results}
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
