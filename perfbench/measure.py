"""Invoke one workload through ``gstrand.cli.main`` and measure it.

Import after ``program.load()``.

On a 2-vCPU cloud VM whose cores are shared with other tenants the speed
moved between levels up to 1.5x apart (1.9x for ``setup_s``) in stretches of
seconds to minutes, so there a plain median wall time over one run mostly
measured the host.  Each untraced invocation and the set-up samples
after it are therefore followed by two calibrations, fixed code that never
changes with gstrand.  The run calibration, a pure-Python loop plus a batch of
small ``eigvalsh`` calls, slowed about as much as whole invocations did; the
set-up calibration, JSON parsing plus many tiny numpy expressions, slowed
about as much as ``ScenarioConfig.from_file`` did (up to 2x, where the run
calibration slowed 1.6x).  ``wall_ref_s`` scales each invocation by
``spec.CALIBRATION_REF_S`` over the mean of the run calibrations before and
after it, and ``setup_s`` scales each set of set-up samples by
``spec.SETUP_CALIBRATION_REF_S`` over the set-up calibration right after it.
That gives seconds on a host where the calibrations take the reference times;
the raw wall and set-up times are printed alongside.
"""

import contextlib
import gc
import io
import json
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np
from gstrand import cli
from gstrand.sim_harness import ScenarioConfig

from spans import MAIN, RHS, Probe, Tracer
from spec import CALIBRATION_REF_S, LAYER_METRICS, SETUP_CALIBRATION_REF_S
from workloads import WORKLOADS, Outcome, output_digest

MIN_SAMPLES = 3
SETUP_CALLS = 50  # per timed invocation, so the samples spread over the whole run
CALIBRATION_REPEATS = 5
CALIBRATION_LOOP = 20000
CALIBRATION_EIGVALSH = 4
CALIBRATION_PARSES = 5
CALIBRATION_EXPRESSIONS = 100
_CALIBRATION_BATCH = np.random.default_rng(0).random((64, 8, 8))
_CALIBRATION_BATCH += np.swapaxes(_CALIBRATION_BATCH, 1, 2)
_CALIBRATION_DOC = json.dumps([w.generate(0) for w in WORKLOADS.values()])
_CALIBRATION_X = np.linspace(0.0, 1.0, 64)


def _median_time(kernel):
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_kernel():
    total = 0.0
    for i in range(CALIBRATION_LOOP):
        total += i * 0.5
    for _ in range(CALIBRATION_EIGVALSH):
        np.linalg.eigvalsh(_CALIBRATION_BATCH)


def _setup_kernel():
    for _ in range(CALIBRATION_PARSES):
        json.loads(_CALIBRATION_DOC)
    x = _CALIBRATION_X
    for _ in range(CALIBRATION_EXPRESSIONS):
        np.max(np.abs(np.sin(x) * 0.5 + x))


def run_calibration_s():
    """Median time of the run calibration kernel: the host's current speed for whole runs."""
    return _median_time(_run_kernel)


def setup_calibration_s():
    """Median time of the set-up calibration kernel: the host's current speed for set-up."""
    return _median_time(_setup_kernel)


class Session:
    """One workload at one seed: its scenario file, invocations and failure counts."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.scenario = workload.generate(seed)
        work_dir.mkdir(parents=True)
        self.config_path = work_dir / "scenario.json"
        self.config_path.write_text(json.dumps(self.scenario, indent=1), encoding="utf-8")
        self.out_dir = work_dir / "out" if workload.writes else None
        self.argv = workload.argv(self.config_path, self.out_dir)
        self.attempted = 0
        self.failed = 0
        self.expected_digest = None
        # (wall, run calibration around it, median set-up time, set-up
        # calibration right after that) of each untraced invocation
        self.cycles = []
        self.skipped = set()  # checks skipped because a boundary is missing

    def invoke(self, tracer=None):
        """Run the CLI once and check its output; (wall seconds, outcome) or (None, None)."""
        self.attempted += 1
        probe = Probe()
        main = cli.main if tracer is None else tracer.wrap(MAIN, cli.main)
        stdout = io.StringIO()
        gc.collect()
        try:
            with contextlib.ExitStack() as stack:
                stack.enter_context(probe.installed())
                if tracer is not None:
                    stack.enter_context(tracer.installed())
                stack.enter_context(contextlib.redirect_stdout(stdout))
                start = time.perf_counter()
                code = main(self.argv)
                wall = time.perf_counter() - start
        except Exception:  # a crash is a failed run, not the end of the benchmark
            traceback.print_exc()
            self.failed += 1
            return None, None
        outcome = Outcome(code, stdout.getvalue(), probe.reports, probe.peakon_rhs_calls,
                          self.out_dir)
        if self.out_dir is not None and code == 0:
            outcome.digest = output_digest(self.out_dir)
        problems = self.workload.check(outcome, self.scenario, self.expected_digest)
        if tracer is not None and code == 0:
            calls = tracer.count(RHS)
            if outcome.reports is None or calls == 0:
                outcome.skipped.append("RHS calls per step (no rk4_step call seen)")
            else:
                steps = sum(rep.n_steps for rep in outcome.reports)
                if calls != 4 * steps:
                    problems.append(f"{calls} RHS calls for {steps} steps")
        if self.expected_digest is None:
            self.expected_digest = outcome.digest
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
        for name in set(probe.missing + outcome.skipped) - self.skipped:
            print(f"missing boundary, not checked: {name}", file=sys.stderr)
            self.skipped.add(name)
        return wall, outcome

    def timed(self, seconds, modes=(False,)):
        """Invoke for ``seconds``, cycling through ``modes`` (True: traced).

        Each untraced invocation is followed by set-up samples and both
        calibrations, recorded in ``cycles``.  Returns the per-layer values of
        each traced invocation, and the traced minus untraced wall time of
        each traced invocation that directly follows a successful untraced
        one, so that both ran under the same machine load.
        """
        succeeded = {mode: 0 for mode in modes}
        layers = []
        overheads = []
        previous = None
        calibration = run_calibration_s()
        attempts = 0
        start = time.perf_counter()
        while attempts < MIN_SAMPLES * len(modes) or time.perf_counter() - start < seconds:
            traced = modes[attempts % len(modes)]
            attempts += 1
            tracer = Tracer() if traced else None
            wall, outcome = self.invoke(tracer)
            if traced and wall is not None and previous is not None:
                overheads.append(wall - previous)
            previous = None if traced else wall
            if wall is None:
                continue
            succeeded[traced] += 1
            if not traced:
                setup = self.sample_setup()
                setup_calibration = setup_calibration_s()
                before, calibration = calibration, run_calibration_s()
                self.cycles.append(
                    (wall, 0.5 * (before + calibration), setup, setup_calibration))
            else:
                write_bytes = (sum(p.stat().st_size for p in self.out_dir.iterdir())
                               if self.out_dir is not None else 0)
                layers.append(tracer.layer_metrics(outcome.reports, write_bytes))
                if tracer.missing:
                    print(f"missing boundaries: {', '.join(tracer.missing)}", file=sys.stderr)
            del outcome
        if not all(succeeded.values()):
            sys.exit(f"perfbench: all {attempts} invocations of {self.workload.name} failed")
        return layers, overheads

    def sample_setup(self):
        """Median time of ``SETUP_CALLS`` calls of ``ScenarioConfig.from_file``."""
        times = []
        for _ in range(SETUP_CALLS):
            start = time.perf_counter()
            ScenarioConfig.from_file(self.config_path)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def peak_mem_mb(self):
        """tracemalloc peak, in MB, of one (untimed) invocation."""
        tracemalloc.start()
        try:
            self.invoke()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, seed, seconds, trace, work_dir):
    """Run one workload; returns the result object printed as the last line."""
    session = Session(workload, seed, work_dir)
    # The first invocation warms imports and caches and sets the reference
    # output digest; it is not timed, so it also measures peak memory.
    peak_mem_mb = session.peak_mem_mb()
    if not trace:
        session.timed(seconds)
        walls, calibrations, setups, setup_calibrations = zip(*session.cycles)
        for name, values in (("wall_s (raw)", walls), ("run_calibration_s", calibrations),
                             ("setup_s (raw)", setups),
                             ("setup_calibration_s", setup_calibrations)):
            q1, med, q3 = quartiles(values)
            print(f"{name}: median {med:.6g} s, quartiles {q1:.6g} .. {q3:.6g} s, "
                  f"{len(values)} samples")
        metrics = {
            "wall_ref_s": (statistics.median(
                w * CALIBRATION_REF_S / c for w, c, _, _ in session.cycles), "s"),
            "setup_s": (statistics.median(
                s * SETUP_CALIBRATION_REF_S / c for _, _, s, c in session.cycles), "s"),
            "peak_mem_mb": (peak_mem_mb, "MB"),
        }
    else:
        layers, overheads = session.timed(seconds, modes=(False, True))
        metrics = {
            name: (statistics.median(layer[name] for layer in layers), unit)
            for name, (unit, _) in LAYER_METRICS.items() if name in layers[0]
        }
        if not overheads:
            sys.exit(f"perfbench: no traced invocation of {workload.name} followed "
                     "a successful untraced one")
        q1, med, q3 = quartiles(overheads)
        resolved = "" if q3 - q1 <= abs(med) else "; unresolved: spread exceeds the median"
        print(f"trace.overhead_s: median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
              f"{len(overheads)} traced/untraced pairs{resolved}")
        metrics["trace.overhead_s"] = (med, "s")
    error_rate = session.failed / session.attempted
    if not trace:
        metrics["success_rate"] = (1.0 - error_rate, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if session.skipped:
        print(f"missing boundaries, checks skipped: {'; '.join(sorted(session.skipped))}")
    verdict = "pass" if session.failed == 0 else "FAIL"
    print(f"{workload.name} seed {seed}: check {verdict}, {session.attempted} attempted, "
          f"{session.failed} failed, error_rate {error_rate:.6g}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
