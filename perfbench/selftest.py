"""Self-test of the benchmark's generators and output checks.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Shows that each generator is deterministic per seed and keeps its draws in
stable ranges, that every workload passes its check on this program, that
each check rejects a deliberately perturbed output, and that a boundary
missing from the program drops its metrics instead of reading 0 and skips
the checks built on it instead of failing them.
"""

import copy
import dataclasses
import json
import math
import os
import shutil
import sys

import program

program.load()

import numpy as np  # noqa: E402

from gstrand import sim_harness  # noqa: E402
from gstrand.peakon_dynamics import CONDITION_LIMIT, MIN_GAP, _min_gap, kernel_matrix  # noqa: E402
from measure import Session  # noqa: E402
from spans import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, peakon_dense_scenario  # noqa: E402

SEEDS = range(200)


def test_generators_are_deterministic_per_seed():
    for workload in WORKLOADS.values():
        first = json.dumps(workload.generate(7))
        assert json.dumps(workload.generate(7)) == first, workload.name
        assert json.dumps(workload.generate(8)) != first, workload.name


def test_peakon_draws_keep_gaps_and_conditioning_safe():
    """Initial gaps stay far above MIN_GAP and condition numbers far below the limit."""
    s = np.arange(256) * (2.0 * math.pi / 256)
    for seed in SEEDS:
        q_terms = peakon_dense_scenario(seed)["params"]["initial"]["q"]
        q = np.stack([sum(a * np.sin(k * s + ph) for a, k, ph in terms)
                      for terms in q_terms], axis=1)
        assert _min_gap(q) > 1e6 * MIN_GAP
        assert np.max(np.linalg.cond(kernel_matrix(q))) < 1e-9 * CONDITION_LIMIT


def test_missing_boundary_is_omitted_not_zero():
    saved = sim_harness._write_outputs
    del sim_harness._write_outputs
    try:
        tracer = Tracer()
        assert tracer.missing == ["gstrand.sim_harness._write_outputs"]
        values = tracer.layer_metrics([], 0)
        assert "sim_harness.write_s" not in values
        assert "sim_harness.diagnostics_s" in values
        assert "sim_harness.snapshot_bytes" not in tracer.layer_metrics(None, 0)
    finally:
        sim_harness._write_outputs = saved
    assert Tracer().missing == []


def test_missing_probe_target_is_reported_not_failed():
    saved = sim_harness.peakon_rhs
    del sim_harness.peakon_rhs
    try:
        probe = Probe()
        assert probe.missing == ["gstrand.sim_harness.peakon_rhs"]
        with probe.installed():
            pass
        assert probe.peakon_rhs_calls is None
    finally:
        sim_harness.peakon_rhs = saved
    assert Probe().missing == []


def _run(name, seed=3):
    """One checked invocation; returns (session, outcome, work directory)."""
    work = program.WORK / f"selftest-{name}-{os.getpid()}"
    session = Session(WORKLOADS[name], seed, work / "run")
    _, outcome = session.invoke()
    return session, outcome, work


def _skips_without_reports(session, outcome, expected_digest=None):
    """With no RunReport seen the check passes what it can still see and names the rest."""
    blind = dataclasses.replace(outcome, reports=None, skipped=[])
    return not session.workload.check(blind, session.scenario, expected_digest) and blind.skipped


def _rejects(session, outcome, perturb, expected_digest=None):
    bad = copy.deepcopy(outcome)
    perturb(bad)
    return bool(session.workload.check(bad, session.scenario, expected_digest))


def test_chiral_lax_check():
    session, outcome, work = _run("chiral_lax")
    try:
        assert session.failed == 0

        def columns(o):
            return o.reports[0].diagnostics["zero_curvature"]["columns"]

        assert _rejects(session, outcome, lambda o: columns(o)["lam_-1"].__setitem__(5, 1e-300))
        assert _rejects(session, outcome, lambda o: columns(o)["lam_1"].__imul__(100.0))
        assert _rejects(session, outcome, lambda o: columns(o)["lam_2"].__setitem__(0, np.nan))
        assert _rejects(session, outcome, lambda o: setattr(o, "code", 3))
        assert _rejects(session, outcome, lambda o: setattr(o.reports[0], "status", "failed"))

        def printed_max_times_100(o):
            head, _, rest = o.stdout.partition("zero_curvature: max ")
            value, _, tail = rest.partition("\n")
            o.stdout = f"{head}zero_curvature: max {100 * float(value):.6e}\n{tail}"

        assert _rejects(session, outcome, printed_max_times_100)
        assert _skips_without_reports(session, outcome)
    finally:
        shutil.rmtree(work)


def test_peakon_dense_check():
    session, outcome, work = _run("peakon_dense")
    try:
        assert session.failed == 0

        def drift(o):
            o.reports[0].diagnostics["conservation_sums"]["columns"]["sum_M"][-1] += 1e-11

        assert _rejects(session, outcome, drift)
        assert _rejects(session, outcome, lambda o: setattr(o, "peakon_rhs_calls", 399))
        assert _skips_without_reports(session, outcome)
        uncounted = dataclasses.replace(outcome, peakon_rhs_calls=None, skipped=[])
        assert not session.workload.check(uncounted, session.scenario)
        assert uncounted.skipped == ["peakon RHS count (no peakon_rhs call seen)"]
    finally:
        shutil.rmtree(work)


def test_xy_write_check():
    session, outcome, work = _run("xy_write")
    try:
        assert session.failed == 0
        digest = outcome.digest
        assert not session.workload.check(outcome, session.scenario, digest)
        assert _rejects(session, outcome, lambda o: None, expected_digest="0" * 64)
        assert _skips_without_reports(session, outcome, digest)
        for name in ("X.csv", "Y.csv", "invariant_drift.csv", "report.json"):
            path = outcome.out_dir / name
            original = path.read_text()
            if name == "report.json":
                report = json.loads(original)
                report["n_steps"] += 1
                path.write_text(json.dumps(report))
            else:
                # nudge the last number on the first data row by one part in 1e9
                lines = original.split("\n")
                head, _, last = lines[1].rpartition(",")
                lines[1] = f"{head},{float(last) * (1 + 1e-9) + 1e-300!r}"
                path.write_text("\n".join(lines))
            assert session.workload.check(outcome, session.scenario, None), name
            path.write_text(original)
        assert not session.workload.check(outcome, session.scenario, digest)
    finally:
        shutil.rmtree(work)


def test_single_converge_check():
    session, outcome, work = _run("single_converge")
    try:
        assert session.failed == 0

        def slow_q(o):
            o.reports[-1].reference_error["columns"]["err_Q"] *= 4.0

        def slow_constraint(o):
            study = json.loads(o.stdout)
            study["diagnostics"]["s_constraint"]["orders"][-1] = 1.0
            o.stdout = json.dumps(study)

        assert _rejects(session, outcome, slow_q)
        assert _rejects(session, outcome, slow_constraint)
        assert _rejects(session, outcome, lambda o: o.reports.pop())
        assert _skips_without_reports(session, outcome)
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
