"""Seeded workloads: scenario generators, CLI arguments and output checks.

Each workload turns a seed into one scenario dict, which the runner writes
to a JSON file and hands to ``gstrand.cli.main``; the program sees nothing
else.  Every random draw stays inside a range that keeps the run stable:
no blow-up, peakon gaps far above ``MIN_GAP`` and kernel condition numbers
far below ``CONDITION_LIMIT``.  Over seeds 0..39 the peakon_dense gaps
stayed above 0.66 and the condition numbers below 5 along the whole run,
the sum_M drift below 4e-15, and every single_converge order above 1.99;
``selftest.py`` checks the initial peakon margins over more seeds.

A check takes the ``Outcome`` of one invocation and returns the list of
problems it found; an empty list is a pass.  A check that needs a boundary
the program no longer has (``reports`` or ``peakon_rhs_calls`` is None) is
skipped and named in ``Outcome.skipped`` instead.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# Zero-curvature residual bound for chiral_lax, as a multiple of ds^2 + dt^2.
# The largest ratio seen over seeds 0..39 is 0.14.
CHIRAL_RESIDUAL_COEFF = 1.0
PEAKON_SUM_M_DRIFT = 1e-12
MIN_ORDER = 1.8
CONVERGE_LEVELS = 4


@dataclass
class Outcome:
    """What one CLI invocation produced, as the checks see it."""

    code: int
    stdout: str
    reports: list | None  # RunReport of every run_scenario call, in call order
    peakon_rhs_calls: int | None
    out_dir: Path | None = None
    digest: str | None = None
    skipped: list = field(default_factory=list)  # checks a missing boundary prevented


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int], dict]
    check: Callable  # (outcome, scenario, expected_digest) -> list of problems
    converge: bool = False
    writes: bool = False

    def argv(self, config_path, out_dir):
        if self.converge:
            return ["converge", "--config", str(config_path), "--levels", str(CONVERGE_LEVELS)]
        argv = ["run", "--config", str(config_path)]
        if self.writes:
            argv += ["--out", str(out_dir)]
        return argv


def output_digest(directory):
    """SHA-256 over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _grid(n_nodes, dt, steps):
    return {"S": TWO_PI, "N_s": n_nodes, "dt": dt, "t_end": steps * dt}


def _term(rng, amp_lo, amp_hi, wavenumbers):
    return [rng.uniform(amp_lo, amp_hi), rng.choice(wavenumbers), rng.uniform(0.0, TWO_PI)]


def _field(rng, amp_lo, amp_hi, wavenumbers):
    """Three components, one random harmonic each."""
    return [[_term(rng, amp_lo, amp_hi, wavenumbers)] for _ in range(3)]


def _steps(scenario):
    return round(scenario["grid"]["t_end"] / scenario["grid"]["dt"])


def _has_reports(outcome, what):
    """True when the RunReports were seen; otherwise note ``what`` as skipped."""
    if outcome.reports is None:
        outcome.skipped.append(f"{what} (no RunReport seen)")
        return False
    return True


def _run_problems(outcome, model, scenario):
    """Problems shared by every ``run`` workload: exit code, status line, status."""
    if outcome.code != 0:
        return [f"exit code {outcome.code}"]
    problems = []
    line = f"model {model}: ok after {_steps(scenario)} steps"
    if not outcome.stdout.startswith(line):
        problems.append(f"status line is not {line!r}")
    if not _has_reports(outcome, "run status"):
        return problems
    if len(outcome.reports) != 1:
        return problems + [f"expected one run, saw {len(outcome.reports)}"]
    if outcome.reports[0].status != "ok":
        problems.append(f"status {outcome.reports[0].status!r}")
    return problems


def _printed_max(outcome, name):
    """The ``  name: max X`` value that ``cli run`` prints for a diagnostic."""
    prefix = f"  {name}: max "
    for line in outcome.stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return None


# --------------------------------------------------------------------------
# chiral_lax: chiral model, N_s = 1024, zero_curvature with the default four
# lambdas, cadence 1, no files.  Most of the time goes to integrability (Lax
# construction plus curvature) and memory grows as O(T N_s) from the stored
# snapshots and stacked Lax fields.  This is the workload for vector-form,
# streaming diagnostics; it never enters peakon_dynamics.


def chiral_lax_scenario(seed):
    rng = random.Random(seed)
    n_nodes = 1024
    return {
        "model": "chiral",
        "grid": _grid(n_nodes, TWO_PI / n_nodes / 4.0, 326),
        "params": {"initial": {"u": _field(rng, 0.3, 0.8, (1, 2)),
                               "v": _field(rng, 0.3, 0.8, (1, 2))}},
        "diagnostics": [{"kind": "zero_curvature"}],
        "output": {"directory": None, "cadence": 1},
    }


def check_chiral_lax(outcome, scenario, expected_digest=None):
    problems = _run_problems(outcome, "chiral", scenario)
    if problems:
        return problems
    grid = scenario["grid"]
    ds = grid["S"] / grid["N_s"]
    bound = CHIRAL_RESIDUAL_COEFF * (ds * ds + grid["dt"] ** 2)
    printed = _printed_max(outcome, "zero_curvature")
    if printed is None or not printed <= bound:
        problems.append(f"printed zero_curvature max {printed} is not below {bound:.3e}")
    if not _has_reports(outcome, "zero_curvature columns"):
        return problems
    columns = outcome.reports[0].diagnostics["zero_curvature"]["columns"]
    if sorted(columns) != ["lam_-1", "lam_0.5", "lam_1", "lam_2"]:
        return [f"unexpected columns {sorted(columns)}"]
    for key, series in columns.items():
        if key == "lam_-1":
            # at lambda = -1 both potentials vanish identically
            if np.any(series != 0.0):
                problems.append("lam_-1 column is not identically zero")
        elif not np.all(np.isfinite(series)):
            problems.append(f"{key} has non-finite entries")
        elif np.max(series) > bound:
            problems.append(f"{key} max {np.max(series):.3e} exceeds {bound:.3e}")
    return problems


# --------------------------------------------------------------------------
# peakon_dense: free peakon model, N_s = 256, A = 8, s_constraint plus
# conservation_sums, no files.  Time goes to the eigvalsh condition check
# and the hand-rolled Cholesky solve; this is the workload for a faster
# peakon kernel.


PEAKON_COUNT = 8


def peakon_dense_scenario(seed):
    rng = random.Random(seed)
    q, m, n = [], [], []
    for a in range(PEAKON_COUNT):
        offset = (a - 0.5 * (PEAKON_COUNT - 1)) + rng.uniform(-0.1, 0.1)
        q.append([[offset, 0, HALF_PI], _term(rng, 0.05, 0.1, (1, 2))])
        m.append([[rng.uniform(0.1, 0.3), 0, HALF_PI], _term(rng, 0.02, 0.05, (1, 2))])
        n.append([[rng.uniform(-0.1, 0.1), 0, HALF_PI], _term(rng, 0.02, 0.05, (1, 2))])
    return {
        "model": "peakon",
        "grid": _grid(256, 0.01, 100),
        "params": {"count": PEAKON_COUNT, "initial": {"q": q, "m": m, "n": n}},
        "diagnostics": [{"kind": "s_constraint"}, {"kind": "conservation_sums"}],
        "output": {"directory": None, "cadence": 1},
    }


def check_peakon_dense(outcome, scenario, expected_digest=None):
    problems = _run_problems(outcome, "peakon", scenario)
    if problems:
        return problems
    steps = _steps(scenario)
    if outcome.peakon_rhs_calls is None:
        outcome.skipped.append("peakon RHS count (no peakon_rhs call seen)")
    elif outcome.peakon_rhs_calls != 4 * steps:
        problems.append(f"{outcome.peakon_rhs_calls} peakon RHS calls for {steps} steps")
    if _has_reports(outcome, "sum_M drift"):
        sum_m = outcome.reports[0].diagnostics["conservation_sums"]["columns"]["sum_M"]
        drift = float(np.max(np.abs(sum_m - sum_m[0])))
        if not drift <= PEAKON_SUM_M_DRIFT:
            problems.append(f"sum_M drift {drift:.3e} exceeds {PEAKON_SUM_M_DRIFT:.0e}")
    return problems


# --------------------------------------------------------------------------
# xy_write: aniso_xy model, N_s = 256, invariant_drift, cadence 1, writing
# every CSV and report.json (about 7 MB).  It uses sim_harness for output
# rather than compute; its RHS is cheap, so per-call overhead (state
# re-wrapping, finiteness scans) is a visible share of the integration.


def xy_write_scenario(seed):
    rng = random.Random(seed)
    n_nodes = 256
    return {
        "model": "aniso_xy",
        "grid": _grid(n_nodes, TWO_PI / n_nodes / 4.0, 160),
        "params": {
            "P": [rng.uniform(0.5, 1.5) for _ in range(3)],
            "initial": {"X": _field(rng, 0.3, 0.8, (1, 2, 3)),
                        "Y": _field(rng, 0.3, 0.8, (1, 2, 3))},
        },
        "diagnostics": [{"kind": "invariant_drift"}],
        "output": {"directory": None, "cadence": 1},
    }


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_xy_write(outcome, scenario, expected_digest=None):
    problems = _run_problems(outcome, "aniso_xy", scenario)
    if expected_digest is not None and outcome.digest != expected_digest:
        problems.append("output files differ from an earlier run of the same seed")
    if problems or not _has_reports(outcome, "CSV and report.json contents"):
        return problems
    rep = outcome.reports[0]
    out = outcome.out_dir
    times = rep.times
    n_nodes = scenario["grid"]["N_s"]
    for idx, name in enumerate(("X", "Y")):
        header, table = _read_csv(out / f"{name}.csv")
        expected = np.column_stack([
            np.repeat(times, n_nodes),
            np.tile(np.arange(n_nodes), len(times)),
            np.concatenate([y[idx] for y in rep.snapshots]),
        ])
        if header != ["t", "s_index", f"{name}_1", f"{name}_2", f"{name}_3"]:
            problems.append(f"{name}.csv header {header}")
        elif not np.array_equal(table, expected):
            problems.append(f"{name}.csv differs from the in-memory snapshots")
    data = rep.diagnostics["invariant_drift"]
    header, table = _read_csv(out / "invariant_drift.csv")
    expected = np.column_stack([data["times"], data["columns"]["drift_X"],
                                data["columns"]["drift_Y"]])
    if header != ["t", "drift_X", "drift_Y"] or not np.array_equal(table, expected):
        problems.append("invariant_drift.csv differs from the in-memory series")
    with open(out / "report.json", encoding="utf-8") as fh:
        if json.load(fh) != rep.summary():
            problems.append("report.json differs from summary()")
    return problems


# --------------------------------------------------------------------------
# single_converge: converge on peakon_single_exact with the two-wave profile
# of acceptance criterion 6, from N_s = 64 over 4 levels.  With A = 1 the
# kernel check is trivial, so this is the workload a faster peakon kernel
# must leave unchanged.  It makes many small RHS calls and is the only
# workload that measures analytic_solutions (references at every snapshot)
# and the refinement path.


def single_converge_scenario(seed):
    rng = random.Random(seed)
    return {
        "model": "peakon_single_exact",
        "grid": _grid(64, 1.0 / 41, 41),
        "params": {"profile": {"type": "superposition", "parts": [
            {"type": "traveling", "terms": [[rng.uniform(0.25, 0.35), 1, rng.uniform(0.0, TWO_PI)]],
             "direction": 1},
            {"type": "traveling", "terms": [[rng.uniform(0.05, 0.15), 2, rng.uniform(0.0, TWO_PI)]],
             "direction": -1},
        ]}},
        "diagnostics": [{"kind": "s_constraint"}],
        "output": {"directory": None, "cadence": 1},
    }


def _orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def check_single_converge(outcome, scenario, expected_digest=None):
    if outcome.code != 0:
        return [f"exit code {outcome.code}"]
    problems = []
    try:
        study = json.loads(outcome.stdout)
        constraint = study["diagnostics"]["s_constraint"]["orders"]
    except (ValueError, KeyError) as exc:
        return [f"converge output unreadable: {exc!r}"]
    n0 = scenario["grid"]["N_s"]
    if [lvl["N_s"] for lvl in study["levels"]] != [n0 * 2**k for k in range(CONVERGE_LEVELS)]:
        problems.append(f"levels {study['levels']}")
    if constraint is None or min(constraint) < MIN_ORDER:
        problems.append(f"s_constraint orders {constraint} below {MIN_ORDER}")
    if not _has_reports(outcome, "err_Q orders"):
        return problems
    if len(outcome.reports) != CONVERGE_LEVELS:
        return problems + [f"expected {CONVERGE_LEVELS} levels, saw {len(outcome.reports)} runs"]
    err_q = [float(np.max(rep.reference_error["columns"]["err_Q"])) for rep in outcome.reports]
    q_orders = _orders(err_q)
    if min(q_orders) < MIN_ORDER:
        problems.append(f"err_Q orders {q_orders} below {MIN_ORDER}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chiral_lax",
            "chiral N_s=1024 with zero_curvature: time and memory in integrability "
            "(Lax fields plus curvature); never enters peakon_dynamics",
            chiral_lax_scenario, check_chiral_lax,
        ),
        Workload(
            "peakon_dense",
            "free peakon N_s=256, A=8: time in the eigvalsh kernel check and the "
            "Cholesky solve, the target of a faster peakon kernel",
            peakon_dense_scenario, check_peakon_dense,
        ),
        Workload(
            "xy_write",
            "aniso_xy N_s=256 writing every CSV and report.json (about 7 MB): output "
            "cost plus per-call overhead of a cheap RHS",
            xy_write_scenario, check_xy_write, writes=True,
        ),
        Workload(
            "single_converge",
            "converge on peakon_single_exact from N_s=64 over 4 levels: A=1 bypasses "
            "the kernel; many small RHS calls, references and refinement",
            single_converge_scenario, check_single_converge, converge=True,
        ),
    )
}
