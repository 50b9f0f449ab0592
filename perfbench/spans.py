"""Wrappers installed around gstrand's module functions for one invocation.

Each wrapper replaces a function at the name its caller resolves, e.g.
``sim_harness.rk4_step`` for ``run_scenario`` or ``integrability.hat`` for
``chiral_lax``, and restores it afterwards.  Nothing under ``src/`` changes.

``Probe`` is the light wrapper used on every invocation: it keeps the
``RunReport`` of each ``run_scenario`` call and counts peakon RHS calls, so
the output checks can see them.  ``Tracer`` adds a span (name, start, end,
parent) at every layer boundary and derives the per-layer metrics.
"""

import contextlib
import time

from gstrand import cli, integrability, peakon_dynamics, sim_harness, stencil

from spec import LAYER_METRICS

# (owner, attribute, span name).  Several attributes may share a span name.
SPAN_TARGETS = (
    (sim_harness.ScenarioConfig, "from_file", "sim_harness.config"),
    (sim_harness.ScenarioConfig, "from_dict", "sim_harness.config"),
    (cli, "run_scenario", "sim_harness.run_scenario"),
    (sim_harness, "run_scenario", "sim_harness.run_scenario"),
    (cli, "convergence_study", "sim_harness.convergence_study"),
    (sim_harness, "rk4_step", "sim_harness.rk4_step"),
    (sim_harness, "_evaluate_diagnostics", "sim_harness.diagnostics"),
    (sim_harness, "_reference_errors", "sim_harness.reference"),
    (sim_harness, "_write_outputs", "sim_harness.write"),
    (sim_harness, "chiral_rhs", "so3_dynamics.rhs"),
    (sim_harness, "aniso_rhs_XY", "so3_dynamics.rhs"),
    (sim_harness, "aniso_rhs_uv", "so3_dynamics.rhs"),
    (sim_harness, "spin_chain_rhs", "so3_dynamics.rhs"),
    (stencil.DerivativeStencil, "__call__", "stencil.call"),
    (sim_harness, "chiral_lax", "integrability.chiral_lax"),
    (sim_harness, "aniso_lax", "integrability.aniso_lax"),
    (sim_harness, "zero_curvature_residual", "integrability.zero_curvature"),
    (sim_harness, "invariant_drift", "integrability.invariant_drift"),
    (integrability, "hat", "algebra.hat"),
    (sim_harness, "peakon_rhs", "peakon_dynamics.rhs"),
    (peakon_dynamics, "_checked_kernel", "peakon_dynamics.kernel_check"),
    (peakon_dynamics, "_spd_solve", "peakon_dynamics.solve"),
    (peakon_dynamics, "kernel_deriv", "peakon_dynamics.kernel_deriv"),
    (sim_harness, "s_constraint_residual", "peakon_dynamics.s_constraint"),
    (sim_harness, "single_peakon_exact", "analytic_solutions.reference"),
    (sim_harness, "collision_exact", "analytic_solutions.reference"),
)
RK4 = "sim_harness.rk4_step"
RHS = "sim_harness.rhs"
MAIN = "cli.main"


@contextlib.contextmanager
def _patched(replacements):
    """Set ``owner.attr = value`` for each triple, restoring the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def _rewrap(original, make):
    """Apply ``make`` to a plain function or to the function inside a classmethod."""
    if isinstance(original, classmethod):
        return classmethod(make(original.__func__))
    return make(original)


PROBE_TARGETS = (
    (cli, "run_scenario"),
    (sim_harness, "run_scenario"),
    (sim_harness, "peakon_rhs"),
)


def _absent(owner, attr):
    return attr not in owner.__dict__


def _label(owner, attr):
    return f"{owner.__name__}.{attr}"


class Probe:
    """Keeps each RunReport and counts peakon RHS calls during one invocation.

    Targets missing from the program are listed in ``missing``.  When a
    boundary is missing, or its hook saw nothing because the caller holds a
    reference of its own, ``reports`` or ``peakon_rhs_calls`` is None and
    the checks built on it are skipped and reported, not failed.
    """

    def __init__(self):
        self._reports = []
        self._peakon_rhs_calls = 0
        self.missing = sorted(_label(o, a) for o, a in PROBE_TARGETS if _absent(o, a))

    @property
    def reports(self):
        return self._reports or None

    @property
    def peakon_rhs_calls(self):
        return self._peakon_rhs_calls or None

    def _keep_report(self, fn):
        def run_scenario(*args, **kwargs):
            report = fn(*args, **kwargs)
            self._reports.append(report)
            return report
        return run_scenario

    def _count(self, fn):
        def peakon_rhs(*args, **kwargs):
            self._peakon_rhs_calls += 1
            return fn(*args, **kwargs)
        return peakon_rhs

    def installed(self):
        hooks = {"run_scenario": self._keep_report, "peakon_rhs": self._count}
        return _patched([
            (owner, attr, hooks[attr](owner.__dict__[attr]))
            for owner, attr in PROBE_TARGETS if not _absent(owner, attr)
        ])


class Tracer:
    """In-memory spans of one invocation.

    A span is ``[name, start, end, parent]`` with ``parent`` the index of the
    enclosing span, or -1.  Targets missing from the program are listed in
    ``missing`` and the metrics built on them are not reported.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        absent = [target for target in SPAN_TARGETS if _absent(target[0], target[1])]
        self.missing = sorted(_label(owner, attr) for owner, attr, _ in absent)
        self._absent_spans = {name for _, _, name in absent}

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
        return traced

    def _wrapper(self, name, fn):
        if name == RK4:
            # a child span for each RHS call the step makes
            return self.wrap(RK4, lambda state, rhs, dt: fn(state, self.wrap(RHS, rhs), dt))
        return self.wrap(name, fn)

    def installed(self):
        return _patched([
            (owner, attr, _rewrap(owner.__dict__[attr], lambda f, n=name: self._wrapper(n, f)))
            for owner, attr, name in SPAN_TARGETS if not _absent(owner, attr)
        ])

    # ------------------------------------------------------------------
    # span arithmetic

    def _durations(self):
        return [end - start for _, start, end, _ in self.spans]

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def inclusive(self, name):
        """Time inside spans of ``name``, counting nested spans of the same name once."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def self_time(self, name):
        """Time inside spans of ``name`` not covered by their direct children."""
        durations = self._durations()
        child_time = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child_time[span[3]] += durations[i]
        return sum(durations[i] - child_time[i]
                   for i, span in enumerate(self.spans) if span[0] == name)

    def layer_metrics(self, reports, write_bytes):
        """Per-layer values of one traced invocation, keyed by metric name.

        ``reports`` is None when no RunReport was seen; ``snapshot_bytes`` is
        then left out rather than read as 0.
        """
        values = {
            "sim_harness.config_s": self.inclusive("sim_harness.config"),
            "sim_harness.rk4_self_s": self.self_time(RK4),
            "sim_harness.rhs_calls": self.count(RHS),
            "sim_harness.diagnostics_s": self.inclusive("sim_harness.diagnostics"),
            "sim_harness.reference_s": self.inclusive("sim_harness.reference"),
            "sim_harness.write_s": self.inclusive("sim_harness.write"),
            "sim_harness.write_bytes": write_bytes,
            "sim_harness.snapshot_bytes": sum(
                y.nbytes for rep in reports or () for y in rep.snapshots),
            "so3_dynamics.rhs_s": self.inclusive("so3_dynamics.rhs"),
            "stencil.calls": self.count("stencil.call"),
            "stencil.s": self.inclusive("stencil.call"),
            "integrability.lax_connections": self.count("integrability.chiral_lax")
            + self.count("integrability.aniso_lax"),
            "integrability.chiral_lax_s": self.inclusive("integrability.chiral_lax"),
            "integrability.zero_curvature_s": self.inclusive("integrability.zero_curvature"),
            "integrability.invariant_drift_s": self.inclusive("integrability.invariant_drift"),
            "algebra.hat_calls": self.count("algebra.hat"),
            "algebra.hat_s": self.inclusive("algebra.hat"),
            "peakon_dynamics.rhs_s": self.inclusive("peakon_dynamics.rhs"),
            "peakon_dynamics.kernel_check_s": self.inclusive("peakon_dynamics.kernel_check"),
            "peakon_dynamics.solve_s": self.inclusive("peakon_dynamics.solve"),
            "peakon_dynamics.kernel_deriv_s": self.inclusive("peakon_dynamics.kernel_deriv"),
            "peakon_dynamics.s_constraint_s": self.inclusive("peakon_dynamics.s_constraint"),
            "analytic_solutions.reference_calls": self.count("analytic_solutions.reference"),
            "analytic_solutions.reference_s": self.inclusive("analytic_solutions.reference"),
            "cli.self_s": self.self_time(MAIN),
        }
        for layer in ("so3_dynamics", "peakon_dynamics"):
            calls = self.count(f"{layer}.rhs")
            values[f"{layer}.rhs_us_per_call"] = (
                1e6 * values[f"{layer}.rhs_s"] / calls if calls else 0.0)
        if reports is None:
            del values["sim_harness.snapshot_bytes"]
        return {
            name: value for name, value in values.items()
            if not self._absent_spans.intersection(LAYER_METRICS[name][1])
        }
