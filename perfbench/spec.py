"""What the benchmark measures: run length, metrics, units and bounds.

``suite.py`` writes ``BENCHMARK.json`` from these tables and the workload
list, so they are the one place to change a metric or a bound.
"""

RUN_SECONDS = 20

# Times of measure.run_calibration_s() and measure.setup_calibration_s() that
# wall_ref_s and setup_s are scaled to; about what they take on the 2-vCPU
# host the baseline was recorded on.
CALIBRATION_REF_S = 0.0035
SETUP_CALIBRATION_REF_S = 0.0018

# bound: share of the parent's median by which the metric may get worse
END_TO_END = (
    {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_mem_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "success_rate", "unit": "ratio", "better": "higher", "bound": 0.01},
)

# Per-layer metric -> (unit, span names it is computed from).  The comment
# after each names the end-to-end metric and workload it should move.
LAYER_METRICS = {
    # setup_s, all workloads
    "sim_harness.config_s": ("s", ("sim_harness.config",)),
    # wall_ref_s on xy_write and single_converge
    "sim_harness.rk4_self_s": ("s", ("sim_harness.rk4_step",)),
    # wall_s, all workloads; always 4 x steps
    "sim_harness.rhs_calls": ("count", ("sim_harness.rk4_step",)),
    # wall_ref_s and peak_mem_mb on chiral_lax
    "sim_harness.diagnostics_s": ("s", ("sim_harness.diagnostics",)),
    # wall_ref_s on single_converge
    "sim_harness.reference_s": ("s", ("sim_harness.reference",)),
    # wall_ref_s on xy_write
    "sim_harness.write_s": ("s", ("sim_harness.write",)),
    "sim_harness.write_bytes": ("B", ()),
    # peak_mem_mb on chiral_lax
    "sim_harness.snapshot_bytes": ("B", ("sim_harness.run_scenario",)),
    # wall_ref_s on xy_write and chiral_lax
    "so3_dynamics.rhs_s": ("s", ("so3_dynamics.rhs",)),
    "so3_dynamics.rhs_us_per_call": ("us", ("so3_dynamics.rhs",)),
    # wall_ref_s on chiral_lax
    "stencil.calls": ("count", ("stencil.call",)),
    "stencil.s": ("s", ("stencil.call",)),
    # wall_ref_s and peak_mem_mb on chiral_lax
    "integrability.lax_connections": (
        "count", ("integrability.chiral_lax", "integrability.aniso_lax")),
    "integrability.chiral_lax_s": ("s", ("integrability.chiral_lax",)),
    "integrability.zero_curvature_s": ("s", ("integrability.zero_curvature",)),
    # wall_ref_s on xy_write
    "integrability.invariant_drift_s": ("s", ("integrability.invariant_drift",)),
    # wall_ref_s on chiral_lax
    "algebra.hat_calls": ("count", ("algebra.hat",)),
    "algebra.hat_s": ("s", ("algebra.hat",)),
    # wall_ref_s on peakon_dense; no change expected on single_converge
    "peakon_dynamics.rhs_s": ("s", ("peakon_dynamics.rhs",)),
    "peakon_dynamics.rhs_us_per_call": ("us", ("peakon_dynamics.rhs",)),
    # wall_ref_s on peakon_dense
    "peakon_dynamics.kernel_check_s": ("s", ("peakon_dynamics.kernel_check",)),
    "peakon_dynamics.solve_s": ("s", ("peakon_dynamics.solve",)),
    "peakon_dynamics.kernel_deriv_s": ("s", ("peakon_dynamics.kernel_deriv",)),
    "peakon_dynamics.s_constraint_s": ("s", ("peakon_dynamics.s_constraint",)),
    # wall_ref_s on single_converge
    "analytic_solutions.reference_calls": ("count", ("analytic_solutions.reference",)),
    "analytic_solutions.reference_s": ("s", ("analytic_solutions.reference",)),
    # wall_s, all workloads
    "cli.self_s": ("s", ()),
    # median over adjacent untraced/traced pairs of traced minus untraced wall time
    "trace.overhead_s": ("s", ()),
}


def benchmark_json(workloads):
    """The contents of ``BENCHMARK.json`` for the given workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, (unit, _) in LAYER_METRICS.items()],
    }
