"""Acceptance suite: one test per numbered criterion, printing a PASS/FAIL line.

Each criterion pins a concrete configuration and tolerance.  Oracles are
independent of the implementation under test: matrix commutators, explicitly
written-out pair equations, adaptive quadrature, and closed-form reference
solutions.

Criterion 7a (collision separation tracking) runs on a profile bounded away
from zero, where the exact two-peakon momenta stay bounded on the whole strand.
The momenta have poles wherever the profile vanishes, and no grid resolves a
centred difference across a pole: on the profile 0.5 cos(s) cos(t), which
vanishes at s = pi/2 and 3pi/2, the separation error grows under refinement.
Criterion 7b keeps that singular run and shows the conserved sums still hold
there.
"""

import json
import math

import numpy as np
import pytest

from gstrand import (
    BlowUpError,
    CollisionSolution,
    ConfigError,
    DerivativeStencil,
    ScenarioConfig,
    SingularConfigurationError,
    WaveProfile,
    ad,
    ad_star_so3,
    aniso_rhs_uv,
    chiral_rhs,
    collision_F,
    collision_F_inverse,
    collision_exact,
    convergence_study,
    hat,
    lie_poisson_rhs_spin_chain,
    pairing,
    peakon_rhs,
    potentials_resolve,
    run_scenario,
    spin_chain_rhs,
    unhat,
)
from gstrand.peakon_dynamics import K0
from gstrand.stencil import second_derivative
from oracles import compatibility_residual
from test_sim_harness import output_digests

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
SQRT8 = 2.0 * math.sqrt(2.0)


def report(n, label, ok, detail):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")


def orders_of(errs):
    return [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]


# --------------------------------------------------------------------------- 1


def test_criterion_01_algebra_identities():
    """hat/commutator, pairing/dot, and ad*/ad adjointness on 1000 samples."""
    rng = np.random.default_rng(2026)
    u = rng.standard_normal((1000, 3))
    w = rng.standard_normal((1000, 3))
    m = rng.standard_normal((1000, 3))

    comm_defect = np.max(np.abs(hat(ad(u, w)) - (hat(u) @ hat(w) - hat(w) @ hat(u))))
    pair_defect = np.max(np.abs(pairing(hat(u), hat(w)) - np.sum(u * w, axis=-1)))
    adj_defect = np.max(
        np.abs(
            np.sum(ad_star_so3(u, m) * w, axis=-1) - np.sum(m * ad(u, w), axis=-1)
        )
    )
    round_defect = np.max(np.abs(unhat(hat(u)) - u))

    worst = max(comm_defect, pair_defect, adj_defect, round_defect)
    ok = worst <= 1e-12
    report(1, "algebra identities", ok, f"worst defect {worst:.3e} <= 1e-12")
    assert ok


# --------------------------------------------------------------------------- 2


def test_criterion_02_euler_poincare_lie_poisson_equivalence():
    """A = diag(1,2,3), B = diag(2,1,1), N_s = 64, 100 random strand states."""
    rng = np.random.default_rng(2027)
    a, b = np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 1.0])
    sten = DerivativeStencil(2, TWO_PI / 64)
    worst = 0.0
    for _ in range(100):
        u, v = rng.standard_normal((64, 3)), rng.standard_normal((64, 3))
        du, dv = spin_chain_rhs(np.stack((u, v)), a, b, sten)
        dm, dv_lp = lie_poisson_rhs_spin_chain(np.stack((u * a, v)), a, b, sten)
        worst = max(
            worst,
            float(np.max(np.abs(du * a - dm))),
            float(np.max(np.abs(dv - dv_lp))),
        )
    ok = worst <= 1e-12
    report(2, "momentum-form equivalence", ok, f"max mismatch {worst:.3e} <= 1e-12")
    assert ok


# --------------------------------------------------------------------------- 3


def chiral_level_config(k):
    return ScenarioConfig.from_dict({
        "model": "chiral",
        "grid": {
            "S": TWO_PI,
            "N_s": 64 * 2**k,
            "dt": 1.0 / (41 * 2**k),
            "t_end": 1.0,
        },
        "params": {
            "initial": {
                "u": [[[1.0, 1.0, 0.0]], [], [[1.0, 1.0, HALF_PI]]],
                "v": [[], [[1.0, 1.0, HALF_PI]], []],
            }
        },
        "diagnostics": [{"kind": "zero_curvature"}],
        "output": {"directory": None, "cadence": 1},
    })


def test_criterion_03_chiral_zero_curvature_convergence():
    """u0 = (sin s, 0, cos s), v0 = (0, cos s, 0); N_s in {64, 128, 256} at a
    CFL number just under 0.25; per-lambda residual order >= 1.8, the pair at
    lambda = -1 degenerates to zero, and at lambda = 1 the curvature equals
    the negated compatibility residual step by step."""
    per_lambda = {}
    reports = []
    for k in range(3):
        rep = run_scenario(chiral_level_config(k))
        reports.append(rep)
        for name, series in rep.diagnostics["zero_curvature"]["columns"].items():
            per_lambda.setdefault(name, []).append(float(np.max(series)))

    details = []
    ok = True
    for name, errs in sorted(per_lambda.items()):
        if max(errs) <= 1e-12:
            details.append(f"{name} at floor ({max(errs):.1e})")
            continue
        rates = orders_of(errs)
        good = min(rates) >= 1.8
        ok = ok and good
        details.append(f"{name} orders {[f'{r:.2f}' for r in rates]}")

    # lambda = 1 identity on the coarsest run
    rep = reports[0]
    u = np.stack([y[0] for y in rep.snapshots])
    v = np.stack([y[1] for y in rep.snapshots])
    sten = DerivativeStencil(2, TWO_PI / 64)
    dt = 1.0 / 41
    compat = compatibility_residual(u, v, sten, dt)
    from gstrand import chiral_lax, zero_curvature_residual

    conns = [chiral_lax(y[0], y[1], 1.0) for y in rep.snapshots]
    lax = zero_curvature_residual(conns, sten, dt)
    identity_gap = float(np.max(np.abs(lax.fields + hat(compat))))
    ok = ok and identity_gap <= 1e-13

    report(
        3,
        "chiral curvature convergence",
        ok,
        "; ".join(details) + f"; lam 1 vs compatibility gap {identity_gap:.2e} <= 1e-13",
    )
    assert ok


# --------------------------------------------------------------------------- 4


def aniso_xy_config(dt):
    return ScenarioConfig.from_dict({
        "model": "aniso_xy",
        "grid": {"S": TWO_PI, "N_s": 128, "dt": dt, "t_end": 1.0},
        "params": {
            "P": [1.0, 2.0, 3.0],
            "initial": {
                "X": [[[1.0, 0.0, HALF_PI]], [], []],
                "Y": [[], [[1.0, 0.0, HALF_PI]], []],
            },
        },
        "diagnostics": [{"kind": "invariant_drift"}],
        "output": {"directory": None, "cadence": 1},
    })


def test_criterion_04_node_magnitude_conservation():
    """Unit fields X = e1, Y = e2, P = (1,2,3), N_s = 128, dt = 5e-3, t_end 1:
    per-node magnitude drift <= 1e-6 and shrinking at order >= 3.5 under
    time-step halving."""
    drifts = []
    for dt in (5e-3, 2.5e-3, 1.25e-3):
        rep = run_scenario(aniso_xy_config(dt))
        cols = rep.diagnostics["invariant_drift"]["columns"]
        drifts.append(max(float(np.max(cols["drift_X"])), float(np.max(cols["drift_Y"]))))
    rates = orders_of(drifts)
    ok = drifts[0] <= 1e-6 and min(rates) >= 3.5
    report(
        4,
        "XY invariant drift",
        ok,
        f"drift {drifts[0]:.3e} <= 1e-6, halving orders {[f'{r:.2f}' for r in rates]} >= 3.5",
    )
    assert ok


def test_criterion_04b_drift_of_moving_data_does_not_converge():
    """The README's claim that on moving data ``invariant_drift`` reads the
    data's own variation: X and Y ride s -/+ t, so each node's magnitudes
    change while they are conserved along the characteristics.  On the
    ``small_runs()`` aniso_xy data (S = 2 pi, N_s = 32, dt = ds/4, t_end = pi,
    cadence 4) under ``converge`` with 4 levels the errors were 0.574, 0.476,
    0.463 and 0.461, fitted order 0.099."""
    d = output_digests.small_runs()["aniso_xy"]
    d["grid"] = {"S": TWO_PI, "N_s": 32, "dt": TWO_PI / 128, "t_end": math.pi}
    d["output"]["cadence"] = 4
    study = convergence_study(ScenarioConfig.from_dict(d), 4)["diagnostics"]["invariant_drift"]
    ok = min(study["errors"]) > 0.4 and study["order"] < 0.5
    report(
        "4b",
        "XY invariant drift of moving data does not converge",
        ok,
        f"errors {[f'{e:.3f}' for e in study['errors']]} > 0.4, "
        f"fitted order {study['order']:.3f} < 0.5",
    )
    assert ok


# --------------------------------------------------------------------------- 5


def test_criterion_05_isotropic_rescaling_identity():
    """chiral_rhs(u, v) = 2 aniso_rhs_uv(u/2, v/2) at P = Id on 100 states."""
    rng = np.random.default_rng(2028)
    p = np.ones(3)
    sten = DerivativeStencil(2, TWO_PI / 64)
    worst = 0.0
    for _ in range(100):
        y = np.stack((rng.standard_normal((64, 3)), rng.standard_normal((64, 3))))
        du_c, dv_c = chiral_rhs(y, sten)
        du_a, dv_a = aniso_rhs_uv(0.5 * y, p, sten)
        worst = max(
            worst,
            float(np.max(np.abs(du_c - 2.0 * du_a))),
            float(np.max(np.abs(dv_c - 2.0 * dv_a))),
        )
    ok = worst <= 1e-13
    report(5, "isotropic rescaling identity", ok, f"max mismatch {worst:.3e} <= 1e-13")
    assert ok


# --------------------------------------------------------------------------- 6


def single_peakon_level_config(k):
    return ScenarioConfig.from_dict({
        "model": "peakon_single_exact",
        "grid": {
            "S": TWO_PI,
            "N_s": 64 * 2**k,
            "dt": 1.0 / (41 * 2**k),
            "t_end": 1.0,
        },
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
    })


def test_criterion_06_single_peakon_tracks_wave_profile():
    """Exact profile 0.3 sin(s - t) + 0.1 sin(2(s + t)); at N_s = 256 the
    computed Q^1 stays within 1e-3 of h; Q-error and the discrete wave-operator
    residual on Q converge at order >= 1.8; the space-slope residual stays
    bounded by 50 (ds^2 + dt^2)."""
    q_errs, wave_errs, constraint_ok = [], [], True
    for k in range(3):
        cfg = single_peakon_level_config(k)
        rep = run_scenario(cfg)
        q_errs.append(float(np.max(rep.reference_error["columns"]["err_Q"])))

        qs = np.stack([y[0][:, 0] for y in rep.snapshots])
        ds = TWO_PI / cfg.n_nodes
        d_tt = (qs[2:] - 2.0 * qs[1:-1] + qs[:-2]) / (cfg.dt * cfg.dt)
        d_ss = np.stack([second_derivative(row, ds) for row in qs[1:-1]])
        wave_errs.append(float(np.max(np.abs(d_ss - d_tt))))

        res = float(np.max(rep.diagnostics["s_constraint"]["columns"]["residual"]))
        constraint_ok = constraint_ok and res <= 50.0 * (ds * ds + cfg.dt * cfg.dt)

    q_rates = orders_of(q_errs)
    wave_rates = orders_of(wave_errs)
    ok = (
        q_errs[-1] <= 1e-3
        and min(q_rates) >= 1.8
        and min(wave_rates) >= 1.8
        and constraint_ok
    )
    report(
        6,
        "single peakon wave tracking",
        ok,
        f"err_Q {q_errs[-1]:.3e} <= 1e-3, Q orders {[f'{r:.2f}' for r in q_rates]}, "
        f"wave-operator orders {[f'{r:.2f}' for r in wave_rates]}, "
        f"s-constraint bounded: {constraint_ok}",
    )
    assert ok


# --------------------------------------------------------------------------- 7


def collision_config(profile, n_nodes=66, steps=42):
    """Branch-1 collision of ``profile`` with N_s = n_nodes, dt = 1/steps, t_end = 1."""
    return ScenarioConfig.from_dict({
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": n_nodes, "dt": 1.0 / steps, "t_end": 1.0},
        "params": {"profile": profile, "branch": 1},
        "diagnostics": [{"kind": "s_constraint"}, {"kind": "conservation_sums"}],
        "output": {"directory": None, "cadence": 1},
    })


SINGULAR_PROFILE = {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0}


@pytest.fixture(scope="module")
def collision_run():
    """Singular data: h = 0.5 cos(s) cos(t) to t_end = 1.  The profile vanishes
    on the lines s = pi/2 and 3pi/2, where the exact momenta have poles; 66
    nodes keep the grid off those lines, and 42 steps keep the CFL number near
    1/4.  Criterion 7b runs on this configuration; 7a does not."""
    return run_scenario(collision_config(SINGULAR_PROFILE))


@pytest.fixture(scope="module")
def collision_tracking_runs():
    """h = 1 + 0.5 cos(s) cos(t), branch 1, on the grid of ``collision_run``
    (N_s = 66, dt = 1/42, t_end = 1) and two joint refinements of it.

    The offset 1 is the one of the harness test for a collision run away from
    the interaction; it keeps h >= 0.5, so the exact momenta, which grow like
    1/h, stay bounded on the whole strand and at every time.  Smaller offsets
    still converge at second order, but the error on the base grid grows as
    min h -> 0 (about 2e-3 for the offset 0.55)."""
    cfg = collision_config({
        "type": "superposition",
        "parts": [
            {"type": "traveling", "terms": [[1.0, 0.0, HALF_PI]], "direction": 1},
            {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
        ],
    })
    return [(c, run_scenario(c)) for c in (cfg, cfg.refined(2), cfg.refined(4))]


def test_criterion_07a_collision_separation_tracking(collision_tracking_runs):
    """The peakon RHS, started from exact pair data, tracks the closed-form
    separation X = 2 log cosh h to 1e-3 at N_s = 66, and the error converges at
    order >= 1.8 under joint refinement to N_s = 132 and 264.  Precondition,
    checked here: min |h| >= 0.5 over every node and snapshot time, so the
    exact momenta are bounded on the whole strand."""
    min_h, errs = math.inf, []
    for cfg, rep in collision_tracking_runs:
        s = np.arange(cfg.n_nodes) * (TWO_PI / cfg.n_nodes)
        h = cfg.params["solution"].profile.h(s[None, :], rep.times[:, None])
        min_h = min(min_h, float(np.min(np.abs(h))))
        errs.append(float(np.max(rep.reference_error["columns"]["err_X"])))
    rates = orders_of(errs)
    ok = min_h >= 0.5 and errs[0] <= 1e-3 and min(rates) >= 1.8
    report(
        "7a",
        "collision separation tracking",
        ok,
        f"min |h| {min_h:.3f} >= 0.5, max |X - X_exact| {errs[0]:.3e} <= 1e-3 at "
        f"N_s = 66, orders {[f'{r:.2f}' for r in rates]} >= 1.8",
    )
    assert ok


def test_criterion_07b_collision_conservation_sums(collision_run):
    """sum_M and the skew sum of N drift by at most 1e-8 on the singular
    ``collision_run`` data.  The sums hold there even though the separation
    does not converge: its error is 11.1 at N_s = 66 and 20.4 at N_s = 130."""
    sums = collision_run.diagnostics["conservation_sums"]["columns"]
    m_drift = float(np.max(np.abs(sums["sum_M"] - sums["sum_M"][0])))
    n_drift = float(np.max(np.abs(sums["sum_N_skew"] - sums["sum_N_skew"][0])))
    ok = m_drift <= 1e-8 and n_drift <= 1e-8
    report(
        "7b",
        "collision conserved sums",
        ok,
        f"sum_M drift {m_drift:.3e}, skew sum_N drift {n_drift:.3e} <= 1e-8",
    )
    assert ok


def test_criterion_07b_singular_collision_does_not_converge(collision_run):
    """The README's numbers for ``collision_run``'s data: max err_X is 11.1 at
    N_s = 66 and 20.4 at N_s = 130 (dt = 1/84), so refining makes it worse;
    at N_s = 258 (dt = 1/168) the coincident-peakon guard fires at step 33,
    and N_s = 132 (dt = 1/84), with a node on s = pi/2, starts from
    coincident peakons."""
    finer = run_scenario(collision_config(SINGULAR_PROFILE, 130, 84))
    errs = [float(np.max(r.reference_error["columns"]["err_X"])) for r in (collision_run, finer)]
    with pytest.raises(SingularConfigurationError, match=r"\(step 33, t = 0\.196428571\)$"):
        run_scenario(collision_config(SINGULAR_PROFILE, 258, 168))
    with pytest.raises(SingularConfigurationError, match=r"\(initial data, t = 0\)$"):
        run_scenario(collision_config(SINGULAR_PROFILE, 132, 84))
    ok = round(errs[0], 1) == 11.1 and round(errs[1], 1) == 20.4
    report(
        "7b",
        "singular collision does not converge",
        ok,
        f"max |X - X_exact| {errs[0]:.3g} at N_s = 66, {errs[1]:.3g} at N_s = 130",
    )
    assert ok


def test_criterion_07c_collision_potentials_resolve():
    """Gradient/potential consistency of the exact collision on a window with
    h bounded away from zero; residuals at truncation level."""
    delta = 2e-3
    sol = CollisionSolution(WaveProfile.standing(0.5, 1.0), 1)
    t = np.arange(0.0, 0.5, delta)[:, None]
    s = np.arange(0.1, 1.2, delta)[None, :]
    cs = collision_exact(sol, s, t)
    rep = potentials_resolve(cs.m1, cs.m2, cs.n1, cs.n2, cs.x, delta, delta)
    ok = (
        rep.sep_t <= 5.0 * delta**2
        and rep.sep_s <= 20.0 * delta**2
        and rep.curl == 0.0
        and rep.sym_m == 0.0
        and rep.sym_n == 0.0
    )
    report(
        "7c",
        "collision potential resolution",
        ok,
        f"sep_t {rep.sep_t:.2e}, sep_s {rep.sep_s:.2e} at delta^2 = {delta**2:.1e}, "
        f"curl {rep.curl:.1e}",
    )
    assert ok


# --------------------------------------------------------------------------- 8


def test_criterion_08_linearizing_map():
    """Round trips to 1e-12 on [-20, 20]; quadrature agreement to 1e-8 on
    [-10, 10]; F(X(h)) = 2 sqrt(2) h to 1e-12."""
    from scipy.integrate import quad

    x = np.linspace(-20.0, 20.0, 401)
    rt1 = float(np.max(np.abs(collision_F_inverse(collision_F(x)) - x)))
    f = np.linspace(-28.0, 28.0, 113)
    rt2 = float(np.max(np.abs(collision_F(collision_F_inverse(f)) - f)))

    quad_gap = 0.0
    for xv in np.linspace(-10.0, 10.0, 41):
        if xv == 0.0:
            continue
        val, _ = quad(
            lambda y: 1.0 / math.sqrt(-math.expm1(-y)), 0.0, abs(xv), points=[0.0]
        )
        quad_gap = max(
            quad_gap, abs(float(collision_F(xv)) - math.copysign(math.sqrt(2.0) * val, xv))
        )

    h = np.linspace(0.0, 6.0, 121)
    lin_gap = float(np.max(np.abs(collision_F(2.0 * np.log(np.cosh(h))) - SQRT8 * h)))

    ok = max(rt1, rt2) <= 1e-12 and quad_gap <= 1e-8 and lin_gap <= 1e-12
    report(
        8,
        "linearizing map",
        ok,
        f"round trip {max(rt1, rt2):.2e} <= 1e-12, quadrature {quad_gap:.2e} <= 1e-8, "
        f"linearization {lin_gap:.2e} <= 1e-12",
    )
    assert ok


# --------------------------------------------------------------------------- 9


def pair_rhs_reference(q, m, n, sten):
    """Two-peakon equations written out term by term."""
    q1, q2 = q[:, 0], q[:, 1]
    m1, m2 = m[:, 0], m[:, 1]
    n1, n2 = n[:, 0], n[:, 1]
    k = K0 * np.exp(-np.abs(q1 - q2))
    d12 = -K0 * np.sign(q1 - q2) * np.exp(-np.abs(q1 - q2))
    d21 = -d12

    dq1 = K0 * m1 + k * m2
    dq2 = k * m1 + K0 * m2

    ds_n = sten(n)
    ds_m = sten(m)
    dm1 = -ds_n[:, 0] - (m1 * d12 * m2 - n1 * d12 * n2)
    dm2 = -ds_n[:, 1] - (m2 * d21 * m1 - n2 * d21 * n1)

    kn1, kn2 = K0 * n1 + k * n2, k * n1 + K0 * n2
    km1, km2 = K0 * m1 + k * m2, k * m1 + K0 * m2
    g1 = kn1 * d12 * m2 - d12 * m2 * kn2 - km1 * d12 * n2 + d12 * n2 * km2
    g2 = kn2 * d21 * m1 - d21 * m1 * kn1 - km2 * d21 * n1 + d21 * n1 * km1
    det = K0 * K0 - k * k
    dn1 = -ds_m[:, 0] + (K0 * g1 - k * g2) / det
    dn2 = -ds_m[:, 1] + (-k * g1 + K0 * g2) / det

    return (
        np.stack([dq1, dq2], axis=1),
        np.stack([dm1, dm2], axis=1),
        np.stack([dn1, dn2], axis=1),
    )


def test_criterion_09_pair_reduction():
    """General A = 2 right-hand side against the written-out pair equations on
    100 random states, term families matching to 1e-12."""
    rng = np.random.default_rng(2029)
    sten = DerivativeStencil(2, TWO_PI / 16)
    worst = 0.0
    for _ in range(100):
        q = np.array([0.0, 2.0]) + 0.3 * rng.standard_normal((16, 2))
        m, n = rng.standard_normal((16, 2)), rng.standard_normal((16, 2))
        got = peakon_rhs(q, m, n, sten)
        expect = pair_rhs_reference(q, m, n, sten)
        for g, e in zip(got, expect):
            worst = max(worst, float(np.max(np.abs(g - e))))
    ok = worst <= 1e-12
    report(9, "two-peakon reduction", ok, f"max mismatch {worst:.3e} <= 1e-12")
    assert ok


# -------------------------------------------------------------------------- 10


def test_criterion_10_harness_robustness(tmp_path):
    """Byte-identical reruns plus dedicated CFL, blow-up, and singular fixtures."""
    base = {
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

    # determinism
    for name in ("first", "second"):
        cfg = ScenarioConfig.from_dict(json.loads(json.dumps(base)))
        run_scenario(cfg, out_dir=tmp_path / name)
    identical = all(
        (tmp_path / "first" / f).read_bytes() == (tmp_path / "second" / f).read_bytes()
        for f in ("report.json", "u.csv", "v.csv", "zero_curvature.csv")
    )

    # CFL guard
    bad_cfl = json.loads(json.dumps(base))
    bad_cfl["grid"]["dt"] = 1.0
    bad_cfl["grid"]["t_end"] = 2.0
    try:
        ScenarioConfig.from_dict(bad_cfl)
        cfl_guarded = False
    except ConfigError:
        cfl_guarded = True

    # blow-up detection with partial outputs
    boom = json.loads(json.dumps(base))
    boom["params"]["initial"]["u"] = [[[1e160, 1.0, 0.0]], [], []]
    boom["output"]["directory"] = str(tmp_path / "boom")
    try:
        run_scenario(ScenarioConfig.from_dict(boom))
        blow_up_guarded = False
    except BlowUpError:
        blow_up_guarded = (tmp_path / "boom" / "report.json").exists()

    # singular configuration: a 64-node grid puts a node on the h = 0 point,
    # collapsing the two peakon positions there
    singular = {
        "model": "peakon_collision_exact",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.1},
        "params": {
            "profile": {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
            "branch": 1,
        },
        "diagnostics": [],
        "output": {"directory": None, "cadence": 1},
    }
    try:
        run_scenario(ScenarioConfig.from_dict(singular))
        singular_guarded = False
    except SingularConfigurationError:
        singular_guarded = True

    ok = identical and cfl_guarded and blow_up_guarded and singular_guarded
    report(
        10,
        "determinism and guards",
        ok,
        f"byte-identical {identical}, CFL {cfl_guarded}, blow-up {blow_up_guarded}, "
        f"singular {singular_guarded}",
    )
    assert ok
