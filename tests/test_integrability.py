"""Lax connection construction, curvature residuals, and drift monitors."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gstrand import (
    DerivativeStencil,
    LaxConnection,
    aniso_lax,
    ScenarioConfig,
    aniso_rhs_uv,
    chiral_lax,
    chiral_rhs,
    embed_so4,
    hat,
    invariant_drift,
    rk4_step,
    run_scenario,
    sim_harness,
    zero_curvature_residual,
)
from gstrand.algebra import build_J
from gstrand.integrability import _chiral_coefficients, _node_magnitudes
from gstrand.sim_harness import _aniso_weights, _predicted
from oracles import compatibility_residual

TWO_PI = 2.0 * math.pi
E3 = np.array([0.0, 0.0, 1.0])


def chiral_initial(n):
    s = np.arange(n) * (TWO_PI / n)
    u = np.stack([np.sin(s), np.zeros(n), np.cos(s)], axis=1)
    v = np.stack([np.zeros(n), np.cos(s), np.zeros(n)], axis=1)
    return np.stack([u, v])


def integrate_chiral(n, dt, steps):
    """Plain RK4 chiral run; returns the packed (2, n, 3) state at every level."""
    sten = DerivativeStencil(2, TWO_PI / n)

    def rhs(y):
        return chiral_rhs(y, sten)

    y = chiral_initial(n)
    traj = [y]
    for _ in range(steps):
        y = rk4_step(y, rhs, dt)
        traj.append(y)
    return traj


# --------------------------------------------------------------- LaxConnection


def test_connection_shape_validation():
    good = np.zeros((8, 3, 3))
    with pytest.raises(ValueError):
        LaxConnection(U_field=good, V_field=np.zeros((8, 4, 4)), lam=1.0, algebra_dim=3)
    with pytest.raises(ValueError):
        LaxConnection(U_field=np.zeros((3, 3)), V_field=np.zeros((3, 3)), lam=1.0, algebra_dim=3)
    with pytest.raises(ValueError):
        LaxConnection(U_field=good, V_field=good, lam=1.0, algebra_dim=5)


def test_connection_rejects_zero_lambda_in_dim3():
    z = np.zeros((8, 3, 3))
    with pytest.raises(ValueError, match="nonzero"):
        LaxConnection(U_field=z, V_field=z, lam=0.0, algebra_dim=3)
    # dim 4 has no such restriction
    LaxConnection(U_field=np.zeros((8, 4, 4)), V_field=np.zeros((8, 4, 4)), lam=0.0, algebra_dim=4)


def test_connection_antisymmetry_enforced_only_in_dim3():
    sym3 = np.tile(np.eye(3), (8, 1, 1))
    with pytest.raises(ValueError, match="antisymmetric"):
        LaxConnection(U_field=sym3, V_field=sym3, lam=1.0, algebra_dim=3)
    sym4 = np.tile(np.eye(4), (8, 1, 1))
    LaxConnection(U_field=sym4, V_field=sym4, lam=1.0, algebra_dim=4)


# ------------------------------------------------------------------ chiral_lax


def test_chiral_lax_at_unit_lambda():
    """lam = 1 collapses the pair to (-hat v, -hat u)."""
    rng = np.random.default_rng(17)
    u, v = rng.standard_normal((16, 3)), rng.standard_normal((16, 3))
    conn = chiral_lax(u, v, 1.0)
    np.testing.assert_allclose(conn.U_field, -hat(v), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(conn.V_field, -hat(u), rtol=0.0, atol=1e-15)


def test_chiral_lax_vanishes_at_minus_one():
    rng = np.random.default_rng(18)
    u, v = rng.standard_normal((16, 3)), rng.standard_normal((16, 3))
    conn = chiral_lax(u, v, -1.0)
    np.testing.assert_array_equal(conn.U_field, np.zeros((16, 3, 3)))
    np.testing.assert_array_equal(conn.V_field, np.zeros((16, 3, 3)))


def test_chiral_lax_general_lambda_formula():
    rng = np.random.default_rng(19)
    u, v = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
    lam = 2.0
    a = 0.25 * (1.0 + lam)
    b = 0.25 * (1.0 + 1.0 / lam)
    conn = chiral_lax(u, v, lam)
    diff = hat(u) - hat(v)
    summ = hat(u) + hat(v)
    np.testing.assert_allclose(conn.U_field, a * diff - b * summ, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(conn.V_field, -a * diff - b * summ, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("lam", [2.0, 0.5, -1.0, -0.3, 1.0, 1e-3])
def test_chiral_lax_bitwise_equals_inline_coefficients(lam):
    """U and V as a and b written inline give, on +-0.0 entries, the same bits."""
    rng = np.random.default_rng(23)
    u = rng.standard_normal((24, 3))
    v = rng.standard_normal((24, 3))
    for x in (u, v):
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] = -0.0
    a = 0.25 * (1.0 + lam)
    b = 0.25 * (1.0 + 1.0 / lam)
    diff = hat(u - v)
    summ = hat(u + v)
    conn = chiral_lax(u, v, lam)
    for got, want in ((conn.U_field, a * diff - b * summ), (conn.V_field, -a * diff - b * summ)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_chiral_lax_rejects_zero_lambda():
    u, v = chiral_initial(16)
    message = "^spectral parameter must be nonzero for the chiral pair$"
    with pytest.raises(ValueError, match=message):
        chiral_lax(u, v, 0.0)


@pytest.mark.parametrize("lam", [5e-324, 1e-309, -1e-309])
def test_chiral_pair_rejects_lambda_whose_reciprocal_overflows(lam):
    """chiral_lax and the run's chiral zero_curvature kind raise the same ValueError."""
    y = chiral_initial(16)
    message = f"^spectral parameter {lam!r} is too close to 0 for the chiral pair$"
    with pytest.raises(ValueError, match=message):
        chiral_lax(y[0], y[1], lam)
    with pytest.raises(ValueError, match=message):
        bound_chiral_curvature([y, y, y], (0.5, lam), DerivativeStencil(2, TWO_PI / 16), 0.01)
    assert math.isfinite(_chiral_coefficients((1e-308,))[0][1])


# ------------------------------------------- the run's chiral zero_curvature kind

EQUIVALENCE_LAMBDAS = (0.5, 1.0, 2.0, -3.0, -1.0)


def bound_chiral_curvature(levels, lambdas, sten, dt):
    """The chiral zero_curvature columns as a run forms them, one row per lambda:
    the kind bound once, then evaluated at each interior level on
    y_{k+1} - (y_{k-1} + 2 dt chiral_rhs(y_k))."""
    cfg = SimpleNamespace(dt=dt, cadence=1, params={})
    kind = sim_harness._SPECS["chiral"].diagnostics["zero_curvature"]
    _, evaluate = kind.bind(cfg, sten, lambdas, levels[0])
    return np.array([
        evaluate(levels[k + 1] - _predicted(levels[k - 1], chiral_rhs(levels[k], sten), dt))
        for k in range(1, len(levels) - 1)]).T


def matrix_curvature_max(snapshots, lambdas, sten, dt):
    """Reference: per-time max of zero_curvature_residual over chiral_lax."""
    out = []
    for lam in lambdas:
        conns = [chiral_lax(y[0], y[1], lam) for y in snapshots]
        fields = zero_curvature_residual(conns, sten, dt).fields
        out.append(np.max(np.abs(fields.reshape(fields.shape[0], -1)), axis=1))
    return np.array(out)


def roundoff_tolerance(snapshots, sten, dt):
    """64 eps F (1/dt + 1/ds), F the largest |u - v| or |u + v| entry."""
    big = max(float(np.max(np.abs(np.stack([y[0] - y[1], y[0] + y[1]]))))
              for y in snapshots)
    return 64.0 * np.finfo(float).eps * big * (1.0 / dt + 1.0 / sten.ds)


def assert_matches_matrix_path(snapshots, lambdas, sten, dt, vector=None):
    tol = roundoff_tolerance(snapshots, sten, dt)
    if vector is None:
        vector = bound_chiral_curvature(snapshots, lambdas, sten, dt)
    reference = matrix_curvature_max(snapshots, lambdas, sten, dt)
    assert vector.shape == (len(lambdas), len(snapshots) - 2)
    np.testing.assert_allclose(vector, reference, rtol=0.0, atol=tol)
    # a = b = 0 at lambda = -1: both paths are exactly zero there
    np.testing.assert_array_equal(vector[list(lambdas).index(-1.0)], 0.0)


def random_periodic_trajectory(rng, n, levels, dt):
    """(u, v) snapshots of random smooth fields periodic in s, not a solution."""
    s = np.arange(n) * (TWO_PI / n)
    k = rng.integers(0, 4, size=(2, 3, 3))
    amp = rng.standard_normal((2, 3, 3))
    omega = rng.standard_normal((2, 3, 3))
    phase = rng.uniform(0.0, TWO_PI, size=(2, 3, 3))
    snaps = []
    for level in range(levels):
        t = level * dt
        y = np.sum(amp[..., None] * np.sin(k[..., None] * s + omega[..., None] * t
                                           + phase[..., None]), axis=2)
        snaps.append(np.swapaxes(y, 1, 2))  # packed (2, N_s, 3)
    return snaps


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_curvature_max_matches_matrix_path_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    n, dt = 32, 0.05
    snaps = random_periodic_trajectory(rng, n, 7, dt)
    for order in (2, 4):
        sten = DerivativeStencil(order, TWO_PI / n)
        assert_matches_matrix_path(snaps, EQUIVALENCE_LAMBDAS, sten, dt)


def test_curvature_max_matches_matrix_path_on_chiral_trajectory():
    snaps = integrate_chiral(64, 0.02, 10)
    sten = DerivativeStencil(2, TWO_PI / 64)
    assert_matches_matrix_path(snaps, EQUIVALENCE_LAMBDAS, sten, 0.02)


def test_harness_curvature_matches_matrix_path_at_cadence_two():
    """run_scenario's columns use the snapshot spacing dt * cadence."""
    d = {
        "model": "chiral",
        "grid": {"S": TWO_PI, "N_s": 64, "dt": 0.0125, "t_end": 0.125},
        "params": {"initial": {"u": [[[1.0, 1.0, 0.0]], [], [[1.0, 1.0, 0.5 * math.pi]]],
                               "v": [[], [[1.0, 1.0, 0.5 * math.pi]], []]}},
        "diagnostics": [{"kind": "zero_curvature", "lambdas": list(EQUIVALENCE_LAMBDAS)}],
        "output": {"directory": None, "cadence": 2},
    }
    rep = run_scenario(ScenarioConfig.from_dict(d))
    assert len(rep.snapshots) == 6
    data = rep.diagnostics["zero_curvature"]
    np.testing.assert_array_equal(data["times"], rep.times[1:-1])
    columns = np.array([data["columns"][f"lam_{lam:g}"] for lam in EQUIVALENCE_LAMBDAS])
    sten = DerivativeStencil(2, TWO_PI / 64)
    assert_matches_matrix_path(rep.snapshots, EQUIVALENCE_LAMBDAS, sten, 0.025, columns)


def signed_zero_levels(rng, n, count):
    """Random packed (2, n, 3) levels with +-0.0 entries and flat stretches."""
    levels = rng.standard_normal((count, 2, n, 3))
    levels[:, :, n // 2:n // 2 + 3] = levels[:, :, n // 2 - 1:n // 2]
    levels[rng.random(levels.shape) < 0.25] = 0.0
    levels[rng.random(levels.shape) < 0.25] = -0.0
    return list(levels)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def rhs_residual_curvature(levels, coeffs, stencil, dt):
    """The curvature maxima from the leapfrog residual, each operation in a new array:
    e = y2 - (y0 + 2 dt f(y1)), max |(a - b) e_u - (a + b) e_v| / (2 dt)."""
    y0, y1, y2 = levels
    e = y2 - (chiral_rhs(y1, stencil) * (2.0 * dt) + y0)
    return [np.max(np.abs((a - b) * e[0] - (a + b) * e[1])) / (2.0 * dt) for a, b in coeffs]


@pytest.mark.parametrize("order", [2, 4])
def test_bound_chiral_kind_bitwise_equals_its_rhs_residual(order, monkeypatch):
    """The run's chiral zero_curvature kind is the leapfrog residual of
    chiral_rhs reduced per lambda, bit for bit on +-0.0 entries: binding and
    evaluating it take no stencil call besides the RHS's one per interior
    level, and leave the levels as they were."""
    rng = np.random.default_rng(40 + order)
    n, dt = 16, 0.05
    sten = DerivativeStencil(order, TWO_PI / n)
    levels = signed_zero_levels(rng, n, 6)
    coeffs = _chiral_coefficients(EQUIVALENCE_LAMBDAS)
    want = np.array([rhs_residual_curvature(levels[k:k + 3], coeffs, sten, dt)
                     for k in range(len(levels) - 2)]).T
    stored = [y.copy() for y in levels]
    calls = []
    original = DerivativeStencil.__call__
    monkeypatch.setattr(DerivativeStencil, "__call__",
                        lambda self, f: calls.append(np.shape(f)) or original(self, f))
    got = bound_chiral_curvature(levels, EQUIVALENCE_LAMBDAS, sten, dt)
    assert_same_bits(got, want)
    assert calls == [(n, 2, 3)] * (len(levels) - 2)
    for level, before in zip(levels, stored):
        assert level.tobytes() == before.tobytes()


def extreme_residuals(rng, n, count):
    """Packed (2, n, 3) residuals e: an all-zero level, then random ones with
    magnitudes from 1e-300 to near overflow, +-0.0 entries, and +inf, -inf
    and NaN entries in either field, alone or together."""
    residuals = [np.where(rng.random((2, n, 3)) < 0.5, 0.0, -0.0)]
    for _ in range(count):
        e = rng.choice((-1.0, 1.0), (2, n, 3)) * 10.0 ** rng.uniform(-300.0, 308.25, (2, n, 3))
        e[rng.random(e.shape) < 0.2] = 0.0
        e[rng.random(e.shape) < 0.2] = -0.0
        for value in (np.inf, -np.inf, np.nan):
            if rng.random() < 0.4:
                e[rng.integers(2), rng.integers(n), rng.integers(3)] = value
        residuals.append(e)
    return residuals


def per_lambda_curvature(e, coeffs, two_dt):
    """The chiral columns formed lambda by lambda in one buffer:
    r = (a - b) e_u, r -= (a + b) e_v, |r|, its max, / (2 dt)."""
    maxes = []
    for a, b in coeffs:
        r = (a - b) * e[0]
        r -= (a + b) * e[1]
        np.abs(r, out=r)
        maxes.append(np.maximum.reduce(r, axis=None) / two_dt)
    return np.array(maxes)


@pytest.mark.parametrize("lambdas", [(0.5, 1.0, 2.0, -1.0), (1.0,), (-1.0,), (3.0, -2.0, 0.7),
                                     (0.25, 4.0, 1.0)])
def test_planned_chiral_columns_bitwise_equal_per_lambda_arithmetic(lambdas):
    """The chiral kind's bind-time product plan, one (|a - b|, |a + b|) pair
    per level for reciprocal lambdas and two field maxima for a zero
    coefficient, keeps every bit of the per-lambda arithmetic, NaN's sign
    bit included, on residuals that hold +-0.0, +-inf, NaN and magnitudes
    near overflow."""
    rng = np.random.default_rng(50)
    n, dt = 8, 0.03
    cfg = SimpleNamespace(dt=dt, cadence=1, params={})
    kind = sim_harness._SPECS["chiral"].diagnostics["zero_curvature"]
    _, evaluate = kind.bind(cfg, DerivativeStencil(2, TWO_PI / n), lambdas, np.zeros((2, n, 3)))
    coeffs = _chiral_coefficients(lambdas)
    seen = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for e in extreme_residuals(rng, n, 400):
            got = np.array(evaluate(e))
            want = per_lambda_curvature(e, coeffs, 2.0 * dt)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            seen.update(("nan" if math.isnan(x) else "inf" if math.isinf(x) else "finite")
                        for x in want)
    # lambda = -1 has a = b = 0, whose column reads 0 or NaN
    assert seen == ({"finite", "nan"} if lambdas == (-1.0,) else {"finite", "inf", "nan"})


@pytest.mark.parametrize("order", [2, 4])
def test_residual_buffers_bitwise_equal_list_comprehension(order):
    """The two reused buffers keep each element's (a - b) e_u - (a + b) e_v, so
    every maximum keeps its bits, and the residual is left as it was."""
    rng = np.random.default_rng(60 + order)
    n, dt = 32, 0.03
    sten = DerivativeStencil(order, TWO_PI / n)
    lambdas = (0.5, 1.0, 2.0, -1.0, 3.0)
    coeffs = _chiral_coefficients(lambdas)
    levels = signed_zero_levels(rng, n, 24)
    cfg = SimpleNamespace(dt=dt, cadence=1, params={})
    kind = sim_harness._SPECS["chiral"].diagnostics["zero_curvature"]
    _, evaluate = kind.bind(cfg, sten, lambdas, levels[0])
    for k in range(len(levels) - 2):
        e = levels[k + 2] - _predicted(levels[k], chiral_rhs(levels[k + 1], sten), dt)
        before = e.copy()
        got = np.array(evaluate(e))
        want = [np.max(np.abs((a - b) * e[0] - (a + b) * e[1])) / (2.0 * dt) for a, b in coeffs]
        assert_same_bits(got, np.array(want))
        assert e.tobytes() == before.tobytes()


# ------------------------------------------- curvature from the equation residual

IDENTITY_N_S = 12


def curvature_oracles(model, levels, params, sten, dt, lambdas):
    """Each centered kind's curvature at the middle of three levels, from the
    fields: the matrix pairs through ``zero_curvature_residual``, or the
    compatibility relation."""
    if model == "chiral":
        return [zero_curvature_residual([chiral_lax(y[0], y[1], lam) for y in levels],
                                        sten, dt).max_norm for lam in lambdas]
    if model == "aniso_uv":
        return [zero_curvature_residual(
            [aniso_lax(2.0 * y[0], 2.0 * y[1], lam, params["P"]) for y in levels],
            sten, dt).max_norm for lam in lambdas]
    u, v = np.stack(levels).swapaxes(0, 1)
    return [float(np.max(np.abs(compatibility_residual(u, v, sten, dt))))]


def identity_bound(model, levels, params, sten, dt, lambdas):
    """64 eps c (Y/dt + Y/ds + Y^2), Y the largest |entry| of the three levels.

    Both sides round each term of the curvature once or twice: the time
    difference at Y/dt, the slope at Y/ds, the quadratic terms at Y^2.  c
    is the largest coefficient that multiplies a field: 1 + |lam| + 1/|lam|
    for the chiral pair, 1 for the spin chain, and for the doubled so(4)
    pair 2 (max |w| + 1)(1 + max |P|), w the diagonal of lam Id + J.
    """
    big = max(float(np.max(np.abs(y))) for y in levels)
    if model == "chiral":
        c = max(1.0 + abs(lam) + 1.0 / abs(lam) for lam in lambdas)
    elif model == "aniso_uv":
        p_max = float(np.max(np.abs(params["P"])))
        w_max = max(float(np.max(np.abs(lam + np.diagonal(build_J(params["P"])))))
                    for lam in lambdas)
        c = 2.0 * (w_max + 1.0) * (1.0 + p_max)
    else:
        c = 1.0
    return 64.0 * np.finfo(float).eps * c * (big / dt + big / sten.ds + big * big)


IDENTITY_LAMBDAS = {"chiral": (0.5, 1.0, 2.0, -1.0, 3.0, -0.3), "aniso_uv": (0.0, 0.5, 1.0),
                    "spin_chain": None}
IDENTITY_KINDS = {"chiral": "zero_curvature", "aniso_uv": "lax", "spin_chain": "zero_curvature"}
entry = st.floats(-4.0, 4.0, allow_subnormal=False)
nonzero = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(levels=arrays(float, (3, 2, IDENTITY_N_S, 3), elements=entry, fill=st.nothing()),
       dt=st.floats(1e-3, 0.5), order=st.sampled_from((2, 4)),
       diagonals=st.lists(nonzero, min_size=9, max_size=9),
       model=st.sampled_from(sorted(IDENTITY_KINDS)))
def test_centered_kinds_are_linear_images_of_the_equation_residual(levels, dt, order,
                                                                   diagonals, model):
    """On arbitrary, non-solution levels each centered kind, bound and
    evaluated as a run evaluates it on y2 - (y0 + 2 dt f(y1)) with f the
    model's RHS, equals its field oracle within ``identity_bound``:
    chiral_lax curvature for every lambda (r = (a - b) R_u - (a + b) R_v, as
    a + b = 4ab), the compatibility residual (R_v), and the doubled
    aniso_lax curvature (embed_so4(2 R_v, 2 R_u)(lam Id + J))."""
    sten = DerivativeStencil(order, TWO_PI / IDENTITY_N_S)
    params = {"A": np.array(diagonals[:3]),
              "B": np.array([-abs(b) for b in diagonals[3:6]]),
              "P": np.array(diagonals[6:])}
    lambdas = IDENTITY_LAMBDAS[model]
    spec = sim_harness._SPECS[model]
    rate = spec.rhs(params, sten, sim_harness._nodes(TWO_PI, IDENTITY_N_S))(levels[1])
    e = levels[2] - _predicted(levels[0], rate, dt)
    cfg = SimpleNamespace(dt=dt, cadence=1, params=params)
    _, evaluate = spec.diagnostics[IDENTITY_KINDS[model]].bind(cfg, sten, lambdas, levels[0])
    got = list(evaluate(e))
    want = curvature_oracles(model, list(levels), params, sten, dt, lambdas or (1.0,))
    bound = identity_bound(model, levels, params, sten, dt, lambdas or (1.0,))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)
    if model == "chiral":
        assert got[lambdas.index(-1.0)] == 0.0


# ------------------------------------------------------------------- aniso_lax


def test_aniso_lax_matches_direct_product():
    rng = np.random.default_rng(23)
    u, v = rng.standard_normal((10, 3)), rng.standard_normal((10, 3))
    p = np.array([1.0, 2.0, 3.0])
    lam = 0.7
    conn = aniso_lax(u, v, lam, p)
    w = lam * np.eye(4) + build_J(p)
    for i in range(10):
        np.testing.assert_allclose(
            conn.U_field[i], embed_so4(v[i], u[i]) @ w, rtol=0.0, atol=1e-14
        )
        np.testing.assert_allclose(
            conn.V_field[i], embed_so4(u[i], v[i]) @ w, rtol=0.0, atol=1e-14
        )


def test_aniso_lax_frozen_entries():
    """u = e3, v = 0, P = (1,2,3), lam = 0: the weight is pure J."""
    p = np.array([1.0, 2.0, 3.0])
    conn = aniso_lax(np.tile(E3, (8, 1)), np.zeros((8, 3)), 0.0, p)
    u_expect = np.zeros((4, 4))
    u_expect[2, 3] = -3.0
    u_expect[3, 2] = 1.5
    v_expect = np.zeros((4, 4))
    v_expect[0, 1] = -1.0
    v_expect[1, 0] = 0.5
    np.testing.assert_array_equal(conn.U_field[0], u_expect)
    np.testing.assert_array_equal(conn.V_field[0], v_expect)


def test_aniso_lax_isotropic_half_lambda_is_rank_one():
    """P = (1,1,1), lam = 1/2 zeroes the so(3) block, leaving the last column."""
    rng = np.random.default_rng(29)
    u = rng.standard_normal((8, 3))
    v = rng.standard_normal((8, 3))
    conn = aniso_lax(u, v, 0.5, np.ones(3))
    np.testing.assert_array_equal(conn.U_field[..., :3], np.zeros((8, 4, 3)))
    np.testing.assert_allclose(conn.U_field[:, :3, 3], -u, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(conn.V_field[:, :3, 3], -v, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("p", [[0.0, -0.0, -1.5], [-0.0, 2.5, -3.25], [-1e-300, 0.0, 7.0],
                               [0.1, 0.2, 0.3]])
def test_aniso_weights_equal_the_diagonal_of_build_J(p):
    """The aniso_uv kind's weights |lam + J_jj| have the bits of J's diagonal
    taken from ``build_J``, (P1 + P2) + P3 in the last entry included, and
    are Python floats."""
    p = np.array(p)
    lambdas = (0.0, -0.0, 0.5, 1.0, -2.0, 1.5)
    want = [[abs(lam + j) for j in np.diagonal(build_J(p)).tolist()] for lam in lambdas]
    got = _aniso_weights(lambdas, p)
    assert all(type(w) is float for row in got for w in row)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ------------------------------------------------------- zero curvature residual


def test_residual_needs_three_levels():
    u, v = chiral_initial(16)
    conns = [chiral_lax(u, v, 1.0)] * 2
    with pytest.raises(ValueError, match="3"):
        zero_curvature_residual(conns, DerivativeStencil(2, TWO_PI / 16), 0.1)


def test_residual_rejects_mixed_lambda():
    u, v = chiral_initial(16)
    conns = [chiral_lax(u, v, lam) for lam in (1.0, 2.0, 1.0)]
    with pytest.raises(ValueError, match="share"):
        zero_curvature_residual(conns, DerivativeStencil(2, TWO_PI / 16), 0.1)


def test_residual_zero_for_commuting_constant_connection():
    a = np.tile(hat(E3), (16, 1, 1))
    conns = [
        LaxConnection(U_field=a, V_field=a, lam=1.0, algebra_dim=3) for _ in range(4)
    ]
    res = zero_curvature_residual(conns, DerivativeStencil(2, 0.1), 0.05)
    assert res.max_norm == 0.0
    assert res.fields.shape == (2, 16, 3, 3)


def test_residual_order_one_for_unrelated_fields():
    rng = np.random.default_rng(37)

    def rand_conn():
        u = hat(rng.standard_normal((16, 3)))
        v = hat(rng.standard_normal((16, 3)))
        return LaxConnection(U_field=u, V_field=v, lam=1.0, algebra_dim=3)

    res = zero_curvature_residual([rand_conn() for _ in range(5)], DerivativeStencil(2, 0.1), 0.05)
    assert res.max_norm > 1.0


def test_chiral_residual_converges_on_trajectory():
    lam = 0.5
    errs = []
    for n, steps in ((32, 8), (64, 16), (128, 32)):
        traj = integrate_chiral(n, 0.4 / steps, steps)
        conns = [chiral_lax(u, v, lam) for u, v in traj]
        res = zero_curvature_residual(conns, DerivativeStencil(2, TWO_PI / n), 0.4 / steps)
        errs.append(res.max_norm)
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 1.8


def test_unit_lambda_residual_is_negated_compatibility_residual():
    """At lam = 1 the curvature equals minus the hat of the compatibility defect."""
    traj = integrate_chiral(32, 0.02, 6)
    sten = DerivativeStencil(2, TWO_PI / 32)
    conns = [chiral_lax(u, v, 1.0) for u, v in traj]
    lax_res = zero_curvature_residual(conns, sten, 0.02)
    u, v = np.stack(traj, axis=1)
    compat = compatibility_residual(u, v, sten, 0.02)
    np.testing.assert_allclose(lax_res.fields, -hat(compat), rtol=0.0, atol=1e-13)


def test_doubled_field_aniso_residual_converges_raw_does_not():
    """Curvature of the 4x4 pair vanishes at (2u, 2v) along the flow, not at (u, v)."""
    n, dt, steps = 128, 0.0125, 40
    p = np.array([1.0, 2.0, 3.0])
    s = np.arange(n) * (TWO_PI / n)
    u = 0.3 * np.stack([np.sin(s), np.zeros(n), np.cos(s)], axis=1)
    v = 0.3 * np.stack([np.zeros(n), np.cos(s), np.zeros(n)], axis=1)
    sten = DerivativeStencil(2, TWO_PI / n)

    def rhs(y):
        return aniso_rhs_uv(y, p, sten)

    y = np.stack([u, v])
    traj = [y]
    for _ in range(steps):
        y = rk4_step(y, rhs, dt)
        traj.append(y)

    def residual(scale):
        conns = [
            aniso_lax(scale * y[0], scale * y[1], 0.5, p)
            for y in traj
        ]
        return zero_curvature_residual(conns, sten, dt).max_norm

    doubled = residual(2.0)
    raw = residual(1.0)
    assert doubled < 1e-3
    assert raw > 0.05
    assert raw / doubled > 50.0


def per_level_zero_curvature(connections, stencil, dt):
    """The curvature fields with one stencil call per interior level."""
    u = np.stack([c.U_field for c in connections])
    v = np.stack([c.V_field for c in connections])
    du_dt = (u[2:] - u[:-2]) / (2.0 * dt)
    dv_ds = np.stack([stencil(vk) for vk in v[1:-1]])
    return du_dt - dv_ds + (u[1:-1] @ v[1:-1] - v[1:-1] @ u[1:-1])


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("pair", ["chiral", "aniso"])
def test_zero_curvature_residual_bitwise_equals_per_level_loop(pair, order, monkeypatch):
    rng = np.random.default_rng(order)
    n, dt = 16, 0.05
    sten = DerivativeStencil(order, TWO_PI / n)
    p = np.array([1.5, 0.0, -2.0])
    conns = [
        chiral_lax(y[0], y[1], 0.5) if pair == "chiral" else aniso_lax(y[0], y[1], 0.5, p)
        for y in signed_zero_levels(rng, n, 6)
    ]
    want = per_level_zero_curvature(conns, sten, dt)
    calls = []
    original = DerivativeStencil.__call__
    monkeypatch.setattr(DerivativeStencil, "__call__",
                        lambda self, f: calls.append(np.shape(f)) or original(self, f))
    res = zero_curvature_residual(conns, sten, dt)
    assert_same_bits(res.fields, want)
    assert res.max_norm == float(np.max(np.abs(want)))
    dim = conns[0].algebra_dim
    assert calls == [(n, 4, dim, dim)]


# -------------------------------------------------------------- invariant drift


def test_invariant_drift_zero_on_frozen_trajectory():
    rng = np.random.default_rng(41)
    xy = (rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
    rep = invariant_drift([xy, xy, xy])
    assert rep.max_x == 0.0
    assert rep.max_y == 0.0
    np.testing.assert_array_equal(rep.x_series, np.zeros(3))


def test_invariant_drift_flags_injected_rescaling():
    """Doubling X inflates per-node |X|^2 by 3|X0|^2; the monitor must see it."""
    x = np.ones((8, 3))
    y = np.ones((8, 3))
    rep = invariant_drift([(x, y), (2.0 * x, y)])
    assert rep.max_x == 9.0
    assert rep.max_y == 0.0


def test_invariant_drift_needs_two_levels():
    xy = (np.zeros((8, 3)), np.zeros((8, 3)))
    with pytest.raises(ValueError):
        invariant_drift([xy])


def test_node_magnitudes_equal_numpy_sum_bit_for_bit():
    """(x0^2 + x1^2) + x2^2 is the order of numpy's reduce over a length-3
    axis: it equals ``np.sum(f * f, axis=1)`` on rows where the other order
    x0^2 + (x1^2 + x2^2) rounds differently, with +-0.0, inf and nan rows."""
    rng = np.random.default_rng(25)
    f = rng.standard_normal((2, 4000, 3)) * 10.0 ** rng.integers(-3, 4, (2, 4000, 3))
    f[0, :3] = [[0.0, -0.0, -0.0], [-0.0, np.inf, 1.0], [np.nan, 1.0, -0.0]]
    for got, field in zip(_node_magnitudes(f), f):
        sq = field * field
        other = sq[:, 0] + (sq[:, 1] + sq[:, 2])
        reassociated = np.flatnonzero(other != np.sum(sq, axis=1))
        assert reassociated.size > 100
        assert got.tobytes() == np.sum(field * field, axis=1).tobytes()
        assert got[reassociated].tobytes() != other[reassociated].tobytes()
