"""Peakon kernel, state guards, and right-hand-side tests.

The A = 2 case has compact closed-form equations; they are written out
explicitly here and used as the oracle for the general einsum path.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import gstrand.peakon_dynamics as pk
from gstrand import (
    ConditioningError,
    DerivativeStencil,
    PeakonState,
    SingularConfigurationError,
    kernel,
    kernel_deriv,
    kernel_matrix,
    peakon_rhs,
    reconstruct_fields,
    s_constraint_residual,
)
from gstrand.peakon_dynamics import K0, _checked_kernel, _spd_solve

TWO_PI = 2.0 * math.pi


def spread_positions(rng, n_nodes, count, scale=2.0):
    """Random well-separated positions: sorted with unit base gaps."""
    base = np.arange(count) * scale
    jitter = 0.3 * rng.standard_normal((n_nodes, count))
    return base + jitter


def random_peakon_state(rng, n_nodes=16, count=3):
    return PeakonState(
        length=TWO_PI,
        q=spread_positions(rng, n_nodes, count),
        m=rng.standard_normal((n_nodes, count)),
        n=rng.standard_normal((n_nodes, count)),
    )


# ---------------------------------------------------------------------- kernel


def test_kernel_frozen_values():
    assert kernel(0.0, 0.0) == 0.5
    assert abs(kernel(1.0, 0.0) - 0.5 * math.exp(-1.0)) < 1e-16
    assert abs(kernel(1.0, 0.0) - 0.1839397) < 1e-7


def test_kernel_symmetry_and_broadcast():
    x = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_array_equal(kernel(x, 0.3), kernel(0.3, x))
    assert kernel(x[:, None], x[None, :]).shape == (9, 9)


def test_kernel_matrix_spd():
    rng = np.random.default_rng(61)
    q = spread_positions(rng, 8, 4)
    kmat = kernel_matrix(q)
    assert kmat.shape == (8, 4, 4)
    np.testing.assert_array_equal(kmat, np.swapaxes(kmat, -1, -2))
    np.testing.assert_array_equal(kmat[..., range(4), range(4)], np.full((8, 4), K0))
    assert np.min(np.linalg.eigvalsh(kmat)) > 0.0


def test_kernel_deriv_frozen_table():
    d = kernel_deriv(np.array([0.0, 1.0]))
    e = 0.5 * math.exp(-1.0)
    np.testing.assert_allclose(d, [[0.0, e], [-e, 0.0]], rtol=0.0, atol=1e-16)


def test_kernel_deriv_zero_diagonal():
    rng = np.random.default_rng(62)
    q = spread_positions(rng, 8, 5)
    d = kernel_deriv(q)
    np.testing.assert_array_equal(d[..., range(5), range(5)], np.zeros((8, 5)))


# ----------------------------------------------------------------- state guards


def test_state_validation():
    z = np.zeros((16, 2))
    q = np.tile([0.0, 1.0], (16, 1))
    with pytest.raises(ValueError):
        PeakonState(length=TWO_PI, q=np.zeros((4, 2)), m=np.zeros((4, 2)), n=np.zeros((4, 2)))
    with pytest.raises(ValueError):
        PeakonState(length=TWO_PI, q=np.zeros((16, 9)), m=np.zeros((16, 9)), n=np.zeros((16, 9)))
    with pytest.raises(ValueError):
        PeakonState(length=TWO_PI, q=q, m=np.zeros((16, 3)), n=z)
    bad = q.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError):
        PeakonState(length=TWO_PI, q=bad, m=z, n=z)


def test_state_rejects_coincident_peakons():
    q = np.tile([0.0, 5e-9], (16, 1))
    with pytest.raises(SingularConfigurationError, match="coincident"):
        PeakonState(length=TWO_PI, q=q, m=np.zeros((16, 2)), n=np.zeros((16, 2)))


def test_checked_kernel_gap_guard():
    with pytest.raises(SingularConfigurationError):
        _checked_kernel(np.tile([0.0, 1e-9], (8, 1)))


def test_checked_kernel_condition_guard(monkeypatch):
    # gap passes the coincidence check; a lowered limit must still trip the
    # condition estimate cond ~ 2/gap
    monkeypatch.setattr(pk, "CONDITION_LIMIT", 1e6)
    with pytest.raises(ConditioningError, match="condition"):
        _checked_kernel(np.tile([0.0, 1e-7], (8, 1)))


def test_spd_solve_matches_dense_solve():
    rng = np.random.default_rng(63)
    q = spread_positions(rng, 12, 4)
    kmat = kernel_matrix(q)
    rhs = rng.standard_normal((12, 4))
    got = _spd_solve(kmat, rhs)
    expect = np.linalg.solve(kmat, rhs[..., None])[..., 0]
    np.testing.assert_allclose(got, expect, rtol=0.0, atol=1e-12)


def test_spd_solve_rejects_indefinite_matrix():
    bad = np.tile(np.diag([1.0, -1.0]), (8, 1, 1))
    with pytest.raises(ConditioningError):
        _spd_solve(bad, np.ones((8, 2)))


# ------------------------------------------------------------------ peakon_rhs


def test_rhs_zero_momenta():
    rng = np.random.default_rng(64)
    st = PeakonState(
        length=TWO_PI,
        q=spread_positions(rng, 16, 3),
        m=np.zeros((16, 3)),
        n=np.zeros((16, 3)),
    )
    dq, dm, dn = peakon_rhs(st.q, st.m, st.n, DerivativeStencil(2, TWO_PI / 16))
    np.testing.assert_array_equal(dq, np.zeros_like(dq))
    np.testing.assert_array_equal(dm, np.zeros_like(dm))
    np.testing.assert_array_equal(dn, np.zeros_like(dn))


def test_rhs_single_peakon_reduction():
    """A = 1: dQ = K0 M, dM = -d_s N, dN = -d_s M exactly."""
    rng = np.random.default_rng(65)
    n_nodes = 32
    sten = DerivativeStencil(2, TWO_PI / n_nodes)
    q = rng.standard_normal((n_nodes, 1))
    m = rng.standard_normal((n_nodes, 1))
    n = rng.standard_normal((n_nodes, 1))
    st = PeakonState(length=TWO_PI, q=q, m=m, n=n)
    dq, dm, dn = peakon_rhs(st.q, st.m, st.n, sten)
    np.testing.assert_allclose(dq, K0 * m, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(dm, -sten(n), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(dn, -sten(m), rtol=0.0, atol=1e-13)


def test_rhs_antisymmetric_pair_position_equation():
    """Mirror pair Q = (q, -q), M = (mu, -mu): dQ^1 = mu (K0 - K(2q))."""
    n_nodes = 16
    qv, mu, nu = 1.2, 0.7, 0.3
    q = np.tile([qv, -qv], (n_nodes, 1))
    m = np.tile([mu, -mu], (n_nodes, 1))
    n = np.tile([nu, -nu], (n_nodes, 1))
    st = PeakonState(length=TWO_PI, q=q, m=m, n=n)
    dq, dm, _ = peakon_rhs(st.q, st.m, st.n, DerivativeStencil(2, TWO_PI / n_nodes))
    expect_dq1 = mu * (K0 - kernel(qv, -qv))
    np.testing.assert_allclose(dq[:, 0], np.full(n_nodes, expect_dq1), rtol=1e-14)
    np.testing.assert_allclose(dq[:, 1], -dq[:, 0], rtol=0.0, atol=1e-16)
    # momentum: dM1 = -(mu^2 - nu^2) D12 M... reduces to (nu^2 - mu^2) K'(2q)
    expect_dm1 = 0.5 * (nu * nu - mu * mu) * math.exp(-2.0 * qv)
    np.testing.assert_allclose(dm[:, 0], np.full(n_nodes, expect_dm1), rtol=1e-13)


def pair_rhs_reference(q, m, n, sten):
    """Two-peakon equations written out term by term (the A = 2 oracle)."""
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
    sol1 = (K0 * g1 - k * g2) / det
    sol2 = (-k * g1 + K0 * g2) / det
    dn1 = -ds_m[:, 0] + sol1
    dn2 = -ds_m[:, 1] + sol2

    return (
        np.stack([dq1, dq2], axis=1),
        np.stack([dm1, dm2], axis=1),
        np.stack([dn1, dn2], axis=1),
    )


def test_rhs_matches_pair_reference():
    rng = np.random.default_rng(66)
    sten = DerivativeStencil(2, TWO_PI / 16)
    for _ in range(20):
        st = random_peakon_state(rng, n_nodes=16, count=2)
        got = peakon_rhs(st.q, st.m, st.n, sten)
        expect = pair_rhs_reference(st.q, st.m, st.n, sten)
        for g, e in zip(got, expect):
            np.testing.assert_allclose(g, e, rtol=0.0, atol=1e-12)


def test_rhs_raises_on_coincidence_through_checked_kernel():
    # build a valid state, then squeeze the gap below the guard before the call
    st = random_peakon_state(np.random.default_rng(67), count=2)
    st.q[:, 1] = st.q[:, 0] + 1e-10
    with pytest.raises(SingularConfigurationError):
        peakon_rhs(st.q, st.m, st.n, DerivativeStencil(2, TWO_PI / 16))


# ------------------------------------------------------------------ s-constraint


def test_s_constraint_zero_for_constant_q_zero_n():
    rng = np.random.default_rng(68)
    n_nodes = 16
    st = PeakonState(
        length=TWO_PI,
        q=np.tile([0.0, 2.0], (n_nodes, 1)),
        m=rng.standard_normal((n_nodes, 2)),
        n=np.zeros((n_nodes, 2)),
    )
    res = s_constraint_residual(st, DerivativeStencil(2, TWO_PI / n_nodes))
    np.testing.assert_array_equal(res, np.zeros((n_nodes, 2)))


def test_s_constraint_small_on_consistent_data_large_on_corrupted():
    n_nodes = 128
    ds = TWO_PI / n_nodes
    s = np.arange(n_nodes) * ds
    h = 2.0 + 0.4 * np.sin(s)
    h_s = 0.4 * np.cos(s)
    q = h[:, None]
    m = np.zeros((n_nodes, 1))
    n = (-h_s / K0)[:, None]
    sten = DerivativeStencil(2, ds)
    good = s_constraint_residual(PeakonState(TWO_PI, q, m, n), sten)
    assert np.max(np.abs(good)) < 1e-3
    corrupted = s_constraint_residual(PeakonState(TWO_PI, q, m, 2.0 * n), sten)
    assert np.max(np.abs(corrupted)) > 0.3


# ------------------------------------------------------------- reconstruction


def test_reconstruct_single_atom_profile():
    sample = reconstruct_fields([0.0], [1.0], [0.0], np.array([-1.0, 0.0, 1.0]))
    e = 0.5 * math.exp(-1.0)
    np.testing.assert_allclose(sample.u, [e, 0.5, e], rtol=0.0, atol=1e-16)
    np.testing.assert_array_equal(sample.v, np.zeros(3))
    assert sample.m_atoms == ((0.0, 1.0),)


def test_reconstruct_v_sign():
    sample = reconstruct_fields([0.0], [0.0], [2.0], np.array([0.0]))
    np.testing.assert_allclose(sample.v, [-1.0], rtol=0.0, atol=1e-16)


def test_reconstruction_solves_helmholtz_weakly():
    """int u (phi - phi'') dx = sum_a M_a phi(Q_a) for smooth decaying phi."""
    q = np.array([-0.7, 0.4, 1.9])
    m = np.array([0.8, -0.3, 1.1])

    def phi(x):
        return math.exp(-x * x)

    def phi_pp(x):
        return (4.0 * x * x - 2.0) * math.exp(-x * x)

    def integrand(x):
        u = float(np.sum(m * kernel(x, q)))
        return u * (phi(x) - phi_pp(x))

    lhs, est = quad(integrand, -12.0, 13.0, points=sorted(q.tolist()), limit=200)
    rhs = float(np.sum(m * np.array([phi(x) for x in q])))
    assert est < 1e-9
    assert abs(lhs - rhs) < 1e-6
