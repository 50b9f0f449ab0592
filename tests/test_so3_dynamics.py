"""Tests for the spin-chain, chiral, and anisotropic strand right-hand sides.

Hand-evaluated states and independent per-node loop implementations serve
as oracles for the vectorized code.
"""

import math

import numpy as np
import pytest

from gstrand import (
    DerivativeStencil,
    DiagonalParams,
    So3StrandState,
    SpinChainParams,
    XYState,
    aniso_rhs_XY,
    aniso_rhs_uv,
    chiral_rhs,
    compatibility_residual,
    from_XY,
    lie_poisson_rhs_spin_chain,
    spin_chain_rhs,
    to_XY,
)

TWO_PI = 2.0 * math.pi
E1, E2, E3 = np.eye(3)


def constant_state(u_vec, v_vec, n=16, length=TWO_PI):
    u = np.tile(np.asarray(u_vec, dtype=float), (n, 1))
    v = np.tile(np.asarray(v_vec, dtype=float), (n, 1))
    return So3StrandState(length=length, u=u, v=v)


def random_state(rng, n=24, length=TWO_PI):
    return So3StrandState(
        length=length, u=rng.standard_normal((n, 3)), v=rng.standard_normal((n, 3))
    )


def spin_params(a_diag, b_diag):
    return SpinChainParams(
        a=DiagonalParams(np.asarray(a_diag, dtype=float), "inertia-A"),
        b=DiagonalParams(np.asarray(b_diag, dtype=float), "inertia-B"),
    )


# ---------------------------------------------------------------- state types


def test_state_validation():
    with pytest.raises(ValueError):
        So3StrandState(length=-1.0, u=np.zeros((16, 3)), v=np.zeros((16, 3)))
    with pytest.raises(ValueError):
        So3StrandState(length=1.0, u=np.zeros((4, 3)), v=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        So3StrandState(length=1.0, u=np.zeros((16, 3)), v=np.zeros((12, 3)))
    with pytest.raises(ValueError):
        So3StrandState(length=1.0, u=np.zeros((16, 2)), v=np.zeros((16, 2)))
    bad = np.zeros((16, 3))
    bad[3, 1] = np.inf
    with pytest.raises(ValueError):
        So3StrandState(length=1.0, u=bad, v=np.zeros((16, 3)))


def test_state_grid_properties():
    st = constant_state(E1, E2, n=16, length=8.0)
    assert st.n_nodes == 16
    assert st.ds == 0.5
    np.testing.assert_array_equal(st.grid, np.arange(16) * 0.5)
    assert st.stencil().order == 2
    assert st.stencil(4).order == 4


def test_spin_chain_params_role_check():
    a = DiagonalParams(np.ones(3), "inertia-A")
    b = DiagonalParams(np.ones(3), "inertia-B")
    with pytest.raises(ValueError):
        SpinChainParams(a=b, b=b)
    with pytest.raises(ValueError):
        SpinChainParams(a=a, b=a)


# ------------------------------------------------------------------ spin chain


def test_spin_chain_zero_state():
    st = constant_state(np.zeros(3), np.zeros(3))
    du, dv = spin_chain_rhs(st.u, st.v, spin_params([1, 2, 3], [2, 1, 1]), st.stencil())
    np.testing.assert_array_equal(du, np.zeros_like(st.u))
    np.testing.assert_array_equal(dv, np.zeros_like(st.v))


def test_spin_chain_hand_example():
    """u = e1, v = e2 constants, A = diag(1,2,3), B = Id: u_t = 0, v_t = -e3."""
    st = constant_state(E1, E2)
    du, dv = spin_chain_rhs(st.u, st.v, spin_params([1, 2, 3], [1, 1, 1]), st.stencil())
    np.testing.assert_allclose(du, np.zeros_like(du), atol=1e-15)
    np.testing.assert_allclose(dv, np.tile(-E3, (st.n_nodes, 1)), atol=1e-15)


def test_spin_chain_matches_loop_oracle():
    rng = np.random.default_rng(81)
    st = random_state(rng)
    params = spin_params([1.0, 2.0, 3.0], [2.0, 1.0, 1.0])
    sten = st.stencil()
    du, dv = spin_chain_rhs(st.u, st.v, params, sten)

    a = params.a.diagonal
    b = params.b.diagonal
    d_bv = sten(st.v * b)
    d_u = sten(st.u)
    for i in range(st.n_nodes):
        ui, vi = st.u[i], st.v[i]
        expect_du = -(np.cross(ui, a * ui) + d_bv[i] + np.cross(vi, b * vi)) / a
        expect_dv = d_u[i] + np.cross(vi, ui)
        np.testing.assert_allclose(du[i], expect_du, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv[i], expect_dv, rtol=0.0, atol=1e-13)


def test_lie_poisson_form_agrees_with_velocity_form():
    """m = Au evolves so that A(du/dt) = dm/dt, and the v equations coincide."""
    rng = np.random.default_rng(123)
    params = spin_params([1.0, 2.0, 3.0], [2.0, 1.0, 1.0])
    for _ in range(20):
        st = random_state(rng, n=32)
        sten = st.stencil()
        du, dv = spin_chain_rhs(st.u, st.v, params, sten)
        dm, dv_lp = lie_poisson_rhs_spin_chain(params.a.apply(st.u), st.v, params, sten)
        np.testing.assert_allclose(params.a.apply(du), dm, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dv, dv_lp, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------- chiral model


def test_chiral_hand_example():
    st = constant_state(E1, E2)
    du, dv = chiral_rhs(st.u, st.v, st.stencil())
    np.testing.assert_array_equal(du, np.zeros_like(du))
    np.testing.assert_allclose(dv, np.tile(-E3, (st.n_nodes, 1)), atol=1e-15)


def test_chiral_is_unit_inertia_spin_chain():
    """The chiral equations are the spin chain with A = Id, B = -Id."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        st = random_state(rng)
        sten = st.stencil()
        du_c, dv_c = chiral_rhs(st.u, st.v, sten)
        du_s, dv_s = spin_chain_rhs(st.u, st.v, spin_params([1, 1, 1], [-1, -1, -1]), sten)
        np.testing.assert_allclose(du_c, du_s, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv_c, dv_s, rtol=0.0, atol=1e-13)


# ----------------------------------------------------------- anisotropic model


def test_aniso_hand_example():
    """u = e1, v = e2 constants, P = diag(1,2,3): u_t = 0, v_t = -3 e3."""
    st = constant_state(E1, E2)
    p = DiagonalParams(np.array([1.0, 2.0, 3.0]), "anisotropy-P")
    du, dv = aniso_rhs_uv(st.u, st.v, p, st.stencil())
    np.testing.assert_allclose(du, np.zeros_like(du), atol=1e-15)
    np.testing.assert_allclose(dv, np.tile(-3.0 * E3, (st.n_nodes, 1)), atol=1e-15)


def test_aniso_diagonal_states_transport():
    """On u = v the cross terms cancel pairwise and both fields just advect."""
    rng = np.random.default_rng(31)
    w = rng.standard_normal((24, 3))
    st = So3StrandState(length=TWO_PI, u=w.copy(), v=w.copy())
    p = DiagonalParams(np.array([0.5, 2.0, 1.5]), "anisotropy-P")
    sten = st.stencil()
    du, dv = aniso_rhs_uv(st.u, st.v, p, sten)
    np.testing.assert_allclose(du, sten(w), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(dv, sten(w), rtol=0.0, atol=1e-14)


def test_aniso_matches_loop_oracle():
    rng = np.random.default_rng(44)
    st = random_state(rng)
    p = DiagonalParams(np.array([1.0, 2.0, 3.0]), "anisotropy-P")
    sten = st.stencil()
    du, dv = aniso_rhs_uv(st.u, st.v, p, sten)
    d_v = sten(st.v)
    d_u = sten(st.u)
    for i in range(st.n_nodes):
        ui, vi = st.u[i], st.v[i]
        pu, pv = p.diagonal * ui, p.diagonal * vi
        np.testing.assert_allclose(
            du[i], d_v[i] - np.cross(vi, pv) + np.cross(ui, pu), rtol=0.0, atol=1e-13
        )
        np.testing.assert_allclose(
            dv[i], d_u[i] - np.cross(ui, pv) + np.cross(vi, pu), rtol=0.0, atol=1e-13
        )


def test_aniso_role_check():
    st = constant_state(E1, E2)
    with pytest.raises(ValueError, match="anisotropy-P"):
        aniso_rhs_uv(st.u, st.v, DiagonalParams(np.ones(3), "inertia-A"), st.stencil())


def test_isotropic_aniso_is_rescaled_chiral():
    """With P = Id, half-amplitude anisotropic flow reproduces the chiral flow:
    chiral_rhs(u, v) = 2 aniso_rhs_uv(u/2, v/2)."""
    rng = np.random.default_rng(55)
    p = DiagonalParams(np.ones(3), "anisotropy-P")
    for _ in range(100):
        st = random_state(rng, n=16)
        sten = st.stencil()
        half = So3StrandState(length=st.length, u=0.5 * st.u, v=0.5 * st.v)
        du_c, dv_c = chiral_rhs(st.u, st.v, sten)
        du_a, dv_a = aniso_rhs_uv(half.u, half.v, p, sten)
        np.testing.assert_allclose(du_c, 2.0 * du_a, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv_c, 2.0 * dv_a, rtol=0.0, atol=1e-13)


# --------------------------------------------------------- XY change of frame


def test_to_XY_frozen_example():
    st = constant_state(E1, E2, n=8)
    xy = to_XY(st)
    np.testing.assert_array_equal(xy.x[0], [1.0, -1.0, 0.0])
    np.testing.assert_array_equal(xy.y[0], [-1.0, -1.0, 0.0])


def test_XY_round_trip():
    rng = np.random.default_rng(14)
    st = random_state(rng)
    back = from_XY(to_XY(st))
    np.testing.assert_allclose(back.u, st.u, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(back.v, st.v, rtol=0.0, atol=1e-15)


def test_aniso_XY_is_pushforward_of_uv():
    """d/dt of (X, Y) = (u - v, -u - v) along the (u, v) flow equals aniso_rhs_XY."""
    rng = np.random.default_rng(91)
    p = DiagonalParams(np.array([1.0, 2.0, 3.0]), "anisotropy-P")
    for _ in range(25):
        st = random_state(rng, n=32)
        sten = st.stencil()
        du, dv = aniso_rhs_uv(st.u, st.v, p, sten)
        dx_expect = du - dv
        dy_expect = -du - dv
        xy = to_XY(st)
        dx, dy = aniso_rhs_XY(xy.x, xy.y, p, sten)
        np.testing.assert_allclose(dx, dx_expect, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dy, dy_expect, rtol=0.0, atol=1e-13)


def test_aniso_XY_zero_X_stays_zero():
    rng = np.random.default_rng(6)
    xy = XYState(length=TWO_PI, x=np.zeros((16, 3)), y=rng.standard_normal((16, 3)))
    p = DiagonalParams(np.array([1.0, 2.0, 3.0]), "anisotropy-P")
    dx, _ = aniso_rhs_XY(xy.x, xy.y, p, DerivativeStencil(2, xy.ds))
    np.testing.assert_array_equal(dx, np.zeros_like(dx))


def test_aniso_XY_magnitude_flux_vanishes():
    """x . dx reduces to the transport term, whose periodic grid sum telescopes."""
    rng = np.random.default_rng(100)
    xy = XYState(
        length=TWO_PI, x=rng.standard_normal((32, 3)), y=rng.standard_normal((32, 3))
    )
    p = DiagonalParams(np.array([2.0, 1.0, 0.5]), "anisotropy-P")
    sten = DerivativeStencil(2, xy.ds)
    dx, dy = aniso_rhs_XY(xy.x, xy.y, p, sten)
    np.testing.assert_allclose(
        np.sum(xy.x * dx, axis=1), np.sum(xy.x * (-sten(xy.x)), axis=1), atol=1e-13
    )
    assert abs(np.sum(xy.x * dx)) < 1e-12
    assert abs(np.sum(xy.y * dy)) < 1e-12


# ------------------------------------------------------- compatibility residual


def test_compatibility_residual_validation():
    sten = DerivativeStencil(2, 0.1)
    with pytest.raises(ValueError):
        compatibility_residual(np.zeros((2, 16, 3)), np.zeros((2, 16, 3)), sten, 0.1)
    with pytest.raises(ValueError):
        compatibility_residual(np.zeros((4, 16, 3)), np.zeros((4, 12, 3)), sten, 0.1)


def test_compatibility_residual_frozen_static_pair():
    """Time-frozen constants u = e1, v = e2 leave exactly the u x v term."""
    n = 16
    u = np.tile(E1, (5, n, 1))
    v = np.tile(E2, (5, n, 1))
    res = compatibility_residual(u, v, DerivativeStencil(2, 0.1), 0.05)
    assert res.shape == (3, n, 3)
    np.testing.assert_array_equal(res, np.tile(E3, (3, n, 1)))


def test_compatibility_residual_zero_on_aligned_constants():
    u = np.tile(0.7 * E2, (4, 16, 1))
    res = compatibility_residual(u, u, DerivativeStencil(2, 0.1), 0.05)
    np.testing.assert_array_equal(res, np.zeros_like(res))
