"""Tests for the spin-chain, chiral, and anisotropic strand right-hand sides.

Hand-evaluated states and independent per-node loop implementations serve
as oracles for the vectorized code.
"""

import math

import numpy as np
import pytest

from gstrand import (
    DerivativeStencil,
    aniso_rhs_XY,
    aniso_rhs_uv,
    chiral_rhs,
    lie_poisson_rhs_spin_chain,
    spin_chain_rhs,
)
from oracles import compatibility_residual

TWO_PI = 2.0 * math.pi
E1, E2, E3 = np.eye(3)


def packed_state(u, v, length=TWO_PI):
    """The packed (2, N_s, 3) state of fields u, v and the stencil of their grid."""
    y = np.stack((u, v)).astype(float)
    return y, DerivativeStencil(2, length / y.shape[1])


def constant_state(u_vec, v_vec, n=16, length=TWO_PI):
    return packed_state(np.tile(u_vec, (n, 1)), np.tile(v_vec, (n, 1)), length)


def random_state(rng, n=24, length=TWO_PI):
    return packed_state(rng.standard_normal((n, 3)), rng.standard_normal((n, 3)), length)


def diag(*entries):
    """The (3,) float diagonal of an operator."""
    return np.array(entries, dtype=float)


# ------------------------------------------------------------------ spin chain


def test_spin_chain_zero_state():
    y, sten = constant_state(np.zeros(3), np.zeros(3))
    du, dv = spin_chain_rhs(y, diag(1, 2, 3), diag(2, 1, 1), sten)
    np.testing.assert_array_equal(du, np.zeros_like(y[0]))
    np.testing.assert_array_equal(dv, np.zeros_like(y[1]))


def test_spin_chain_hand_example():
    """u = e1, v = e2 constants, A = diag(1,2,3), B = Id: u_t = 0, v_t = -e3."""
    y, sten = constant_state(E1, E2)
    du, dv = spin_chain_rhs(y, diag(1, 2, 3), diag(1, 1, 1), sten)
    np.testing.assert_allclose(du, np.zeros_like(du), atol=1e-15)
    np.testing.assert_allclose(dv, np.tile(-E3, (y.shape[1], 1)), atol=1e-15)


def test_spin_chain_matches_loop_oracle():
    rng = np.random.default_rng(81)
    y, sten = random_state(rng)
    u, v = y
    a, b = diag(1.0, 2.0, 3.0), diag(2.0, 1.0, 1.0)
    du, dv = spin_chain_rhs(y, a, b, sten)

    d_bv = sten(v * b)
    d_u = sten(u)
    for i in range(y.shape[1]):
        ui, vi = u[i], v[i]
        expect_du = -(np.cross(ui, a * ui) + d_bv[i] + np.cross(vi, b * vi)) / a
        expect_dv = d_u[i] + np.cross(vi, ui)
        np.testing.assert_allclose(du[i], expect_du, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv[i], expect_dv, rtol=0.0, atol=1e-13)


def test_lie_poisson_form_agrees_with_velocity_form():
    """m = Au evolves so that A(du/dt) = dm/dt, and the v equations coincide."""
    rng = np.random.default_rng(123)
    a, b = diag(1.0, 2.0, 3.0), diag(2.0, 1.0, 1.0)
    for _ in range(20):
        y, sten = random_state(rng, n=32)
        du, dv = spin_chain_rhs(y, a, b, sten)
        dm, dv_lp = lie_poisson_rhs_spin_chain(np.stack((y[0] * a, y[1])), a, b, sten)
        np.testing.assert_allclose(du * a, dm, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dv, dv_lp, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------- chiral model


def test_chiral_hand_example():
    y, sten = constant_state(E1, E2)
    du, dv = chiral_rhs(y, sten)
    np.testing.assert_array_equal(du, np.zeros_like(du))
    np.testing.assert_allclose(dv, np.tile(-E3, (y.shape[1], 1)), atol=1e-15)


def test_chiral_is_unit_inertia_spin_chain():
    """The chiral equations are the spin chain with A = Id, B = -Id."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        y, sten = random_state(rng)
        du_c, dv_c = chiral_rhs(y, sten)
        du_s, dv_s = spin_chain_rhs(y, diag(1, 1, 1), diag(-1, -1, -1), sten)
        np.testing.assert_allclose(du_c, du_s, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv_c, dv_s, rtol=0.0, atol=1e-13)


# ----------------------------------------------------------- anisotropic model


def test_aniso_hand_example():
    """u = e1, v = e2 constants, P = diag(1,2,3): u_t = 0, v_t = -3 e3."""
    y, sten = constant_state(E1, E2)
    p = diag(1.0, 2.0, 3.0)
    du, dv = aniso_rhs_uv(y, p, sten)
    np.testing.assert_allclose(du, np.zeros_like(du), atol=1e-15)
    np.testing.assert_allclose(dv, np.tile(-3.0 * E3, (y.shape[1], 1)), atol=1e-15)


def test_aniso_diagonal_states_transport():
    """On u = v the cross terms cancel pairwise and both fields just advect."""
    rng = np.random.default_rng(31)
    w = rng.standard_normal((24, 3))
    y, sten = packed_state(w, w)
    p = diag(0.5, 2.0, 1.5)
    du, dv = aniso_rhs_uv(y, p, sten)
    np.testing.assert_allclose(du, sten(w), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(dv, sten(w), rtol=0.0, atol=1e-14)


def test_aniso_matches_loop_oracle():
    rng = np.random.default_rng(44)
    y, sten = random_state(rng)
    u, v = y
    p = diag(1.0, 2.0, 3.0)
    du, dv = aniso_rhs_uv(y, p, sten)
    d_v = sten(v)
    d_u = sten(u)
    for i in range(y.shape[1]):
        ui, vi = u[i], v[i]
        pu, pv = p * ui, p * vi
        np.testing.assert_allclose(
            du[i], d_v[i] - np.cross(vi, pv) + np.cross(ui, pu), rtol=0.0, atol=1e-13
        )
        np.testing.assert_allclose(
            dv[i], d_u[i] - np.cross(ui, pv) + np.cross(vi, pu), rtol=0.0, atol=1e-13
        )


def test_isotropic_aniso_is_rescaled_chiral():
    """With P = Id, half-amplitude anisotropic flow reproduces the chiral flow:
    chiral_rhs(u, v) = 2 aniso_rhs_uv(u/2, v/2)."""
    rng = np.random.default_rng(55)
    p = np.ones(3)
    for _ in range(100):
        y, sten = random_state(rng, n=16)
        du_c, dv_c = chiral_rhs(y, sten)
        du_a, dv_a = aniso_rhs_uv(0.5 * y, p, sten)
        np.testing.assert_allclose(du_c, 2.0 * du_a, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dv_c, 2.0 * dv_a, rtol=0.0, atol=1e-13)


# --------------------------------------------------------- XY change of frame


def test_aniso_XY_is_pushforward_of_uv():
    """d/dt of (X, Y) = (u - v, -u - v) along the (u, v) flow equals aniso_rhs_XY."""
    rng = np.random.default_rng(91)
    p = diag(1.0, 2.0, 3.0)
    for _ in range(25):
        y, sten = random_state(rng, n=32)
        u, v = y
        du, dv = aniso_rhs_uv(y, p, sten)
        dx_expect = du - dv
        dy_expect = -du - dv
        dx, dy = aniso_rhs_XY(np.stack((u - v, -u - v)), p, sten)
        np.testing.assert_allclose(dx, dx_expect, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(dy, dy_expect, rtol=0.0, atol=1e-13)


def test_aniso_XY_zero_X_stays_zero():
    rng = np.random.default_rng(6)
    xy, sten = packed_state(np.zeros((16, 3)), rng.standard_normal((16, 3)))
    p = diag(1.0, 2.0, 3.0)
    dx, _ = aniso_rhs_XY(xy, p, sten)
    np.testing.assert_array_equal(dx, np.zeros_like(dx))


def test_aniso_XY_magnitude_flux_vanishes():
    """x . dx reduces to the transport term, whose periodic grid sum telescopes."""
    rng = np.random.default_rng(100)
    xy, sten = packed_state(rng.standard_normal((32, 3)), rng.standard_normal((32, 3)))
    x, y = xy
    p = diag(2.0, 1.0, 0.5)
    dx, dy = aniso_rhs_XY(xy, p, sten)
    np.testing.assert_allclose(
        np.sum(x * dx, axis=1), np.sum(x * (-sten(x)), axis=1), atol=1e-13
    )
    assert abs(np.sum(x * dx)) < 1e-12
    assert abs(np.sum(y * dy)) < 1e-12


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


# ------------------------------------ packed right-hand sides, bitwise oracles
# Each right-hand side takes the packed (2, N_s, 3) state and returns one
# packed array.  The per-field forms they replaced stay here as oracles:
# np.stack(f(u, v, ...)) must give the same bits, signed zeros included.


def per_field_spin_chain(u, v, a, b, stencil):
    au = u * a
    bv = v * b
    du = -((np.cross(u, au) + stencil(bv) + np.cross(v, bv)) / a)
    dv = stencil(u) + np.cross(v, u)
    return du, dv


def per_field_chiral(u, v, stencil):
    return stencil(v), stencil(u) - np.cross(u, v)


def per_field_lie_poisson(m, v, a, b, stencil):
    dh_dm = m / a
    dh_dv = -(v * b)
    dm = np.cross(m, dh_dm) + stencil(dh_dv) - np.cross(dh_dv, v)
    dv = stencil(dh_dm) - np.cross(dh_dm, v)
    return dm, dv


def per_field_aniso_uv(u, v, p, stencil):
    pu = u * p
    pv = v * p
    du = stencil(v) - np.cross(v, pv) + np.cross(u, pu)
    dv = stencil(u) - np.cross(u, pv) + np.cross(v, pu)
    return du, dv


def per_field_aniso_XY(x, y, p, stencil):
    dx = -stencil(x) - np.cross(x, y * p)
    dy = stencil(y) + np.cross(y, x * p)
    return dx, dy


def signed_zero_state(rng, n=16):
    """Random packed (2, n, 3) state with +-0.0 entries and flat stretches,
    so that slopes, products and differences meet signed zeros."""
    y = rng.standard_normal((2, n, 3))
    y[:, n // 2:n // 2 + 3] = y[:, n // 2 - 1:n // 2]  # flat: zero slopes
    y[rng.random(y.shape) < 0.25] = 0.0
    y[rng.random(y.shape) < 0.25] = -0.0
    return y


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


SPIN_A, SPIN_B = diag(1.0, 2.0, -3.0), diag(2.0, -1.0, 0.5)
ANISO = diag(1.5, 0.0, -2.0)
# the packed forms take each diagonal through ``op``: as it is, or tiled to
# the (N_s, 3) operand that a run passes
PACKED_RHS = {
    "spin_chain": (lambda y, st, op: spin_chain_rhs(y, op(SPIN_A), op(SPIN_B), st),
                   lambda u, v, st: per_field_spin_chain(u, v, SPIN_A, SPIN_B, st)),
    "chiral": (lambda y, st, op: chiral_rhs(y, st), per_field_chiral),
    "lie_poisson": (lambda y, st, op: lie_poisson_rhs_spin_chain(y, op(SPIN_A), op(SPIN_B), st),
                    lambda m, v, st: per_field_lie_poisson(m, v, SPIN_A, SPIN_B, st)),
    "aniso_uv": (lambda y, st, op: aniso_rhs_uv(y, op(ANISO), st),
                 lambda u, v, st: per_field_aniso_uv(u, v, ANISO, st)),
    "aniso_xy": (lambda y, st, op: aniso_rhs_XY(y, op(ANISO), st),
                 lambda x, y, st: per_field_aniso_XY(x, y, ANISO, st)),
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("model", sorted(PACKED_RHS))
def test_packed_rhs_bitwise_equals_per_field_form(model, order):
    """Bit for bit, with each diagonal as it is and tiled to the nodes; no
    input is written."""
    packed, per_field = PACKED_RHS[model]
    rng = np.random.default_rng(order)
    for n in (8, 16, 33):
        sten = DerivativeStencil(order, TWO_PI / n)
        for _ in range(5):
            y = signed_zero_state(rng, n)
            before = y.copy()
            want = np.stack(per_field(y[0], y[1], sten))
            for op in (lambda d: d, lambda d: np.tile(d, (n, 1))):
                assert_same_bits(packed(y, sten, op), want)
            assert before.tobytes() == y.tobytes()


def per_level_compatibility(u, v, stencil, dt):
    """The residual with one stencil call per interior level."""
    dv_dt = (v[2:] - v[:-2]) / (2.0 * dt)
    du_ds = np.stack([stencil(u_k) for u_k in u[1:-1]])
    return dv_dt - du_ds + np.cross(u[1:-1], v[1:-1])


@pytest.mark.parametrize("order", [2, 4])
def test_compatibility_residual_bitwise_equals_per_level_loop(order, monkeypatch):
    rng = np.random.default_rng(10 + order)
    sten = DerivativeStencil(order, TWO_PI / 16)
    u, v = np.stack([signed_zero_state(rng) for _ in range(6)]).swapaxes(0, 1)
    want = per_level_compatibility(u, v, sten, 0.05)
    calls = []
    original = DerivativeStencil.__call__
    monkeypatch.setattr(DerivativeStencil, "__call__",
                        lambda self, f: calls.append(np.shape(f)) or original(self, f))
    assert_same_bits(compatibility_residual(u, v, sten, 0.05), want)
    assert calls == [(16, 4, 3)]
