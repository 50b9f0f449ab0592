"""Closed-form reference solutions: wave profiles, exact peakon data, collisions.

The single-peakon data is validated against the peakon equations themselves:
plugging the closed form into ``peakon_rhs`` must reproduce its analytic time
derivatives up to stencil truncation.  That check pins the sign conventions.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gstrand import (
    CollisionSolution,
    ConfigError,
    DerivativeStencil,
    PeakonState,
    SingularConfigurationError,
    WaveProfile,
    collision_F,
    collision_F_inverse,
    collision_exact,
    peakon_rhs,
    potentials_resolve,
    profile_from_descriptor,
    s_constraint_residual,
    single_peakon_exact,
)
from gstrand.peakon_dynamics import K0

TWO_PI = 2.0 * math.pi
SQRT8 = 2.0 * math.sqrt(2.0)


def linear_profile():
    """h = s + t, the simplest d'Alembert solution."""
    return WaveProfile(
        h=lambda s, t: s + t,
        dh_dt=lambda s, t: (s + t) * 0.0 + 1.0,
        dh_ds=lambda s, t: (s + t) * 0.0 + 1.0,
        descriptor={"type": "linear"},
    )


# --------------------------------------------------------------- wave profiles


def test_traveling_profile_values():
    prof = WaveProfile.traveling([(0.3, 1.0, 0.0), (0.1, 2.0, 0.4)], -1)
    s, t = 1.1, 0.7
    xi = s + t
    expect = 0.3 * math.sin(xi) + 0.1 * math.sin(2.0 * xi + 0.4)
    assert abs(float(prof.h(s, t)) - expect) < 1e-15
    expect_p = 0.3 * math.cos(xi) + 0.2 * math.cos(2.0 * xi + 0.4)
    assert abs(float(prof.dh_ds(s, t)) - expect_p) < 1e-15
    assert abs(float(prof.dh_dt(s, t)) - expect_p) < 1e-15


def test_standing_profile_values():
    prof = WaveProfile.standing(0.5, 2.0)
    s, t = 0.9, 0.3
    assert abs(float(prof.h(s, t)) - 0.5 * math.cos(2 * s) * math.cos(2 * t)) < 1e-15
    assert abs(float(prof.dh_dt(s, t)) + math.cos(2 * s) * math.sin(2 * t)) < 1e-15


def test_constant_profile_is_flat():
    prof = WaveProfile.constant(1.5)
    s = np.linspace(0.0, 6.0, 7)
    np.testing.assert_allclose(prof.h(s, 0.3), np.full(7, 1.5), rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(prof.dh_dt(s, 0.3), np.zeros(7))
    np.testing.assert_array_equal(prof.dh_ds(s, 0.3), np.zeros(7))


def test_profile_self_check_rejects_non_wave():
    with pytest.raises(ValueError, match="wave equation"):
        WaveProfile(
            h=lambda s, t: s * t * t,
            dh_dt=lambda s, t: 2.0 * s * t,
            dh_ds=lambda s, t: t * t,
            descriptor={"type": "bogus"},
        )


def test_profile_descriptor_round_trip():
    descs = [
        {"type": "traveling", "terms": [[0.3, 1.0, 0.0]], "direction": 1},
        {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0},
        {
            "type": "superposition",
            "parts": [
                {"type": "traveling", "terms": [[0.2, 1.0, 0.1]], "direction": -1},
                {"type": "standing", "amplitude": 0.1, "wavenumber": 2.0},
            ],
        },
    ]
    for d in descs:
        prof = profile_from_descriptor(d)
        assert prof.descriptor == d


@pytest.mark.parametrize(
    "bad",
    [
        {"type": "sawtooth"},
        {"type": "standing", "amplitude": 0.5},
        {"type": "standing", "amplitude": 0.5, "wavenumber": 1.0, "phase": 0.0},
        {"type": "traveling", "terms": [[0.3, 1.0, 0.0]], "direction": 2},
        {"terms": []},
        "standing",
    ],
)
def test_profile_descriptor_rejects(bad):
    with pytest.raises(ConfigError):
        profile_from_descriptor(bad)


# -------------------------------------------------------- single peakon closed form


def test_single_peakon_linear_profile_values():
    q, m, n = single_peakon_exact(linear_profile(), 1.0, 2.0)
    assert float(q) == 3.0
    assert float(m) == 2.0
    assert float(n) == -2.0


def test_single_peakon_traveling_values():
    prof = WaveProfile.traveling([(1.0, 1.0, 0.0)], 1)  # h = sin(s - t)
    s = np.linspace(0.0, 6.0, 13)
    q, m, n = single_peakon_exact(prof, s, 0.4)
    np.testing.assert_allclose(q, np.sin(s - 0.4), rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(m, -2.0 * np.cos(s - 0.4), rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(n, -2.0 * np.cos(s - 0.4), rtol=0.0, atol=1e-14)


def test_single_peakon_data_satisfies_peakon_equations():
    """Closed form (h, h_t/K0, -h_s/K0) plugged into peakon_rhs reproduces the
    analytic time derivatives (h_t, h_tt/K0, -h_st/K0) up to stencil error."""
    n_nodes = 128
    ds = TWO_PI / n_nodes
    s = np.arange(n_nodes) * ds
    t = 0.37
    a, k = 0.3, 1.0
    q, m, n = single_peakon_exact(WaveProfile.standing(a, k), s, t)
    st = PeakonState(TWO_PI, q[:, None], m[:, None], n[:, None])
    dq, dm, dn = peakon_rhs(st.q, st.m, st.n, DerivativeStencil(2, ds))

    h_t = -a * k * np.cos(k * s) * np.sin(k * t)
    h_tt = -a * k * k * np.cos(k * s) * np.cos(k * t)
    h_st = a * k * k * np.sin(k * s) * np.sin(k * t)
    assert np.max(np.abs(dq[:, 0] - h_t)) < 1e-14
    assert np.max(np.abs(dm[:, 0] - h_tt / K0)) < 1e-3
    assert np.max(np.abs(dn[:, 0] + h_st / K0)) < 1e-3


def test_single_peakon_flipped_slope_sign_fails_the_equations():
    """Negative control: N = +h_s/K0 breaks both the momentum equation and the
    space-slope relation by an O(1) margin."""
    n_nodes = 128
    ds = TWO_PI / n_nodes
    s = np.arange(n_nodes) * ds
    t = 0.9
    prof = WaveProfile.standing(0.3, 1.0)
    q = prof.h(s, t)
    m = prof.dh_dt(s, t) / K0
    n_wrong = prof.dh_ds(s, t) / K0
    st = PeakonState(TWO_PI, q[:, None], m[:, None], n_wrong[:, None])
    sten = DerivativeStencil(2, ds)
    _, _, dn = peakon_rhs(st.q, st.m, st.n, sten)
    h_st = 0.3 * np.sin(s) * np.sin(t)
    assert np.max(np.abs(dn[:, 0] - h_st / K0)) > 0.1
    assert np.max(np.abs(s_constraint_residual(st, sten))) > 0.1


def test_single_peakon_consistent_s_constraint():
    n_nodes = 256
    ds = TWO_PI / n_nodes
    s = np.arange(n_nodes) * ds
    q, m, n = single_peakon_exact(WaveProfile.standing(0.3, 1.0), s, 0.9)
    st = PeakonState(TWO_PI, q[:, None], m[:, None], n[:, None])
    res = s_constraint_residual(st, DerivativeStencil(2, ds))
    assert np.max(np.abs(res)) < 1e-4


# ------------------------------------------------------------- linearizing map


def test_F_at_zero():
    assert float(collision_F(0.0)) == 0.0


def test_F_frozen_value():
    assert abs(float(collision_F(2.0)) - 4.687989136157955) < 1e-12


def test_F_matches_quadrature():
    """F against adaptive quadrature of its defining integral."""
    for x in np.concatenate([np.linspace(-10.0, -0.5, 8), np.linspace(0.5, 10.0, 8)]):
        val, est = quad(
            lambda y: 1.0 / math.sqrt(-math.expm1(-y)), 0.0, abs(x), points=[0.0]
        )
        expect = math.sqrt(2.0) * math.copysign(val, x)
        assert est < 1e-8
        assert abs(float(collision_F(x)) - expect) < 1e-8


def test_F_odd():
    x = np.linspace(0.1, 15.0, 40)
    np.testing.assert_allclose(collision_F(-x), -collision_F(x), rtol=0.0, atol=1e-12)


def test_F_round_trip():
    x = np.linspace(-20.0, 20.0, 81)
    np.testing.assert_allclose(
        collision_F_inverse(collision_F(x)), x, rtol=0.0, atol=1e-12
    )
    f = np.linspace(-25.0, 25.0, 51)
    np.testing.assert_allclose(
        collision_F(collision_F_inverse(f)), f, rtol=0.0, atol=1e-12
    )


def test_F_inverse_large_arguments_stable():
    out = collision_F_inverse(np.array([-500.0, 500.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [-352.18, 352.18], rtol=1e-3)


def test_F_linearizes_log_cosh_separation():
    """F(2 log cosh h) = 2 sqrt(2) h for h >= 0."""
    h = np.linspace(0.05, 5.0, 60)
    x = 2.0 * np.log(np.cosh(h))
    np.testing.assert_allclose(collision_F(x), SQRT8 * h, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------ collision solution


def test_collision_branch_validation():
    with pytest.raises(ValueError, match="branch"):
        CollisionSolution(WaveProfile.constant(1.0), 0)


def test_collision_frozen_separation():
    """h = 1 gives X = 2 log cosh 1, cross-checked through the inverse map."""
    sol = CollisionSolution(WaveProfile.constant(1.0), 1)
    x = float(sol.separation(0.0, 0.0))
    assert abs(x - 0.8675616609660542) < 1e-12
    assert abs(x - float(collision_F_inverse(SQRT8))) < 1e-12


def test_collision_sample_structure():
    prof = WaveProfile.standing(0.5, 1.0)
    sol = CollisionSolution(prof, 1)
    s = np.linspace(0.1, 1.2, 5)[None, :]
    t = np.linspace(0.0, 0.4, 4)[:, None]
    cs = collision_exact(sol, s, t)
    np.testing.assert_allclose(cs.q1, 0.5 * cs.x, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(cs.q2, -0.5 * cs.x, rtol=0.0, atol=1e-16)
    np.testing.assert_array_equal(cs.m2, -cs.m1)
    np.testing.assert_array_equal(cs.n2, -cs.n1)
    # reduction identities: X_t = (M1 - M2)(K0 - K(X)), X_s = -(N1 - N2)(K0 - K(X))
    gap = -K0 * np.expm1(-np.abs(cs.x))
    np.testing.assert_allclose(
        sol.separation_dt(s, t), 2.0 * cs.m1 * gap, rtol=0.0, atol=1e-13
    )
    np.testing.assert_allclose(
        sol.separation_ds(s, t), -2.0 * cs.n1 * gap, rtol=0.0, atol=1e-13
    )


def test_collision_negative_branch_mirrors():
    prof = WaveProfile.standing(0.5, 1.0)
    plus = collision_exact(CollisionSolution(prof, 1), 0.4, 0.2)
    minus = collision_exact(CollisionSolution(prof, -1), 0.4, 0.2)
    np.testing.assert_allclose(minus.x, -plus.x, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(minus.m1, -plus.m1, rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(minus.n1, -plus.n1, rtol=0.0, atol=1e-16)


def test_collision_singular_at_interaction_instant():
    # traveling sin(s - t) vanishes exactly on s = t
    sol = CollisionSolution(WaveProfile.traveling([(1.0, 1.0, 0.0)], 1), 1)
    with pytest.raises(SingularConfigurationError, match="h = 0"):
        sol.evaluate(0.3, 0.3)


def test_separation_satisfies_its_wave_equation():
    """(X_tt - X_ss) + K'(X)/(2(K0 - K(X))) (X_t^2 - X_s^2) = 0 by finite differences."""
    sol = CollisionSolution(WaveProfile.standing(0.5, 1.0), 1)
    delta = 1e-3
    t = np.arange(0.0, 0.5, delta)[:, None]
    s = np.arange(0.1, 1.2, delta)[None, :]
    x = sol.separation(s, t)
    x_tt = (x[2:, 1:-1] - 2.0 * x[1:-1, 1:-1] + x[:-2, 1:-1]) / delta**2
    x_ss = (x[1:-1, 2:] - 2.0 * x[1:-1, 1:-1] + x[1:-1, :-2]) / delta**2
    x_t = (x[2:, 1:-1] - x[:-2, 1:-1]) / (2.0 * delta)
    x_s = (x[1:-1, 2:] - x[1:-1, :-2]) / (2.0 * delta)
    mid = x[1:-1, 1:-1]
    kp = -K0 * np.sign(mid) * np.exp(-np.abs(mid))
    gap = -K0 * np.expm1(-np.abs(mid))
    res = (x_tt - x_ss) + kp / (2.0 * gap) * (x_t**2 - x_s**2)
    assert np.max(np.abs(res)) < 1e-6


# ----------------------------------------------------------- potential resolution


def collision_window(delta):
    sol = CollisionSolution(WaveProfile.standing(0.5, 1.0), 1)
    t = np.arange(0.0, 0.5, delta)[:, None]
    s = np.arange(0.1, 1.2, delta)[None, :]
    return collision_exact(sol, s, t)


def test_potentials_on_exact_collision():
    delta = 2e-3
    cs = collision_window(delta)
    rep = potentials_resolve(cs.m1, cs.m2, cs.n1, cs.n2, cs.x, delta, delta)
    assert rep.sep_t < 5.0 * delta**2
    assert rep.sep_s < 20.0 * delta**2
    assert rep.curl == 0.0
    assert rep.sym_m == 0.0
    assert rep.sym_n == 0.0
    assert rep.loop is None
    np.testing.assert_allclose(rep.x_t, 2.0 * cs.m1 * -K0 * np.expm1(-np.abs(cs.x)))


def test_potentials_constant_gradient_fields():
    shape = (5, 7)
    one = np.ones(shape)
    rep = potentials_resolve(one, one, 0.0 * one, 0.0 * one, 2.0 * one, 0.1, 0.1)
    np.testing.assert_array_equal(rep.phi_s, 2.0 * one)
    np.testing.assert_array_equal(rep.phi_t, 0.0 * one)
    assert rep.sep_t == 0.0
    assert rep.sep_s == 0.0
    assert rep.curl == 0.0


def test_potentials_flag_time_dependent_asymmetry():
    """A symmetric momentum part growing in time has no potential: curl != 0."""
    delta = 0.05
    t = np.arange(0.0, 1.0, delta)[:, None]
    s = np.arange(0.0, 1.0, delta)[None, :]
    m_half = 0.5 * t * np.cos(s)
    zero = np.zeros_like(m_half + 0.0 * s)
    m = m_half + zero
    rep = potentials_resolve(m, m, zero, zero, zero + 1.0, delta, delta)
    assert rep.curl > 0.5


def test_potentials_flag_nonzero_loop_integral():
    """On a periodic strand the s-integral of M1 + M2 must vanish."""
    n_s = 64
    ds = TWO_PI / n_s
    s = (np.arange(n_s) * ds)[None, :]
    t = np.linspace(0.0, 1.0, 5)[:, None]
    m_half = 0.5 * (1.0 + np.sin(s)) + 0.0 * t
    zero = np.zeros_like(m_half)
    rep = potentials_resolve(m_half, m_half, zero, zero, zero + 1.0, 0.25, ds, periodic_s=True)
    assert rep.loop is not None
    assert rep.loop > 5.0


def test_potentials_validation():
    one = np.ones((5, 7))
    with pytest.raises(ValueError):
        potentials_resolve(one, one, one, np.ones((5, 6)), one, 0.1, 0.1)
    with pytest.raises(ValueError):
        tiny = np.ones((2, 7))
        potentials_resolve(tiny, tiny, tiny, tiny, tiny, 0.1, 0.1)
    with pytest.raises(SingularConfigurationError):
        potentials_resolve(one, one, one, one, 0.0 * one, 0.1, 0.1)
