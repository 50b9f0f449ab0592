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
    SingularConfigurationError,
    WaveProfile,
    analytic_solutions,
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


@pytest.mark.parametrize("exact", [
    WaveProfile.standing(1.0, 10),
    WaveProfile.traveling([(1.0, 23, 0.3)], -1),
], ids=["standing_k10", "traveling_k23"])
def test_profile_self_check_accepts_hand_built_exact_wave(exact):
    """Second-difference rounding grows with k^2; the tolerance scales with the curvature."""
    prof = WaveProfile(h=exact.h, dh_dt=exact.dh_dt, dh_ds=exact.dh_ds,
                       descriptor=exact.descriptor)
    s, t = np.linspace(0.0, TWO_PI, 9), 0.4
    np.testing.assert_array_equal(prof.jet(s, t)[0], exact.jet(s, t)[0])


def test_profile_self_check_rejects_small_defect_on_curved_wave():
    with pytest.raises(ValueError, match="wave equation"):
        WaveProfile(
            h=lambda s, t: np.cos(3.0 * s) * np.cos(3.0 * t) + 1e-3 * s * t * t,
            dh_dt=lambda s, t: -3.0 * np.cos(3.0 * s) * np.sin(3.0 * t) + 2e-3 * s * t,
            dh_ds=lambda s, t: -3.0 * np.sin(3.0 * s) * np.cos(3.0 * t) + 1e-3 * t * t,
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


def _old_harmonic_sum(terms, x, wave):
    out = np.zeros(np.shape(x))
    for a, k, ph in terms:
        out = out + a * wave(k * x + ph)
    return out


def old_evaluators(d):
    """(h, dh_dt, dh_ds) of descriptor ``d``, as three separate evaluators
    formed the way profiles formed them before the jet: the bitwise oracle.
    Each takes float arrays and, like the old public methods, returns arrays."""
    if d["type"] == "traveling":
        terms, direction = [tuple(term) for term in d["terms"]], d["direction"]
        slope = [(a * k, k, ph) for a, k, ph in terms]
        evaluators = (
            lambda s, t: _old_harmonic_sum(terms, s - direction * t, np.sin),
            lambda s, t: -direction * _old_harmonic_sum(slope, s - direction * t, np.cos),
            lambda s, t: _old_harmonic_sum(slope, s - direction * t, np.cos),
        )
    elif d["type"] == "standing":
        a, k = d["amplitude"], d["wavenumber"]
        evaluators = (
            lambda s, t: a * np.cos(k * s) * np.cos(k * t),
            lambda s, t: -a * k * np.cos(k * s) * np.sin(k * t),
            lambda s, t: -a * k * np.sin(k * s) * np.cos(k * t),
        )
    else:
        parts = [old_evaluators(part) for part in d["parts"]]
        evaluators = tuple(
            lambda s, t, i=i: sum(part[i](s, t) for part in parts) for i in range(3)
        )
    return tuple(lambda s, t, f=f: np.asarray(f(s, t)) for f in evaluators)


JET_PROFILES = {
    "traveling+": WaveProfile.traveling([(0.3, 1.0, 0.2), (-0.1, 2.0, 4.0), (0.7, 3.0, 0.0)], 1),
    "traveling-": WaveProfile.traveling([(0.3, 1.0, 0.2), (0.05, 5.0, -1.0)], -1),
    "traveling-zero-terms": WaveProfile.traveling([], 1),
    "traveling-signed-zeros": WaveProfile.traveling([(-0.0, 1.0, 0.0), (0.0, 2.0, 1.0)], -1),
    "standing": WaveProfile.standing(0.5, 2.0),
    "standing-negative-zero": WaveProfile.standing(-0.0, 1.0),
    "constant": WaveProfile.constant(1.5),
    "constant-zero": WaveProfile.constant(0.0),
    "superposition": WaveProfile.superpose([
        WaveProfile.traveling([(0.3, 1.0, 0.1)], 1),
        WaveProfile.traveling([(0.1, 2.0, 5.0)], -1),
        WaveProfile.standing(0.2, 3.0),
    ]),
    # each part's h_t is -0.0; summed from 0, as before the jet, the total is +0.0
    "superposition-of-zeros": WaveProfile.superpose(
        [WaveProfile.constant(0.0), WaveProfile.traveling([], 1)]),
    "nested": WaveProfile.superpose([
        WaveProfile.constant(-0.0),
        WaveProfile.superpose([
            WaveProfile.traveling([], -1),
            WaveProfile.superpose([WaveProfile.standing(0.4, 1.0), WaveProfile.constant(1.0)]),
        ]),
        WaveProfile.traveling([(0.2, 4.0, 1.0)], 1),
    ]),
}

_S = np.array([0.0, -0.0, 0.3, 1.1, 2.5, 4.0, 6.0])
_T = np.array([0.0, -0.0, 0.25, 0.7, 1.5])
JET_POINTS = {
    "scalars": (1.1, 0.7),
    "signed-zero-scalars": (-0.0, 0.0),
    "0-d arrays": (np.asarray(2.0), np.asarray(0.4)),
    "vector-scalar": (_S, 0.3),
    "scalar-vector": (0.9, _T),
    "broadcast": (_S[:, None], _T[None, :]),
}


def assert_same_bits(got, want):
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("point", list(JET_POINTS))
@pytest.mark.parametrize("name", list(JET_PROFILES))
def test_jet_has_the_bits_of_the_three_old_evaluators(name, point):
    """The jet, and h, dh_dt and dh_ds that read it, give the bits, signed
    zeros and shapes of the separate evaluators it replaced."""
    prof = JET_PROFILES[name]
    s, t = JET_POINTS[point]
    want = [f(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
            for f in old_evaluators(prof.descriptor)]
    for got, expected in zip(prof.jet(s, t), want):
        assert_same_bits(got, expected)
    for got, expected in zip((prof.h(s, t), prof.dh_dt(s, t), prof.dh_ds(s, t)), want):
        assert_same_bits(got, expected)


def test_zero_space_slope_gives_negative_zero_time_slope():
    """h_t = -direction * h_s keeps the sign of zero: on a constant profile
    (direction +1) h_s is +0.0 and h_t is -0.0, as dh_dt gave before the jet."""
    _, h_t, h_s = WaveProfile.constant(2.0).jet(_S, 0.5)
    assert np.all(h_s == 0.0) and not np.any(np.signbit(h_s))
    assert np.all(h_t == 0.0) and np.all(np.signbit(h_t))


class CountingNumpy:
    """Stands in for numpy in ``analytic_solutions`` and counts sin and cos calls."""

    def __init__(self):
        self.calls = {"sin": 0, "cos": 0}

    def __getattr__(self, name):
        function = getattr(np, name)
        if name not in self.calls:
            return function

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted


def test_one_reference_evaluates_each_traveling_harmonic_once(monkeypatch):
    """One single-peakon or collision reference makes one sin and one cos
    call per traveling harmonic (before the jet it made one sin and two cos)."""
    prof = WaveProfile.superpose([
        WaveProfile.traveling([(0.3, 1.0, 0.1), (0.1, 2.0, 0.0)], 1),
        WaveProfile.traveling([(0.2, 3.0, 0.5)], -1),
        WaveProfile.constant(1.0),
    ])
    spy = CountingNumpy()
    monkeypatch.setattr(analytic_solutions, "np", spy)
    s = np.linspace(0.0, 6.0, 32)
    single_peakon_exact(prof, s, 0.4)
    assert spy.calls == {"sin": 4, "cos": 4}
    spy.calls = {"sin": 0, "cos": 0}
    CollisionSolution(prof, 1).evaluate(s, 0.4)
    assert spy.calls == {"sin": 4, "cos": 4}


@pytest.mark.parametrize("point", list(JET_POINTS))
@pytest.mark.parametrize("name", list(JET_PROFILES))
def test_value_alone_has_the_bits_of_the_jet(name, point):
    """h, formed without the derivatives, equals jet(s, t)[0] bit for bit."""
    prof = JET_PROFILES[name]
    s, t = JET_POINTS[point]
    assert_same_bits(prof.h(s, t), prof.jet(s, t)[0])


def harmonic_terms(d):
    """(amplitude, wavenumber, phase) of every harmonic of a built profile's
    descriptor, a standing wave's phase 0."""
    if d["type"] == "traveling":
        return [tuple(term) for term in d["terms"]]
    if d["type"] == "standing":
        return [(d["amplitude"], d["wavenumber"], 0.0)]
    return [term for part in d["parts"] for term in harmonic_terms(part)]


def node_bound(d, s, t):
    """How far ``on_nodes`` may sit from the jet at t, by round-off: each
    harmonic's argument is rounded in both, at most 4 eps (1 + |k| (|s| + |t|)
    + |phase|) apart, and a shift of the argument moves h by |a| and h_s, h_t
    by |a k| times it; the products and sums add a few eps of each."""
    eps = np.finfo(float).eps
    reach = float(np.max(np.abs(s))) + abs(t)
    return sum(8.0 * eps * abs(a) * (1.0 + abs(k)) * (2.0 + abs(k) * reach + abs(ph))
               for a, k, ph in harmonic_terms(d))


ON_NODES_PROFILES = {
    **JET_PROFILES,
    "right-nested": WaveProfile.superpose([
        WaveProfile.traveling([(0.3, 1.0, 0.1)], 1),
        WaveProfile.superpose([
            WaveProfile.traveling([(0.1, 2.0, 5.0), (-0.7, 3.0, 2.0)], -1),
            WaveProfile.standing(0.2, 3.0),
            WaveProfile.superpose([WaveProfile.constant(0.7), WaveProfile.standing(-0.4, 2.0)]),
        ]),
        WaveProfile.traveling([(0.9, 1.0, 4.0), (0.6, 2.0, 0.3)], 1),
    ]),
}


@pytest.mark.parametrize("t", [0.0, 0.3, 1e3])
@pytest.mark.parametrize("name", list(ON_NODES_PROFILES))
def test_node_evaluator_matches_the_jet(name, t):
    """The profile bound to fixed nodes gives the jet's (h, h_t, h_s): its
    values at t = 0, in every nesting of superpositions, and within
    ``node_bound`` later, also with the factors of the single-peakon data."""
    prof = ON_NODES_PROFILES[name]
    s = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    want = np.stack(prof.jet(s, t))
    got = prof.on_nodes(s)(t)
    assert got.shape == (3, 48)
    scaled = prof.on_nodes(s, (1.0, 1.0 / K0, -1.0 / K0))(t)
    exact = np.stack(single_peakon_exact(prof, s, t))
    value = prof.on_nodes(s, (1.0,))(t)
    assert value.shape == (1, 48)
    if t == 0.0:
        assert np.array_equal(got, want)
        assert np.array_equal(scaled, exact)
        assert np.array_equal(value[0], prof.h(s, t))
    else:
        bound = node_bound(prof.descriptor, s, t)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=bound)
        np.testing.assert_allclose(scaled, exact, rtol=0.0, atol=bound / K0)
        assert np.array_equal(value[0], got[0])


def test_node_bound_is_not_loose():
    """The bound of ``test_node_evaluator_matches_the_jet`` is within a
    factor 100 of what the evaluator's round-off reaches over its profiles
    (a factor 24 measured)."""
    s = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    ratios = [float(np.max(np.abs(prof.on_nodes(s)(t) - np.stack(prof.jet(s, t)))))
              / node_bound(prof.descriptor, s, t)
              for prof in ON_NODES_PROFILES.values() if node_bound(prof.descriptor, s, 0.0)
              for t in (0.3, 1e3)]
    assert 1.0 / 100.0 < max(ratios) <= 1.0


def test_node_evaluator_of_a_hand_built_profile_calls_its_jet():
    """A profile built from callables has no separable form: its node
    evaluator is its jet, times the factors."""
    s = np.linspace(0.0, 1.0, 5)
    at = linear_profile().on_nodes(s, (1.0, 1.0 / K0, -1.0 / K0))
    assert np.array_equal(at(2.0), np.stack(single_peakon_exact(linear_profile(), s, 2.0)))


@pytest.mark.parametrize("parts", [
    lambda: [linear_profile(), WaveProfile.traveling([(0.3, 1.0, 0.1)], -1),
             WaveProfile.standing(0.2, 3.0)],
    lambda: [WaveProfile.traveling([(0.1, 2.0, 5.0), (-0.7, 3.0, 2.0)], 1),
             WaveProfile.superpose([WaveProfile.standing(-0.4, 2.0), WaveProfile.constant(0.7)]),
             linear_profile()],
    lambda: [linear_profile(), linear_profile()],
], ids=["hand-built-first", "hand-built-last", "all-hand-built"])
@pytest.mark.parametrize("t", [0.0, 0.7])
def test_node_evaluator_of_a_superposition_with_a_hand_built_part_calls_its_jet(parts, t):
    """A superposition that holds a profile built by hand, wherever it stands,
    has no separable form either: its node evaluator is its jet times the
    factors, bit for bit, signed zeros included."""
    prof = WaveProfile.superpose(parts())
    s = np.linspace(-1.0, 1.0, 9)
    want = np.stack(prof.jet(s, t)) * np.array([1.0, 2.0, -2.0])[:, None]
    assert_same_bits(prof.on_nodes(s, (1.0, 2.0, -2.0))(t), want)


def test_node_evaluator_forms_no_sin_or_cos_of_the_nodes_per_call(monkeypatch):
    """The nodes' sin and cos rows are formed once, when the profile is
    bound; a call takes scalar cos and sin of t alone."""
    prof = ON_NODES_PROFILES["right-nested"]
    spy = CountingNumpy()
    monkeypatch.setattr(analytic_solutions, "np", spy)
    at = prof.on_nodes(np.linspace(0.0, 6.0, 32))
    assert spy.calls == {"sin": 8, "cos": 8}
    for t in (0.0, 0.5, 1.0):
        at(t)
    assert spy.calls == {"sin": 8, "cos": 8}


def test_collision_separation_on_nodes_matches_separation():
    sol = CollisionSolution(JET_PROFILES["superposition"], -1)
    s = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    at = sol.separation_on_nodes(s)
    assert np.array_equal(at(0.0), sol.separation(s, 0.0))
    bound = 2.0 * node_bound(sol.profile.descriptor, s, 0.7) + 8.0 * np.finfo(float).eps
    np.testing.assert_allclose(at(0.7), sol.separation(s, 0.7), rtol=0.0, atol=bound)


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
    dq, dm, dn = peakon_rhs(q[:, None], m[:, None], n[:, None], DerivativeStencil(2, ds))

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
    q = prof.h(s, t)[:, None]
    m = (prof.dh_dt(s, t) / K0)[:, None]
    n_wrong = (prof.dh_ds(s, t) / K0)[:, None]
    sten = DerivativeStencil(2, ds)
    _, _, dn = peakon_rhs(q, m, n_wrong, sten)
    h_st = 0.3 * np.sin(s) * np.sin(t)
    assert np.max(np.abs(dn[:, 0] - h_st / K0)) > 0.1
    assert np.max(np.abs(s_constraint_residual(q, n_wrong, sten))) > 0.1


def test_single_peakon_consistent_s_constraint():
    n_nodes = 256
    ds = TWO_PI / n_nodes
    s = np.arange(n_nodes) * ds
    q, m, n = single_peakon_exact(WaveProfile.standing(0.3, 1.0), s, 0.9)
    res = s_constraint_residual(q[:, None], n[:, None], DerivativeStencil(2, ds))
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
    # reduction identities: X_t = (M1 - M2)(K0 - K(X)), X_s = -(N1 - N2)(K0 - K(X)),
    # with X = 2 log cosh h, so X_t = 2 tanh(h) h_t and X_s = 2 tanh(h) h_s
    gap = -K0 * np.expm1(-np.abs(cs.x))
    tanh_h = np.tanh(prof.h(s, t))
    np.testing.assert_allclose(
        2.0 * tanh_h * prof.dh_dt(s, t), 2.0 * cs.m1 * gap, rtol=0.0, atol=1e-13
    )
    np.testing.assert_allclose(
        2.0 * tanh_h * prof.dh_ds(s, t), -2.0 * cs.n1 * gap, rtol=0.0, atol=1e-13
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
