"""Peakon kernel, state guards, and right-hand-side tests.

The A = 2 case has compact closed-form equations; they are written out
explicitly here and used as the oracle for the general einsum path.
"""

import math
import tracemalloc

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
from gstrand.peakon_dynamics import (
    K0,
    _checked_kernel,
    _deriv_in_place,
    _min_gap,
    _spd_solve,
)

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
    np.testing.assert_array_equal(dq, K0 * m)
    np.testing.assert_array_equal(dm, -sten(n))
    np.testing.assert_array_equal(dn, -sten(m))


def lone_peakon_cases(rng, n_cases=200, n_nodes=24):
    """(q, m, n) with A = 1, each field drawn as one of: random normal; random
    with +0.0 and -0.0 entries scattered in; all +0.0; all -0.0."""
    for _ in range(n_cases):
        fields = rng.standard_normal((3, n_nodes, 1))
        for f, kind in zip(fields, rng.integers(0, 4, size=3)):
            if kind == 1:
                zero = rng.random(f.shape) < 0.4
                f[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
            elif kind > 1:
                f[:] = 0.0 if kind == 2 else -0.0
        yield tuple(fields)


def assert_same_bits(got, expect):
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))


def test_lone_peakon_shortcut_matches_the_kernel_path_bit_for_bit():
    """A = 1 skips the kernel; its terms and s-constraint keep every bit, signed zeros too."""
    sten = DerivativeStencil(2, TWO_PI / 24)
    for q, m, n in lone_peakon_cases(np.random.default_rng(69)):
        for stencil in (sten, zero_stencil):
            expect = pk._kernel_terms(q, m, n)
            slopes = stencil(np.concatenate((n, m), axis=1))
            expect[1] -= slopes[:, :1]
            expect[2] -= slopes[:, 1:]
            assert_same_bits(peakon_rhs(q, m, n, stencil), expect)
            assert_same_bits(
                s_constraint_residual(q, n, stencil),
                stencil(q) + np.einsum("nab,nb->na", kernel_matrix(q), n),
            )


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


# ------------------------------------------------- sorted frame and closed form


def dense_rhs_reference(q, m, n, sten):
    """The peakon equations with dense kernel tables and a general solve."""
    kmat = kernel_matrix(q)
    deriv = kernel_deriv(q)
    km = np.einsum("nab,nb->na", kmat, m)
    kn = np.einsum("nab,nb->na", kmat, n)
    dm_sum = np.einsum("nac,nc->na", deriv, m)
    dn_sum = np.einsum("nac,nc->na", deriv, n)
    g = (
        kn * dm_sum
        - np.einsum("nec,nc->ne", deriv, m * kn)
        - km * dn_sum
        + np.einsum("nec,nc->ne", deriv, n * km)
    )
    dn = -sten(m) + np.linalg.solve(kmat, g[..., None])[..., 0]
    return km, -sten(n) - (m * dm_sum - n * dn_sum), dn


def shuffle_per_node(rng, *fields):
    """The same random peakon relabelling of each field, drawn afresh at every node."""
    perm = np.argsort(rng.random(fields[0].shape), axis=-1)
    return tuple(np.take_along_axis(f, perm, axis=-1) for f in fields)


def zero_stencil(f):
    return np.zeros_like(f)


@pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
@pytest.mark.parametrize("count", range(1, 9))
def test_rhs_matches_dense_reference(count, order):
    rng = np.random.default_rng(100 + count)
    n_nodes = 24
    sten = DerivativeStencil(2, TWO_PI / n_nodes)
    q = spread_positions(rng, n_nodes, count)
    m = rng.standard_normal((n_nodes, count))
    n = rng.standard_normal((n_nodes, count))
    if order == "shuffled":
        q, m, n = shuffle_per_node(rng, q, m, n)
    elif order == "reversed":  # the collision pair is stored with Q^1 >= Q^2
        q, m, n = (f[:, ::-1].copy() for f in (q, m, n))
    got = peakon_rhs(q, m, n, sten)
    expect = dense_rhs_reference(q, m, n, sten)
    for g, e in zip(got, expect):
        assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))


@pytest.mark.parametrize("count", range(2, 9))
def test_rhs_permutation_equivariance(count):
    rng = np.random.default_rng(200 + count)
    n_nodes = 16
    q = spread_positions(rng, n_nodes, count)
    m = rng.standard_normal((n_nodes, count))
    n = rng.standard_normal((n_nodes, count))
    # one relabelling for the whole strand: the full right-hand side follows it
    perm = rng.permutation(count)
    sten = DerivativeStencil(2, TWO_PI / n_nodes)
    got = peakon_rhs(q[:, perm], m[:, perm], n[:, perm], sten)
    for g, e in zip(got, peakon_rhs(q, m, n, sten)):
        np.testing.assert_array_equal(g, e[:, perm])
    # a different relabelling at every node: the kernel terms follow it (the
    # s-derivatives need labels that agree between nodes, so they are left out);
    # equal seeds draw the same relabelling for the inputs and the outputs
    shuffled = peakon_rhs(*shuffle_per_node(np.random.default_rng(7), q, m, n), zero_stencil)
    expect = shuffle_per_node(np.random.default_rng(7), *peakon_rhs(q, m, n, zero_stencil))
    for g, e in zip(shuffled, expect):
        np.testing.assert_array_equal(g, e)


@pytest.mark.parametrize("count", range(1, 9))
def test_min_gap_equals_all_pairs_minimum(count):
    rng = np.random.default_rng(300 + count)
    for scale in (2.0, 1e-3, 1e-7):
        q = rng.permuted(spread_positions(rng, 32, count, scale=scale), axis=1)
        if count == 1:
            assert _min_gap(q) == np.inf
            continue
        iu = np.triu_indices(count, k=1)
        all_pairs = np.abs(q[:, :, None] - q[:, None, :])[:, iu[0], iu[1]]
        assert _min_gap(q) == np.min(all_pairs)


def test_zero_gap_is_reported_without_sign():
    # 0.0 and -0.0 compare equal, so sorting may leave the pair as (0.0, -0.0)
    q = np.tile([0.0, -0.0], (8, 1))
    assert math.copysign(1.0, _min_gap(q)) == 1.0
    with pytest.raises(SingularConfigurationError, match=r"gap 0\.000e\+00 <"):
        _checked_kernel(q)


@pytest.mark.parametrize("pair", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_pair_raises_the_coincidence_error(pair):
    """Neither order of a (0.0, -0.0) pair strictly increases, so it is sorted and caught."""
    rng = np.random.default_rng(304)
    q = spread_positions(rng, 8, 2)
    q[5] = pair
    m, n = rng.standard_normal((2, 8, 2))
    with pytest.raises(SingularConfigurationError, match=r"gap 0\.000e\+00 <"):
        peakon_rhs(q, m, n, DerivativeStencil(2, TWO_PI / 8))


@pytest.mark.parametrize("count", [2, 5, 8])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_sorted_frame_tables_are_exact(count, order):
    """kmat is kernel_matrix of the sorted positions, bit for bit, and the D
    that the right-hand side makes of it in place is kernel_deriv.

    The one exception is D's diagonal: kernel_deriv forms it as -K0 x 0.0 =
    -0.0, and the table holds +0.0, the value the right-hand side sums.
    """
    rng = np.random.default_rng(301 + count)
    q = spread_positions(rng, 16, count)
    if order == "shuffled":
        q = rng.permuted(q, axis=1)
    sk = _checked_kernel(q)
    qs = np.sort(q, axis=-1)
    assert_same_bits(np.moveaxis(sk.kmat, -1, 0), kernel_matrix(qs))
    deriv = np.moveaxis(_deriv_in_place(sk.kmat.copy()), -1, 0)
    off = ~np.eye(count, dtype=bool)
    assert_same_bits(deriv[:, off], kernel_deriv(qs)[:, off])
    assert_same_bits(deriv[:, ~off], np.zeros((16, count)))


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_rhs_peak_memory_holds_one_kernel_table(order):
    """One call at A = 8, N_s = 256 peaks below three (A, A, N_s) float64 arrays.

    K and D share one buffer, so the kernel takes one such array; gathering
    both at once took two, and the peak above this bound.
    """
    count, n_nodes = 8, 256
    rng = np.random.default_rng(310)
    q = spread_positions(rng, n_nodes, count)
    if order == "shuffled":
        q = rng.permuted(q, axis=1)
    m, n = rng.standard_normal((2, n_nodes, count))
    sten = DerivativeStencil(2, TWO_PI / n_nodes)
    peakon_rhs(q, m, n, sten)  # caches the pair layout of A = 8
    tracemalloc.start()
    try:
        peakon_rhs(q, m, n, sten)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * count * count * n_nodes * 8


def test_label_ordered_positions_take_the_transpose_frame():
    rng = np.random.default_rng(305)
    q = spread_positions(rng, 16, 4)
    assert _checked_kernel(q).index is None
    assert _checked_kernel(q[:, ::-1]).index is not None
    q[3, 1:3] = q[3, 2:0:-1]  # one node out of order
    assert _checked_kernel(q).index is not None


def test_nan_position_takes_the_argsort_path():
    """NaN compares false, so a NaN position is sorted; the other nodes keep their bits."""
    rng = np.random.default_rng(306)
    q = spread_positions(rng, 16, 3)
    m, n = rng.standard_normal((2, 16, 3))
    expect = peakon_rhs(q, m, n, zero_stencil)
    q[7, 1] = np.nan
    assert _checked_kernel(q).index is not None
    got = peakon_rhs(q, m, n, zero_stencil)
    others = np.arange(16) != 7
    assert_same_bits(got[:, others], expect[:, others])
    assert np.isnan(got[:, 7]).any()


@pytest.mark.parametrize("count", [2, 3, 8])
def test_shuffled_labels_match_the_transpose_frame_bit_for_bit(count):
    """The argsort path and the transpose frame give the same bits, signed zeros included.

    Label-ordered input takes the transpose frame and per-node shuffled
    input the argsort path; the kernel terms of the shuffled input are the
    shuffled terms of the ordered input.  Some nodes carry only signed
    zero momenta, so the signs of zero sums are checked too.
    """
    rng = np.random.default_rng(307 + count)
    n_nodes = 64
    q = spread_positions(rng, n_nodes, count)
    m, n = rng.standard_normal((2, n_nodes, count))
    for f in (m, n):
        zero = rng.random(f.shape) < 0.3
        f[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        f[::5] = np.where(rng.random(f[::5].shape) < 0.5, 0.0, -0.0)
    assert _checked_kernel(q).index is None
    ordered = peakon_rhs(q, m, n, zero_stencil)
    assert np.signbit(ordered[ordered == 0.0]).any()
    assert (~np.signbit(ordered[ordered == 0.0])).any()
    for seed in range(4):
        shuffled = shuffle_per_node(np.random.default_rng(seed), q, m, n)
        assert _checked_kernel(shuffled[0]).index is not None
        got = peakon_rhs(*shuffled, zero_stencil)
        expect = shuffle_per_node(np.random.default_rng(seed), *ordered)
        for g, e in zip(got, expect):
            assert_same_bits(g, e)


def test_closed_form_inverse_matches_dense_inverse():
    rng = np.random.default_rng(302)
    count = 6
    q = rng.permuted(spread_positions(rng, 16, count), axis=1)
    sk = _checked_kernel(q)
    inv = 2.0 * np.eye(count)[:, :, None] + np.zeros_like(sk.kmat)
    for i in range(count - 1):
        inv[i, i] += sk.gap_diag[i]
        inv[i + 1, i + 1] += sk.gap_diag[i]
        inv[i, i + 1] = inv[i + 1, i] = sk.gap_off[i]
    expect = np.linalg.inv(np.moveaxis(sk.kmat, -1, 0))
    np.testing.assert_allclose(np.moveaxis(inv, -1, 0), expect, rtol=0.0, atol=1e-11)


def test_closed_form_inverse_keeps_small_gaps_accurate():
    """For a pair, K^{-1} = 2/(1 - e^2) [[1, -e], [-e, 1]] with e = exp(-g), to full precision.

    Written as 1 - exp(-2 g), the denominator would lose about log10(1/g)
    digits at g = 1e-7; the reference uses expm1 in a different arrangement.
    """
    gaps = np.array([1e-7, 3e-6, 1e-4, 1e-2, 0.5, 3.0, 20.0, 400.0])
    q = np.stack([np.full_like(gaps, 0.3), 0.3 + gaps], axis=1)
    sk = _checked_kernel(q)
    g = q[:, 1] - q[:, 0]
    diag = np.array([2.0 / -math.expm1(-2.0 * x) for x in g])
    off = np.array([-1.0 / math.sinh(x) for x in g])
    np.testing.assert_allclose(2.0 + sk.gap_diag[0], diag, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(sk.gap_off[0], off, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("count", range(1, 9))
def test_condition_bound_dominates_eigenvalue_ratio(count):
    rng = np.random.default_rng(400 + count)
    for scale in (2.0, 0.5, 0.05):
        q = rng.permuted(spread_positions(rng, 16, count, scale=scale), axis=1)
        eig = np.linalg.eigvalsh(kernel_matrix(q))
        ratio = np.max(eig) / np.min(eig)
        # equal in exact arithmetic for A = 2; allow for the rounding of both sides
        assert _checked_kernel(q).cond >= ratio * (1.0 - 1e-12)


def test_condition_bound_is_exact_for_a_pair():
    rng = np.random.default_rng(402)
    q = rng.permuted(spread_positions(rng, 16, 2, scale=0.3), axis=1)
    e = math.exp(-_min_gap(q))
    expect = (1.0 + e) / (1.0 - e)
    assert abs(_checked_kernel(q).cond - expect) <= 1e-12 * expect


def test_lone_peakon_kernel_has_no_gaps_and_unit_bound():
    """A = 1 takes the general path: K = 1/2, no gap tables, condition bound exactly 1."""
    sk = _checked_kernel(np.random.default_rng(403).standard_normal((16, 1)))
    np.testing.assert_array_equal(sk.kmat, np.full((1, 1, 16), K0))
    assert sk.gap_diag.shape == sk.gap_off.shape == (0, 16)
    assert sk.cond == 1.0


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
    res = s_constraint_residual(st.q, st.n, DerivativeStencil(2, TWO_PI / n_nodes))
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
    good = s_constraint_residual(q, n, sten)
    assert np.max(np.abs(good)) < 1e-3
    corrupted = s_constraint_residual(q, 2.0 * n, sten)
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
