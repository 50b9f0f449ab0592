"""Unit tests for the so(3)/so(4) vector-matrix helper layer."""

import numpy as np
import pytest

from gstrand import (
    ad,
    ad_star_so3,
    build_J,
    embed_so4,
    extract_so4,
    hat,
    pairing,
    unhat,
)
from gstrand.algebra import _cross, _subtract_cross

E1, E2, E3 = np.eye(3)


def test_hat_basis_matrix():
    expected = np.array([
        [0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    np.testing.assert_array_equal(hat([0.0, 0.0, 1.0]), expected)


def test_hat_zero():
    np.testing.assert_array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_acts_as_cross_product():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((40, 3))
    w = rng.standard_normal((40, 3))
    got = np.einsum("nij,nj->ni", hat(u), w)
    np.testing.assert_allclose(got, np.cross(u, w), rtol=0.0, atol=1e-14)


def test_hat_unhat_round_trip():
    rng = np.random.default_rng(12)
    u = rng.standard_normal((50, 3))
    np.testing.assert_array_equal(unhat(hat(u)), u)


def test_unhat_rejects_non_antisymmetric():
    with pytest.raises(ValueError, match="not antisymmetric"):
        unhat(np.eye(3))


def test_unhat_rejects_wrong_shape():
    with pytest.raises(ValueError):
        unhat(np.zeros((4, 4)))


def test_ad_is_cross_product():
    np.testing.assert_array_equal(ad(E1, E2), E3)
    np.testing.assert_array_equal(ad([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), [-3.0, 6.0, -3.0])


def assert_bitwise(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _cross_cases():
    rng = np.random.default_rng(21)
    wide = rng.standard_normal((7, 16, 6))
    special = np.array([[-0.0, 5e-324, 1e300], [np.inf, -1e-300, 2.0]])
    return {
        "vectors": (rng.standard_normal(3), rng.standard_normal(3)),
        "fields": (rng.standard_normal((16, 3)), rng.standard_normal((16, 3))),
        "trajectories": (rng.standard_normal((7, 16, 3)), rng.standard_normal((7, 16, 3))),
        "vector-field": (rng.standard_normal(3), rng.standard_normal((16, 3))),
        "field-vector": (rng.standard_normal((16, 3)), rng.standard_normal(3)),
        "strided": (wide[:, :, ::2], wide[::-1, :, 1::2]),
        "fortran": (np.asfortranarray(wide[0, :, :3]), wide[1, :, 3:]),
        "special": (special, special[::-1]),
        "parallel": (wide[0, :, :3], 2.0 * wide[0, :, :3]),  # +0.0, never -0.0
        "integer lists": (np.arange(6).reshape(2, 3).tolist(), [[1, 0, 2]]),
    }


@pytest.mark.parametrize("case", sorted(_cross_cases()))
def test_cross_bitwise_equals_numpy(case):
    a, b = _cross_cases()[case]
    with np.errstate(invalid="ignore"):
        assert_bitwise(_cross(a, b), np.cross(a, b))


def assignment_cross(a, b):
    """The component cross product as it was before each difference was
    written into its output slot: broadcast shape always computed, each
    component assigned from a temporary."""
    a = np.asarray(a)
    b = np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


@pytest.mark.parametrize("case", sorted(_cross_cases()))
def test_cross_bitwise_equals_assignment_form(case):
    a, b = _cross_cases()[case]
    with np.errstate(invalid="ignore"):
        assert_bitwise(_cross(a, b), assignment_cross(a, b))


def test_cross_signed_zeros_match_assignment_form():
    """Packed (2, N_s, 3) operands with +-0.0 entries, equal shapes and broadcast."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 32, 3))
    b = rng.standard_normal((2, 32, 3))
    for x in (a, b):
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] = -0.0
    for left, right in ((a, b), (a, b[::-1]), (a, b[1]), (a[0], b), (a[::-1], a)):
        got, want = _cross(left, right), assignment_cross(left, right)
        assert_bitwise(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("case", sorted(name for name, (a, b) in _cross_cases().items()
                                         if np.shape(a) == np.shape(b)))
def test_subtract_cross_bitwise_equals_subtracting_the_cross_product(case):
    """out -= a x b in place keeps the bits of out - _cross(a, b), +-0.0 included."""
    a, b = _cross_cases()[case]
    rng = np.random.default_rng(22)
    out = rng.standard_normal(np.shape(a))
    out[rng.random(out.shape) < 0.3] = -0.0
    with np.errstate(invalid="ignore"):
        want = out - _cross(a, b)
        got = _subtract_cross(out, np.asarray(a), np.asarray(b))
    assert got is out
    assert_bitwise(got, want)


@pytest.mark.parametrize("length", [2, 4])
def test_cross_rejects_non_3_vectors(length):
    a = np.ones((5, length))
    for op in (_cross, ad, ad_star_so3):
        with pytest.raises(ValueError, match="3-vectors"):
            op(a, a)
        with pytest.raises(ValueError, match="3-vectors"):
            op(np.ones(3), a)


@pytest.mark.parametrize("case", ["vectors", "fields", "trajectories", "vector-field"])
def test_ad_and_coadjoint_match_numpy_cross(case):
    u, w = _cross_cases()[case]
    assert_bitwise(ad(u, w), np.cross(u, w))
    assert_bitwise(ad_star_so3(u, w), np.cross(w, u))


def test_ad_self_vanishes():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((10, 3))
    np.testing.assert_array_equal(ad(u, u), np.zeros_like(u))


def test_ad_matches_matrix_commutator():
    """hat(u x w) = [hat u, hat w] on 1000 random pairs."""
    rng = np.random.default_rng(42)
    u = rng.standard_normal((1000, 3))
    w = rng.standard_normal((1000, 3))
    comm = hat(u) @ hat(w) - hat(w) @ hat(u)
    np.testing.assert_allclose(hat(ad(u, w)), comm, rtol=0.0, atol=1e-12)


def test_pairing_equals_dot():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((1000, 3))
    w = rng.standard_normal((1000, 3))
    np.testing.assert_allclose(
        pairing(hat(u), hat(w)), np.sum(u * w, axis=-1), rtol=0.0, atol=1e-12
    )


def test_pairing_unit_norm():
    assert pairing(hat(E3), hat(E3)) == 1.0


def test_ad_star_basis():
    # ad*_u m = m x u, not u x m
    np.testing.assert_array_equal(ad_star_so3(E1, E2), -E3)


def test_ad_star_is_adjoint_of_ad():
    """<ad*_u m, w> = <m, ad_u w> on 1000 random triples."""
    rng = np.random.default_rng(2024)
    u, m, w = rng.standard_normal((3, 1000, 3))
    lhs = np.sum(ad_star_so3(u, m) * w, axis=-1)
    rhs = np.sum(m * ad(u, w), axis=-1)
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_embed_so4_layout():
    a = embed_so4([0.0, 0.0, 1.0], np.zeros(3))
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    np.testing.assert_array_equal(a, expected)

    b = embed_so4(np.zeros(3), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(b[:3, 3], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(b[3, :3], [-1.0, -2.0, -3.0])
    np.testing.assert_array_equal(b[:3, :3], np.zeros((3, 3)))


def explicit_so4(u, v):
    """The 16 entries of ``embed_so4`` written out one by one."""
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    z = np.zeros(u.shape[:-1])
    rows = [
        [z, u3, -u2, v1],
        [-u3, z, u1, v2],
        [u2, -u1, z, v3],
        [-v1, -v2, -v3, z],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def test_embed_so4_bitwise_equals_explicit_layout():
    """Every sign and every zero, +-0.0 components included; the diagonal,
    corner (3, 3) included, is +0.0."""
    rng = np.random.default_rng(31)
    u = rng.standard_normal((64, 3))
    v = rng.standard_normal((64, 3))
    for x in (u, v):
        x[rng.random(x.shape) < 0.3] = 0.0
        x[rng.random(x.shape) < 0.3] = -0.0
    u[0], v[0] = -0.0, -0.0
    u[1], v[1] = 0.0, 0.0
    got = embed_so4(u, v)
    assert_bitwise(got, explicit_so4(u, v))
    assert not np.any(np.signbit(np.diagonal(got, axis1=-2, axis2=-1)))


def test_embed_extract_round_trip():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((20, 3))
    v = rng.standard_normal((20, 3))
    a = embed_so4(u, v)
    assert a.shape == (20, 4, 4)
    np.testing.assert_array_equal(a, -np.swapaxes(a, -1, -2))
    u2, v2 = extract_so4(a)
    np.testing.assert_array_equal(u2, u)
    np.testing.assert_array_equal(v2, v)


def test_extract_rejects_non_antisymmetric():
    with pytest.raises(ValueError, match="not antisymmetric"):
        extract_so4(np.eye(4))


def test_embed_bracket_closure():
    """Commutators of embedded pairs stay antisymmetric and round-trip."""
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = embed_so4(rng.standard_normal(3), rng.standard_normal(3))
        b = embed_so4(rng.standard_normal(3), rng.standard_normal(3))
        c = a @ b - b @ a
        np.testing.assert_allclose(c, -c.T, rtol=0.0, atol=1e-12)
        u, v = extract_so4(c)
        np.testing.assert_allclose(embed_so4(u, v), c, rtol=0.0, atol=1e-12)


def test_build_J_values():
    np.testing.assert_array_equal(build_J(np.array([1.0, 2.0, 3.0])),
                                  np.diag([-0.5, -1.0, -1.5, -3.0]))


def test_build_J_isotropic():
    np.testing.assert_array_equal(build_J(np.ones(3)), np.diag([-0.5, -0.5, -0.5, -1.5]))
