"""so(3) vector calculus and the so(3)+so(3) embedding into so(4).

Vectors in R^3 are identified with antisymmetric 3x3 matrices through
``hat``/``unhat``.  Under this identification the matrix commutator is the
cross product and the trace pairing <m, n> = tr(m^T n)/2 is the Euclidean
dot product, so adjoint and coadjoint actions reduce to cross products.
"""

import numpy as np

ANTISYMMETRY_TOL = 1e-12


def hat(u):
    """Map a 3-vector (or array of them) to the antisymmetric matrix acting as u x (.)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    out[..., 0, 1] = -u3
    out[..., 0, 2] = u2
    out[..., 1, 0] = u3
    out[..., 1, 2] = -u1
    out[..., 2, 0] = -u2
    out[..., 2, 1] = u1
    return out


def unhat(m):
    """Inverse of ``hat``.  Rejects matrices that are not antisymmetric."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected trailing 3x3 matrix, got shape {m.shape}")
    defect = np.max(np.abs(m + np.swapaxes(m, -1, -2)))
    if defect > ANTISYMMETRY_TOL:
        raise ValueError(f"matrix not antisymmetric: defect {defect:.3e}")
    return np.stack([m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1)


def _cross(a, b):
    """Cross product a x b over the last axis, broadcasting like ``np.cross``.

    Written out in components into ``np.empty``; each component is the same
    two products and one difference that ``np.cross`` forms, so the result is
    bitwise equal to it, without its per-call axis juggling.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValueError(f"cross product needs 3-vectors, got shapes {a.shape} and {b.shape}")
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape, np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def _subtract_cross(out, a, b):
    """out -= a x b over the last axis, in place, for (..., 3) arrays of one shape.

    Each component is the two products and one difference of ``_cross``,
    subtracted from its slot of ``out`` as it is formed, so ``out`` ends
    bitwise equal to ``out - _cross(a, b)`` without holding a (..., 3) product.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c = a1 * b2
    c -= a2 * b1
    out[..., 0] -= c
    c = a2 * b0
    c -= a0 * b2
    out[..., 1] -= c
    c = a0 * b1
    c -= a1 * b0
    out[..., 2] -= c
    return out


def ad(u, w):
    """Adjoint action on so(3) in vector form: ad_u w = u x w."""
    return _cross(u, w)


def ad_star_so3(u, m):
    """Coadjoint action ad*_u m = m x u, the dual of ``ad`` under the trace pairing."""
    return _cross(m, u)


def pairing(m, n):
    """Trace pairing tr(m^T n)/2 of two antisymmetric matrices."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return 0.5 * np.einsum("...ij,...ij->...", m, n)


def embed_so4(u, v):
    """Embed vectors (u, v) as a 4x4 antisymmetric matrix.

    The upper-left 3x3 block is ``hat(-u)``, so entry (0, 1) = u3; the last
    column carries v.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.zeros(u.shape[:-1] + (4, 4))
    out[..., :3, :3] = hat(-u)
    out[..., :3, 3] = v
    out[..., 3, :3] = -v
    return out


def extract_so4(a):
    """Recover (u, v) from the image of ``embed_so4``."""
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing 4x4 matrix, got shape {a.shape}")
    defect = np.max(np.abs(a + np.swapaxes(a, -1, -2)))
    if defect > ANTISYMMETRY_TOL:
        raise ValueError(f"matrix not antisymmetric: defect {defect:.3e}")
    u = np.stack([a[..., 1, 2], a[..., 2, 0], a[..., 0, 1]], axis=-1)
    v = a[..., :3, 3]
    return u, v


def build_J(p):
    """Diagonal 4x4 weight matrix -diag(P1, P2, P3, P1+P2+P3)/2 of the four-dimensional
    Lax potentials, from the (3,) diagonal P."""
    return -0.5 * np.diag([p[0], p[1], p[2], p[0] + p[1] + p[2]])
