"""so(3) vector calculus and the so(3)+so(3) embedding into so(4).

Vectors in R^3 are identified with antisymmetric 3x3 matrices through
``hat``/``unhat``.  Under this identification the matrix commutator is the
cross product and the trace pairing <m, n> = tr(m^T n)/2 is the Euclidean
dot product, so adjoint and coadjoint actions reduce to cross products.
"""

from dataclasses import dataclass

import numpy as np

ANTISYMMETRY_TOL = 1e-12

DIAGONAL_ROLES = ("inertia-A", "inertia-B", "anisotropy-P")


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
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
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

    The upper-left 3x3 block carries u with the sign convention fixed by
    entry (0, 1) = u3; the last column carries v.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.zeros(u.shape[:-1] + (4, 4))
    u1, u2, u3 = u[..., 0], u[..., 1], u[..., 2]
    out[..., 0, 1] = u3
    out[..., 0, 2] = -u2
    out[..., 1, 0] = -u3
    out[..., 1, 2] = u1
    out[..., 2, 0] = u2
    out[..., 2, 1] = -u1
    out[..., 0, 3] = v[..., 0]
    out[..., 1, 3] = v[..., 1]
    out[..., 2, 3] = v[..., 2]
    out[..., 3, 0] = -v[..., 0]
    out[..., 3, 1] = -v[..., 1]
    out[..., 3, 2] = -v[..., 2]
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


@dataclass(frozen=True)
class DiagonalParams:
    """Diagonal 3x3 operator tagged with its role in the strand models.

    Roles: "inertia-A" and "inertia-B" (invertible inertia operators of the
    spin-chain Lagrangian) or "anisotropy-P" (coupling weights of the
    anisotropic model, allowed to be singular).
    """

    diagonal: np.ndarray
    role: str

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=float)
        if diag.shape != (3,):
            raise ValueError(f"diagonal must have shape (3,), got {diag.shape}")
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal entries must be finite")
        if self.role not in DIAGONAL_ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {DIAGONAL_ROLES}")
        if self.role.startswith("inertia") and np.any(diag == 0.0):
            raise ValueError(f"role {self.role!r} requires nonzero diagonal entries")
        object.__setattr__(self, "diagonal", diag)

    def apply(self, w):
        """Componentwise product diag * w on trailing axis of length 3."""
        return np.asarray(w, dtype=float) * self.diagonal

    def solve(self, w):
        """Componentwise division, valid only for invertible (inertia) operators."""
        if np.any(self.diagonal == 0.0):
            raise ValueError("operator is singular")
        return np.asarray(w, dtype=float) / self.diagonal


def build_J(p: DiagonalParams):
    """Diagonal 4x4 weight matrix -diag(P1, P2, P3, P1+P2+P3)/2 of the four-dimensional Lax potentials."""
    if p.role != "anisotropy-P":
        raise ValueError(f"expected anisotropy-P parameters, got role {p.role!r}")
    d = p.diagonal
    return -0.5 * np.diag([d[0], d[1], d[2], d[0] + d[1] + d[2]])
