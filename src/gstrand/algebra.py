"""so(3) vector calculus and the so(3)+so(3) embedding into so(4).

Vectors in R^3 are identified with antisymmetric 3x3 matrices through
``hat``/``unhat``.  Under this identification the matrix commutator is the
cross product and the trace pairing <m, n> = tr(m^T n)/2 is the Euclidean
dot product, so adjoint and coadjoint actions reduce to cross products.
"""

import math
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
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape, np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
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


@dataclass(frozen=True)
class DiagonalParams:
    """Diagonal 3x3 operator tagged with its role in the strand models.

    Roles: "inertia-A" and "inertia-B" (invertible inertia operators of the
    spin-chain Lagrangian) or "anisotropy-P" (coupling weights of the
    anisotropic model, allowed to be singular).

    ``apply`` and ``solve`` multiply and divide fields of N_s nodes by the
    diagonal tiled to (N_s, 3), formed once per node count, so numpy runs
    one inner loop over the whole field instead of N_s loops of length 3;
    the products and quotients are those of the plain broadcast.
    ``diagonal`` is the object's own read-only copy, so no tiled operand
    goes stale.
    """

    diagonal: np.ndarray
    role: str

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=float)
        if diag.shape != (3,):
            raise ValueError(f"diagonal must have shape (3,), got {diag.shape}")
        entries = diag.tolist()  # three floats: cheaper to test than through numpy
        if not all(map(math.isfinite, entries)):
            raise ValueError("diagonal entries must be finite")
        if self.role not in DIAGONAL_ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {DIAGONAL_ROLES}")
        singular = 0.0 in entries  # -0.0 included
        if self.role.startswith("inertia") and singular:
            raise ValueError(f"role {self.role!r} requires nonzero diagonal entries")
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "_singular", singular)
        object.__setattr__(self, "_tiled", {})  # node count -> diagonal tiled to (N_s, 3)

    def _operand(self, w):
        """The diagonal, tiled to w's nodes when w holds (N_s, 3) fields."""
        if w.ndim < 2:
            return self.diagonal
        n = w.shape[-2]
        tiled = self._tiled.get(n)
        if tiled is None:
            tiled = self._tiled[n] = np.tile(self.diagonal, (n, 1))
        return tiled

    def apply(self, w):
        """Componentwise product diag * w on trailing axis of length 3."""
        w = np.asarray(w, dtype=float)
        return w * self._operand(w)

    def solve(self, w):
        """Componentwise division, valid only for invertible (inertia) operators."""
        if self._singular:
            raise ValueError("operator is singular")
        w = np.asarray(w, dtype=float)
        return w / self._operand(w)


def build_J(p: DiagonalParams):
    """Diagonal 4x4 weight matrix -diag(P1, P2, P3, P1+P2+P3)/2 of the four-dimensional Lax potentials."""
    if p.role != "anisotropy-P":
        raise ValueError(f"expected anisotropy-P parameters, got role {p.role!r}")
    d = p.diagonal
    return -0.5 * np.diag([d[0], d[1], d[2], d[0] + d[1] + d[2]])
