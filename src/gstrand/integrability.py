"""Lax connections and zero-curvature residual monitors.

A connection stores the spatial and temporal potentials (U, V) of a linear
system psi_s = U psi, psi_t = V psi at every strand node.  Along solutions
of the matching model the curvature U_t - V_s + [U, V] vanishes, so its
discrete residual measured over stored snapshots is a convergence
diagnostic for the integrator.  For the chiral pair, ``chiral_curvature_max``
evaluates that residual in R^3 vector form, three snapshots at a time.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import ANTISYMMETRY_TOL, DiagonalParams, _cross, build_J, embed_so4, hat
from .stencil import DerivativeStencil, slot_derivatives


@dataclass
class LaxConnection:
    """Node-wise potentials of psi_s = U psi, psi_t = V psi at one instant.

    For the three-dimensional (chiral) pair both potentials are antisymmetric
    and the spectral parameter must be nonzero; the four-dimensional pair
    carries a diagonal weight factor, so antisymmetry is not required there.
    """

    U_field: np.ndarray
    V_field: np.ndarray
    lam: float
    algebra_dim: int

    def __post_init__(self):
        if self.algebra_dim not in (3, 4):
            raise ValueError(f"algebra dimension must be 3 or 4, got {self.algebra_dim}")
        u = np.asarray(self.U_field, dtype=float)
        v = np.asarray(self.V_field, dtype=float)
        expect = (self.algebra_dim, self.algebra_dim)
        if u.ndim != 3 or u.shape[1:] != expect or v.shape != u.shape:
            raise ValueError(
                f"potentials must share shape (N_s, {self.algebra_dim}, {self.algebra_dim}), "
                f"got {u.shape} and {v.shape}"
            )
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("potentials contain non-finite entries")
        if self.algebra_dim == 3:
            if self.lam == 0.0:
                raise ValueError("spectral parameter must be nonzero for the 3x3 pair")
            for name, m in (("space", u), ("time", v)):
                defect = np.max(np.abs(m + np.swapaxes(m, -1, -2)))
                if defect > ANTISYMMETRY_TOL:
                    raise ValueError(f"{name} potential not antisymmetric: defect {defect:.3e}")
        self.U_field = u
        self.V_field = v


def chiral_lax(u, v, lam: float) -> LaxConnection:
    """3x3 pair of the chiral model at the (N_s, 3) fields u, v.

    space = [(1 + lam)(hat u - hat v) - (1 + 1/lam)(hat u + hat v)]/4,
    time  = -[(1 + lam)(hat u - hat v) + (1 + 1/lam)(hat u + hat v)]/4.
    At lam = 1 these reduce to (-hat v, -hat u).
    """
    ((a, b, _),) = _chiral_coefficients((lam,))
    diff = hat(u - v)
    summ = hat(u + v)
    return LaxConnection(
        U_field=a * diff - b * summ,
        V_field=-a * diff - b * summ,
        lam=lam,
        algebra_dim=3,
    )


def aniso_lax(u, v, lam: float, p: DiagonalParams) -> LaxConnection:
    """4x4 pair of the anisotropic model at the (N_s, 3) fields u, v.

    space = A(v, u)(lam Id + J), time = A(u, v)(lam Id + J) with the diagonal
    weight J built from the coupling parameters.  The compatibility condition
    of this pair matches the model with its quadratic terms halved; along
    trajectories of ``aniso_rhs_uv`` the curvature therefore vanishes for the
    connection evaluated at the doubled fields (2u, 2v), which is what
    ``run_scenario`` monitors.
    """
    w = lam * np.eye(4) + build_J(p)
    return LaxConnection(
        U_field=embed_so4(v, u) @ w,
        V_field=embed_so4(u, v) @ w,
        lam=lam,
        algebra_dim=4,
    )


@dataclass(frozen=True)
class CurvatureResidual:
    """Max-norm and per-node curvature residual at interior snapshot times."""

    max_norm: float
    fields: np.ndarray


def zero_curvature_residual(
    connections: Sequence[LaxConnection], stencil: DerivativeStencil, dt: float
) -> CurvatureResidual:
    """Discrete curvature D_t U - D_s V + [U, V] over a stored trajectory.

    ``connections`` holds one LaxConnection per snapshot at uniform spacing
    ``dt``; at least three levels are needed for the centered time
    difference.  Returns the residual at the len - 2 interior times.
    """
    if len(connections) < 3:
        raise ValueError("need at least 3 stored time levels")
    lam = connections[0].lam
    dim = connections[0].algebra_dim
    for c in connections:
        if c.lam != lam or c.algebra_dim != dim:
            raise ValueError("connections must share spectral parameter and dimension")
    u = np.stack([c.U_field for c in connections])
    v = np.stack([c.V_field for c in connections])
    du_dt = (u[2:] - u[:-2]) / (2.0 * dt)
    u_mid = u[1:-1]
    v_mid = v[1:-1]
    dv_ds = slot_derivatives(stencil, v_mid)
    comm = u_mid @ v_mid - v_mid @ u_mid
    fields = du_dt - dv_ds + comm
    return CurvatureResidual(max_norm=float(np.max(np.abs(fields))), fields=fields)


def chiral_curvature_max(snapshots, lambdas, stencil: DerivativeStencil, dt: float):
    """Per-time max-norm curvature of the chiral pair, in vector form, streaming.

    ``snapshots`` holds (u, v) pairs of (N_s, 3) fields, such as packed
    (2, N_s, 3) states, at uniform spacing ``dt``.  The pair of
    ``chiral_lax`` is linear in a = (1 + lam)/4 and b = (1 + 1/lam)/4, and
    [hat x, hat y] = hat(x cross y), so its curvature is hat(r) with

        r = a (D_t + D_s) - b (S_t - S_s) - 2ab (D x S),  D = u - v, S = u + v.

    The entries of hat(r) are 0 and +-r_i, so row i of the returned
    (len(lambdas), len(snapshots) - 2) array, max |r| over nodes and
    components at each interior time for ``lambdas[i]``, equals the per-time
    max norm of ``zero_curvature_residual`` over ``chiral_lax`` connections
    up to round-off.  Only three packed (D, S) levels are held at a time and
    no 3x3 matrix is built.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 stored time levels")
    coeffs = _chiral_coefficients(lambdas)
    out = np.empty((len(coeffs), len(snapshots) - 2))
    window = []  # (D, S) at the previous, current and next level
    for k, y in enumerate(snapshots):
        window.append(_chiral_level(y))
        if k < 2:
            continue
        out[:, k - 2] = _chiral_curvature_at(window, coeffs, stencil, dt)
        del window[0]
    return out


def _chiral_level(y):
    """(D, S) = (u - v, u + v) of one (u, v) level, as one (2, N_s, 3) array."""
    out = np.empty_like(y, dtype=float)
    np.subtract(y[0], y[1], out=out[0])
    np.add(y[0], y[1], out=out[1])
    return out


def _chiral_coefficients(lambdas):
    """(a, b, 2ab) of each spectral parameter; see ``chiral_curvature_max``."""
    coeffs = []
    for lam in lambdas:
        if lam == 0.0:
            raise ValueError("spectral parameter must be nonzero for the chiral pair")
        a = 0.25 * (1.0 + lam)
        b = 0.25 * (1.0 + 1.0 / lam)
        coeffs.append((a, b, 2.0 * a * b))
    return coeffs


def _chiral_curvature_at(window, coeffs, stencil, dt):
    """max |r| for each of ``coeffs`` at the middle of three packed (D, S) levels.

    r is formed in two (N_s, 3) buffers that every coefficient reuses.
    """
    first, mid, last = window
    rates = last - first  # (D_t, S_t) once divided
    rates /= 2.0 * dt
    slopes = slot_derivatives(stencil, mid)
    rates[0] += slopes[0]  # x = D_t + D_s
    rates[1] -= slopes[1]  # w = S_t - S_s
    del slopes
    x, w = rates
    z = _cross(mid[0], mid[1])
    r = np.empty_like(x)
    term = np.empty_like(x)
    maxes = []
    for a, b, ab2 in coeffs:  # r = a x - b w - 2ab z, in that order
        np.multiply(a, x, out=r)
        np.multiply(b, w, out=term)
        r -= term
        np.multiply(ab2, z, out=term)
        r -= term
        np.abs(r, out=r)
        maxes.append(np.max(r))
    return maxes


@dataclass(frozen=True)
class DriftReport:
    """Per-snapshot max drift of the conserved node magnitudes."""

    max_x: float
    max_y: float
    x_series: np.ndarray
    y_series: np.ndarray


def invariant_drift(snapshots) -> DriftReport:
    """Drift of per-node |X|^2, |Y|^2 relative to the first snapshot.

    ``snapshots`` holds (X, Y) pairs of (N_s, 3) fields, such as packed
    (2, N_s, 3) states.
    """
    if len(snapshots) < 2:
        raise ValueError("need at least 2 stored time levels")
    base = _node_magnitudes(snapshots[0])
    xs = np.empty(len(snapshots))
    ys = np.empty(len(snapshots))
    for k, pair in enumerate(snapshots):
        xs[k], ys[k] = _magnitude_drift(base, _node_magnitudes(pair))
    return DriftReport(
        max_x=float(np.max(xs)), max_y=float(np.max(ys)), x_series=xs, y_series=ys
    )


def _node_magnitudes(pair):
    """Per-node |X|^2 and |Y|^2 of one (X, Y) level."""
    return [np.sum(f * f, axis=1) for f in pair]


def _magnitude_drift(base, magnitudes):
    """Max |m - m0| over nodes of each ``_node_magnitudes`` pair against ``base``."""
    return [np.max(np.abs(m - m0)) for m, m0 in zip(magnitudes, base)]
