"""Lax connections and zero-curvature residual monitors.

A connection stores the spatial and temporal potentials (U, V) of a linear
system psi_s = U psi, psi_t = V psi at every strand node.  Along solutions
of the matching model the curvature U_t - V_s + [U, V] vanishes, so its
discrete residual measured over stored snapshots is a convergence
diagnostic for the integrator.

The integrable models' equations are the compatibility condition of their
pairs, so the discrete curvature at the middle of three levels spaced dt
apart is a fixed linear image of the method-of-lines residual
R = (y_{k+1} - y_{k-1}) / (2 dt) - f(y_k), f the model's right-hand side:

- chiral pair: hat(r), r = (a - b) R_u - (a + b) R_v (``_chiral_residual_max``);
- spin-chain compatibility relation v_t - u_s + u x v: R_v itself;
- so(4) pair of the anisotropic model at the doubled fields:
  embed_so4(2 R_v, 2 R_u)(lam Id + J) (``_aniso_curvature_max``).

Each holds to round-off on any data, not only along solutions.  The
harness's centered diagnostics are their one implementation: bound once per
run, they read R from the derivative its RK4 step already took.
``chiral_lax``, ``aniso_lax`` and ``zero_curvature_residual`` form the
curvature from the fields and stay as the oracles; the spin chain's
whole-trajectory residual is a test oracle (``tests/oracles.py``).
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import ANTISYMMETRY_TOL, build_J, embed_so4, hat
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
    ((a, b),) = _chiral_coefficients((lam,))
    diff = hat(u - v)
    summ = hat(u + v)
    return LaxConnection(
        U_field=a * diff - b * summ,
        V_field=-a * diff - b * summ,
        lam=lam,
        algebra_dim=3,
    )


def aniso_lax(u, v, lam: float, p) -> LaxConnection:
    """4x4 pair of the anisotropic model at the (N_s, 3) fields u, v.

    space = A(v, u)(lam Id + J), time = A(u, v)(lam Id + J) with the diagonal
    weight J built from P, the (3,) diagonal of the coupling weights.  The
    compatibility condition of this pair matches the model with its quadratic
    terms halved; along trajectories of ``aniso_rhs_uv`` the curvature
    therefore vanishes for the connection evaluated at the doubled fields
    (2u, 2v), which is what ``run_scenario`` monitors.
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


def _predicted(previous, rate, dt):
    """previous + 2 dt rate, the leapfrog prediction of the next level, in a fresh array."""
    out = rate * (2.0 * dt)
    out += previous
    return out


def _chiral_coefficients(lambdas):
    """(a, b) = ((1 + lam)/4, (1 + 1/lam)/4) of ``chiral_lax``, for each lam.

    A parameter of 0, or so close to 0 that 1/lam overflows, is a ValueError.
    """
    coeffs = []
    for lam in lambdas:
        if lam == 0.0:
            raise ValueError("spectral parameter must be nonzero for the chiral pair")
        a = 0.25 * (1.0 + lam)
        b = 0.25 * (1.0 + 1.0 / lam)
        if not math.isfinite(b):
            raise ValueError(f"spectral parameter {lam!r} is too close to 0 for the chiral pair")
        coeffs.append((a, b))
    return coeffs


def _chiral_residual_max(residual, coeffs, dt):
    """max |r| / (2 dt), r = (a - b) e_u - (a + b) e_v, for each of ``coeffs``: the
    max norm of the chiral curvature hat(r), its cross terms cancelled by a + b = 4ab.

    ``residual`` holds e = 2 dt R, the packed (e_u, e_v); r is formed in two
    (N_s, 3) buffers that every coefficient reuses.
    """
    e_u, e_v = residual
    r = np.empty_like(e_u)
    term = np.empty_like(e_u)
    maxes = []
    for a, b in coeffs:
        np.multiply(a - b, e_u, out=r)
        np.multiply(a + b, e_v, out=term)
        r -= term
        np.abs(r, out=r)
        maxes.append(np.maximum.reduce(r, axis=None) / (2.0 * dt))
    return maxes


def _aniso_weights(lambdas, p):
    """|w_j| = |lam + J_jj| of W = lam Id + J, J_jj formed as ``build_J`` forms it, per lam."""
    p0, p1, p2 = p.tolist()
    diagonal = [-0.5 * p0, -0.5 * p1, -0.5 * p2, -0.5 * ((p0 + p1) + p2)]
    return [[abs(lam + j) for j in diagonal] for lam in lambdas]


def _aniso_curvature_max(residual, weights, dt):
    """Max-norm so(4) curvature of ``aniso_lax`` at the doubled fields, for each
    lam, given its ``_aniso_weights``.

    ``residual`` holds e = 2 dt R, the packed residual of ``aniso_rhs_uv``.
    Along the doubled fields the curvature is embed_so4(2 R_v, 2 R_u) W with
    the diagonal W = lam Id + J, whose entry (i, j) is an embedded component
    times w_j: component k of 2 R_v sits in the columns j != k of the so(3)
    block, component i of 2 R_u in column 3 and in row 3, column i.  So the
    max norm is the largest of max |2 R_v[k]| |w_j|, j != k, and
    max |2 R_u[i]| max(|w_i|, |w_3|), with 2 R = e / dt; no 4x4 matrix is
    formed.
    """
    (peak_u, peak_v) = np.max(np.abs(residual), axis=1).tolist()
    out = []
    for w in weights:
        block = max(peak_v[k] * w[j] for k in range(3) for j in range(3) if j != k)
        edge = max(peak_u[i] * max(w[i], w[3]) for i in range(3))
        out.append(max(block, edge) / dt)
    return out


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
    """Per-node |X|^2 and |Y|^2 of one (X, Y) level.

    Each is (x0^2 + x1^2) + x2^2, the order of numpy's reduce over a
    length-3 axis, so it equals ``np.sum(f * f, axis=1)`` bit for bit, but
    from one product pass and two column sums instead of N_s inner loops of
    length 3.
    """
    out = []
    for f in pair:
        sq = f * f
        out.append((sq[:, 0] + sq[:, 1]) + sq[:, 2])
    return out


def _magnitude_drift(base, magnitudes):
    """Max |m - m0| over nodes of each ``_node_magnitudes`` pair against ``base``."""
    return [np.max(np.abs(m - m0)) for m, m0 in zip(magnitudes, base)]
