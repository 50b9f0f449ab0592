"""Reduced SO(3) strand models on a periodic s-grid.

All fields live on a uniform periodic grid of N_s nodes covering [0, S).
States carry two vector fields u(s), v(s): the time and space angular
velocities of the strand.  Right-hand sides take the (N_s, 3) field arrays
directly, without re-validating them, and return node-wise time
derivatives for method-of-lines integration.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import DiagonalParams, _cross
from .stencil import DerivativeStencil

MIN_NODES = 8  # fewest strand nodes of any model, the peakon system included


def _check_field(name, f, n_nodes=None):
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N_s, 3), got {f.shape}")
    if n_nodes is not None and f.shape[0] != n_nodes:
        raise ValueError(f"{name} has {f.shape[0]} nodes, expected {n_nodes}")
    if f.shape[0] < MIN_NODES:
        raise ValueError(f"{name} needs at least {MIN_NODES} nodes, got {f.shape[0]}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"{name} contains non-finite entries")
    return f


@dataclass
class So3StrandState:
    """Angular velocity fields (u, v) on a periodic strand of length S."""

    length: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"strand length must be positive, got {self.length}")
        self.u = _check_field("u", self.u)
        self.v = _check_field("v", self.v, self.u.shape[0])

    @property
    def n_nodes(self):
        return self.u.shape[0]

    @property
    def ds(self):
        return self.length / self.n_nodes

    @property
    def grid(self):
        return np.arange(self.n_nodes) * self.ds

    def stencil(self, order=2):
        return DerivativeStencil(order=order, ds=self.ds)


@dataclass
class XYState:
    """Counter-propagating combination fields X = u - v, Y = -u - v."""

    length: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"strand length must be positive, got {self.length}")
        self.x = _check_field("x", self.x)
        self.y = _check_field("y", self.y, self.x.shape[0])

    @property
    def n_nodes(self):
        return self.x.shape[0]

    @property
    def ds(self):
        return self.length / self.n_nodes


@dataclass(frozen=True)
class SpinChainParams:
    """Inertia operators of the spin-chain Lagrangian l = (<u, Au> + <v, Bv>)/2."""

    a: DiagonalParams
    b: DiagonalParams

    def __post_init__(self):
        if self.a.role != "inertia-A":
            raise ValueError(f"first operator must have role 'inertia-A', got {self.a.role!r}")
        if self.b.role != "inertia-B":
            raise ValueError(f"second operator must have role 'inertia-B', got {self.b.role!r}")


def spin_chain_rhs(u, v, params: SpinChainParams, stencil: DerivativeStencil):
    """Euler-Poincare spin-chain equations.

    d/dt(Au) + u x (Au) + d/ds(Bv) + v x (Bv) = 0 solved for u_t, together
    with the compatibility equation v_t = u_s + v x u.
    """
    au = params.a.apply(u)
    bv = params.b.apply(v)
    du = -params.a.solve(_cross(u, au) + stencil(bv) + _cross(v, bv))
    dv = stencil(u) + _cross(v, u)
    return du, dv


def chiral_rhs(u, v, stencil: DerivativeStencil):
    """Principal chiral model: u_t = v_s, v_t = u_s - u x v."""
    return stencil(v), stencil(u) - _cross(u, v)


def lie_poisson_rhs_spin_chain(m_field, v_field, params: SpinChainParams, stencil: DerivativeStencil):
    """Lie-Poisson form of the spin chain in momentum variables m = Au.

    m_t = ad*_{dh/dm} m + d/ds(dh/dv) - ad*_v(dh/dv) and
    v_t = d/ds(dh/dm) - ad_{dh/dm} v, with variational derivatives
    dh/dm = A^{-1} m and dh/dv = -Bv.
    """
    m = np.asarray(m_field, dtype=float)
    v = np.asarray(v_field, dtype=float)
    dh_dm = params.a.solve(m)
    dh_dv = -params.b.apply(v)
    dm = _cross(m, dh_dm) + stencil(dh_dv) - _cross(dh_dv, v)
    dv = stencil(dh_dm) - _cross(dh_dm, v)
    return dm, dv


def aniso_rhs_uv(u, v, p: DiagonalParams, stencil: DerivativeStencil):
    """Anisotropic chiral model in (u, v) variables with coupling weights P.

    u_t = v_s - v x (Pv) + u x (Pu)
    v_t = u_s - u x (Pv) + v x (Pu)
    """
    if p.role != "anisotropy-P":
        raise ValueError(f"expected anisotropy-P parameters, got role {p.role!r}")
    pu = p.apply(u)
    pv = p.apply(v)
    du = stencil(v) - _cross(v, pv) + _cross(u, pu)
    dv = stencil(u) - _cross(u, pv) + _cross(v, pu)
    return du, dv


def to_XY(state: So3StrandState) -> XYState:
    """Change of variables X = u - v, Y = -u - v."""
    return XYState(length=state.length, x=state.u - state.v, y=-state.u - state.v)


def from_XY(xy: XYState) -> So3StrandState:
    """Inverse change of variables u = (X - Y)/2, v = -(X + Y)/2."""
    return So3StrandState(length=xy.length, u=0.5 * (xy.x - xy.y), v=-0.5 * (xy.x + xy.y))


def aniso_rhs_XY(x, y, p: DiagonalParams, stencil: DerivativeStencil):
    """Anisotropic chiral model in the counter-propagating variables.

    X_t = -X_s - X x (PY),  Y_t = +Y_s + Y x (PX).

    This is the push-forward of ``aniso_rhs_uv`` through ``to_XY``; both
    cross terms are orthogonal to their field, so per-node |X|^2 and |Y|^2
    ride along the two transport characteristics unchanged.
    """
    if p.role != "anisotropy-P":
        raise ValueError(f"expected anisotropy-P parameters, got role {p.role!r}")
    dx = -stencil(x) - _cross(x, p.apply(y))
    dy = stencil(y) + _cross(y, p.apply(x))
    return dx, dy


def compatibility_residual(u_snaps, v_snaps, stencil: DerivativeStencil, dt: float):
    """Discrete residual of the strand compatibility relation v_t - u_s + u x v = 0.

    Takes trajectories shaped (T, N_s, 3) sampled at uniform spacing dt and
    returns the residual field at the T - 2 interior times, using centered
    differences in t.  Both the spin chain and the chiral model satisfy this
    relation, so the residual converges to zero along their trajectories.
    """
    u = np.asarray(u_snaps, dtype=float)
    v = np.asarray(v_snaps, dtype=float)
    if u.ndim != 3 or u.shape != v.shape:
        raise ValueError("need matching (T, N_s, 3) trajectories")
    if u.shape[0] < 3:
        raise ValueError("need at least 3 stored time levels")
    dv_dt = (v[2:] - v[:-2]) / (2.0 * dt)
    u_mid = u[1:-1]
    v_mid = v[1:-1]
    du_ds = np.stack([stencil(u_k) for u_k in u_mid])
    return dv_dt - du_ds + _cross(u_mid, v_mid)
