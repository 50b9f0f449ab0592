"""Reduced SO(3) strand models on a periodic s-grid.

All fields live on a uniform periodic grid of N_s nodes covering [0, S).
States carry two vector fields u(s), v(s): the time and space angular
velocities of the strand.  Right-hand sides take the packed state, one
(2, N_s, 3) array holding both fields, without re-validating it, and return
the node-wise time derivatives of both fields as one packed array for
method-of-lines integration.  The chiral and anisotropic right-hand sides
differentiate both fields in one stencil call on the node-first view (see
``stencil.slot_derivatives``) and form each pair of slot-for-slot cross
terms in one ``_cross`` call.  The diagonal operators (the spin chain's
inertia A and B, the anisotropic weights P) are plain float arrays, (3,) or
tiled to (N_s, 3), checked once by the config; a right-hand side multiplies
and divides by them as they are.
"""

import numpy as np

from .algebra import _cross
from .stencil import DerivativeStencil, slot_derivatives

MIN_NODES = 8  # fewest strand nodes of any model, the peakon system included


def spin_chain_rhs(y, a, b, stencil: DerivativeStencil):
    """Euler-Poincare spin-chain equations on the packed state y = (u, v).

    d/dt(Au) + u x (Au) + d/ds(Bv) + v x (Bv) = 0 solved for u_t, together
    with the compatibility equation v_t = u_s + v x u.  Returns (u_t, v_t)
    as one (2, N_s, 3) array.
    """
    u, v = y
    au = u * a
    bv = v * b
    out = np.empty_like(y, dtype=float)
    np.negative((_cross(u, au) + stencil(bv) + _cross(v, bv)) / a, out=out[0])
    np.add(stencil(u), _cross(v, u), out=out[1])
    return out


def chiral_rhs(y, stencil: DerivativeStencil):
    """Principal chiral model on the packed state y = (u, v):
    u_t = v_s, v_t = u_s - u x v, returned as one (2, N_s, 3) array."""
    out = slot_derivatives(stencil, y[::-1])
    out[1] -= _cross(y[0], y[1])
    return out


def lie_poisson_rhs_spin_chain(y, a, b, stencil: DerivativeStencil):
    """Lie-Poisson form of the spin chain on the packed state y = (m, v), m = Au.

    m_t = ad*_{dh/dm} m + d/ds(dh/dv) - ad*_v(dh/dv) and
    v_t = d/ds(dh/dm) - ad_{dh/dm} v, with variational derivatives
    dh/dm = A^{-1} m and dh/dv = -Bv.  Returns (m_t, v_t) as one
    (2, N_s, 3) array.
    """
    m, v = np.asarray(y, dtype=float)
    dh_dm = m / a
    dh_dv = -(v * b)
    out = np.empty((2,) + m.shape)
    np.subtract(_cross(m, dh_dm) + stencil(dh_dv), _cross(dh_dv, v), out=out[0])
    np.subtract(stencil(dh_dm), _cross(dh_dm, v), out=out[1])
    return out


def aniso_rhs_uv(y, p, stencil: DerivativeStencil):
    """Anisotropic chiral model with coupling weights P on the packed state
    y = (u, v), returned as one (2, N_s, 3) array:

    u_t = v_s - v x (Pv) + u x (Pu)
    v_t = u_s - u x (Pv) + v x (Pu)
    """
    py = y * p
    out = slot_derivatives(stencil, y[::-1])
    out -= _cross(y[::-1], py[1])
    out += _cross(y, py[0])
    return out


def aniso_rhs_XY(y, p, stencil: DerivativeStencil):
    """Anisotropic chiral model in the counter-propagating variables, on the
    packed state y = (X, Y), returned as one (2, N_s, 3) array:

    X_t = -X_s - X x (PY),  Y_t = +Y_s + Y x (PX).

    This is the push-forward of ``aniso_rhs_uv`` through X = u - v,
    Y = -u - v (inversely u = (X - Y)/2, v = -(X + Y)/2); both cross terms are orthogonal to their field, so per-node |X|^2 and |Y|^2
    ride along the two transport characteristics unchanged.
    """
    out = slot_derivatives(stencil, y)
    cross = _cross(y, y[::-1] * p)
    np.negative(out[0], out=out[0])
    out[0] -= cross[0]
    out[1] += cross[1]
    return out
