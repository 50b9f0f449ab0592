"""Second implementations that the tests compare the library against.

Each forms from a whole stored trajectory what a run forms level by level,
so a test can check a run's bound diagnostic against an independent copy.
"""

import numpy as np

from gstrand.algebra import _cross
from gstrand.stencil import DerivativeStencil, slot_derivatives


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
    du_ds = slot_derivatives(stencil, u_mid)
    return dv_dt - du_ds + _cross(u_mid, v_mid)
