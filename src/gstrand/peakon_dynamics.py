"""Singular (peakon) solutions of the strand system on the real line.

Each of the N_s strand nodes carries A peakons with positions Q, momenta M
(time direction) and N (space direction).  Interactions run through the
Green's function K(x, y) = exp(-|x - y|)/2 of the Helmholtz operator
1 - d^2/dx^2, so velocity fields are u = sum_a M_a K(x, Q^a) and
v = -sum_a N_a K(x, Q^a).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, SingularConfigurationError
from .stencil import DerivativeStencil

K0 = 0.5
MIN_GAP = 1e-8
CONDITION_LIMIT = 1e12
MAX_PEAKONS = 8
MIN_NODES = 8


def kernel(x, y):
    """Peaked kernel K(x, y) = exp(-|x - y|)/2, broadcasting over arrays."""
    return K0 * np.exp(-np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


def kernel_matrix(q):
    """Pairwise kernel matrix K[..., a, b] = K(Q^a, Q^b); symmetric positive definite."""
    q = np.asarray(q, dtype=float)
    return kernel(q[..., :, None], q[..., None, :])


def kernel_deriv(q):
    """Derivative table D[..., a, c] = dK(Q^a, Q^c)/dQ^a with zero diagonal.

    Off the diagonal this is -sign(Q^a - Q^c) exp(-|Q^a - Q^c|)/2; the
    diagonal is set to zero, matching the mean of the two one-sided kernel
    slopes at the peak.
    """
    q = np.asarray(q, dtype=float)
    diff = q[..., :, None] - q[..., None, :]
    return -K0 * np.sign(diff) * np.exp(-np.abs(diff))


def _min_gap(q):
    a = q.shape[-1]
    if a < 2:
        return np.inf
    iu = np.triu_indices(a, k=1)
    diff = np.abs(q[..., :, None] - q[..., None, :])
    return float(np.min(diff[..., iu[0], iu[1]]))


def _check_gap(q):
    gap = _min_gap(q)
    if gap < MIN_GAP:
        raise SingularConfigurationError(
            f"coincident peakons: minimum position gap {gap:.3e} < {MIN_GAP:.1e}"
        )


@dataclass
class PeakonState:
    """Positions and momenta of A peakons at each of N_s strand nodes."""

    length: float
    q: np.ndarray
    m: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"strand length must be positive, got {self.length}")
        self.q = np.asarray(self.q, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.n = np.asarray(self.n, dtype=float)
        if self.q.ndim != 2:
            raise ValueError(f"q must have shape (N_s, A), got {self.q.shape}")
        n_nodes, count = self.q.shape
        if n_nodes < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} strand nodes, got {n_nodes}")
        if not 1 <= count <= MAX_PEAKONS:
            raise ValueError(f"peakon count must be in [1, {MAX_PEAKONS}], got {count}")
        for name, f in (("q", self.q), ("m", self.m), ("n", self.n)):
            if f.shape != (n_nodes, count):
                raise ValueError(f"{name} must have shape {(n_nodes, count)}, got {f.shape}")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"{name} contains non-finite entries")
        _check_gap(self.q)

    @property
    def n_nodes(self):
        return self.q.shape[0]

    @property
    def count(self):
        return self.q.shape[1]

    @property
    def ds(self):
        return self.length / self.n_nodes

    @property
    def grid(self):
        return np.arange(self.n_nodes) * self.ds


def _checked_kernel(q):
    """Kernel matrices with singularity and conditioning guards."""
    count = q.shape[-1]
    _check_gap(q)
    kmat = kernel_matrix(q)
    if count > 1:
        eig = np.linalg.eigvalsh(kmat)
        lo = float(np.min(eig))
        hi = float(np.max(eig))
        if lo <= 0.0:
            raise ConditioningError(f"kernel matrix not positive definite: min eigenvalue {lo:.3e}")
        cond = hi / lo
        if cond > CONDITION_LIMIT:
            raise ConditioningError(
                f"kernel matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
            )
    return kmat


def _spd_solve(kmat, rhs):
    """Cholesky solve of K y = rhs batched over nodes; K shaped (N_s, A, A)."""
    try:
        chol = np.linalg.cholesky(kmat)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"kernel matrix not positive definite: {exc}") from exc
    count = kmat.shape[-1]
    z = np.empty_like(rhs)
    for i in range(count):
        acc = rhs[:, i].copy()
        for j in range(i):
            acc -= chol[:, i, j] * z[:, j]
        z[:, i] = acc / chol[:, i, i]
    y = np.empty_like(rhs)
    for i in reversed(range(count)):
        acc = z[:, i].copy()
        for j in range(i + 1, count):
            acc -= chol[:, j, i] * y[:, j]
        y[:, i] = acc / chol[:, i, i]
    return y


def peakon_rhs(q, m, n, stencil: DerivativeStencil):
    """Node-wise time derivatives (dq, dm, dn) of the peakon system.

    dQ^a/dt   = sum_b M_b K^{ab}
    dM_a/dt   = -d_s N_a - sum_c (M_a M_c - N_a N_c) D^{ac}
    dN_a/dt   = -d_s M_a + K^{-1} G, with
    G_e       = sum_{b,c} (N_b M_c - M_b N_c) D^{ec} (K^{eb} - K^{cb}).

    Takes the (N_s, A) arrays q, m, n without re-validating them; the
    coincidence and conditioning guards run once, in ``_checked_kernel``.
    The space-slope relation d_s Q^a = -sum_b N_b K^{ab} is not imposed here;
    see ``s_constraint_residual`` for the matching diagnostic.
    """
    kmat = _checked_kernel(q)
    deriv = kernel_deriv(q)

    km = np.einsum("nab,nb->na", kmat, m)
    kn = np.einsum("nab,nb->na", kmat, n)
    dm_sum = np.einsum("nac,nc->na", deriv, m)
    dn_sum = np.einsum("nac,nc->na", deriv, n)

    dq = km
    dm = -stencil(n) - (m * dm_sum - n * dn_sum)
    g = (
        kn * dm_sum
        - np.einsum("nec,nc->ne", deriv, m * kn)
        - km * dn_sum
        + np.einsum("nec,nc->ne", deriv, n * km)
    )
    dn = -stencil(m) + _spd_solve(kmat, g)
    return dq, dm, dn


def s_constraint_residual(state: PeakonState, stencil: DerivativeStencil):
    """Residual field d_s Q^a + sum_b N_b K^{ab} of the space-slope relation."""
    kn = np.einsum("nab,nb->na", kernel_matrix(state.q), state.n)
    return stencil(state.q) + kn


@dataclass(frozen=True)
class FieldSample:
    """Velocity fields reconstructed from one strand node's peakons."""

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    m_atoms: tuple
    n_atoms: tuple


def reconstruct_fields(q_node, m_node, n_node, x_grid) -> FieldSample:
    """Evaluate u = sum M_a K(x, Q^a) and v = -sum N_a K(x, Q^a) on x_grid."""
    q = np.asarray(q_node, dtype=float)
    m = np.asarray(m_node, dtype=float)
    n = np.asarray(n_node, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    kx = kernel(x[:, None], q[None, :])
    return FieldSample(
        x=x,
        u=kx @ m,
        v=-(kx @ n),
        m_atoms=tuple(zip(q.tolist(), m.tolist())),
        n_atoms=tuple(zip(q.tolist(), n.tolist())),
    )
