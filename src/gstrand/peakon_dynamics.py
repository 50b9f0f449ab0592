"""Singular (peakon) solutions of the strand system on the real line.

Each of the N_s strand nodes carries A peakons with positions Q, momenta M
(time direction) and N (space direction).  Interactions run through the
Green's function K(x, y) = exp(-|x - y|)/2 of the Helmholtz operator
1 - d^2/dx^2, so velocity fields are u = sum_a M_a K(x, Q^a) and
v = -sum_a N_a K(x, Q^a).
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConditioningError, SingularConfigurationError
from .so3_dynamics import MIN_NODES
from .stencil import DerivativeStencil

K0 = 0.5
MIN_GAP = 1e-8
CONDITION_LIMIT = 1e12
MAX_PEAKONS = 8


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


def _gaps(qs):
    """Adjacent gaps g_i = x_{i+1} - x_i of sorted positions and their minimum.

    ``qs`` holds the positions of each node sorted along axis 0, the peakon
    axis.  The minimum is inf when there is no gap (A = 1); ``abs`` only
    turns the -0.0 of a sorted pair (0.0, -0.0) into 0.0.
    """
    gaps = qs[1:] - qs[:-1]
    return gaps, (abs(float(gaps.min())) if gaps.size else np.inf)


def _min_gap(q):
    """Smallest distance between two peakons of one node of q (N_s, A), over all nodes.

    Rounded subtraction is monotone, so the smallest adjacent difference of
    the per-node sorted positions equals the all-pairs minimum exactly.
    """
    return _gaps(np.sort(q, axis=-1).T)[1]


def _check_gap(gap):
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
        _check_gap(_min_gap(self.q))


class SortedKernel(NamedTuple):
    """The kernel at one set of positions, in the per-node sorted frame.

    Arrays put the node axis last, so every operation runs over all N_s
    nodes at once, whatever A is.  Row a of the frame holds the a-th peakon
    from the left.  When every node's positions strictly increase with the
    peakon label, the frame is the transpose of the caller's (N_s, A)
    fields and ``index`` is None.  Otherwise ``index`` (A N_s,) holds flat
    indices into a C-ordered (N_s, A) field f, and
    ``f.take(index).reshape(A, N_s)`` is f in the sorted frame.

    ``kmat`` (A, A, N_s) is K on the sorted positions, gathered from one
    row table [K0, e] of the A(A-1)/2 pair exponentials e_ab = K0 exp(x_a -
    x_b), a < b: K0 on the diagonal and e_ab at (a, b) and (b, a).  For
    a < b the rounded x_a - x_b is exactly -|x_b - x_a|, since IEEE
    subtraction is antisymmetric, so K is ``kernel_matrix`` bit for bit.
    ``_sorted_terms`` uses it up: once K M and K N are formed, it turns the
    same buffer into D in place (``_deriv_in_place``).

    ``gap_diag`` and ``gap_off`` (A - 1, N_s) give K^{-1} gap by gap:
    K^{-1} = 2 I plus, for each gap i, the block [[gap_diag_i, gap_off_i],
    [gap_off_i, gap_diag_i]] on sorted peakons i and i + 1.  ``cond`` is the
    condition bound that was checked against ``CONDITION_LIMIT``.
    """

    index: Optional[np.ndarray]
    kmat: np.ndarray
    gap_diag: np.ndarray
    gap_off: np.ndarray
    cond: float


@functools.lru_cache(maxsize=MAX_PEAKONS)
def _pair_layout(count):
    """Pairs, table rows and sign pattern of ``SortedKernel`` for A = ``count``, read-only.

    ``left`` and ``right`` (P,) list the P = A(A-1)/2 pairs a < b of the
    sorted frame; ``rows`` (A, A) indexes the row table [K0, e], whose row
    1 + p is pair p's exponential, so it picks K.  ``signs`` (A, A, 1) is
    +1 above the diagonal, -1 below it and 0 on it: K times it is D.
    """
    left, right = np.triu_indices(count, k=1)
    rows = np.zeros((count, count), dtype=np.intp)
    rows[left, right] = rows[right, left] = 1 + np.arange(left.size)
    signs = np.zeros((count, count, 1))
    signs[left, right] = 1.0
    signs[right, left] = -1.0
    for a in (left, right, rows, signs):
        a.flags.writeable = False
    return left, right, rows, signs


def _deriv_in_place(kmat):
    """Turn K (A, A, N_s) of a ``SortedKernel`` into D = ``kernel_deriv`` in place; returns it.

    D is K times the sign pattern of ``_pair_layout``.  The products e x 1,
    e x -1 and K0 x 0 are exact, so D is ``kernel_deriv`` bit for bit off
    the diagonal, and +0.0 on it, where ``kernel_deriv`` has -K0 x 0.0 =
    -0.0.
    """
    kmat *= _pair_layout(kmat.shape[0])[3]
    return kmat


def _checked_kernel(q):
    """Kernel of positions q (N_s, A), in any per-node order, in the sorted frame.

    Raises ``SingularConfigurationError`` when two peakons of one node are
    closer than ``MIN_GAP``, and ``ConditioningError`` when the condition
    bound exceeds ``CONDITION_LIMIT``.

    Positions that strictly increase with the label at every node are
    already sorted and skip the argsort; peakons cannot pass each other
    without tripping the gap guard, so ordered data stays ordered.  Any
    other input, a NaN position or a (0.0, -0.0) pair included, is sorted.

    On sorted positions with gaps g_i, K = C/2 with C_ij = exp(-|x_i - x_j|),
    the product of exp(-g_k) over the gaps between i and j.  Its inverse is
    tridiagonal: (C^{-1})_ii = 1 + 1/expm1(2 g_{i-1}) + 1/expm1(2 g_i),
    counting only the gaps that exist, and (C^{-1})_{i,i+1} = -1/(2 sinh g_i).
    So K^{-1} = 2 C^{-1} needs no factorisation, and expm1 and sinh keep
    small gaps accurate.  For positive gaps it is strictly diagonally
    dominant, hence positive definite.

    The condition bound is max ||K||_inf times max ||K^{-1}||_inf over the
    nodes.  The spectral radius of a symmetric matrix is at most its
    inf-norm, so the bound is at least the ratio of the largest to the
    smallest eigenvalue over all nodes, and equal to it for A = 2.  With
    A = 1 there are no gaps: K = 1/2, K^{-1} = 2 and the bound is 1.
    """
    n_nodes, count = q.shape
    qs = q.T.copy()
    if (qs[1:] > qs[:-1]).all():
        index = None
    else:
        index = np.argsort(q, axis=-1)
        index += count * np.arange(n_nodes)[:, None]
        index = index.T.ravel()
        qs = q.take(index).reshape(count, n_nodes)
    gaps, gap = _gaps(qs)
    _check_gap(gap)
    left, right, rows, _ = _pair_layout(count)
    table = np.empty((1 + left.size, n_nodes))
    table[0] = K0
    pairs = table[1:]
    np.subtract(qs.take(left, axis=0), qs.take(right, axis=0), out=pairs)  # = -|x_a - x_b|
    np.exp(pairs, out=pairs)
    pairs *= K0
    kmat = table.take(rows, axis=0)
    with np.errstate(over="ignore"):  # far gaps: 1/inf = 0 is the right value
        gap_diag = 2.0 / np.expm1(2.0 * gaps)
        gap_off = -1.0 / np.sinh(gaps)
    spread = gap_diag - gap_off  # each gap's share of a row sum of |K^{-1}|
    inv_rows = np.full(qs.shape, 2.0)
    inv_rows[:-1] += spread
    inv_rows[1:] += spread
    cond = float(kmat.sum(axis=1).max() * inv_rows.max())
    if cond > CONDITION_LIMIT:
        raise ConditioningError(
            f"kernel matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    return SortedKernel(index, kmat, gap_diag, gap_off, cond)


def _spd_solve(kmat, rhs):
    """Cholesky solve of K y = rhs batched over nodes; K shaped (N_s, A, A).

    The reference for the closed-form K^{-1} of ``_checked_kernel``.
    """
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


def _sorted_terms(sk: SortedKernel, m, n):
    """Kernel terms of ``peakon_rhs`` in the sorted frame of ``sk``, shaped (3, A, N_s).

    The rows are K M, -sum_c (M_a M_c - N_a N_c) D^{ac} and K^{-1} G for the
    momenta m, n (N_s, A), with K the table of ``sk`` and K^{-1} its
    gap-by-gap tridiagonal.  It uses up ``sk.kmat``: after K M and K N, the
    buffer is turned into D in place (``_deriv_in_place``), so the kernel
    takes one (A, A, N_s) array, not two.  The momenta are laid out in the
    sorted frame as contiguous (A, N_s) arrays in both kinds of frame, so
    the einsums run the same loops and sum in the same order.
    """
    if sk.index is None:
        ms = m.T.copy()
        ns = n.T.copy()
    else:
        shape = sk.kmat.shape[1:]
        ms = m.take(sk.index).reshape(shape)
        ns = n.take(sk.index).reshape(shape)

    out = np.empty((3,) + ms.shape)
    km = np.einsum("abn,bn->an", sk.kmat, ms, out=out[0])
    kn = np.einsum("abn,bn->an", sk.kmat, ns)
    deriv = _deriv_in_place(sk.kmat)
    dm_sum = np.einsum("acn,cn->an", deriv, ms)
    dn_sum = np.einsum("acn,cn->an", deriv, ns)
    np.subtract(ns * dn_sum, ms * dm_sum, out=out[1])
    # G = (K N)(D M) - (K M)(D N) + D (N (K M) - M (K N)), the sum over b done first
    g = np.einsum("ecn,cn->en", deriv, ns * km - ms * kn)
    g += kn * dm_sum
    g -= km * dn_sum
    sol = np.multiply(2.0, g, out=out[2])
    sol[:-1] += sk.gap_diag * g[:-1] + sk.gap_off * g[1:]
    sol[1:] += sk.gap_diag * g[1:] + sk.gap_off * g[:-1]
    return out


def _kernel_terms(q, m, n):
    """The three kernel terms of ``peakon_rhs`` in the caller's order, shaped (3, N_s, A).

    The terms are formed in the per-node sorted frame of ``_checked_kernel``
    (``_sorted_terms``) and brought back to the caller's peakon labels
    once: transposed when the labels are in position order, gathered
    otherwise.  Kept apart from ``peakon_rhs`` and ``_sorted_terms`` so
    that the sorted-frame work arrays are freed before that copy and the
    s-derivatives: the right-hand side is the peak of a peakon run's memory.
    """
    sk = _checked_kernel(q)
    sorted_terms = _sorted_terms(sk, m, n)
    if sk.index is None:
        return sorted_terms.transpose(0, 2, 1).copy()
    back = np.empty_like(sk.index)  # back[i] is the sorted place of flat entry i
    back[sk.index] = np.arange(back.size)
    return sorted_terms.reshape(3, -1).take(back, axis=1).reshape((3,) + q.shape)


def peakon_rhs(q, m, n, stencil: DerivativeStencil):
    """Node-wise time derivatives of the peakon system, one (3, N_s, A) array (dq, dm, dn).

    dQ^a/dt   = sum_b M_b K^{ab}
    dM_a/dt   = -d_s N_a - sum_c (M_a M_c - N_a N_c) D^{ac}
    dN_a/dt   = -d_s M_a + K^{-1} G, with
    G_e       = sum_{b,c} (N_b M_c - M_b N_c) D^{ec} (K^{eb} - K^{cb}).

    Takes the (N_s, A) arrays q, m, n, in any per-node order, without
    re-validating them; the coincidence and conditioning guards run once, in
    ``_checked_kernel``.  The kernel terms are formed in each node's sorted
    frame (``_kernel_terms``); the s-derivatives are taken in the caller's
    frame, since they follow peakon labels.  The space-slope relation
    d_s Q^a = -sum_b N_b K^{ab} is not imposed here; see
    ``s_constraint_residual`` for the matching diagnostic.

    A lone peakon (A = 1) has no interaction: D = 0 and G = 0, so the system
    is dQ = K0 M, dM = -d_s N, dN = -d_s M, formed without the kernel.  It
    has no gap to check and its condition bound is 1, so no guard is lost.
    The general path's sums start from +0.0; the closed form keeps those
    additions, so every bit, signed zeros included, is the same.
    """
    count = q.shape[1]
    if count == 1:
        terms = np.zeros((3,) + q.shape)  # K^{-1} G is +0.0
        terms[0] += K0 * m  # K M summed from +0.0
        np.subtract(n * 0.0, m * 0.0, out=terms[1])
    else:
        terms = _kernel_terms(q, m, n)
    slopes = stencil(np.concatenate((n, m), axis=1))  # d_s N and d_s M in one call
    terms[1] -= slopes[:, :count]
    terms[2] -= slopes[:, count:]
    return terms


def s_constraint_residual(q, n, stencil: DerivativeStencil):
    """Residual field d_s Q^a + sum_b N_b K^{ab} of the space-slope relation.

    Takes the (N_s, A) arrays q and n, like ``peakon_rhs``.  No K^{-1} is
    applied, so the positions need no gap check.  For a lone peakon (A = 1)
    the sum is K0 N, formed, like the einsum, from +0.0 and without
    ``kernel_matrix``.
    """
    if q.shape[1] == 1:
        return stencil(q) + (K0 * n + 0.0)
    kn = np.einsum("nab,nb->na", kernel_matrix(q), n)
    return stencil(q) + kn


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
