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


def _smallest(gaps):
    """Smallest of the (A - 1, N_s) adjacent gaps, -0.0 made 0.0; inf when A = 1."""
    return float(gaps.min()) + 0.0 if gaps.size else np.inf


def _min_gap(q):
    """Smallest distance between two peakons of one node of q (N_s, A), over all nodes.

    Rounded subtraction is monotone, so the smallest adjacent difference of
    the per-node sorted positions equals the all-pairs minimum exactly.
    """
    qs = np.sort(q, axis=-1).T
    return _smallest(qs[1:] - qs[:-1])


def _check_gap(gap):
    if gap < MIN_GAP:
        raise SingularConfigurationError(
            f"coincident peakons: minimum position gap {gap:.3e} < {MIN_GAP:.1e}"
        )


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
    ``_sorted_terms`` is handed the kernel and uses it up: once K M and K N
    are formed, it turns the same buffer into D in place
    (``_deriv_in_place``) and drops it after D's last contraction.

    ``gap_diag`` and ``gap_off`` (A - 1, N_s) give K^{-1} gap by gap:
    K^{-1} = 2 I plus, for each gap i, the block [[gap_diag_i, gap_off_i],
    [gap_off_i, gap_diag_i]] on sorted peakons i and i + 1.  ``cond``, checked
    against ``CONDITION_LIMIT``, is the condition bound A (1 + 2/expm1(2 g) +
    1/sinh(g)) of the minimum gap g, at least K's eigenvalue ratio.
    """

    index: Optional[np.ndarray]
    kmat: np.ndarray
    gap_diag: np.ndarray
    gap_off: np.ndarray
    cond: float


@functools.lru_cache(maxsize=MAX_PEAKONS)
def _pair_layout(count):
    """Pairs and table rows of the pair exponentials for A = ``count``, read-only.

    ``left`` and ``right`` (P,) list the P = A(A-1)/2 pairs a < b; ``rows``
    (A, A) indexes a row table [K0, e], whose row 1 + p is pair p's
    exponential, so taking it picks K.  ``SortedKernel`` and
    ``s_constraint_residual`` both use the pairs of the sorted frame.
    """
    left, right = np.triu_indices(count, k=1)
    rows = np.zeros((count, count), dtype=np.intp)
    rows[left, right] = rows[right, left] = 1 + np.arange(left.size)
    for a in (left, right, rows):
        a.flags.writeable = False
    return left, right, rows


def _deriv_in_place(kmat):
    """Turn K (A, A, N_s) of a ``SortedKernel`` into D = ``kernel_deriv`` in place; returns it.

    In the sorted frame D is K above the diagonal, -K below it and 0 on it.
    Row a's entries below the diagonal, ``kmat[a, :a]``, are one contiguous
    slab, negated where it lies, and the diagonal is filled in one strided
    store, so no temporary or broadcast buffer is made.  Negation is exact,
    so D is ``kernel_deriv`` bit for bit off the diagonal, and +0.0 on it,
    where ``kernel_deriv`` has -K0 x 0.0 = -0.0.
    """
    count = kmat.shape[0]
    for a in range(1, count):
        lower = kmat[a, :a]
        np.negative(lower, out=lower)
    kmat.reshape(count * count, -1)[::count + 1] = 0.0
    return kmat


def _checked_kernel(q):
    """Kernel of positions q (N_s, A), in any per-node order, in the sorted frame.

    Raises ``SingularConfigurationError`` when two peakons of one node are
    closer than ``MIN_GAP``, and ``ConditioningError`` when the condition
    bound exceeds ``CONDITION_LIMIT``.

    One (A - 1, N_s) array of gaps decides the frame and both guards: labels
    are in position order exactly when the smallest gap is > 0, and skip the
    argsort; peakons cannot pass each other without tripping the gap guard,
    so ordered data stays ordered.  Other input, a NaN position or a
    (0.0, -0.0) pair included, is sorted and its gaps are taken again.

    On sorted positions with gaps g_i, K = C/2 with C_ij = exp(-|x_i - x_j|),
    the product of exp(-g_k) over the gaps between i and j.  Its inverse is
    tridiagonal: (C^{-1})_ii = 1 + 1/expm1(2 g_{i-1}) + 1/expm1(2 g_i),
    counting only the gaps that exist, and (C^{-1})_{i,i+1} = -1/(2 sinh g_i).
    So K^{-1} = 2 C^{-1} needs no factorisation, and expm1 and sinh keep
    small gaps accurate.  For positive gaps it is strictly diagonally
    dominant, hence positive definite.

    The condition bound is A (1 + 2/expm1(2 g) + 1/sinh(g)) of the minimum
    gap g, checked before any O(A^2 N_s) array: entries of K are at most
    K0, and each of a row's at most two gaps adds 2/expm1(2 g_i) +
    1/sinh(g_i), falling in g_i, to the row sum 2 of |K^{-1}|.  So it bounds
    ||K||_inf ||K^{-1}||_inf and the eigenvalue ratio at every node (up to
    twice that ratio for A = 2).  With A <= ``MAX_PEAKONS`` = 8 and
    g >= ``MIN_GAP`` it is at most 1.6e9 < 1e12: no accepted state trips
    it.  A = 1 has no gaps: K = 1/2, K^{-1} = 2 and the bound is 1.
    """
    count = q.shape[1]
    index, qs, gaps, gap = _sorted_frame(q)
    _check_gap(gap)
    with np.errstate(over="ignore"):  # far gaps: 1/inf = 0 is the right value
        cond = count * float(1.0 + 2.0 / np.expm1(2.0 * gap) + 1.0 / np.sinh(gap))
        if cond > CONDITION_LIMIT:
            raise ConditioningError(
                f"kernel matrix condition bound {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
            )
        gap_diag = 2.0 / np.expm1(2.0 * gaps)
        gap_off = -1.0 / np.sinh(gaps)
    del gaps
    kmat = _pair_table(qs).take(_pair_layout(count)[2], axis=0)
    return SortedKernel(index, kmat, gap_diag, gap_off, cond)


def _sorted_frame(q):
    """(index, qs, gaps, gap) of q (N_s, A): the per-node sorted frame of ``SortedKernel``.

    ``qs`` (A, N_s) holds the sorted positions, ``gaps`` (A - 1, N_s) their
    adjacent differences and ``gap`` their ``_smallest``.  Labels are in
    position order exactly when every gap is > 0; then ``index`` is None and
    ``qs`` is q transposed.  Otherwise (a tie, a NaN or a (0.0, -0.0) pair
    included) each node is argsorted and ``gap`` taken again.  Nothing is
    checked here.
    """
    n_nodes, count = q.shape
    qs = q.T.copy()
    gaps = qs[1:] - qs[:-1]
    gap = _smallest(gaps)
    index = None
    if not gap > 0.0:  # NaN included
        index = np.argsort(q, axis=-1)
        index += count * np.arange(n_nodes)[:, None]
        index = index.T.ravel()
        qs = _in_frame(index, q)
        gaps = qs[1:] - qs[:-1]
        gap = _smallest(gaps)
    return index, qs, gaps, gap


def _pair_table(qs):
    """Row table [K0, e] (1 + P, N_s) at the sorted positions qs (A, N_s).

    Row 1 + p is pair p's exponential K0 exp(x_a - x_b), a < b, which is
    K0 exp(-|x_a - x_b|); taking the rows of ``_pair_layout`` gives K.
    """
    count, n_nodes = qs.shape
    left, right, _ = _pair_layout(count)
    table = np.empty((1 + left.size, n_nodes))
    table[0] = K0
    # the pair indices are in range; "clip" skips the buffered copy that
    # take's default mode makes when given out=
    pairs = qs.take(left, axis=0, out=table[1:], mode="clip")
    pairs -= qs.take(right, axis=0)  # = -|x_a - x_b|
    np.exp(pairs, out=pairs)
    pairs *= K0
    return table


def _in_frame(index, f):
    """The (N_s, A) field f in the sorted frame of ``index``, as a C-contiguous (A, N_s) array."""
    if index is None:
        return f.T.copy()
    return f.take(index).reshape(f.shape[::-1])


def _in_labels(index, terms):
    """(..., A, N_s) terms in the sorted frame of ``index``, as new (..., N_s, A) arrays
    in the caller's labels: transposed, or gathered once."""
    if index is None:
        return np.swapaxes(terms, -1, -2).copy()
    back = np.empty_like(index)  # back[i] is the sorted place of flat entry i
    back[index] = np.arange(back.size)
    *lead, count, n_nodes = terms.shape
    return terms.reshape(*lead, -1).take(back, axis=-1).reshape(*lead, n_nodes, count)


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
    """Kernel terms of ``peakon_rhs`` in the sorted frame of ``sk``: (``sk.index``, (3, A, N_s)).

    The rows are K M, -sum_c (M_a M_c - N_a N_c) D^{ac} and K^{-1} G for the
    momenta m, n (N_s, A), with K the table of ``sk`` and K^{-1} its
    gap-by-gap tridiagonal.  It uses up ``sk.kmat``: after K M and K N, the
    buffer is turned into D in place (``_deriv_in_place``), so the kernel
    takes one (A, A, N_s) array, not two.  The caller hands ``sk`` over and
    keeps no reference to it, which is why the frame's ``index`` comes back
    with the terms: the buffer is dropped at D's last contraction, and is
    freed there on interpreters that hand a call's arguments to the callee
    (CPython 3.11 on; 3.10 holds them until the call returns).

    Every product and sum after K N is formed in an (A, N_s) array already
    held whose value is done with, in the order of operations of the plain
    expressions, so the bits are those of fresh temporaries.  Besides the
    kernel, the work takes the output, the two momenta and one more (A, N_s)
    array.

    The momenta are laid out in the sorted frame as contiguous (A, N_s)
    arrays in both kinds of frame, so the einsums run the same loops and sum
    in the same order.
    """
    index, kmat, gap_diag, gap_off, _ = sk
    del sk
    ms = _in_frame(index, m)
    ns = _in_frame(index, n)

    out = np.empty((3,) + ms.shape)
    km = np.einsum("abn,bn->an", kmat, ms, out=out[0])
    kn = np.einsum("abn,bn->an", kmat, ns)
    # G = (K N)(D M) - (K M)(D N) + D (N (K M) - M (K N)), the sum over b done first.
    # Its last term's factor w needs no D; it waits in out[2] for its contraction.
    w = np.multiply(ns, km, out=out[2])
    w -= np.multiply(ms, kn, out=out[1])
    deriv = _deriv_in_place(kmat)
    del kmat
    # out[1] takes D M, then M (D M); kn takes (K N)(D M); ms's buffer takes
    # D N, then (K M)(D N); ns's buffer takes N (D N), then G.
    dm_sum = np.einsum("acn,cn->an", deriv, ms, out=out[1])
    kn *= dm_sum
    dm_sum *= ms
    dn_sum = np.einsum("acn,cn->an", deriv, ns, out=ms)
    np.subtract(np.multiply(ns, dn_sum, out=ns), dm_sum, out=out[1])
    dn_sum *= km
    g = np.einsum("ecn,cn->en", deriv, w, out=ns)
    del deriv  # D's last use
    g += kn
    g -= dn_sum
    sol = np.multiply(2.0, g, out=out[2])
    # K^{-1} G gap by gap, each gap's two products formed in kn and dn_sum
    pair, other = kn[:-1], dn_sum[:-1]
    sol[:-1] += np.add(np.multiply(gap_diag, g[:-1], out=pair),
                       np.multiply(gap_off, g[1:], out=other), out=pair)
    sol[1:] += np.add(np.multiply(gap_diag, g[1:], out=pair),
                      np.multiply(gap_off, g[:-1], out=other), out=pair)
    return index, out


def _kernel_terms(q, m, n):
    """The three kernel terms of ``peakon_rhs`` in the caller's order, shaped (3, N_s, A).

    The terms are formed in the per-node sorted frame of ``_checked_kernel``
    (``_sorted_terms``, which is handed the kernel and frees its buffer) and
    brought back to the caller's peakon labels once: transposed when the
    labels are in position order, gathered otherwise.  Kept apart from
    ``peakon_rhs`` and ``_sorted_terms`` so that the sorted-frame work
    arrays are freed before that copy and the s-derivatives: the right-hand
    side is the peak of a peakon run's memory.
    """
    return _in_labels(*_sorted_terms(_checked_kernel(q), m, n))


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
    additions, so every bit, signed zeros included, is the same.  It forms
    each term in its own slot of the output, with one stencil call per
    slope into the last slot, so it holds no array but its output.
    """
    count = q.shape[1]
    if count == 1:
        terms = np.empty((3,) + q.shape)
        np.multiply(K0, m, out=terms[0])
        terms[0] += 0.0  # K M summed from +0.0
        np.multiply(m, 0.0, out=terms[2])
        np.multiply(n, 0.0, out=terms[1])
        terms[1] -= terms[2]  # the D term, n 0 - m 0
        terms[1] -= stencil(n, out=terms[2])
        np.subtract(0.0, stencil(m, out=terms[2]), out=terms[2])  # K^{-1} G is +0.0
        return terms
    terms = _kernel_terms(q, m, n)
    slopes = stencil(np.concatenate((n, m), axis=1))  # d_s N and d_s M in one call
    terms[1] -= slopes[:, :count]
    terms[2] -= slopes[:, count:]
    return terms


def s_constraint_residual(q, n, stencil: DerivativeStencil):
    """Residual field d_s Q^a + sum_b N_b K^{ab} of the space-slope relation.

    Takes the (N_s, A) arrays q and n, like ``peakon_rhs``, and like it sums
    K N in each node's sorted frame (``_sorted_frame``), from the same pair
    table, with the einsum that gives the RHS its K M; the sum is brought
    back to the caller's labels once.  So relabelling the peakons of a node
    relabels the residual, bit for bit.  No K^{-1} is applied and no guard
    runs: coincident or badly conditioned positions give a residual, not an
    error.  For a lone peakon (A = 1) the sum is K0 N, formed, like the
    einsum, from +0.0 and without the kernel.
    """
    count = q.shape[1]
    if count == 1:
        return stencil(q) + (K0 * n + 0.0)
    index, qs = _sorted_frame(q)[:2]
    table = _pair_table(qs)
    del qs
    ns = _in_frame(index, n)
    rows = _pair_layout(count)[2]
    kn = np.empty_like(ns)
    # K's rows are gathered and summed half at a time, so the table, the
    # frame's index and K are never held whole at once; each row's sum is
    # the einsum's over the whole K, bit for bit
    for block in (slice(0, count // 2), slice(count // 2, count)):
        np.einsum("abn,bn->an", table.take(rows[block], axis=0), ns, out=kn[block])
    del table, ns
    return stencil(q) + _in_labels(index, kn)


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
