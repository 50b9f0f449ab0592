"""Centered periodic finite-difference stencils for the strand coordinate."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DerivativeStencil:
    """First s-derivative on a uniform periodic grid, accuracy order 2 or 4.

    Operates along axis 0, so fields shaped (N_s, ...) differentiate
    node-wise for every trailing component.
    """

    order: int
    ds: float

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"stencil order must be 2 or 4, got {self.order}")
        if not (self.ds > 0.0 and np.isfinite(self.ds)):
            raise ValueError(f"grid spacing must be positive and finite, got {self.ds}")

    def __call__(self, f, out=None):
        """The derivative of ``f``, in a new array or, given ``out`` shaped like
        ``f`` and not overlapping it, in ``out``, with the same bits."""
        f = np.asarray(f, dtype=float)
        d1 = _centered_difference(f, 1, out)
        if self.order == 2:
            d1 /= 2.0 * self.ds
            return d1
        # pairwise differences first so constant fields cancel exactly
        d1 *= 8.0
        d1 -= _centered_difference(f, 2)
        d1 /= 12.0 * self.ds
        return d1


def slot_derivatives(stencil, y):
    """s-derivative of every slot of a stack ``y`` shaped (k, N_s, ...), in one call.

    ``stencil`` runs along axis 0 of the node-first view (N_s, k, ...), so
    each slot's slopes are the bits that a call on that slot alone gives.
    """
    return stencil(y.swapaxes(0, 1)).swapaxes(0, 1)


def _centered_difference(f, k, out=None):
    """f[i + k] - f[i - k] for every row i of f, periodic along axis 0, in
    ``out`` if given.

    Equal element for element to ``np.roll(f, -k, 0) - np.roll(f, k, 0)``:
    one slice difference for the interior rows and one for each band of k
    rows whose neighbours wrap, without the two rolled copies.
    """
    n = f.shape[0]
    if n < 2 * k:  # grid narrower than the stencil: neighbours alias
        i = np.arange(n)
        return np.subtract(f[(i + k) % n], f[(i - k) % n], out=out)
    if out is None:
        out = np.empty_like(f)
    np.subtract(f[2 * k:], f[:n - 2 * k], out=out[k:n - k])
    np.subtract(f[k:2 * k], f[n - k:], out=out[:k])
    np.subtract(f[:k], f[n - 2 * k:n - k], out=out[n - k:])
    return out


def second_derivative(f, ds):
    """Centered second s-derivative (order 2) along axis 0, periodic."""
    f = np.asarray(f, dtype=float)
    return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / (ds * ds)
