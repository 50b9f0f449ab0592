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

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        d1 = _centered_difference(f, 1)
        if self.order == 2:
            d1 /= 2.0 * self.ds
            return d1
        # pairwise differences first so constant fields cancel exactly
        d1 *= 8.0
        d1 -= _centered_difference(f, 2)
        d1 /= 12.0 * self.ds
        return d1


def _centered_difference(f, k):
    """f[i + k] - f[i - k] for every row i of f, periodic along axis 0.

    Equal element for element to ``np.roll(f, -k, 0) - np.roll(f, k, 0)``:
    one slice difference for the interior rows and one for each band of k
    rows whose neighbours wrap, without the two rolled copies.
    """
    n = f.shape[0]
    if n < 2 * k:  # grid narrower than the stencil: neighbours alias
        i = np.arange(n)
        return f[(i + k) % n] - f[(i - k) % n]
    out = np.empty_like(f)
    np.subtract(f[2 * k:], f[:n - 2 * k], out=out[k:n - k])
    np.subtract(f[k:2 * k], f[n - k:], out=out[:k])
    np.subtract(f[:k], f[n - 2 * k:n - k], out=out[n - k:])
    return out


def second_derivative(f, ds):
    """Centered second s-derivative (order 2) along axis 0, periodic."""
    f = np.asarray(f, dtype=float)
    return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / (ds * ds)
