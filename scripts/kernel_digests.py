"""Print one SHA-256 per public kernel over a fixed set of seeded inputs.

    python3 scripts/kernel_digests.py [CHECKOUT]

Calls each kernel below on seeded random inputs and hashes every output
array (shape, dtype and bytes, so signed zeros and NaN payloads count), or,
when a call raises, the error's type and message:

- ``peakon_rhs`` and ``s_constraint_residual``: A = 1 to 8 peakons, labels
  in position order and shuffled per node, momenta with +-0.0 entries and
  all-zero nodes, gaps from 1e-8 to 30 and pairs closer than ``MIN_GAP``;
- the five packed SO(3) right-hand sides, ``spin_chain_rhs``,
  ``lie_poisson_rhs_spin_chain``, ``chiral_rhs``, ``aniso_rhs_uv`` and
  ``aniso_rhs_XY``, on fields with +-0.0 entries;
- ``chiral_curvature_max``, with the lambdas 0.5, 1, 2, -1 and 3.

The inputs are drawn before gstrand is imported, from ``CHECKOUT/src``
(default: this checkout); the script exits with status 1 when that is not
the gstrand it imported.  One line per kernel, ``<function> <sha256>``.  Two
checkouts compute the same bits, and raise the same errors, when their
tables are equal:

    diff <(python3 scripts/kernel_digests.py /path/to/parent) \\
         <(python3 scripts/kernel_digests.py)
"""

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * np.pi


def _signed_zeros(rng, f):
    """``f`` with about a tenth of its entries set to 0.0 or -0.0, and its first row to -0.0."""
    f = f.copy()
    hit = rng.random(f.shape) < 0.1
    f[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    f[0] = -0.0
    return f


def peakon_cases(seed=20, repeats=4):
    """(q, m, n, stencil order, ds) tuples: ``repeats`` draws of each peakon
    count, gap regime, label order and choice of signed-zero momenta."""
    rng = np.random.default_rng(seed)
    cases = []
    for _, count, gaps, shuffled, zeros in itertools.product(
            range(repeats), range(1, 9), ("moderate", "far", "near", "coincident"),
            (False, True), (False, True)):
        n_nodes = int(rng.integers(8, 80))
        step = rng.uniform(*((0.5, 30.0) if gaps == "far" else (0.05, 2.0)), (n_nodes, count))
        q = np.cumsum(step, axis=1) - 0.5 * step.sum(axis=1, keepdims=True)
        if count > 1 and gaps in ("near", "coincident"):
            node = rng.integers(n_nodes, size=3)
            a = rng.integers(count - 1, size=3)
            low, high = (1e-8, 1e-6) if gaps == "near" else (0.0, 9e-9)
            q[node, a + 1] = q[node, a] + rng.uniform(low, high, 3)
        m, n = rng.standard_normal((2, n_nodes, count))
        if zeros:
            m, n = _signed_zeros(rng, m), _signed_zeros(rng, n)
        if shuffled:
            perm = rng.permuted(np.tile(np.arange(count), (n_nodes, 1)), axis=1)
            q, m, n = (np.take_along_axis(f, perm, axis=1) for f in (q, m, n))
        cases.append((q, m, n, int(rng.choice((2, 4))), TWO_PI / n_nodes))
    return cases


def so3_cases(seed=21, count=24):
    """(y, diagonals, stencil order, ds) tuples: packed (2, N_s, 3) fields and
    three diagonals, the last with zero entries (allowed for anisotropy-P)."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n_nodes = int(rng.integers(8, 64))
        y = rng.standard_normal((2, n_nodes, 3))
        if k % 2:
            y = _signed_zeros(rng, y)
        a, b = rng.uniform(0.5, 3.0, (2, 3))
        p = rng.uniform(-2.0, 2.0, 3)
        p[rng.integers(3)] = 0.0
        cases.append((y, (a, b, p), int(rng.choice((2, 4))), TWO_PI / n_nodes))
    return cases


def curvature_cases(seed=22, count=12):
    """(snapshots, lambdas, stencil order, ds, dt) tuples; the last two raise."""
    rng = np.random.default_rng(seed)
    lambdas = (0.5, 1.0, 2.0, -1.0, 3.0)
    cases = []
    for k in range(count):
        n_nodes = int(rng.integers(8, 64))
        levels = int(rng.integers(3, 8))
        snaps = rng.standard_normal((levels, 2, n_nodes, 3))
        if k % 2:
            snaps = _signed_zeros(rng, snaps)
        cases.append((list(snaps), lambdas, int(rng.choice((2, 4))), TWO_PI / n_nodes,
                      float(rng.uniform(1e-3, 0.1))))
    snaps = list(rng.standard_normal((4, 2, 16, 3)))
    cases.append((snaps, (0.5, 0.0), 2, TWO_PI / 16, 0.01))
    cases.append((snaps[:2], lambdas, 2, TWO_PI / 16, 0.01))
    return cases


class Digest:
    """SHA-256 over a sequence of call outcomes."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def call(self, fn, *args):
        try:
            out = fn(*args)
        except Exception as exc:  # the error is part of the kernel's behaviour
            self.hash.update(f"{type(exc).__name__}: {exc}\n".encode())
            return
        out = np.asarray(out)
        self.hash.update(f"{out.shape} {out.dtype}\n".encode())
        self.hash.update(np.ascontiguousarray(out).tobytes())

    def hexdigest(self):
        return self.hash.hexdigest()


def digests(peakons, so3, curvature):
    import gstrand as g

    table = {}
    rhs, residual = Digest(), Digest()
    for q, m, n, order, ds in peakons:
        sten = g.DerivativeStencil(order, ds)
        rhs.call(g.peakon_rhs, q, m, n, sten)
        residual.call(g.s_constraint_residual, q, n, sten)
    table["peakon_rhs"] = rhs
    table["s_constraint_residual"] = residual

    def spin(a, b):
        return g.SpinChainParams(g.DiagonalParams(a, "inertia-A"), g.DiagonalParams(b, "inertia-B"))

    so3_rhs = {
        "spin_chain_rhs": lambda y, a, b, p, sten: g.spin_chain_rhs(y, spin(a, b), sten),
        "lie_poisson_rhs_spin_chain":
            lambda y, a, b, p, sten: g.lie_poisson_rhs_spin_chain(y, spin(a, b), sten),
        "chiral_rhs": lambda y, a, b, p, sten: g.chiral_rhs(y, sten),
        "aniso_rhs_uv":
            lambda y, a, b, p, sten: g.aniso_rhs_uv(y, g.DiagonalParams(p, "anisotropy-P"), sten),
        "aniso_rhs_XY":
            lambda y, a, b, p, sten: g.aniso_rhs_XY(y, g.DiagonalParams(p, "anisotropy-P"), sten),
    }
    for name, fn in so3_rhs.items():
        digest = table[name] = Digest()
        for y, diagonals, order, ds in so3:
            digest.call(fn, y, *diagonals, g.DerivativeStencil(order, ds))

    digest = table["chiral_curvature_max"] = Digest()
    for snaps, lambdas, order, ds, dt in curvature:
        digest.call(g.chiral_curvature_max, snaps, lambdas, g.DerivativeStencil(order, ds), dt)
    return [f"{name} {d.hexdigest()}" for name, d in table.items()]


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else HERE
    inputs = peakon_cases(), so3_cases(), curvature_cases()  # before gstrand is imported
    src = checkout / "src"
    if not (src / "gstrand" / "__init__.py").is_file():
        sys.exit(f"kernel_digests: no gstrand sources under {src}")
    sys.path.insert(0, str(src))
    import gstrand

    # an installed or already imported gstrand would make two tables compare one program
    if Path(gstrand.__file__).resolve().parent != (src / "gstrand").resolve():
        sys.exit(f"kernel_digests: imported gstrand from {gstrand.__file__}, not {src}")
    print("\n".join(digests(*inputs)))


if __name__ == "__main__":
    main(sys.argv[1:])
