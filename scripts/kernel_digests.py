"""Print one SHA-256 per public kernel over a fixed set of seeded inputs.

    python3 scripts/kernel_digests.py [CHECKOUT]

Calls each kernel below on seeded random inputs and hashes every output
array (shape, dtype and bytes, so signed zeros and NaN payloads count), or,
when a call raises, the error's type and message:

- ``peakon_rhs`` and ``s_constraint_residual``: A = 1 to 8 peakons, labels
  in position order and shuffled per node, momenta with +-0.0 entries and
  all-zero nodes, gaps from 1e-8 to 30 and pairs closer than ``MIN_GAP``,
  on 8 to 79 nodes; then the peakon_dense size, A = 8 on 256 and 1024
  nodes, labels in order and shuffled;
- ``_checked_kernel``, the peakon kernel and its guards, on the same
  positions: the line ``_checked_kernel`` hashes its tables (``index``,
  empty in the transpose frame, ``kmat``, ``gap_diag`` and ``gap_off``)
  and ``_checked_kernel.cond`` its condition bound alone, so a change of
  the bound shows apart from the tables;
- the five packed SO(3) right-hand sides, ``spin_chain_rhs``,
  ``lie_poisson_rhs_spin_chain``, ``chiral_rhs``, ``aniso_rhs_uv`` and
  ``aniso_rhs_XY``, on fields with +-0.0 entries, with two inertia
  diagonals and one singular anisotropy diagonal tiled to the fields'
  nodes, as a run passes them;
- ``_node_magnitudes``, the per-node |X|^2 and |Y|^2 of ``invariant_drift``,
  on the same packed fields;
- the bound level kinds, aniso_xy ``invariant_drift`` and the peakon
  models' ``s_constraint`` and ``conservation_sums``, each bound as a run
  binds it, at a first level, and evaluated on two further seeded levels:
  the aniso_xy kind on the three levels of the centered cases below, the
  peakon kinds on packed (Q, M, N) levels of A = 1, 2 and 3 peakons, labels
  in position order and shuffled per node, momenta with +-0.0 entries;
- the three centered diagnostic kinds, chiral ``zero_curvature``, aniso_uv
  ``lax`` and spin_chain ``zero_curvature``, bound as a run binds them and
  evaluated on the leapfrog residual y2 - (y0 + 2 dt f(y1)) of three seeded
  levels, f the model's RHS, with 0.0 and -0.0 entries; the chiral kind
  with the lambdas 0.5, 1, 2, -1 and 3, and with two sets that raise;
- ``WaveProfile.on_nodes``, the exact references' node evaluator, on
  seeded profiles of every kind (traveling in both directions, standing,
  constant, superpositions flat and nested) bound to 8 to 512 nodes, at
  t = 0, four mid-run times and t = 1e3, with the factors 1 of (h, h_t,
  h_s), with those of the single-peakon data (Q, M, N) and for h alone;
- the exact references of ``peakon_single_exact`` and
  ``peakon_collision_exact`` (both branches), each bound to the nodes as a
  run binds it, from the same seeded profiles, and evaluated at their times
  on seeded levels with +-0.0 entries;
- ``_g17.cells``, the CSV writer's ``%.17g``, on every power of ten from
  1e-330 to 1e308 with its two nearest doubles on either side, random
  mantissas at every exponent, +-0.0, infinities, nans and exact ties at
  k = 14 and 15, both signs, in chunks of 1, 3, 100 and 4096 values; each
  chunk's text is hashed compacted (its zero bytes dropped, one newline
  after each value), so checkouts whose row widths differ compare equal
  when they print the same text.

The inputs are drawn before gstrand is imported, from ``CHECKOUT/src``
(default: this checkout); the script exits with status 1 when that is not
the gstrand it imported.  One line per kernel, ``<function> <sha256>``,
a bound kind's named ``<model>.<kind>`` and an exact reference's
``<model>.reference``, whose hashes cover their column names too.  Two
checkouts compute the same bits, and raise the same errors, when the
tables of their own scripts are equal:

    diff <(python3 /path/to/parent/scripts/kernel_digests.py) \\
         <(python3 scripts/kernel_digests.py)

Run on another checkout, this script also compares how the kernels are
called: a changed signature reads as changed bits.
"""

import hashlib
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent.parent
TWO_PI = 2.0 * np.pi


def _signed_zeros(rng, f):
    """``f`` with about a tenth of its entries set to 0.0 or -0.0, and its first
    node row to -0.0: axis -2 indexes the nodes, so a packed field or level
    keeps every other node of each of its slots."""
    f = f.copy()
    hit = rng.random(f.shape) < 0.1
    f[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    f[..., 0, :] = -0.0
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


def workload_peakon_cases(seed=24):
    """(q, m, n, stencil order, ds) tuples at the size of the peakon_dense
    workload: A = 8 on N_s = 256 and 1024 nodes, gaps from 0.5 to 1.5,
    labels in position order and shuffled per node."""
    rng = np.random.default_rng(seed)
    cases = []
    for n_nodes, shuffled in itertools.product((256, 1024), (False, True)):
        step = rng.uniform(0.5, 1.5, (n_nodes, 8))
        q = np.cumsum(step, axis=1) - 0.5 * step.sum(axis=1, keepdims=True)
        m, n = rng.standard_normal((2, n_nodes, 8))
        if shuffled:
            perm = rng.permuted(np.tile(np.arange(8), (n_nodes, 1)), axis=1)
            q, m, n = (np.take_along_axis(f, perm, axis=1) for f in (q, m, n))
        cases.append((q, m, n, 2, TWO_PI / n_nodes))
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


# (model, kind, lambda sets) of each centered kind; the chiral pair's last
# two sets raise, at 0 and where 1/lam overflows
CENTERED_KINDS = (
    ("chiral", "zero_curvature", ((0.5, 1.0, 2.0, -1.0, 3.0), (0.5, 0.0), (0.5, 1e-309))),
    ("aniso_uv", "lax", ((0.0, 0.5, 1.0, -2.0),)),
    ("spin_chain", "zero_curvature", (None,)),
)


def centered_cases(seed=22, count=12):
    """(levels, diagonals, stencil order, ds, dt) tuples: three packed
    (2, N_s, 3) levels, all of them +-0.0 on a common stretch of nodes
    where the leapfrog residual y2 - (y0 + 2 dt f(y1)) is then 0.0 or -0.0,
    and the diagonals A, B (B / A < 0, as a run accepts) and P, which has a
    zero entry.  Every other case has further +-0.0 entries, and the last
    case's levels are all +-0.0."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n_nodes = int(rng.integers(8, 64))
        levels = rng.standard_normal((3, 2, n_nodes, 3))
        if k % 2:
            levels = _signed_zeros(rng, levels)
        start, stop = sorted(rng.integers(n_nodes + 1, size=2))
        if k == count - 1:
            start, stop = 0, n_nodes
        levels[:, :, start:stop] = np.where(rng.random((3, 2, stop - start, 3)) < 0.5, 0.0, -0.0)
        a = rng.uniform(0.5, 3.0, 3)
        b = -rng.uniform(0.5, 3.0, 3)
        p = rng.uniform(-2.0, 2.0, 3)
        p[rng.integers(3)] = 0.0
        cases.append((levels, (a, b, p), int(rng.choice((2, 4))), TWO_PI / n_nodes,
                      float(rng.uniform(1e-3, 0.1))))
    return cases


def peakon_level_cases(seed=26, repeats=3):
    """(levels, stencil order, ds, dt) tuples: three packed (3, N_s, A)
    levels (Q, M, N) of A = 1, 2 and 3 peakons, gaps from 0.05 to 2, labels
    in position order or shuffled per node, M and N with +-0.0 entries."""
    rng = np.random.default_rng(seed)
    cases = []
    for _, count, shuffled in itertools.product(range(repeats), (1, 2, 3), (False, True)):
        n_nodes = int(rng.integers(8, 80))
        levels = []
        for _ in range(3):
            step = rng.uniform(0.05, 2.0, (n_nodes, count))
            q = np.cumsum(step, axis=1) - 0.5 * step.sum(axis=1, keepdims=True)
            m, n = (_signed_zeros(rng, f) for f in rng.standard_normal((2, n_nodes, count)))
            level = np.stack((q, m, n))
            if shuffled:
                perm = rng.permuted(np.tile(np.arange(count), (n_nodes, 1)), axis=1)
                level = np.take_along_axis(level, perm[None], axis=2)
            levels.append(level)
        cases.append((levels, int(rng.choice((2, 4))), TWO_PI / n_nodes,
                      float(rng.uniform(1e-3, 0.1))))
    return cases


def reference_levels(profiles, seed=27):
    """For each ``profile_cases`` tuple, one packed (3, N_s, 2) level (Q, M, N)
    per time, each field with +-0.0 entries; the single peakon reads the
    first column."""
    rng = np.random.default_rng(seed)
    return [[np.stack([_signed_zeros(rng, f) for f in rng.standard_normal((3, n_nodes, 2))])
             for _ in times] for _, n_nodes, times in profiles]


def g17_cases(seed=23):
    """Float64 values for ``_g17.cells``, in a seeded order."""
    rng = np.random.default_rng(seed)
    values = []
    for p in range(-330, 309):
        value = below = above = float(f"1e{p}")
        values.append(value)
        for _ in range(2):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            values += [below, above]
    mantissas = rng.uniform(1.0, 10.0, (4, 639))
    mantissas[:, -1] = rng.uniform(1.0, 1.79, 4)  # times 1e308, below the largest double
    values += (mantissas * 10.0 ** np.arange(-330, 309)).ravel().tolist()
    values += [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    k14 = rng.integers(560 * 10**12, 10**15, 500) + rng.choice([1, 3, 5, 7], 500) / 8
    k15 = rng.integers(10**15, 2250 * 10**12, 500) + 0.25
    values = np.concatenate((values, k14, k15))
    values = np.concatenate((values, -values))
    return values[rng.permutation(values.size)]


def _profile(rng, depth):
    """A seeded wave-profile descriptor: traveling, standing, constant or,
    above depth 0, a superposition of two or three profiles."""
    kind = rng.choice(("traveling", "standing", "constant", "superposition")
                      if depth else ("traveling", "standing", "constant"))
    if kind == "traveling":
        terms = [[float(rng.uniform(-1.0, 1.0)), int(rng.integers(0, 5)),
                  float(rng.uniform(0.0, TWO_PI))] for _ in range(rng.integers(0, 4))]
        return {"type": "traveling", "terms": terms, "direction": int(rng.choice((-1, 1)))}
    if kind == "standing":
        return {"type": "standing", "amplitude": float(rng.uniform(-1.0, 1.0)),
                "wavenumber": int(rng.integers(1, 5))}
    if kind == "constant":
        return {"type": "traveling", "terms": [[float(rng.uniform(-2.0, 2.0)), 0, 0.5 * np.pi]],
                "direction": 1}
    return {"type": "superposition",
            "parts": [_profile(rng, depth - 1) for _ in range(rng.integers(2, 4))]}


def profile_cases(seed=25, count=40):
    """(descriptor, node count, times) tuples: seeded profiles of every kind,
    nested two deep at most, on 8 to 512 nodes, at t = 0, four mid-run times
    and t = 1e3."""
    rng = np.random.default_rng(seed)
    return [(_profile(rng, 2), int(rng.integers(8, 513)),
             (0.0, *rng.uniform(0.0, 2.0, 4).tolist(), 1e3)) for _ in range(count)]


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
        for part in out if isinstance(out, tuple) else (out,):
            part = np.asarray(part)
            self.hash.update(f"{part.shape} {part.dtype}\n".encode())
            self.hash.update(np.ascontiguousarray(part).tobytes())

    def hexdigest(self):
        return self.hash.hexdigest()


def digests(peakons, so3, centered, peakon_levels, profiles, profile_levels, g17):
    import gstrand as g

    table = {}
    rhs, residual = Digest(), Digest()
    for q, m, n, order, ds in peakons:
        sten = g.DerivativeStencil(order, ds)
        rhs.call(g.peakon_rhs, q, m, n, sten)
        residual.call(g.s_constraint_residual, q, n, sten)
    table["peakon_rhs"] = rhs
    table["s_constraint_residual"] = residual

    from gstrand.peakon_dynamics import _checked_kernel

    def kernel_tables(q):
        sk = _checked_kernel(q)
        index = np.empty(0, np.intp) if sk.index is None else sk.index
        return index, sk.kmat, sk.gap_diag, sk.gap_off

    checked, cond = table["_checked_kernel"], table["_checked_kernel.cond"] = Digest(), Digest()
    for q, *_ in peakons:
        checked.call(kernel_tables, q)
        cond.call(lambda q: _checked_kernel(q).cond, q)

    so3_rhs = {
        "spin_chain_rhs": lambda y, a, b, p, sten: g.spin_chain_rhs(y, a, b, sten),
        "lie_poisson_rhs_spin_chain":
            lambda y, a, b, p, sten: g.lie_poisson_rhs_spin_chain(y, a, b, sten),
        "chiral_rhs": lambda y, a, b, p, sten: g.chiral_rhs(y, sten),
        "aniso_rhs_uv": lambda y, a, b, p, sten: g.aniso_rhs_uv(y, p, sten),
        "aniso_rhs_XY": lambda y, a, b, p, sten: g.aniso_rhs_XY(y, p, sten),
    }
    for name, fn in so3_rhs.items():
        digest = table[name] = Digest()
        for y, diagonals, order, ds in so3:
            tiled = [np.tile(d, (y.shape[1], 1)) for d in diagonals]
            digest.call(fn, y, *tiled, g.DerivativeStencil(order, ds))

    from gstrand.integrability import _node_magnitudes

    digest = table["_node_magnitudes"] = Digest()
    for y, *_ in so3:
        digest.call(lambda y: tuple(_node_magnitudes(y)), y)

    def centered_values(diagnostic, cfg, sten, lambdas, first, residual):
        return diagnostic.bind(cfg, sten, lambdas, first)[1](residual)

    for model, kind, lambda_sets in CENTERED_KINDS:
        spec = g.sim_harness._SPECS[model]
        digest = table[f"{model}.{kind}"] = Digest()
        for (y0, y1, y2), (a, b, p), order, ds, dt in centered:
            params = {"A": a, "B": b, "P": p}
            sten = g.DerivativeStencil(order, ds)
            rate = spec.rhs(params, sten, np.arange(y1.shape[1]) * ds)(y1)
            residual = y2 - (rate * (2.0 * dt) + y0)  # the run's e, bit for bit
            cfg = SimpleNamespace(dt=dt, cadence=1, params=params)
            for lambdas in lambda_sets:
                digest.call(centered_values, spec.diagnostics[kind], cfg, sten, lambdas, y0,
                            residual)

    def level_values(diagnostic, cfg, sten, levels):
        names, evaluate = diagnostic.bind(cfg, sten, None, levels[0])
        return (np.asarray(names), *(evaluate(y) for y in levels[1:]))

    xy_drift = g.sim_harness._SPECS["aniso_xy"].diagnostics["invariant_drift"]
    digest = table["aniso_xy.invariant_drift"] = Digest()
    for levels, (_, _, p), order, ds, dt in centered:
        cfg = SimpleNamespace(dt=dt, cadence=1, params={"P": p}, s_length=TWO_PI,
                              n_nodes=levels.shape[2])
        digest.call(level_values, xy_drift, cfg, g.DerivativeStencil(order, ds), levels)

    for kind, diagnostic in g.sim_harness._SPECS["peakon"].diagnostics.items():
        digest = table[f"peakon.{kind}"] = Digest()
        for levels, order, ds, dt in peakon_levels:
            cfg = SimpleNamespace(dt=dt, cadence=1, params={"count": levels[0].shape[2]},
                                  s_length=TWO_PI, n_nodes=levels[0].shape[1])
            digest.call(level_values, diagnostic, cfg, g.DerivativeStencil(order, ds), levels)

    from gstrand.peakon_dynamics import K0

    def node_values(profile, s, scales, times):
        at = profile.on_nodes(s, scales)
        return tuple(at(t) for t in times)

    digest = table["WaveProfile.on_nodes"] = Digest()
    for descriptor, n_nodes, times in profiles:
        profile = g.profile_from_descriptor(descriptor)
        s = np.arange(n_nodes) * (TWO_PI / n_nodes)
        for scales in ((1.0, 1.0, 1.0), (1.0, 1.0 / K0, -1.0 / K0), (1.0,)):
            digest.call(node_values, profile, s, scales, times)

    def reference_values(spec, params, s, times, levels):
        names, errors = spec.reference(spec.parse(params, TWO_PI), s)
        return (np.asarray(names), *(errors(y, t) for t, y in zip(times, levels)))

    single = g.sim_harness._SPECS["peakon_single_exact"]
    collision = g.sim_harness._SPECS["peakon_collision_exact"]
    single_digest = table["peakon_single_exact.reference"] = Digest()
    collision_digest = table["peakon_collision_exact.reference"] = Digest()
    for (descriptor, n_nodes, times), levels in zip(profiles, profile_levels):
        s = np.arange(n_nodes) * (TWO_PI / n_nodes)
        single_digest.call(reference_values, single, {"profile": descriptor}, s, times,
                           [y[:, :, :1] for y in levels])
        for branch in (1, -1):
            collision_digest.call(reference_values, collision,
                                  {"profile": descriptor, "branch": branch}, s, times, levels)

    from gstrand import _g17

    def compacted(chunk):
        rows = _g17.cells(chunk)
        newlines = np.full((len(rows), 1), ord("\n"), np.uint8)
        text = np.concatenate((rows, newlines), axis=1).ravel()
        return text[text != 0]

    digest = table["_g17.cells"] = Digest()
    for size in (1, 3, 100, 4096):
        for start in range(0, g17.size, size):
            digest.call(compacted, g17[start:start + size])
    return [f"{name} {d.hexdigest()}" for name, d in table.items()]


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__)
    checkout = Path(argv[0]).resolve() if argv else HERE
    # drawn before gstrand is imported
    profiles = profile_cases()
    inputs = (peakon_cases() + workload_peakon_cases(), so3_cases(), centered_cases(),
              peakon_level_cases(), profiles, reference_levels(profiles), g17_cases())
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
