"""Scenario configuration, RK4 time stepping, diagnostics, and file output.

A scenario is a JSON object naming one of the registered models, a periodic
(s, t) grid, model parameters with initial data, a list of diagnostics, and
an output block.  ``run_scenario`` integrates with classical RK4 and stores
a level at a fixed step cadence.  It evaluates the requested diagnostics and
reference errors in the same pass, as each level is stored, and then writes
one CSV per field and per diagnostic plus a ``report.json``.  Identical
configurations produce byte-identical files.

The diagnostics are local in time.  Each is bound to the run once, at the
first stored level, which fixes its columns and run constants (the drift
kind keeps that level's node magnitudes); then a centered kind reads the
newest three stored levels, every other kind the newest alone, and each
appends its values to its columns by position.  A centered kind reads the
method-of-lines residual R_k = (y_{k+1} - y_{k-1}) / (2 dt) - f(y_k) at the
middle one, dt the spacing of stored levels, whose fixed linear image is
its discrete curvature (see ``integrability``).  f(y_k) is the first stage
that the step leaving y_k takes, so the run forms the prediction
y_{k-1} + 2 dt f(y_k) from it in place of y_{k-1}, and the residual in the
prediction's buffer once y_{k+1} is stored.  Between steps the centered
kinds hold the level before the newest, and while a step runs that
prediction.  A run holds only those levels, unless it writes field CSVs or
its caller asks for the snapshots (``keep_snapshots``); then it keeps every
stored level.  What does grow with the run is its series: each stored time
and each value of a diagnostic or reference error is appended to one
float64 column per name, about 8 bytes a value.

Every model is one ``ModelSpec`` record in ``MODEL_SPECS``: its parameter
parser, initial data, right-hand side on the packed state array, field
names, diagnostics, and closed-form reference, if it has one.

Initial data for the field models is declarative: each vector component is
a list of ``[amplitude, wavenumber, phase]`` harmonics summed as
``amp * sin(k * s + phase)``, with every wavenumber required to fit an
integer number of periods on the strand.  Constants are the ``k = 0``
harmonic with phase pi/2.  The two ``*_exact`` peakon models instead take a
wave-profile descriptor (see ``analytic_solutions``) and draw their initial
data from the closed-form solutions, and their reference values from the
profile bound to the run's nodes (``WaveProfile.on_nodes``).
"""

import contextlib
import dataclasses
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import _g17
from .analytic_solutions import (
    CollisionSolution,
    _descriptor_wavenumbers,
    _harmonic_sum,
    collision_exact,
    profile_from_descriptor,
    single_peakon_exact,
)
from .errors import (
    BlowUpError, ConfigError, SimulationError, _integer, _number, _require_keys, _terms,
)
# chiral_lax, aniso_lax, zero_curvature_residual and invariant_drift are not
# called here; they stay module attributes because the benchmark tracer
# (perfbench/spans.py) wraps them by these names
from .integrability import (  # noqa: F401
    _chiral_coefficients,
    _magnitude_drift,
    _node_magnitudes,
    aniso_lax,
    chiral_lax,
    invariant_drift,
    zero_curvature_residual,
)
from .peakon_dynamics import K0, MAX_PEAKONS, peakon_rhs, s_constraint_residual
from .so3_dynamics import (
    MIN_NODES,
    aniso_rhs_XY,
    aniso_rhs_uv,
    chiral_rhs,
    spin_chain_rhs,
)
from .stencil import DerivativeStencil

CFL_LIMIT = 0.5
MAX_STEPS = 10**7  # step-count limit: a larger t_end / dt would not finish
MAX_NODES = 2**20  # node-count limit: a larger N_s would exhaust memory
PERIODICITY_TOL = 1e-9
DIVISIBILITY_TOL = 1e-9
CSV_CHUNK = 16384  # cells of CSV text formed at once, each row's time included
ORDER_FLOOR = 1e-13


def rk4_step(state, rhs, dt):
    """One classical four-stage Runge-Kutta step.

    ``state`` is a (possibly scalar) ndarray, ``rhs`` a pure function of it.
    Each stage input and the update are formed in fresh arrays, in the
    operation order of ``state + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``; nothing is
    written into ``state`` or into an array that ``rhs`` returned, which may
    be a view of its input.  The update is accumulated as the stages arrive;
    each stage input is dropped once its derivative is returned, and each
    derivative once it is in the update and the next stage input.  So the
    step itself never holds more than three state-sized arrays: k1, k2 and
    the update as the update is begun, the update, one derivative and one
    new array after that.
    Raises BlowUpError when the stepped state contains non-finite values.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    half = 0.5 * dt
    k1 = rhs(state)
    stage = k1 * half
    stage += state
    k2 = rhs(stage)
    del stage
    out = 2.0 * k2
    out += k1
    del k1
    stage = k2 * half
    del k2
    stage += state
    k3 = rhs(stage)
    del stage
    out += 2.0 * k3
    stage = k3 * dt
    del k3
    stage += state
    out += rhs(stage)
    del stage
    out *= dt / 6.0
    out += state
    if not np.isfinite(out).all():
        raise BlowUpError("non-finite field values after step")
    return out


# --------------------------------------------------------------------------
# configuration values


def _check_period(k, s_length, path):
    """Return wavenumber ``k`` if it fits a whole number of periods on the strand."""
    cycles = k * s_length / (2.0 * math.pi)
    if not (math.isfinite(cycles) and abs(cycles - round(cycles)) <= PERIODICITY_TOL):
        raise ConfigError(
            f"{path}: wavenumber {k} does not fit an integer number "
            f"of periods on a strand of length {s_length}"
        )
    return k


def _check_terms(terms, s_length, path):
    """A harmonic series whose every wavenumber is periodic on the strand."""
    terms = _terms(terms, path)
    for i, (_, k, _) in enumerate(terms):
        _check_period(k, s_length, f"{path}[{i}]")
    return terms


def _check_profile(descriptor, s_length, path):
    try:
        profile = profile_from_descriptor(descriptor)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for where, k in _descriptor_wavenumbers(profile.descriptor):
        _check_period(k, s_length, f"{path}.{where}")
    return profile


def _diagonal(x, path, invertible):
    """A diagonal operator as a (3,) float64 array: 3 finite numbers, none of
    them zero (-0.0 included) if it must be ``invertible``."""
    if not isinstance(x, list) or len(x) != 3:
        raise ConfigError(f"{path} must be a list of 3 numbers")
    vals = [_number(v, f"{path}[{i}]") for i, v in enumerate(x)]
    if invertible and 0.0 in vals:
        raise ConfigError(f"{path}: an inertia operator needs nonzero entries, got {vals}")
    return np.array(vals)


# --------------------------------------------------------------------------
# model parameters and initial data


def _initial_terms(initial, names, width, s_length):
    """Harmonic series of each named initial field, one per column of its slot."""
    _require_keys(initial, names, (), "params.initial")
    out = []
    for name in names:
        path, columns = f"params.initial.{name}", initial[name]
        if not isinstance(columns, list) or len(columns) != width:
            raise ConfigError(f"{path} must be a list of {width} term lists, one per column")
        out.append([
            _check_terms(terms, s_length, f"{path}[{j}]") for j, terms in enumerate(columns)
        ])
    return out


def _harmonic_fields(p, s):
    """Packed state from ``_initial_terms``: one (N_s, width) slot per field."""
    return np.stack([
        np.stack([_harmonic_sum(terms, s) for terms in columns], axis=1)
        for columns in p["initial"]
    ])


def _parse_fields(names, *diagonals, invertible=False):
    """Parser for a two-field model: diagonal operators plus (N_s, 3) initial fields."""

    def parse(params, s_length):
        _require_keys(params, (*diagonals, "initial"), (), "params")
        parsed = {key: _diagonal(params[key], f"params.{key}", invertible) for key in diagonals}
        parsed["initial"] = _initial_terms(params["initial"], names, 3, s_length)
        return parsed

    return parse


def _parse_spin_chain(params, s_length):
    """Spin-chain parameters, hyperbolic in every component.

    Linearised about u = v = 0 the chain gives u_tt = -(B_i / A_i) u_ss per
    component: a wave of speed sqrt(-B_i / A_i) where B_i / A_i < 0, and
    modes growing like exp(k sqrt(B_i / A_i) t) where it is > 0, an
    ill-posed initial-value problem on which a finer grid blows up sooner.
    """
    parsed = _parse_fields(("u", "v"), "A", "B", invertible=True)(params, s_length)
    for i, (a, b) in enumerate(zip(parsed["A"].tolist(), parsed["B"].tolist())):
        if (a > 0.0) == (b > 0.0):
            raise ConfigError(
                f"params.B[{i}] / params.A[{i}] = {b!r} / {a!r} > 0: the spin chain is "
                "elliptic there, an ill-posed initial-value problem; every B_i / A_i "
                "must be negative"
            )
    return parsed


def _spin_chain_speed(p):
    """Largest linear wave speed sqrt(-B_i / A_i) of the spin chain (inf if it overflows)."""
    return max(math.sqrt(-b / a) for a, b in zip(p["A"].tolist(), p["B"].tolist()))


def _parse_peakons(params, s_length):
    _require_keys(params, ("count", "initial"), (), "params")
    count = _integer(params["count"], "params.count")
    if not 1 <= count <= MAX_PEAKONS:
        raise ConfigError(f"params.count must be in [1, {MAX_PEAKONS}], got {count}")
    return {"count": count,
            "initial": _initial_terms(params["initial"], ("q", "m", "n"), count, s_length)}


def _parse_single(params, s_length):
    _require_keys(params, ("profile",), (), "params")
    return {"profile": _check_profile(params["profile"], s_length, "params.profile")}


def _single_fields(p, s):
    return np.stack([f[:, None] for f in single_peakon_exact(p["profile"], s, 0.0)])


def _single_reference(p, s):
    """(err_Q, err_M, err_N) and their evaluator (level, t), bound to the nodes ``s``.

    The evaluator forms (Q, M, N) = (h, h_t / K0, -h_s / K0) with the bits of
    ``single_peakon_exact`` on its (h, h_t, h_s), since K0 = 1/2 makes its
    factors exact; the errors are formed in its array, in one subtract/abs/max
    pass.
    """
    qmn_at = p["profile"].on_nodes(s, (1.0, 1.0 / K0, -1.0 / K0))

    def errors(y, t):
        err = qmn_at(t)
        np.subtract(y[:, :, 0], err, out=err)
        # np.maximum.reduce is np.max without its argument handling
        return np.maximum.reduce(np.abs(err, out=err), axis=1)

    return ("err_Q", "err_M", "err_N"), errors


def _parse_collision(params, s_length):
    _require_keys(params, ("profile", "branch"), (), "params")
    branch = _integer(params["branch"], "params.branch")
    if branch not in (1, -1):
        raise ConfigError(f"params.branch must be +1 or -1, got {branch}")
    profile = _check_profile(params["profile"], s_length, "params.profile")
    return {"solution": CollisionSolution(profile, branch)}


def _check_collision_nodes(p, s):
    """Reject a profile that is exactly 0 at a node at t = 0: there the exact
    momenta, which divide by tanh h, are singular."""
    zero = np.flatnonzero(p["solution"].profile.h(s, 0.0) == 0.0)
    if zero.size:
        i = int(zero[0])
        raise ConfigError(
            f"params.profile: h = 0 at node {i} (s = {s[i]:.9g}) at t = 0, the collision "
            "instant, where the exact momenta are singular"
        )


def _collision_fields(p, s):
    sample = collision_exact(p["solution"], s, 0.0)  # (q1, q2, m1, m2, n1, n2, x)
    return np.stack([np.stack(sample[i:i + 2], axis=1) for i in (0, 2, 4)])


def _collision_reference(p, s):
    """(err_X,) and its evaluator (level, t), bound to the nodes ``s``."""
    separation = p["solution"].separation_on_nodes(s)
    return ("err_X",), lambda y, t: [np.max(np.abs((y[0][:, 0] - y[0][:, 1]) - separation(t)))]


def _tile(diagonal, s):
    """A (3,) diagonal tiled to (N_s, 3) on the nodes ``s``, so that numpy runs
    one inner loop over a field in place of N_s loops of length 3."""
    return np.tile(diagonal, (len(s), 1))


def _spin_chain_rhs(p, sten, s):
    a, b = _tile(p["A"], s), _tile(p["B"], s)
    return lambda y: spin_chain_rhs(y, a, b, sten)


def _aniso_uv_rhs(p, sten, s):
    weights = _tile(p["P"], s)
    return lambda y: aniso_rhs_uv(y, weights, sten)


def _aniso_xy_rhs(p, sten, s):
    weights = _tile(p["P"], s)
    return lambda y: aniso_rhs_XY(y, weights, sten)


def _peakon_rhs(p, sten, s):
    return lambda y: peakon_rhs(y[0], y[1], y[2], sten)


# --------------------------------------------------------------------------
# diagnostic binders (see Diagnostic); ``evaluate`` returns the values of a
# stored level, or of a centered kind's 2 dt R, in column order.


def _chiral_curvature(cfg, sten, lambdas, first):
    """max |r| / (2 dt), r = (a - b) e_u - (a + b) e_v of e = 2 dt R, for each
    lambda: the max norm of the chiral curvature hat(r), its cross terms
    cancelled by a + b = 4ab; r is formed in two (N_s, 3) buffers."""
    coeffs, two_dt = _chiral_coefficients(lambdas), 2.0 * (cfg.dt * cfg.cadence)

    def evaluate(e):
        e_u, e_v = e
        r, term = np.empty_like(e_u), np.empty_like(e_u)
        maxes = []
        for a, b in coeffs:
            np.multiply(a - b, e_u, out=r)
            np.multiply(a + b, e_v, out=term)
            r -= term
            np.abs(r, out=r)
            maxes.append(np.maximum.reduce(r, axis=None) / two_dt)
        return maxes

    return _lambda_columns(lambdas), evaluate


def _aniso_weights(lambdas, p):
    """|w_j| = |lam + J_jj| of W = lam Id + J, J_jj formed as ``build_J`` forms it, per lam."""
    p0, p1, p2 = p.tolist()
    diagonal = [-0.5 * p0, -0.5 * p1, -0.5 * p2, -0.5 * ((p0 + p1) + p2)]
    return [[abs(lam + j) for j in diagonal] for lam in lambdas]


def _aniso_curvature(cfg, sten, lambdas, first):
    """Max-norm so(4) curvature of ``aniso_lax`` at the doubled fields, for each
    lambda: embed_so4(2 R_v, 2 R_u) W with the diagonal W = lam Id + J, whose
    entry (i, j) is an embedded component times w_j.  Component k of 2 R_v
    sits in the columns j != k of the so(3) block, component i of 2 R_u in
    column 3 and in row 3, column i.  So the max norm is the largest of
    max |2 R_v[k]| |w_j|, j != k, and max |2 R_u[i]| max(|w_i|, |w_3|), with
    2 R = e / dt; no 4x4 matrix is formed."""
    weights, dt = _aniso_weights(lambdas, cfg.params["P"]), cfg.dt * cfg.cadence

    def evaluate(e):
        (peak_u, peak_v) = np.max(np.abs(e), axis=1).tolist()
        out = []
        for w in weights:
            block = max(peak_v[k] * w[j] for k in range(3) for j in range(3) if j != k)
            edge = max(peak_u[i] * max(w[i], w[3]) for i in range(3))
            out.append(max(block, edge) / dt)
        return out

    return _lambda_columns(lambdas), evaluate


def _compatibility(cfg, sten, lambdas, first):
    # v_t - u_s + u x v is R_v: spin_chain_rhs sets v_t = u_s + v x u
    two_dt = 2.0 * (cfg.dt * cfg.cadence)
    return ("residual",), lambda e: [np.max(np.abs(e[1])) / two_dt]


def _invariant_drift(cfg, sten, lambdas, first):
    base = _node_magnitudes(first)
    return ("drift_X", "drift_Y"), lambda y: _magnitude_drift(base, _node_magnitudes(y))


def _s_constraint(cfg, sten, lambdas, first):
    return ("residual",), lambda y: [np.max(np.abs(s_constraint_residual(y[0], y[2], sten)))]


def _conservation_sums(cfg, sten, lambdas, first):
    ds = cfg.s_length / cfg.n_nodes
    if first.shape[2] != 2:
        return ("sum_M",), lambda y: [np.sum(y[1]) * ds]
    return ("sum_M", "sum_N_skew"), lambda y: [
        np.sum(y[1]) * ds, np.sum(y[2][:, 0] - y[2][:, 1]) * ds]


# --------------------------------------------------------------------------
# the model table


class Diagnostic(NamedTuple):
    """One diagnostic kind of a model, bound to a run once, at its first stored level."""

    bind: Callable  # (cfg, stencil, lambdas, first level) -> (column names, evaluate)
    lambdas: tuple | None = None  # default spectral parameters; None: takes none
    pole_at_zero: bool = False  # reject lambda = 0 and any lambda whose 1/lambda overflows
    # evaluate takes 2 dt R, the scaled method-of-lines residual at the middle
    # of the newest 3 levels, timed there; R's f is the step's first stage
    centered: bool = False
    drift: bool = False  # the series' convergence scalar is its largest change from t = 0


class ModelSpec(NamedTuple):
    """Everything the harness knows about one model.

    The functions in a record, and those they bind, call the RHS, Lax and
    reference functions by their module names, so those stay patchable.
    """

    name: str
    description: str
    parse: Callable  # (params, S) -> parsed params; validates, evaluates no field
    initial: Callable  # (parsed, s) -> packed initial state
    rhs: Callable  # (parsed, stencil, s) -> function of the packed state
    fields: tuple  # output name of each slot of the packed state
    diagnostics: dict  # kind -> Diagnostic
    # (parsed, s) -> (column names, function (level, t) -> errors in that order)
    reference: Callable | None = None
    check_nodes: Callable | None = None  # (parsed, s) -> None; rejects data singular on s
    wave_speed: Callable = lambda p: 1.0  # (parsed) -> largest wave speed, bounding the CFL number


_PEAKON_DIAGNOSTICS = {
    "s_constraint": Diagnostic(_s_constraint),
    "conservation_sums": Diagnostic(_conservation_sums, drift=True),
}


MODEL_SPECS = (
    ModelSpec(
        "spin_chain", "SO(3) spin chain with inertia operators A and B",
        _parse_spin_chain, _harmonic_fields, _spin_chain_rhs, ("u", "v"),
        {"zero_curvature": Diagnostic(_compatibility, centered=True)},
        wave_speed=_spin_chain_speed,
    ),
    ModelSpec(
        "chiral", "SO(3) chiral model u_t = v_s, v_t = u_s - u x v",
        _parse_fields(("u", "v")), _harmonic_fields,
        lambda p, sten, s: lambda y: chiral_rhs(y, sten), ("u", "v"),
        {"zero_curvature": Diagnostic(_chiral_curvature, (0.5, 1.0, 2.0, -1.0),
                                      pole_at_zero=True, centered=True)},
    ),
    ModelSpec(
        "aniso_uv", "anisotropic chiral model in (u, v) variables",
        _parse_fields(("u", "v"), "P"), _harmonic_fields, _aniso_uv_rhs, ("u", "v"),
        {"lax": Diagnostic(_aniso_curvature, (0.0, 0.5, 1.0), centered=True)},
    ),
    ModelSpec(
        "aniso_xy", "anisotropic chiral model in counter-propagating (X, Y) variables",
        _parse_fields(("X", "Y"), "P"), _harmonic_fields, _aniso_xy_rhs, ("X", "Y"),
        {"invariant_drift": Diagnostic(_invariant_drift)},
    ),
    ModelSpec(
        "peakon", "Diff(R)-strand peakon system with free initial data",
        _parse_peakons, _harmonic_fields, _peakon_rhs, ("Q", "M", "N"), _PEAKON_DIAGNOSTICS,
    ),
    ModelSpec(
        "peakon_single_exact", "single peakon riding a closed-form wave profile",
        _parse_single, _single_fields, _peakon_rhs, ("Q", "M", "N"), _PEAKON_DIAGNOSTICS,
        _single_reference,
    ),
    ModelSpec(
        "peakon_collision_exact", "antisymmetric peakon-antipeakon pair from a wave profile",
        _parse_collision, _collision_fields, _peakon_rhs, ("Q", "M", "N"),
        _PEAKON_DIAGNOSTICS, _collision_reference, _check_collision_nodes,
    ),
)
MODEL_NAMES = tuple(spec.name for spec in MODEL_SPECS)
_SPECS = dict(zip(MODEL_NAMES, MODEL_SPECS))


# --------------------------------------------------------------------------
# configuration


def _lambda_columns(lambdas):
    """Output column name of each spectral parameter."""
    return [f"lam_{lam:g}" for lam in lambdas]


def _validate_diagnostics(spec, diags, n_snapshots):
    if not isinstance(diags, list):
        raise ConfigError("diagnostics must be a list")
    out = []
    for i, entry in enumerate(diags):
        path = f"diagnostics[{i}]"
        _require_keys(entry, ("kind",), ("lambdas",), path)
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in spec.diagnostics:
            raise ConfigError(
                f"{path}.kind {kind!r} is not valid for model {spec.name!r}; "
                f"allowed: {list(spec.diagnostics)}"
            )
        if any(prev["kind"] == kind for prev in out):
            raise ConfigError(f"{path}: diagnostic {kind!r} requested more than once")
        diag = spec.diagnostics[kind]
        parsed = {"kind": kind}
        if "lambdas" in entry:
            if diag.lambdas is None:
                raise ConfigError(
                    f"{path}: {kind!r} of model {spec.name!r} takes no spectral "
                    "parameters ('lambdas')"
                )
            lams = entry["lambdas"]
            if not isinstance(lams, list) or not lams:
                raise ConfigError(f"{path}.lambdas must be a non-empty list of numbers")
            parsed["lambdas"] = tuple(
                _number(v, f"{path}.lambdas[{j}]") for j, v in enumerate(lams)
            )
            for j, lam in enumerate(parsed["lambdas"]):
                if diag.pole_at_zero and (lam == 0.0 or not math.isfinite(1.0 / lam)):
                    raise ConfigError(
                        f"{path}.lambdas[{j}] = {lam!r}: the {spec.name} pair has a "
                        "pole at lambda 0, and 1/lambda must be a finite float"
                    )
            names = _lambda_columns(parsed["lambdas"])
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(
                    f"{path}.lambdas name the columns {repeated} more than once; "
                    "column names keep 6 significant digits of lambda"
                )
        elif diag.lambdas is not None:
            parsed["lambdas"] = diag.lambdas
        if diag.centered and n_snapshots < 3:
            raise ConfigError(
                f"{path}: {kind!r} needs at least 3 stored snapshots for the "
                f"centered time difference; cadence stores only {n_snapshots}"
            )
        out.append(parsed)
    return tuple(out)


def _nodes(s_length, n_nodes):
    """Positions of the grid's nodes on the periodic strand."""
    return np.arange(n_nodes) * (s_length / n_nodes)


def _check_on_grid(spec, params, grid):
    """The model's parsed data checked on ``grid``: its fastest wave must
    cross at most ``CFL_LIMIT`` cells a step, and its data must not be
    singular on the nodes (the model's ``check_nodes``, if it has one)."""
    speed = spec.wave_speed(params)
    cfl = speed * grid["dt"] / (grid["s_length"] / grid["n_nodes"])
    if not cfl <= CFL_LIMIT + 1e-12:
        if speed == 1.0:
            raise ConfigError(f"CFL number dt/ds = {cfl:.6g} exceeds the limit {CFL_LIMIT}")
        raise ConfigError(f"CFL number c_max dt/ds = {cfl:.6g}, with wave speed c_max = "
                          f"{speed:.6g}, exceeds the limit {CFL_LIMIT}")
    if spec.check_nodes is not None:
        spec.check_nodes(params, _nodes(grid["s_length"], grid["n_nodes"]))


def _check_grid(s_length, n_nodes, dt, t_end, cadence):
    """The grid fields of a config, checked: node count, step count and cadence."""
    s_length = _number(s_length, "grid.S")
    if s_length <= 0.0:
        raise ConfigError(f"grid.S must be positive, got {s_length}")
    n_nodes = _integer(n_nodes, "grid.N_s")
    if n_nodes < MIN_NODES:
        raise ConfigError(f"grid.N_s must be at least {MIN_NODES}, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise ConfigError(f"grid.N_s must be at most {MAX_NODES}, got {n_nodes}")
    ds = s_length / _number(n_nodes, "grid.N_s")
    if ds == 0.0:
        raise ConfigError(f"grid spacing S / N_s = {s_length} / {n_nodes} underflows to 0")
    dt = _number(dt, "grid.dt")
    if dt <= 0.0:
        raise ConfigError(f"grid.dt must be positive, got {dt}")
    t_end = _number(t_end, "grid.t_end")
    if t_end < dt:
        raise ConfigError(f"grid.t_end must be at least one step, got {t_end} < {dt}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise ConfigError(f"grid.t_end / grid.dt = {t_end} / {dt} overflows")
    n_steps = round(steps)
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"grid.t_end / grid.dt = {t_end} / {dt} is {steps:.10g} steps, "
            f"more than the limit of {MAX_STEPS}"
        )
    if abs(steps - n_steps) > DIVISIBILITY_TOL * max(1.0, n_steps):
        raise ConfigError(f"grid.t_end = {t_end} is not an integer multiple of dt = {dt}")
    cadence = _integer(cadence, "output.cadence")
    if cadence < 1:
        raise ConfigError(f"output.cadence must be at least 1, got {cadence}")
    if n_steps % cadence != 0:
        raise ConfigError(f"output.cadence = {cadence} does not divide the {n_steps} steps")
    return {"s_length": s_length, "n_nodes": n_nodes, "dt": dt, "t_end": t_end,
            "n_steps": n_steps, "cadence": cadence}


@dataclass
class ScenarioConfig:
    """Validated run description; build with ``from_dict`` or ``from_file``."""

    model: str
    s_length: float
    n_nodes: int
    dt: float
    t_end: float
    n_steps: int
    cadence: int
    directory: str | None
    diagnostics: tuple
    params: dict

    @classmethod
    def from_dict(cls, d):
        _require_keys(d, ("model", "grid", "params", "diagnostics", "output"), (), "config")
        model = d["model"]
        if model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {model!r}, expected one of {list(MODEL_NAMES)}")
        grid, output = d["grid"], d["output"]
        _require_keys(grid, ("S", "N_s", "dt", "t_end"), (), "grid")
        _require_keys(output, ("directory", "cadence"), (), "output")
        fields = _check_grid(grid["S"], grid["N_s"], grid["dt"], grid["t_end"], output["cadence"])
        directory = output["directory"]
        if directory is not None and not isinstance(directory, str):
            raise ConfigError("output.directory must be a string or null")

        spec = _SPECS[model]
        n_snapshots = fields["n_steps"] // fields["cadence"] + 1
        params = spec.parse(d["params"], fields["s_length"])
        diagnostics = _validate_diagnostics(spec, d["diagnostics"], n_snapshots)
        _check_on_grid(spec, params, fields)
        return cls(model=model, directory=directory, params=params,
                   diagnostics=diagnostics, **fields)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"config file {path} nests too deeply to parse") from None
        return cls.from_dict(data)

    def refined(self, factor: int):
        """Copy of the config with (ds, dt) divided by ``factor`` jointly.

        Only the grid is checked again, with the model's checks of its data
        on it (``_check_on_grid``), since refining adds nodes; params depend
        on S alone, and the diagnostics' one grid check (3 stored levels)
        only gets easier.
        """
        if isinstance(factor, bool) or not (isinstance(factor, int) and factor >= 1):
            raise ConfigError(f"refinement factor must be a positive integer, got {factor}")
        grid = _check_grid(self.s_length, self.n_nodes * factor, self.dt / factor,
                           self.t_end, self.cadence)
        _check_on_grid(_SPECS[self.model], self.params, grid)
        return dataclasses.replace(self, directory=None, **grid)


# --------------------------------------------------------------------------
# diagnostics and reference errors, one stored level at a time


def _guard_finite(y):
    if not np.isfinite(y).all():
        raise BlowUpError("non-finite field values during stage evaluation")


def _evaluate_diagnostics(y, monitors, window):
    """Evaluate each diagnostic at the newly stored level ``y``.

    ``monitors`` holds (centered, evaluate, columns) per diagnostic, bound
    by ``_bind_diagnostics``; each level's values are appended to
    ``columns``.  The centered kinds share ``window``, a ``_Window`` (None
    when the run has none): once it holds the prediction
    P = y_{k-1} + 2 dt f(y_k), every centered kind is evaluated on
    y - P = 2 dt R_k, formed in P's buffer, at y_k's time.  Then the window
    moves on to (y_k, y).
    """
    residual = None
    if window is not None:
        if window.prediction is not None:
            residual = np.subtract(y, window.prediction, out=window.prediction)
            window.prediction = None
        window.previous, window.newest = window.newest, y
    for centered, evaluate, columns in monitors:
        if not centered:
            _append(columns, evaluate(y))
        elif residual is not None:
            _append(columns, evaluate(residual))


def _bind_diagnostics(cfg, sten, first):
    """(centered, evaluate, columns) of each diagnostic of ``cfg``, bound to the
    run at its first stored level; ``columns`` holds one empty float64
    ``array`` per column name."""
    monitors = []
    for entry in cfg.diagnostics:
        diag = _SPECS[cfg.model].diagnostics[entry["kind"]]
        names, evaluate = diag.bind(cfg, sten, entry.get("lambdas"), first)
        monitors.append((diag.centered, evaluate, {name: array("d") for name in names}))
    return monitors


@dataclass(slots=True)
class _Window:
    """What the centered kinds of a run hold between stored levels.

    ``newest`` is the newest stored level y_k, ``previous`` the one before
    it.  When the step leaving y_k has taken f(y_k), ``predict`` forms
    ``prediction`` = y_{k-1} + 2 dt f(y_k) in a fresh array and drops
    y_{k-1}; no stored level and no derivative is written into.
    """

    dt: float  # the spacing of stored levels
    previous: np.ndarray | None = None
    newest: np.ndarray | None = None
    prediction: np.ndarray | None = None

    def predict(self, y, rate):
        """Form the prediction if ``y`` is the newest level and one precedes it."""
        if y is self.newest and self.previous is not None:
            self.prediction = _predicted(self.previous, rate, self.dt)
            self.previous = None


def _predicted(previous, rate, dt):
    """previous + 2 dt rate, the leapfrog prediction of the next level, in a fresh array."""
    out = rate * (2.0 * dt)
    out += previous
    return out


def _reference_errors(reference, y, t):
    """Errors of the stored level ``y`` against the run's bound reference at
    ``t``; one call per stored level, under a name a tracer can wrap."""
    return reference(y, t)


def _append(columns, values):
    """Append one level's values, in column order, to ``columns``, one float64
    ``array`` per name."""
    for column, value in zip(columns.values(), values):
        column.append(value)


def _columns(columns):
    """The stored columns as float64 arrays on their own buffers, uncopied."""
    return {key: np.frombuffer(column) for key, column in columns.items()}


def _diagnostic_series(cfg, monitors, times):
    """Named series of each diagnostic, with their times (an array of every
    stored time)."""
    return {
        entry["kind"]: {"times": times[1:-1] if centered else times, "columns": _columns(columns)}
        for entry, (centered, _, columns) in zip(cfg.diagnostics, monitors)
    }


def _diagnostic_scalar(data, drift=False):
    """Collapse a series to the scalar used for convergence orders: its largest
    |value|, or with ``drift`` its largest change from the first value."""
    columns = data["columns"].values()
    if drift:
        return max(float(np.max(np.abs(series - series[0]))) for series in columns)
    return max(float(np.max(np.abs(series))) for series in columns)


# --------------------------------------------------------------------------
# reports and file output


@dataclass
class RunReport:
    """Diagnostic series of one scenario run, plus its snapshots if they were kept."""

    model: str
    n_steps: int
    times: np.ndarray
    snapshots: list  # every stored level, or [] when the run kept none
    diagnostics: dict
    reference_error: dict | None
    status: str

    def series(self):
        """Diagnostic series plus the reference error, keyed by output name."""
        out = dict(self.diagnostics)
        if self.reference_error is not None:
            out["reference_error"] = self.reference_error
        return out

    def summary(self):
        """JSON-ready dict of scalar maxima, deterministic key order."""
        kinds = _SPECS[self.model].diagnostics
        diag = {}
        for name, data in self.diagnostics.items():
            diag[name] = {
                "max": _diagnostic_scalar(data, kinds[name].drift),
                "columns": {
                    key: float(np.max(np.abs(series)))
                    for key, series in data["columns"].items()
                },
            }
        out = {
            "model": self.model,
            "n_steps": self.n_steps,
            "status": self.status,
            "diagnostics": diag,
        }
        if self.reference_error is not None:
            out["reference_error"] = {
                key: float(np.max(series))
                for key, series in self.reference_error["columns"].items()
            }
        return out


_NEWLINE = np.frombuffer(b"\n\0\0\0", np.uint32)[0]


def _csv_chunks(header, times, blocks, index=False):
    """The text of one CSV file, as byte arrays that still hold zero bytes.

    The first array is the header line.  ``blocks`` holds one (rows, ncols)
    float array per time, all of one shape.  Each row is the block's time
    t, then, with ``index``, the row's index within its block, then the
    row's values.  Floats print as %.17g, which reads back to the same
    doubles.  Every further array holds the next ``max(1, CSV_CHUNK //
    (1 + ncols))`` whole rows, across block boundaries: at most
    ``CSV_CHUNK`` cells, t's included, all formatted by one ``_g17.cells``
    call, the values' cells each with its comma.  Its rows are laid out side
    by side in 4-byte words: t's cell, the index (with its comma) in as many
    words as the widest index needs, and each value's cell, all of the
    width that ``cells`` returns for the chunk (24 bytes while every value
    is below 10), then a newline word.  Dropping every zero byte gives the
    file's text, whatever ``CSV_CHUNK``.
    """
    yield np.frombuffer(header.encode() + b"\n", np.uint8)
    per_block, ncols = np.shape(blocks[0])
    step = max(1, CSV_CHUNK // (1 + ncols))
    label = [b",%d" % i if index else b"" for i in range(per_block)]
    words = -(-max(map(len, label)) // 4)
    labels = np.frombuffer(b"".join(x.ljust(4 * words, b"\0") for x in label), np.uint32)
    # repeated, so that labels[r0 % per_block:] holds those of the step rows from r0 on
    labels = np.resize(labels.reshape(per_block, words), (per_block + step, words))
    total = len(times) * per_block
    for r0 in range(0, total, step):
        r1 = min(r0 + step, total)
        b0, b1 = r0 // per_block, (r1 - 1) // per_block + 1
        values = np.asarray(blocks[b0:b1]).reshape(-1, ncols)[r0 - b0 * per_block:][:r1 - r0]
        formatted = _g17.cells(np.concatenate((times[b0:b1], values.ravel())),
                               comma_from=b1 - b0).view(np.uint32)
        width = formatted.shape[1]
        rows = np.full(b1 - b0, per_block)  # the chunk's rows in each of its blocks
        rows[0] -= r0 - b0 * per_block
        rows[-1] -= b1 * per_block - r1
        start = width + words  # the first value's cell
        text = np.empty((r1 - r0, start + ncols * width + 1), np.uint32)
        text[:, :width] = np.repeat(formatted[:b1 - b0], rows, axis=0)
        text[:, width:start] = labels[r0 % per_block:][:r1 - r0]
        text[:, start:-1] = formatted[b1 - b0:].reshape(r1 - r0, ncols * width)
        text[:, -1] = _NEWLINE
        del values, formatted  # hold only the text while the caller writes it
        yield text.view(np.uint8).ravel()


def _write_csv(path, header, times, blocks, index):
    """Write one CSV, the text of ``_csv_chunks(header, times, blocks, index)``.

    Open it, write each chunk with its zero bytes dropped before the next
    chunk forms, then close it.  An error stops the write; the file is still
    closed, and an error closing it is raised only when nothing else failed.
    """
    fh = open(path, "wb")
    try:
        for chunk in _csv_chunks(header, times, blocks, index):
            fh.write(chunk[chunk != 0])
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        raise
    fh.close()


def _write_outputs(cfg, report, directory):
    """Every output file of ``report``: one CSV per field, per series, and report.json.

    The field files are written first, file after file; report.json follows
    once every CSV is closed.
    """
    directory = Path(directory)
    ncols = report.snapshots[0].shape[2]
    for slot, name in enumerate(_SPECS[cfg.model].fields):
        header = "t,s_index," + ",".join(f"{name}_{j + 1}" for j in range(ncols))
        _write_csv(directory / f"{name}.csv", header, report.times,
                   [y[slot] for y in report.snapshots], True)
    for name, data in report.series().items():
        columns = data["columns"]
        _write_csv(directory / f"{name}.csv", "t," + ",".join(columns), data["times"],
                   np.column_stack(tuple(columns.values()))[:, None], False)

    with open(directory / "report.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# drivers


def _located(exc, where):
    """A copy of the simulation error ``exc`` that says where the run failed."""
    located = type(exc)(f"{exc} ({where})")
    located.__cause__ = exc
    return located


def run_scenario(cfg: ScenarioConfig, out_dir=None, *, keep_snapshots=True) -> RunReport:
    """Integrate a scenario and evaluate its diagnostics.

    Writes CSV and report files when the config (or ``out_dir``) names an
    output directory; the directory is made before the first step, and a
    path that cannot be one is a ConfigError, as is a file that cannot be
    written after the run.  Each diagnostic and reference is bound once, at
    the first stored level, and evaluated as each level is stored.  So of
    the fields a run holds, besides the state it steps, only what the bound
    kinds keep of the first level (the drift kind's node magnitudes, the
    reference's two rows of N_s doubles per harmonic of the profile) and
    the level before the newest: that level itself, or, while a step runs,
    the centered kinds' prediction formed from it and the step's first
    stage (see ``_Window``); the stage function hands each f(y) to a window,
    which a run has only when it has a centered kind.
    ``RunReport.snapshots`` keeps every stored level when the run writes
    files or ``keep_snapshots`` is true, and is ``[]`` otherwise.  Apart
    from those, what a run keeps grows by about 8 bytes per stored value: each
    stored time, and each value of a diagnostic or reference error at a
    stored level, goes into a float64 column of its series.

    On blow-up or singular configurations the snapshots collected so far are
    still written before the error is re-raised, so partial trajectories stay
    inspectable (if they cannot be written, the run's error is still the one
    raised); a failure while forming the initial data, or on the very first
    stage evaluation, is reported against the initial data at t = 0.
    """
    directory = out_dir if out_dir is not None else cfg.directory
    if directory is not None:
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {directory}: {exc}") from exc
    keep = keep_snapshots or directory is not None
    spec = _SPECS[cfg.model]
    s = _nodes(cfg.s_length, cfg.n_nodes)
    sten = DerivativeStencil(order=2, ds=cfg.s_length / cfg.n_nodes)
    model_rhs = spec.rhs(cfg.params, sten, s)
    stages = 0
    stepped = None  # the state rk4_step last returned, which it has scanned
    window = None
    if any(spec.diagnostics[entry["kind"]].centered for entry in cfg.diagnostics):
        window = _Window(cfg.dt * cfg.cadence)

    def rhs(y):
        nonlocal stages
        stages += 1
        if y is not stepped:
            _guard_finite(y)
        rate = model_rhs(y)
        if window is not None:
            window.predict(y, rate)
        return rate

    snaps, times = [], array("d")

    def store(y, t):
        if keep:
            snaps.append(y)
        times.append(t)
        _evaluate_diagnostics(y, monitors, window)
        if reference_at is not None:
            _append(errors, _reference_errors(reference_at, y, t))

    try:
        y = spec.initial(cfg.params, s)
    except SimulationError as exc:
        raise _located(exc, "initial data, t = 0") from exc
    monitors = _bind_diagnostics(cfg, sten, y)
    reference_at = None
    if spec.reference is not None:
        names, reference_at = spec.reference(cfg.params, s)
        errors = {name: array("d") for name in names}
    del s  # the bound reference holds what it reads of the nodes
    store(y, 0.0)
    failure = None
    for i in range(cfg.n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                y = stepped = rk4_step(y, rhs, cfg.dt)
            except SimulationError as exc:
                where = (
                    "initial data, t = 0" if stages == 1
                    else f"step {i + 1}, t = {(i + 1) * cfg.dt:.9g}"
                )
                failure = _located(exc, where)
                break
        if (i + 1) % cfg.cadence == 0:
            store(y, (i + 1) * cfg.dt)

    times = np.frombuffer(times)
    if failure is None:
        diagnostics = _diagnostic_series(cfg, monitors, times)
        reference = None if spec.reference is None else {
            "times": times, "columns": _columns(errors)}
        status = "ok"
    else:
        diagnostics = {}
        reference = None
        status = f"failed: {failure}"

    report = RunReport(
        model=cfg.model,
        n_steps=cfg.n_steps,
        times=times,
        snapshots=snaps,
        diagnostics=diagnostics,
        reference_error=reference,
        status=status,
    )
    if directory is not None:
        try:
            _write_outputs(cfg, report, directory)
        except OSError as exc:
            if failure is None:
                raise ConfigError(f"cannot write output file: {exc}") from exc
    if failure is not None:
        raise failure
    return report


def convergence_study(cfg: ScenarioConfig, refinement_levels: int):
    """Joint (ds, dt) halving study; orders from consecutive error ratios.

    Every level's config is built, and so checked, before any level runs.
    Each requested diagnostic (and the reference error of the exact models)
    is collapsed to a scalar per level.  Orders are reported as undefined
    when the sequence is non-monotone or sits at the round-off floor.
    """
    if not (isinstance(refinement_levels, int) and refinement_levels >= 3):
        raise ConfigError(
            f"refinement_levels must be an integer >= 3, got {refinement_levels}"
        )
    level_cfgs = [cfg.refined(2**k) for k in range(refinement_levels)]
    kinds = _SPECS[cfg.model].diagnostics
    levels = []
    errors = {}
    for level_cfg in level_cfgs:
        report = run_scenario(level_cfg, keep_snapshots=False)
        levels.append({"N_s": level_cfg.n_nodes, "dt": level_cfg.dt})
        for name, data in report.diagnostics.items():
            errors.setdefault(name, []).append(_diagnostic_scalar(data, kinds[name].drift))
        if report.reference_error is not None:
            errors.setdefault("reference_error", []).append(
                _diagnostic_scalar(report.reference_error))

    study = {"levels": levels, "diagnostics": {}}
    for name, errs in errors.items():
        defined = all(e > ORDER_FLOOR for e in errs) and all(
            errs[i + 1] < errs[i] for i in range(len(errs) - 1)
        )
        entry = {"errors": errs, "orders": None, "order": None}
        if defined:
            entry["orders"] = [
                math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
            ]
            slope = np.polyfit(np.arange(len(errs)), np.log2(errs), 1)[0]
            entry["order"] = float(-slope)
        study["diagnostics"][name] = entry
    return study


def list_scenarios():
    """Registered model names with one-line descriptions."""
    return [(spec.name, spec.description) for spec in MODEL_SPECS]
