"""Exact nonlinear traveling waves of the SO(3) strands, run through the config path.

With v = V(xi), u = alpha V(xi) and xi = s + alpha t, the spin chain's
compatibility equation holds for any V (v x u = 0), and its u-equation
becomes Euler's free rigid body C V' = (C V) x V with inertia
C = alpha^2 A + B.  Both anisotropic forms reduce to V' = V x P V for any
speed alpha, with X = (alpha - 1) V and Y = -(alpha + 1) V in the
counter-propagating variables.  For a symmetric top, C or P = diag(c, c, c3),
the wave is V = (a cos(W xi), a sin(W xi), V3); the data below has W = 1, so
it fits the strand S = 2 pi.  Each run starts from the wave as harmonic
config data and must track the closed form at second order in (ds, dt).
"""

import math

import numpy as np
import pytest

from gstrand import ScenarioConfig, run_scenario, sim_harness

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
LEVELS = (32, 64, 128, 256)

# spin chain: C = 4 A + B = diag(3, 3, 5), so W = (5 - 3) V3 / 3 = 1
SPIN_A, SPIN_B, SPIN_SPEED, SPIN_TOP = [1.0, 1.0, 2.0], [-1.0, -1.0, -3.0], 2.0, (0.5, 1.5)
# anisotropic model: V' = V x P V with P = diag(1, 1, 3), so W = (1 - 3) V3 = 1
ANISO_P, ANISO_TOP = [1.0, 1.0, 3.0], (0.4, -0.5)


def top_terms(a, v3, scale):
    """Harmonic config terms of scale * (a cos s, a sin s, v3), the wave at t = 0."""
    return [[[scale * a, 1.0, HALF_PI]], [[scale * a, 1.0, 0.0]], [[scale * v3, 0.0, HALF_PI]]]


def top_wave(a, v3, xi):
    return np.stack([a * np.cos(xi), a * np.sin(xi), np.full_like(xi, v3)], axis=1)


def final_error(model, params, n_nodes, scales, top, speed):
    """Largest error of either packed field at t = 1 against scale * V(s + speed t),
    on N_s = n_nodes with dt / ds = 1 / pi."""
    dt = (TWO_PI / n_nodes) / math.pi
    cfg = ScenarioConfig.from_dict({
        "model": model,
        "grid": {"S": TWO_PI, "N_s": n_nodes, "dt": dt, "t_end": 1.0},
        "params": params,
        "diagnostics": [],
        "output": {"directory": None, "cadence": n_nodes // 2},
    })
    rep = run_scenario(cfg)
    s = np.arange(n_nodes) * (TWO_PI / n_nodes)
    wave = top_wave(*top, s + speed * rep.times[-1])
    return float(np.max(np.abs(rep.snapshots[-1] - np.stack([c * wave for c in scales]))))


def orders(errors):
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def spin_chain_errors():
    names = ("u", "v")
    scales = (SPIN_SPEED, 1.0)
    params = {"A": SPIN_A, "B": SPIN_B,
              "initial": {f: top_terms(*SPIN_TOP, c) for f, c in zip(names, scales)}}
    return [final_error("spin_chain", params, n, scales, SPIN_TOP, SPIN_SPEED) for n in LEVELS]


def test_spin_chain_symmetric_top_wave_converges_at_second_order():
    errors = spin_chain_errors()
    assert errors[-1] < 1e-4  # measured 3.35e-5
    assert min(orders(errors)) >= 1.8  # measured 2.00, 2.00, 2.00


@pytest.mark.parametrize("speed", [0.5, 2.0, -3.0])
@pytest.mark.parametrize("model", ["aniso_uv", "aniso_xy"])
def test_aniso_symmetric_top_wave_converges_at_second_order(model, speed):
    if model == "aniso_uv":
        names, scales = ("u", "v"), (speed, 1.0)
    else:
        names, scales = ("X", "Y"), (speed - 1.0, -(speed + 1.0))
    params = {"P": ANISO_P,
              "initial": {f: top_terms(*ANISO_TOP, c) for f, c in zip(names, scales)}}
    errors = [final_error(model, params, n, scales, ANISO_TOP, speed) for n in LEVELS]
    assert errors[-1] < 1e-4  # measured 2.8e-5 to 7.1e-5
    assert min(orders(errors)) >= 1.8  # measured 1.99 to 2.02


def test_scaled_flux_term_breaks_the_spin_chain_wave(monkeypatch):
    """The spin chain with (Bv)_s scaled by 0.9 misses the wave by O(1e-1) at
    every level, so the closed form detects a wrong u-equation."""

    def mutant(y, a, b, stencil):
        u, v = y
        au, bv = u * a, v * b
        du = -((np.cross(u, au) + 0.9 * stencil(bv) + np.cross(v, bv)) / a)
        return np.stack((du, stencil(u) + np.cross(v, u)))

    monkeypatch.setattr(sim_harness, "spin_chain_rhs", mutant)
    errors = spin_chain_errors()
    assert min(errors) > 1e-2  # measured 6.3e-2
    assert max(orders(errors)) < 0.5
