"""Exact boosted group-product waves of the chiral model, run through the config path.

With hat(u) = g^{-1} g_t and hat(v) = g^{-1} g_s, the chiral equations
u_t = v_s, v_t = u_s - u x v hold for g = exp(a hat X) exp(b hat Y) whenever
a and b are linear in (t, s) with a_t b_t = a_s b_s.  For |Y| = 1,
a = w gamma (t - beta s), b = k gamma (s - beta t) and
gamma = 1 / sqrt(1 - beta^2), that gives the wave of speed beta

    u = w gamma W(b) - k gamma beta Y,   v = -w gamma beta W(b) + k gamma Y,

with W(b) = exp(-b hat Y) X.  Its cross term v x u = w k gamma^2
(1 - beta^2) Y x W does not vanish, so the wave checks the nonlinear term.
Here Y = e3 and k gamma = 1, so b = s - beta t fits the strand S = 2 pi and
the wave at t = 0 is harmonic config data of wavenumber 1.  The spin chain
with A = I and B = -I is the chiral model, and runs the same data.
"""

import math

import numpy as np
import pytest

from gstrand import ScenarioConfig, convergence_study, run_scenario, sim_harness
from gstrand.algebra import _cross
from gstrand.stencil import slot_derivatives

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
LEVELS = (32, 64, 128, 256)

# beta -> (w gamma, X); k gamma = 1 and Y = e3 throughout
WAVES = {0.6: (1.0, (0.7, 0.0, 0.4)), -0.3: (1.5, (0.5, 0.0, -0.8)), 0.0: (1.0, (0.7, 0.0, 0.4))}
MODELS = {"chiral": {}, "spin_chain": {"A": [1.0, 1.0, 1.0], "B": [-1.0, -1.0, -1.0]}}


def wave_fields(beta, s, t):
    """(u, v) of the wave at time t on the nodes s, as one (2, N_s, 3) array."""
    w, (x1, _, x3) = WAVES[beta]
    b = s - beta * t
    rotated = np.stack([x1 * np.cos(b), -x1 * np.sin(b), np.full_like(b, x3)], axis=1)
    e3 = np.array([0.0, 0.0, 1.0])
    return np.stack([w * rotated - beta * e3, -w * beta * rotated + e3])


def wave_terms(beta):
    """Harmonic config data of ``wave_fields`` at t = 0."""
    w, (x1, _, x3) = WAVES[beta]

    def field(scale, shift):
        return [[[scale * x1, 1.0, HALF_PI]], [[-scale * x1, 1.0, 0.0]],
                [[scale * x3 + shift, 0.0, HALF_PI]]]

    return {"u": field(w, -beta), "v": field(-w * beta, 1.0)}


def wave_config(model, beta, n_nodes, diagnostics=(), cadence=None):
    """The wave on N_s = n_nodes with dt / ds = 1 / pi, to t = 1."""
    dt = (TWO_PI / n_nodes) / math.pi
    return ScenarioConfig.from_dict({
        "model": model,
        "grid": {"S": TWO_PI, "N_s": n_nodes, "dt": dt, "t_end": 1.0},
        "params": {**MODELS[model], "initial": wave_terms(beta)},
        "diagnostics": [{"kind": kind} for kind in diagnostics],
        "output": {"directory": None, "cadence": cadence or n_nodes // 2},
    })


def final_errors(model, beta):
    """Largest error of the final stored level against the wave, per level."""
    errors = []
    for n_nodes in LEVELS:
        rep = run_scenario(wave_config(model, beta, n_nodes))
        s = np.arange(n_nodes) * (TWO_PI / n_nodes)
        exact = wave_fields(beta, s, rep.times[-1])
        errors.append(float(np.max(np.abs(rep.snapshots[-1] - exact))))
    return errors


def orders(errors):
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def test_config_data_is_the_wave_at_t_0():
    for beta in WAVES:
        cfg = wave_config("chiral", beta, 32)
        s = sim_harness._nodes(cfg.s_length, cfg.n_nodes)
        initial = sim_harness._SPECS["chiral"].initial(cfg.params, s)
        assert np.max(np.abs(initial - wave_fields(beta, s, 0.0))) < 1e-15


def test_wave_solves_the_chiral_equations():
    """Central differences of the closed form in t and s satisfy both equations."""
    s, t, h = np.linspace(0.0, TWO_PI, 7), 0.3, 1e-5
    for beta in WAVES:
        u, v = wave_fields(beta, s, t)
        (u_tp, v_tp), (u_tm, v_tm) = (wave_fields(beta, s, t + d) for d in (h, -h))
        (u_sp, v_sp), (u_sm, v_sm) = (wave_fields(beta, s + d, t) for d in (h, -h))
        np.testing.assert_allclose((u_tp - u_tm) / (2 * h), (v_sp - v_sm) / (2 * h), atol=1e-9)
        np.testing.assert_allclose((v_tp - v_tm) / (2 * h),
                                   (u_sp - u_sm) / (2 * h) - np.cross(u, v), atol=1e-9)


@pytest.mark.parametrize("beta", sorted(WAVES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_product_wave_converges_at_second_order(model, beta):
    errors = final_errors(model, beta)
    assert errors[-1] < 1e-4  # measured 6.1e-5 to 6.5e-5
    assert min(orders(errors)) >= 1.8  # measured 1.99 to 2.00


def chiral_cross_mutant(y, stencil):
    out = slot_derivatives(stencil, y[::-1])
    out[1] -= 0.9 * _cross(y[0], y[1])
    return out


def spin_chain_cross_mutant(y, a, b, stencil):
    u, v = y
    au, bv = u * a, v * b
    du = -((_cross(u, au) + stencil(bv) + _cross(v, bv)) / a)
    return np.stack((du, stencil(u) + 0.9 * _cross(v, u)))


@pytest.mark.parametrize("beta", sorted(WAVES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_scaled_cross_term_misses_the_wave(monkeypatch, model, beta):
    """u x v scaled by 0.9 misses every case by more than 1e-2 on every level,
    so the wave detects a wrong nonlinear term."""
    if model == "chiral":
        monkeypatch.setattr(sim_harness, "chiral_rhs", chiral_cross_mutant)
    else:
        monkeypatch.setattr(sim_harness, "spin_chain_rhs", spin_chain_cross_mutant)
    errors = final_errors(model, beta)
    assert min(errors) > 1e-2, errors  # measured 3.5e-2 to 6.4e-2


def test_zero_curvature_column_converges_on_the_wave():
    """With the cadence fixed in steps, the chiral zero_curvature residual of
    the exact wave falls at second order under ``converge``'s refinement: the
    window of two formed levels and the newest as stored gives the curvature
    of a solution that has none, up to the scheme's error."""
    study = convergence_study(wave_config("chiral", 0.6, 32, ("zero_curvature",), cadence=4), 4)
    entry = study["diagnostics"]["zero_curvature"]
    assert entry["errors"][-1] < 1e-4, entry  # measured 1.58e-3, 4.09e-4, 1.03e-4, 2.58e-5
    assert min(entry["orders"]) >= 1.8, entry  # measured 1.95, 1.99, 2.00
