"""The one-soliton of the chiral model by Zakharov-Mikhailov dressing, stepped
on the model's right-hand side.

In light-cone coordinates xi = (t + s)/2, eta = (t - s)/2, h = g^{-1} in
SU(2) has the Lax pair d_xi Psi = L_xi/(1 - lambda) Psi,
d_eta Psi = L_eta/(1 + lambda) Psi, with L = dh h^{-1} (Zakharov and
Mikhailov, Sov. Phys. JETP 47, 1017, 1978).  The vacuum
h0 = exp(i sigma3 (p xi + q eta)) has Psi0(lambda) =
exp(i sigma3 (p xi/(1 - lambda) + q eta/(1 + lambda))).  One pole mu dresses
it: chi(lambda) = 1 + (mu - conj(mu))/(lambda - mu) P, with P the orthogonal
projector onto w = Psi0(conj(mu)) e, and h = chi(0) h0.  Then

    L = -c dP chi(0)^{-1} + chi(0) (i sigma3 dphase) chi(0)^{-1},

with c = 1 - conj(mu)/mu, chi(0)^{-1} = 1 - (1 - mu/conj(mu)) P and
dphase = p dxi + q deta, and dP is closed form from dw = i sigma3 dtheta w.
The map w -> -(i/2) w . sigma is a Lie-algebra isomorphism from (R^3, x)
onto su(2), so u and v, with hat(u) = g^{-1} g_t and hat(v) = g^{-1} g_s,
are the vectors of -(L_xi + L_eta)/2 and -(L_xi - L_eta)/2.

With mu = 0.3 + 0.9i, p = q = 1 and e = (1, 1) this is an O(1) localised
rotation of the currents on the vacuum u = (0, 0, 2), v = 0, moving at
speed about -0.32.  Its tails decay like exp(-1.05 |s|), so on the strand
s in [-20, 20) its values at the two ends differ by about 5e-9 up to t = 2:
the floor of any test on the periodic strand, which the tests below state.
"""

import math

import numpy as np

from gstrand import sim_harness
from gstrand.sim_harness import rk4_step
from gstrand.stencil import DerivativeStencil
from test_chiral_product_waves import chiral_cross_mutant

MU, P, Q, E = 0.3 + 0.9j, 1.0, 1.0, (1.0, 1.0)
S_LENGTH = 40.0
T_END = 2.0
LEVELS = (256, 512, 1024, 2048)
SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def soliton(s, t):
    """(u, v) of the soliton at the points s and time t, one (2, N, 3) array."""
    s = np.asarray(s, dtype=float)
    xi, eta = (t + s) / 2.0, (t - s) / 2.0
    a, b = P / (1.0 - MU.conjugate()), Q / (1.0 + MU.conjugate())
    theta = a * xi + b * eta
    sign = np.array([1.0, -1.0])
    w = np.stack([E[0] * np.exp(1j * theta), E[1] * np.exp(-1j * theta)], axis=-1)
    norm = np.sum(np.abs(w) ** 2, axis=-1)[:, None, None]
    proj = w[:, :, None] * w.conj()[:, None, :] / norm
    c = 1.0 - MU.conjugate() / MU
    eye = np.eye(2)
    chi = eye - c * proj
    chi_inv = eye - (1.0 - MU / MU.conjugate()) * proj
    currents = []
    for rate, phase in ((a, P), (b, Q)):
        dw = 1j * rate * sign * w
        dnorm = 2.0 * np.real(np.sum(w.conj() * dw, axis=-1))[:, None, None]
        outer = dw[:, :, None] * w.conj()[:, None, :]
        dproj = (outer + np.swapaxes(outer.conj(), 1, 2)) / norm - proj * dnorm / norm
        rotation = 1j * phase * np.diag(sign)
        currents.append(-c * dproj @ chi_inv + chi @ rotation @ chi_inv)
    l_xi, l_eta = currents
    # the vector of M = -(i/2) w . sigma is w_k = i tr(M sigma_k)
    return np.stack([
        np.real(1j * np.einsum("nij,kji->nk", m, SIGMA))
        for m in (-(l_xi + l_eta) / 2.0, -(l_xi - l_eta) / 2.0)
    ])


def final_errors():
    """Largest error at t = 2 of the soliton stepped with ``rk4_step`` on the
    chiral model's right-hand side, per level: N_s nodes on [-20, 20) and
    ceil(2 pi / ds) steps, so dt is the largest step of at most ds/pi that
    divides t = 2."""
    errors = []
    for n_nodes in LEVELS:
        ds = S_LENGTH / n_nodes
        steps = math.ceil(T_END * math.pi / ds)
        s = -0.5 * S_LENGTH + np.arange(n_nodes) * ds
        rhs = sim_harness._SPECS["chiral"].rhs({}, DerivativeStencil(order=2, ds=ds), s)
        y = soliton(s, 0.0)
        for _ in range(steps):
            y = rk4_step(y, rhs, T_END / steps)
        errors.append(float(np.max(np.abs(y - soliton(s, T_END)))))
    return errors


def end_mismatch():
    """Largest difference between the soliton's values at the two ends of the
    strand, s = -20 and s = 20, over t in [0, 2]."""
    ends = [soliton([-0.5 * S_LENGTH, 0.5 * S_LENGTH], t) for t in np.linspace(0.0, T_END, 9)]
    return max(float(np.max(np.abs(y[:, 0] - y[:, 1]))) for y in ends)


def test_soliton_solves_the_chiral_equations():
    """Central differences of the closed form in t and s satisfy both
    equations to their own error (measured 1.8e-9 and 1.1e-8 at step 1e-4),
    and the soliton is O(1) away from the vacuum u = (0, 0, 2), v = 0."""
    s, t, h = np.linspace(-5.0, 5.0, 11), 0.3, 1e-4
    u, v = soliton(s, t)
    (u_tp, v_tp), (u_tm, v_tm) = (soliton(s, t + d) for d in (h, -h))
    (u_sp, v_sp), (u_sm, v_sm) = (soliton(s + d, t) for d in (h, -h))
    np.testing.assert_allclose((u_tp - u_tm) / (2 * h), (v_sp - v_sm) / (2 * h), atol=1e-7)
    np.testing.assert_allclose((v_tp - v_tm) / (2 * h),
                               (u_sp - u_sm) / (2 * h) - np.cross(u, v), atol=1e-7)
    vacuum = np.stack([np.tile([0.0, 0.0, 2.0], (11, 1)), np.zeros((11, 3))])
    assert np.max(np.abs(np.stack([u, v]) - vacuum)) > 1.0  # measured 1.88


def test_soliton_converges_at_second_order_above_the_end_mismatch():
    """Stepped from the sampled closed form, the error at t = 2 falls at
    second order (measured 7.23e-2, 1.66e-2, 4.09e-3 and 1.02e-3, orders
    2.12, 2.02 and 2.01), and the strand's floor, the end mismatch (measured
    5.2e-9), stays below 1e-3 of the finest error."""
    errors = final_errors()
    assert math.log2(errors[-2] / errors[-1]) >= 1.8, errors
    assert end_mismatch() < 1e-3 * errors[-1], (end_mismatch(), errors)


def test_scaled_cross_term_misses_the_soliton(monkeypatch):
    """u x v scaled by 0.9 misses the soliton by more than 1e-2 on every
    level, so the soliton detects a wrong nonlinear term."""
    monkeypatch.setattr(sim_harness, "chiral_rhs", chiral_cross_mutant)
    errors = final_errors()
    assert min(errors) > 1e-2, errors  # measured 0.24 to 0.28
