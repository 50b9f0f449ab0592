"""Closed-form reference solutions for the peakon strand system.

A single peakon rides any solution h(s, t) of the 1+1 wave equation; a
peakon-antipeakon pair with zero total momentum has a separation X(s, t)
obtained by mapping 2*sqrt(2)*h through the inverse of the linearizing
integral F.  Both families feed manufactured-solution tests and the exact
reference scenarios of the harness.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigError, SingularConfigurationError, _integer, _number, _require_keys, _terms,
)
from .peakon_dynamics import K0

_WAVE_CHECK_TOL = 1e-6
_WAVE_CHECK_DELTA = 1e-4
MAX_PROFILE_DEPTH = 16  # superpositions inside superpositions; flat parts lists need none

SQRT8 = 2.0 * math.sqrt(2.0)


def _harmonic_sum(terms, x):
    """Sum of amp * sin(k * x + phase) over [amp, k, phase] terms, from zeros shaped like x."""
    out = np.zeros(np.shape(x))  # float zeros; np.zeros_like costs more per call
    for a, k, ph in terms:
        out = out + a * np.sin(k * x + ph)
    return out


def _log_cosh(z):
    """log(cosh(z)) without overflow for large |z|."""
    az = np.abs(np.asarray(z, dtype=float))
    return az + np.log1p(np.exp(-2.0 * az)) - math.log(2.0)


class WaveProfile:
    """A solution h(s, t) of h_tt = h_ss with closed-form derivatives.

    A profile has two evaluators: ``jet(s, t) -> (h, h_t, h_s)``, which
    forms the value and both first derivatives together and which
    ``dh_dt`` and ``dh_ds`` read, and ``h(s, t)``, which forms the value
    alone with the bits of ``jet(s, t)[0]``.  The factory classmethods build
    exact evaluators, so their profiles are not checked.  The constructor
    accepts the three evaluators directly, wraps them into a jet and
    verifies the wave equation by finite differences on a sample grid,
    rejecting inconsistent profiles.
    """

    def __init__(
        self,
        h: Callable,
        dh_dt: Callable,
        dh_ds: Callable,
        descriptor: dict,
    ):
        self._value = h
        self._jet = lambda s, t: (h(s, t), dh_dt(s, t), dh_ds(s, t))
        self.descriptor = dict(descriptor)
        self._self_check()

    @classmethod
    def _exact(cls, value, jet, descriptor):
        """Profile of a factory, whose evaluators are exact: no finite-difference check."""
        profile = cls.__new__(cls)
        profile._value = value
        profile._jet = jet
        profile.descriptor = descriptor
        return profile

    def jet(self, s, t):
        """(h, h_t, h_s) at the broadcast (s, t)."""
        h, h_t, h_s = self._jet(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
        return np.asarray(h), np.asarray(h_t), np.asarray(h_s)

    def h(self, s, t):
        """h alone at the broadcast (s, t), without the derivatives of the jet."""
        return np.asarray(self._value(np.asarray(s, dtype=float), np.asarray(t, dtype=float)))

    def dh_dt(self, s, t):
        return self.jet(s, t)[1]

    def dh_ds(self, s, t):
        return self.jet(s, t)[2]

    def _self_check(self):
        s = np.linspace(0.0, 2.0 * np.pi, 7)[:, None]
        t = np.linspace(0.0, 1.0, 5)[None, :]
        d = _WAVE_CHECK_DELTA
        h = self.h(s, t)
        h_tt = (self.h(s, t + d) - 2.0 * h + self.h(s, t - d)) / (d * d)
        h_ss = (self.h(s + d, t) - 2.0 * h + self.h(s - d, t)) / (d * d)
        # the second differences' rounding grows with the curvature, not only with |h|
        scale = max(1.0, *(float(np.max(np.abs(x))) for x in (h, h_tt, h_ss)))
        defect = float(np.max(np.abs(h_tt - h_ss)))
        if defect > _WAVE_CHECK_TOL * scale:
            raise ValueError(
                f"profile violates the wave equation: residual {defect:.3e} "
                f"exceeds {_WAVE_CHECK_TOL:.1e} x scale {scale:.3e}"
            )

    @classmethod
    def traveling(cls, terms, direction):
        """Profile f(s - direction*t) with f a sum of amp*sin(k*xi + phase) terms.

        Each term's argument is formed once, for one sin and one cos; then
        h_s = f'(xi) and h_t = -direction * h_s, exactly.  The value alone is
        ``_harmonic_sum`` of xi, the jet's operations on h.
        """
        if direction not in (1, -1):
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        terms = [(float(a), float(k), float(ph)) for a, k, ph in terms]
        slopes = [(a, k, ph, a * k) for a, k, ph in terms]  # f' rounded as (a * k) * cos

        def jet(s, t):
            xi = s - direction * t
            h = h_s = np.zeros(np.shape(xi))  # float zeros; np.zeros_like costs more per call
            for a, k, ph, ak in slopes:
                arg = k * xi + ph
                h = h + a * np.sin(arg)
                h_s = h_s + ak * np.cos(arg)
            return h, -direction * h_s, h_s

        def value(s, t):
            return _harmonic_sum(terms, s - direction * t)

        return cls._exact(value, jet, {"type": "traveling",
                                       "terms": [list(t_) for t_ in terms],
                                       "direction": direction})

    @classmethod
    def standing(cls, amplitude, wavenumber):
        """Standing wave amplitude * cos(k s) * cos(k t)."""
        a = float(amplitude)
        k = float(wavenumber)
        minus_ak = -a * k

        def jet(s, t):
            ks, kt = k * s, k * t
            cos_s, cos_t = np.cos(ks), np.cos(kt)
            return (a * cos_s * cos_t, minus_ak * cos_s * np.sin(kt),
                    minus_ak * np.sin(ks) * cos_t)

        def value(s, t):
            return a * np.cos(k * s) * np.cos(k * t)

        return cls._exact(value, jet, {"type": "standing", "amplitude": a, "wavenumber": k})

    @classmethod
    def constant(cls, value):
        """Constant profile, encoded as the k = 0 harmonic so descriptors stay uniform."""
        return cls.traveling([(float(value), 0.0, 0.5 * math.pi)], 1)

    @classmethod
    def superpose(cls, parts):
        """Sum of profiles; each output is summed from 0, as ``sum`` does."""
        parts = list(parts)
        if not parts:
            raise ValueError("superposition needs at least one part")

        def jet(s, t):
            h = h_t = h_s = 0
            for part in parts:
                p_h, p_t, p_s = part.jet(s, t)
                h, h_t, h_s = h + p_h, h_t + p_t, h_s + p_s
            return h, h_t, h_s

        def value(s, t):
            return sum(part.h(s, t) for part in parts)

        return cls._exact(value, jet, {"type": "superposition",
                                       "parts": [p.descriptor for p in parts]})


_PROFILE_KEYS = {
    "traveling": ("type", "terms", "direction"),
    "standing": ("type", "amplitude", "wavenumber"),
    "superposition": ("type", "parts"),
}


def profile_from_descriptor(d) -> WaveProfile:
    """Rebuild a WaveProfile from its JSON descriptor.

    Each kind takes exactly its keys: ``terms`` are checked like the harmonic
    series of initial fields (``[]`` is zero), ``parts`` must be a non-empty
    list, every number finite and the direction a JSON integer.  Anything
    else raises ConfigError, whose message carries the prefix ``bad profile
    descriptor:`` once and names the bad entry by its path, however deep, e.g.
    ``parts[1].terms[0][0]``; so does nesting past ``MAX_PROFILE_DEPTH``.
    """
    try:
        return _parse_profile(d, "")
    except ConfigError as exc:
        raise ConfigError(f"bad profile descriptor: {exc}") from exc


def _parse_profile(d, path):
    """Descriptor ``d`` at ``path`` (empty or ending in '.') to a WaveProfile."""
    name = path[:-1] or "profile"
    if path.count("parts[") > MAX_PROFILE_DEPTH:
        raise ConfigError(f"{name}: superpositions nest more than {MAX_PROFILE_DEPTH} deep")
    kind = d.get("type") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _PROFILE_KEYS:
        raise ConfigError(f"{name} must be an object of type {list(_PROFILE_KEYS)}, got {d!r}")
    _require_keys(d, _PROFILE_KEYS[kind], (), name)
    if kind == "traveling":
        direction = _integer(d["direction"], f"{path}direction")
        if direction not in (1, -1):
            raise ConfigError(f"{path}direction must be +1 or -1, got {direction}")
        return WaveProfile.traveling(_terms(d["terms"], f"{path}terms"), direction)
    if kind == "standing":
        return WaveProfile.standing(
            _number(d["amplitude"], f"{path}amplitude"),
            _number(d["wavenumber"], f"{path}wavenumber"),
        )
    if not isinstance(d["parts"], list) or not d["parts"]:
        raise ConfigError(f"{path}parts must be a non-empty list of profiles")
    return WaveProfile.superpose(
        _parse_profile(part, f"{path}parts[{i}].") for i, part in enumerate(d["parts"])
    )


def _descriptor_wavenumbers(d, path=""):
    """(path, wavenumber) of every harmonic of a built profile's descriptor."""
    if d["type"] == "traveling":
        return [(f"{path}terms[{i}]", k) for i, (_, k, _) in enumerate(d["terms"])]
    if d["type"] == "standing":
        return [(f"{path}wavenumber", d["wavenumber"])]
    return [pair for i, part in enumerate(d["parts"])
            for pair in _descriptor_wavenumbers(part, f"{path}parts[{i}].")]


def single_peakon_exact(profile: WaveProfile, s, t):
    """Exact single-peakon data (Q, M, N) = (h, h_t/K0, -h_s/K0).

    The sign of N follows from the space-slope relation d_s Q = -N K(Q, Q),
    which together with the momentum equations makes Q solve the wave
    equation.
    """
    h, h_t, h_s = profile.jet(s, t)
    return h, h_t / K0, -h_s / K0


def collision_F(x):
    """Linearizing map F(X) = sqrt(2) * integral_0^X (1 - e^{-|Y|})^{-1/2} dY.

    Evaluated in closed form, F(X) = 2 sqrt(2) sign(X) arccosh(e^{|X|/2}).
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return SQRT8 * np.sign(x) * np.log1p(np.expm1(0.5 * ax) + np.sqrt(np.expm1(ax)))


def collision_F_inverse(f):
    """Inverse of ``collision_F``: X = sign(F) * 2 log cosh(F / (2 sqrt 2))."""
    f = np.asarray(f, dtype=float)
    return np.sign(f) * 2.0 * _log_cosh(f / SQRT8)


class CollisionSample(NamedTuple):
    q1: np.ndarray
    q2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class CollisionSolution:
    """Two-peakon solution with M_1 = -M_2, N_1 = -N_2 and center fixed at 0.

    The separation X = Q^1 - Q^2 is branch * log(cosh^2 h) for a wave-equation
    profile h; momenta follow from X through the pair-reduction relations.
    The momentum evaluators are singular wherever h = 0 (the collision
    instant), which ``evaluate`` reports as an error.
    """

    profile: WaveProfile
    branch: int

    def __post_init__(self):
        if self.branch not in (1, -1):
            raise ValueError(f"branch must be +1 or -1, got {self.branch}")

    def separation(self, s, t):
        return self.branch * 2.0 * _log_cosh(self.profile.h(s, t))

    def evaluate(self, s, t) -> CollisionSample:
        """Positions and momenta; M_1 = X_t / (2(K0 - K(X))), N_1 = -X_s / (2(K0 - K(X)))."""
        h, h_t, h_s = self.profile.jet(s, t)
        th = np.tanh(h)
        if np.any(th == 0.0):
            raise SingularConfigurationError(
                "collision instant: h = 0 makes the momentum evaluators singular"
            )
        x = self.branch * 2.0 * _log_cosh(h)
        # K0 - K(X) = K0 tanh^2 h, so the momentum quotients reduce to h_t,s / (K0 tanh h)
        m1 = self.branch * h_t / (K0 * th)
        n1 = -self.branch * h_s / (K0 * th)
        return CollisionSample(
            q1=0.5 * x, q2=-0.5 * x, m1=m1, m2=-m1, n1=n1, n2=-n1, x=x
        )


def collision_exact(sol: CollisionSolution, s, t) -> CollisionSample:
    """Evaluate a collision solution: positions, momenta, and separation."""
    return sol.evaluate(s, t)


@dataclass(frozen=True)
class PotentialReport:
    """Inferred separation/potential gradients plus their consistency residuals.

    ``x_t``, ``x_s`` are the gradients of X implied by the momentum
    differences; ``phi_s``, ``phi_t`` the potential gradients implied by the
    momentum sums.  The residual fields compare the implied X-gradients
    against finite differences of the sampled X, and ``curl``/``loop`` check
    that (phi_s, phi_t) is an actual gradient.
    """

    x_t: np.ndarray
    x_s: np.ndarray
    phi_s: np.ndarray
    phi_t: np.ndarray
    sep_t: float
    sep_s: float
    curl: float
    loop: float | None
    sym_m: float
    sym_n: float


def potentials_resolve(
    m1, m2, n1, n2, x, dt_step, ds_step, periodic_s=False
) -> PotentialReport:
    """Check two-peakon fields sampled on a uniform (t, s) grid.

    Verifies M1 - M2 = X_t / (K0 - K(X)) and N1 - N2 = -X_s / (K0 - K(X))
    by centered differences, plus the existence conditions for a potential
    with M1 + M2 = phi_s and N1 + N2 = -phi_t: the cross-derivative (curl)
    residual and, when the s-axis closes into a loop, the vanishing of the
    s-integral of M1 + M2.  Arrays are shaped (n_t, n_s).
    """
    m1, m2, n1, n2, x = (np.asarray(f, dtype=float) for f in (m1, m2, n1, n2, x))
    if x.ndim != 2 or any(f.shape != x.shape for f in (m1, m2, n1, n2)):
        raise ValueError("fields must share a common (n_t, n_s) shape")
    if x.shape[0] < 3 or x.shape[1] < 3:
        raise ValueError("need at least 3 samples per axis")

    def d_dt(f):
        return (f[2:, :] - f[:-2, :]) / (2.0 * dt_step)

    if periodic_s:
        def d_ds(f):
            return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * ds_step)
    else:
        def d_ds(f):
            return (f[:, 2:] - f[:, :-2]) / (2.0 * ds_step)

    gap = -K0 * np.expm1(-np.abs(x))  # K0 - K(X)
    if np.any(gap == 0.0):
        raise SingularConfigurationError("zero separation in sampled fields")

    sep_t_field = (m1 - m2)[1:-1, :] - d_dt(x) / gap[1:-1, :]
    if periodic_s:
        sep_s_field = (n1 - n2) + d_ds(x) / gap
        curl_field = d_dt(m1 + m2) + d_ds(n1 + n2)[1:-1, :]
    else:
        sep_s_field = (n1 - n2)[:, 1:-1] + d_ds(x) / gap[:, 1:-1]
        curl_field = d_dt(m1 + m2)[:, 1:-1] + d_ds(n1 + n2)[1:-1, :]

    loop = None
    if periodic_s:
        loop = float(np.max(np.abs(np.sum(m1 + m2, axis=1) * ds_step)))

    return PotentialReport(
        x_t=(m1 - m2) * gap,
        x_s=-(n1 - n2) * gap,
        phi_s=m1 + m2,
        phi_t=-(n1 + n2),
        sep_t=float(np.max(np.abs(sep_t_field))),
        sep_s=float(np.max(np.abs(sep_s_field))),
        curl=float(np.max(np.abs(curl_field))),
        loop=loop,
        sym_m=float(np.max(np.abs(m1 + m2))),
        sym_n=float(np.max(np.abs(n1 + n2))),
    )
