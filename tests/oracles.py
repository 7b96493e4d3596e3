"""Independent numerical oracles used to check the closed-form propagation.

The quadrature oracle integrates dt/dr and dtau/dr for bound radial motion of
local energy E in a single Schwarzschild metric; it shares no code with the
parametric closed forms it validates.  The 4-velocity norm is the
invariant every propagated state keeps.  The per-offset solve (invert_leg)
is the reference that trajectory's per-leg sweep must reproduce to the last
bit.  The mp_* closed forms give the periods, the contour, the switch root and
the trajectory samples of a leg (mp_invert_leg) at DPS digits; tanh-sinh
quadrature (mp_quad_period) checks the closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from shellswitch.geodesic import NEWTON_STEPS, NEWTON_TOL, coordinate_time, proper_time, radius
from shellswitch.spacetime import metric_factor

DPS = 50  # working digits of the mp_* oracles


def quad_spans(mass: float, E: float, r_from: float, r_to: float) -> tuple[float, float]:
    """(dt, dtau) for infall from r_from to r_to < r_from at energy E."""

    def dt_dr(r):
        return -E / ((1.0 - 2.0 * mass / r) * math.sqrt(E * E - 1.0 + 2.0 * mass / r))

    def dtau_dr(r):
        return -1.0 / math.sqrt(E * E - 1.0 + 2.0 * mass / r)

    dt, _ = quad(dt_dr, r_from, r_to, epsabs=1e-13, epsrel=1e-12, limit=400)
    dtau, _ = quad(dtau_dr, r_from, r_to, epsabs=1e-13, epsrel=1e-12, limit=400)
    return dt, dtau


def norm_defect(mass: float, r: float, u_r: float, u_t: float) -> float:
    """|-f u_t^2 + u_r^2 / f + 1| with f = 1 - 2*mass/r: how far the radial
    4-velocity (u_t, u_r) at r in a patch of this mass is from norm -1."""
    f = metric_factor(mass, r)
    return abs(-f * u_t**2 + u_r**2 / f + 1.0)


def invert_leg(leg, t_in_leg: float, seed=None):
    """(r, tau elapsed within leg, seed) at global-time offset t_in_leg from
    leg start: the sampler's solve of one offset before the per-leg sweep
    (geodesic._solve_leg), kept verbatim but for eta_horizon, now formed in
    place as 2 asin(E).  seed, (eta, local target, dt/deta) at the previous
    root in the leg or None after a bisection, is moved along its tangent to
    start the solve."""
    if t_in_leg <= 0.0:
        return leg.r_outer, 0.0, None
    if t_in_leg >= leg.dt_global:
        return leg.r_inner, leg.dtau, None
    if leg.cycloid is None:
        # flat patch: r and tau are linear in t
        frac = t_in_leg / leg.dt_global
        return leg.r_outer + frac * (leg.r_inner - leg.r_outer), frac * leg.dtau, None
    params, (t0, tau0) = leg.cycloid, leg.origin
    t_local_target = t_in_leg / (leg.dt_global / leg.dt_local)
    # t(eta) is strictly increasing on the inbound branch
    lo, hi = leg.eta_entry, leg.eta_exit
    eta = seed[0] + (t_local_target - seed[1]) / seed[2] if seed else lo
    if not lo < eta < hi:  # no seed, or its prediction leaves the leg
        eta = lo + (hi - lo) * t_in_leg / leg.dt_global
    eta_h, two_m, scale = 2.0 * math.asin(params.energy), 2.0 * params.mass, params.energy * params.tau_scale
    for _ in range(NEWTON_STEPS):
        r = radius(params, eta)
        g = coordinate_time(params, eta, r) - t0 - t_local_target
        lo, hi = (eta, hi) if g < 0.0 else (lo, eta)
        dt_deta = scale * r / (r - two_m) * (1.0 + math.cos(eta))
        new = eta - (eta_h - eta) * math.expm1(min(g / (dt_deta * (eta_h - eta)), 1.0))
        if abs(new - eta) <= NEWTON_TOL:
            return radius(params, new), proper_time(params, new) - tau0, (new, t_local_target, dt_deta)
        eta = new if lo < new < hi else 0.5 * (lo + hi)
    while lo < (eta := 0.5 * (lo + hi)) < hi:
        lo, hi = (eta, hi) if coordinate_time(params, eta) - t0 < t_local_target else (lo, eta)
    return radius(params, eta), proper_time(params, eta) - tau0, None


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 50-digit closed forms and the switch root.  The mp_* functions work at
# mpmath's current precision (callers set it with mp.workdps(DPS)), so that
# mp.diff can raise it; mp_switch_root sets DPS itself.

def _stack(masses, shells, r_i):
    """The stack as mpf: masses, patch bounds center-out ending at r_i, the
    lapses of the patches relative to the outermost, and the release energy."""
    masses = [mp.mpf(m) for m in masses]
    bounds = [mp.mpf(0), *(mp.mpf(R) for R in shells), mp.mpf(r_i)]
    lapses = [mp.mpf(1)] * len(masses)
    for k in range(len(masses) - 2, -1, -1):
        R = bounds[k + 1]
        lapses[k] = lapses[k + 1] * mp.sqrt(_f(masses[k], R) / _f(masses[k + 1], R))
    return masses, bounds, lapses, mp.sqrt(_f(masses[-1], bounds[-1]))


def _f(mass, r):
    return 1 - 2 * mass / r


def _cycloid_at(mass, r_apo, r):
    """(t, tau) from rest at r_apo down to r on r = r_apo cos^2(eta/2), in
    the textbook form t/(2m) = log|(h + x)/(h - x)| + h (eta + r_apo/(4m) (eta +
    sin eta)), x = tan(eta/2), h = sqrt(r_apo/(2m) - 1)."""
    eta = 2 * mp.acos(mp.sqrt(min(r / r_apo, 1)))
    x, h = mp.tan(eta / 2), mp.sqrt(r_apo / (2 * mass) - 1)
    tau = mp.sqrt(r_apo**3 / (8 * mass)) * (eta + mp.sin(eta))
    t = 2 * mass * (mp.log((h + x) / (h - x)) + h * (eta + r_apo / (4 * mass) * (eta + mp.sin(eta))))
    return t, tau


def mp_period(masses, shells, r_i):
    """(Dt, Dtau) of the full oscillation from rest at r_i through the
    center-out stack (masses[k] between shells[k - 1], 0 for the core, and
    shells[k]) in closed form: in each patch the local energy is E * lapse, and
    the body moves on a straight line (flat) or on a cycloid piece."""
    masses, bounds, lapses, E = _stack(masses, shells, r_i)
    dt = dtau = mp.mpf(0)
    for mass, a, b, lapse in zip(masses, bounds, bounds[1:], lapses):
        E_k = E * lapse
        if mass == 0:
            span_tau = (b - a) / mp.sqrt(E_k**2 - 1)
            span_t = E_k * span_tau
        else:
            r_apo = 2 * mass / (1 - E_k**2)
            (t_a, tau_a), (t_b, tau_b) = _cycloid_at(mass, r_apo, a), _cycloid_at(mass, r_apo, b)
            span_t, span_tau = t_a - t_b, tau_a - tau_b
        dt += lapse * span_t
        dtau += span_tau
    return 4 * dt, 4 * dtau


def mp_quad_period(masses, shells, r_i):
    """mp_period by tanh-sinh quadrature of dt/dr and dtau/dr in each patch; the
    release patch is integrated in s, r = r_i - s^2, which removes the inverse
    square root at rest."""
    masses, bounds, lapses, E = _stack(masses, shells, r_i)
    dt = dtau = mp.mpf(0)
    for mass, a, b, lapse in zip(masses[:-1], bounds, bounds[1:], lapses):
        E_k = E * lapse
        dtau += mp.quad(lambda r: 1 / mp.sqrt(E_k**2 - _f(mass, r)), [a, b])
        dt += lapse * mp.quad(lambda r: E_k / (_f(mass, r) * mp.sqrt(E_k**2 - _f(mass, r))), [a, b])
    mass, a, b = masses[-1], bounds[-2], bounds[-1]

    def dtau_ds(s):
        return 2 * mp.sqrt((b - s * s) * b / (2 * mass))

    dtau += mp.quad(dtau_ds, [0, mp.sqrt(b - a)])
    dt += mp.quad(lambda s: E * dtau_ds(s) / _f(mass, b - s * s), [0, mp.sqrt(b - a)])
    return 4 * dt, 4 * dtau


def mp_rate(masses, shells, r_i):
    """Dtau/Dt of mp_period: the branch's clock rate."""
    dt, dtau = mp_period(masses, shells, r_i)
    return dtau / dt


def _bracketed_root(g, a, b):
    """The root of g in [a, b], where g changes sign, by the Illinois method
    (Dowell & Jarratt, 1971) until the bracket is a few ulps of the working
    precision wide."""
    a, b = mp.mpf(a), mp.mpf(b)
    ga, gb = g(a), g(b)
    if not ga * gb < 0:
        raise ValueError(f"no sign change on [{a}, {b}]")
    for _ in range(500):
        if abs(b - a) <= 2**8 * mp.eps * abs(b):
            return b
        c = b - gb * (b - a) / (gb - ga)
        gc = g(c)
        if gc == 0:
            return c
        if gc * gb < 0:
            a, ga = b, gb
        else:
            ga /= 2
        b, gb = c, gc
    raise ArithmeticError(f"Illinois iteration did not converge on [{a}, {b}]")


def mp_contour_ratio(m, M, R2, r_i, R1):
    """Dt1/Dt2 on the contour at R1: the one-shell shell radius in (2M, R1)
    whose clock rate equals the two-shell rate."""
    rate2 = mp_rate((0, m, M), (R2, R1), r_i)
    R = _bracketed_root(lambda R: mp_rate((0, M), (R,), r_i) - rate2,
                        2 * mp.mpf(M) * (1 + mp.mpf(10) ** -15), R1)
    return mp_period((0, M), (R,), r_i)[0] / mp_period((0, m, M), (R2, R1), r_i)[0]


def mp_invert_leg(leg, t_in_leg: float):
    """(r, tau elapsed within leg) at global-time offset t_in_leg from the start
    of a Schwarzschild leg, at DPS digits: the root in eta > eta_entry of
    t(eta) - t(eta_entry) = t_in_leg * dt_local / dt_global.  t and tau are
    the cycloid's closed forms from the leg's float mass, r_apo and energy, the
    log term in the textbook form of _cycloid_at."""
    params = leg.cycloid
    with mp.workdps(DPS):
        mass, r_apo, E = (mp.mpf(x) for x in (params.mass, params.r_apo, params.energy))
        h, tau_scale = mp.sqrt(r_apo / (2 * mass) - 1), mp.sqrt(r_apo**3 / (8 * mass))

        def t_tau(eta):
            x, arc = mp.tan(eta / 2), eta + mp.sin(eta)
            t = E * 2 * tau_scale * (arc / 2 + 2 * mass / r_apo * eta) + 2 * mass * mp.log((h + x) / (h - x))
            return t, tau_scale * arc

        a = mp.mpf(leg.eta_entry)
        t_a, tau_a = t_tau(a)
        target = t_a + mp.mpf(t_in_leg) * mp.mpf(leg.dt_local) / mp.mpf(leg.dt_global)
        # past eta_exit, halfway to the horizon: a target within rounding of
        # the leg's end still has its root bracketed
        b = (leg.eta_exit + 2 * mp.asin(E)) / 2
        eta = _bracketed_root(lambda eta: t_tau(eta)[0] - target, a, b)
        return r_apo * mp.cos(eta / 2) ** 2, t_tau(eta)[1] - tau_a


@lru_cache(maxsize=None)
def mp_switch_root(m, M, R2, r_i, p, q, R1_min, R1_max):
    """R1 at DPS digits where the contour's period ratio is p/q, bracketed by
    [R1_min, R1_max]."""
    with mp.workdps(DPS):
        target = mp.mpf(p) / q
        return _bracketed_root(lambda R1: mp_contour_ratio(m, M, R2, r_i, R1) - target,
                               R1_min, R1_max)
