"""Independent numerical oracles used to check the closed-form propagation.

The quadrature oracle integrates dt/dr and dtau/dr for bound radial motion of
local energy E in a single Schwarzschild metric; it shares no code with the
parametric closed forms it validates.  The plain bisection is the reference
that the guided trajectory sampling must reproduce to the last bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from shellswitch.geodesic import coordinate_time, proper_time, radius


def quad_spans(mass: float, E: float, r_from: float, r_to: float) -> tuple[float, float]:
    """(dt, dtau) for infall from r_from to r_to < r_from at energy E."""

    def dt_dr(r):
        return -E / ((1.0 - 2.0 * mass / r) * math.sqrt(E * E - 1.0 + 2.0 * mass / r))

    def dtau_dr(r):
        return -1.0 / math.sqrt(E * E - 1.0 + 2.0 * mass / r)

    dt, _ = quad(dt_dr, r_from, r_to, epsabs=1e-13, epsrel=1e-12, limit=400)
    dtau, _ = quad(dtau_dr, r_from, r_to, epsabs=1e-13, epsrel=1e-12, limit=400)
    return dt, dtau


def invert_leg_bisection(leg, t_in_leg: float) -> tuple[float, float]:
    """(r, tau elapsed within leg) at global-time offset t_in_leg from leg
    start, by plain bisection in eta (the sampling before its Newton guide)."""
    seg = leg.segment
    if t_in_leg <= 0.0:
        return leg.r_outer, 0.0
    if t_in_leg >= leg.dt_global:
        return leg.r_inner, leg.dtau
    if seg.cycloid is None:
        # flat patch: r and tau are linear in t
        frac = t_in_leg / leg.dt_global
        return (
            leg.r_outer + frac * (leg.r_inner - leg.r_outer),
            frac * leg.dtau,
        )
    params = seg.cycloid
    t_local_target = t_in_leg / (leg.dt_global / leg.dt_local)
    t0 = coordinate_time(params, seg.eta_entry, leg.r_outer)
    lo, hi = seg.eta_entry, seg.eta_exit
    # t(eta) is strictly increasing on the inbound branch; bisect to 1e-12 in eta
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if coordinate_time(params, mid) - t0 < t_local_target:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    tau0 = proper_time(params, seg.eta_entry)
    return radius(params, eta), proper_time(params, eta) - tau0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)
