"""Independent numerical oracles used to check the closed-form propagation.

The quadrature oracle integrates dt/dr and dtau/dr for bound radial motion of
local energy E in a single Schwarzschild metric; it shares no code with the
parametric closed forms it validates.  The plain bisection is the reference
that the guided trajectory sampling must reproduce to the last bit.  The
scalar contour is the search's f scan before its numpy pass, one ratio_residual
per scan point; the search must reproduce it to the last bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from shellswitch.errors import GeodesicError, GeometryError, NoSolutionAtRadius
from shellswitch.geodesic import coordinate_time, period_spans, proper_time, radius
from shellswitch.search import (
    BRACKET_SCAN,
    F_MARGIN,
    F_UPPER,
    ContourPoint,
    SearchConfig,
    _one_shell_period,
    ratio_residual,
    shell_radius,
)


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


def scalar_contour(R1: float, config: SearchConfig) -> ContourPoint:
    """Both branch periods at the first root (in ascending f) of the
    equal-clock-rate residual at fixed R1.  The two-shell period depends on R1
    alone, so it is computed once and only the one-shell branch varies with f."""
    f_lo = (2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2)
    if f_lo >= F_UPPER:
        raise NoSolutionAtRadius(f"no admissible f interval at R1={R1}")
    f_lo, f_hi = max(f_lo, 0.0), F_UPPER
    try:
        dt2, dtau2 = period_spans((0.0, config.m, config.M), (config.R2, R1), config.r_i)
    except (GeometryError, GeodesicError) as exc:
        raise NoSolutionAtRadius(f"two-shell branch invalid at R1={R1}: {exc}") from exc
    rate2 = dtau2 / dt2
    fs = [f_lo + (f_hi - f_lo) * i / BRACKET_SCAN for i in range(BRACKET_SCAN + 1)]
    vals = [ratio_residual(R1, f, config, rate2) for f in fs]
    for i in range(BRACKET_SCAN):
        a, b = vals[i], vals[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            f_star = fs[i]
            break
        if a * b < 0.0:
            f_star = brentq(
                lambda f: ratio_residual(R1, f, config, rate2),
                fs[i], fs[i + 1], xtol=config.root_tol, rtol=8.9e-16,
            )
            break
    else:
        raise NoSolutionAtRadius(
            f"no sign change of the clock-rate residual in f at R1={R1}"
        )
    # f_star lies between two finite residuals, so the period is finite
    dt1, dtau1 = _one_shell_period(config, shell_radius(config, R1, f_star))
    return ContourPoint(R1, f_star, dt1, dtau1, dt2, dtau2)


def scalar_curve(config: SearchConfig) -> list[tuple[float, float, float]]:
    """period_ratio_curve through scalar_contour, one grid point at a time."""
    curve = []
    for i in range(config.grid):
        R1 = config.R1_min + (config.R1_max - config.R1_min) * i / (config.grid - 1)
        try:
            point = scalar_contour(R1, config)
        except NoSolutionAtRadius:
            continue
        curve.append((point.R1, point.f, point.ratio))
    return curve
