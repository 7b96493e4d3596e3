"""Independent numerical oracles used to check the closed-form propagation.

The quadrature oracle integrates dt/dr and dtau/dr for bound radial motion of
local energy E in a single Schwarzschild metric; it shares no code with the
parametric closed forms it validates.  The 4-velocity norm is the
invariant every propagated state keeps.  The per-offset solve (invert_leg)
is the reference that trajectory's per-leg sweep must reproduce to the last
bit, and the per-point contour solve (solve_contour, with _two_shell_period,
_seed and _contour_root) the one that the search's contour sweep must;
rate_table, unitarity_defect and measure_control_diagonal are the references
of the seed table's sweep and of switch's operator check and measurement, and
trace_tables the one of the CLI trace's CSV writers.  The mp_* closed
forms give the periods, the contour, the switch root and the trajectory
samples of a leg (mp_invert_leg) at DPS digits; tanh-sinh quadrature
(mp_quad_period) checks the closed forms.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from shellswitch.errors import (
    GeodesicError, NoSolutionAtRadius, UnboundGeodesicError, UnreachableRadiusError,
)
from shellswitch.geodesic import (
    APOAPSIS_CLAMP, NEWTON_STEPS, NEWTON_TOL, _exterior_leg, coordinate_time, proper_time, radius,
    trajectory,
)
from shellswitch.search import (
    END_GUARD, F_MARGIN, F_UPPER, SEED_RADII, ContourPoint, SearchConfig, _check_end,
    _one_shell_period, one_shell_spacetime, ratio_residual, shell_radius, two_shell_spacetime,
)
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
    place as 2 asin(E), and for the prediction rule.  seed, (eta, local
    target, dt/deta) at the previous evaluated root in the leg or None after
    a bisection, is moved along its tangent to start the solve; a prediction
    inside the leg that moves eta by at most NEWTON_TOL * (eta_h - eta) in the
    seed's eta is taken as the root, with no evaluation of t(eta), and the
    seed it came from is returned unchanged."""
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
    eta_h, two_m, scale = 2.0 * math.asin(params.energy), 2.0 * params.mass, params.energy * params.tau_scale
    if not lo < eta < hi:  # no seed, or its prediction leaves the leg
        eta = lo + (hi - lo) * t_in_leg / leg.dt_global
    elif abs(eta - seed[0]) <= NEWTON_TOL * (eta_h - seed[0]):
        return radius(params, eta), proper_time(params, eta) - tau0, seed
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


# The per-point contour solve that search._contour_points replaced, kept
# verbatim as its bit-for-bit reference: _two_shell_period, _seed,
# _contour_root and solve_contour as they stood before the sweep.

def _two_shell_period(config: SearchConfig, R1: float) -> tuple[float, float]:
    """(Dt, Dtau) of oscillation_period(two_shell_spacetime(config, R1), r_i), raising
    the exception class that raises, on solve_contour's domain.  Straight-line code
    over locals: oscillation_period's two-shell walk (the exterior leg from the config's
    cached release to R1; the transfer at R1; the mass-m span to R2, with the
    cycloid's scalars of CycloidParams.from_state kept as locals and its entry and
    exit points inlined; the transfer at R2 and the flat core) with every float
    operation in the walk's order, so both outputs have its bits, and no object
    built.  Checks that SearchConfig and _contour_points make once are left out: m > 0,
    R2 < R1 and R2 (so R1 too) clear of the horizon 2m."""
    M, m, R2 = config.M, config.m, config.R2
    cycloid, t_release = config.release
    t, dtau, _, u_r, _ = _exterior_leg(cycloid, R1)
    # the transfer at R1 into the mass-m patch, and that patch's rest-release
    # cycloid; each metric_factor(mass, r) inlined as (r - 2 mass) / r
    two_m = 2.0 * m
    gap_a, gap_b = R1 - two_m, R2 - two_m
    f_out, f_in = (R1 - 2.0 * M) / R1, gap_a / R1
    u_r /= math.sqrt(f_out / f_in)
    lapse = math.sqrt(f_in / f_out)
    E_sq = u_r * u_r + f_in
    if not E_sq < 1.0:  # E_sq > 0: f_in > 0
        raise UnboundGeodesicError(f"local energy E={math.sqrt(E_sq):.12g} >= 1 at r={R1}")
    r_apo = R1 if u_r == 0.0 else two_m / (two_m / R1 - u_r * u_r)
    E = math.sqrt(E_sq)
    try:
        cube = r_apo**3
    except OverflowError:
        raise GeodesicError(f"apoapsis r_apo={r_apo} is too large: r_apo**3 overflows") from None
    if cube < sys.float_info.min:
        raise GeodesicError(f"apoapsis r_apo={r_apo} is too small: r_apo**3 underflows")
    t_scale, tau_scale = E * math.sqrt(cube / two_m), math.sqrt(cube / (8.0 * m))
    tan_h = math.sqrt((r_apo - two_m) / two_m)
    # entry at R1 and exit at R2 (R2 / r_apo <= R1 / r_apo: one apoapsis check)
    x_a, x_b = R1 / r_apo, R2 / r_apo
    if x_a - 1.0 > APOAPSIS_CLAMP:
        raise UnreachableRadiusError(f"radius {R1} beyond apoapsis {r_apo}")
    eta_a = 2.0 * math.acos(math.sqrt(1.0 if x_a > 1.0 else x_a))
    eta_b = 2.0 * math.acos(math.sqrt(1.0 if x_b > 1.0 else x_b))
    sin_a, sin_b = math.sin(eta_a), math.sin(eta_b)
    one_minus_E2 = two_m / r_apo
    t_a = (t_scale * (0.5 * (eta_a + sin_a) + one_minus_E2 * eta_a)
           + two_m * math.log((tan_h + math.tan(0.5 * eta_a)) ** 2 * (two_m * R1)
                              / (r_apo * gap_a)))
    tan_b = math.tan(0.5 * eta_b)
    t_b = (t_scale * (0.5 * (eta_b + sin_b) + one_minus_E2 * eta_b)
           + two_m * math.log((tan_h + tan_b) ** 2 * (two_m * R2) / (r_apo * gap_b)))
    dt = abs(t - t_release) + lapse * abs(t_b - t_a)
    dtau += abs(tau_scale * (eta_b + sin_b) - tau_scale * (eta_a + sin_a))
    # the exit tangent at R2, the transfer into the flat core and the core's span
    u_r = -math.sqrt(one_minus_E2) * tan_b
    if u_r == 0.0:
        raise GeodesicError("stationary particle cannot reach a different radius")
    f_core = gap_b / R2
    k = math.sqrt(f_core)
    dtau_core = abs(R2 / (u_r / k))
    dt_core = lapse * math.sqrt(1.0 / f_core) * (E * R2 / gap_b * k * dtau_core)
    return 4.0 * (dt + dt_core), 4.0 * (dtau + dtau_core)


def _seed(config: SearchConfig, R1: float, rate2: float) -> float:
    """f where config.rate_table, inverted by cubic Hermite interpolation of s
    in L = log rate (clamped to the table's rows), puts the one-shell rate at
    rate2; NaN if the table has fewer than two rows.  On the reference the
    seed's R - 2M is ~2.5e-7 relative off the root, so Newton needs ~2.5
    evaluations."""
    log_rates, s_values, ds_dL = config.rate_table
    if len(log_rates) < 2:
        return math.nan
    x = min(max(math.log(rate2), log_rates[0]), log_rates[-1])
    i = min(bisect(log_rates, x), len(log_rates) - 1)
    h = log_rates[i] - log_rates[i - 1]
    t = (x - log_rates[i - 1]) / h
    u = 1.0 - t
    s = (u * u * ((1.0 + 2.0 * t) * s_values[i - 1] + t * h * ds_dL[i - 1])
         + t * t * ((3.0 - 2.0 * t) * s_values[i] - u * h * ds_dL[i]))
    return (2.0 * config.M + math.exp(s) - config.R2) / (R1 - config.R2)


def _contour_root(config: SearchConfig, R1: float, rate2: float,
                  lo: float, hi: float) -> tuple[float, float, float]:
    """(f, Dt1, Dtau1) at the root of the clock-rate residual g in the
    admissible interval [lo, hi], by Newton from the rate table's Hermite seed
    safeguarded by bisection (rtsafe, Numerical Recipes 9.4): g' is the
    closed-form rate slope times dR/df = R1 - R2, and a step that leaves the
    sign bracket bisects it.  The one-shell rate rises strictly in R, so g
    rises in f and has a root iff g(lo) <= 0 <= g(hi).

    Neither end is evaluated up front.  An end is checked (_check_end) only
    when the seed or a Newton step leaves the bracket through it, or when the
    returned f lies within END_GUARD of it, far beyond the residual's rounding
    noise in f.  Elsewhere the root found, an interior zero of the rising g,
    already implies both signs, so NoSolutionAtRadius is raised exactly where
    checks of both ends would raise.  On the grid-200 reference no end is
    evaluated.

    Stops once a Newton step is at most 4 ulps of f, brentq's relative floor.
    f itself can then be up to that step plus half an ulp of R (in f) off the
    root, while f - step is off by the half ulp of R alone; so f - step is
    returned when it keeps the evaluated shell radius, whose periods it then
    shares, and otherwise evaluated once more.  The shell radius
    R2 + (R1 - R2) f is then within 4 ulps of its 50-digit root wherever the
    rate is well conditioned in R (shells within 10% above 2M; see
    solve_contour).  f itself is not bounded in its own ulps: when f is small,
    ulp(f) is far below ulp(R) / (R1 - R2).  After NEWTON_STEPS without
    convergence, bisects the bracket to its last bit (the guard then checks an
    end the bisection ran into)."""
    a, b = lo, hi  # the admissible ends, None once checked
    dR_df = R1 - config.R2
    f, settled = _seed(config, R1, rate2), False
    for _ in range(NEWTON_STEPS):
        if not lo < f < hi:
            if f >= hi == b:
                _check_end(config, R1, rate2, b, 1.0)
                b = None
            elif f <= lo == a:
                _check_end(config, R1, rate2, a, -1.0)
                a = None
            f = 0.5 * (lo + hi)
        R = shell_radius(config, R1, f)
        dt1, dtau1, slope = _one_shell_period(config, R)
        g = dtau1 / dt1 - rate2
        lo, hi = (f, hi) if g < 0.0 else (lo, f)
        d = slope * dR_df
        step = g / d if d else math.inf
        if abs(step) <= 4.0 * math.ulp(f):
            if shell_radius(config, R1, f - step) == R:
                f -= step
                break
            if settled:
                break
            settled = True
        f -= step
    else:
        while lo < (f := 0.5 * (lo + hi)) < hi:
            lo, hi = (f, hi) if ratio_residual(R1, f, config, rate2) < 0.0 else (lo, f)
        dt1, dtau1, _ = _one_shell_period(config, shell_radius(config, R1, f))
    if a is not None and f - a <= END_GUARD:
        _check_end(config, R1, rate2, a, -1.0)
    if b is not None and b - f <= END_GUARD:
        _check_end(config, R1, rate2, b, 1.0)
    return f, dt1, dtau1


def solve_contour(R1: float, config: SearchConfig) -> ContourPoint:
    """Both branch periods at the root in f of the equal-clock-rate residual at
    fixed R1.  The two-shell period depends on R1 alone, so it is computed once
    (_two_shell_period), and only the one-shell branch (_one_shell_period)
    varies with f: both straight-line kernels from the config's cached release,
    which build no object, each the bits of geodesic.oscillation_period on the
    built branch spacetime.  The domain is R2 < R1 <= r_i with
    a non-empty admissible f interval, which puts R1 above 2M / (1 - 1e-6);
    elsewhere NoSolutionAtRadius is raised.  The one-shell rate Dtau1/Dt1
    rises strictly in R (tests/test_search.py checks it at 50 digits), so the
    root is unique, and there is one iff the residual is <= 0 at the lower end
    of the admissible interval and >= 0 at the upper (else NoSolutionAtRadius).
    Safeguarded Newton on the closed-form rate slope solves f from the config's
    Hermite rate-table seed, and checks an end only where that decides the
    outcome (_contour_root).  The shell radius R = R2 + (R1 - R2) f is within
    4 ulps of its 50-digit root for shells within 10% above 2M (1.4 ulps worst
    over 598 random points); farther out the rate flattens in R, and the
    residual's rounding moves the root by more (8.8 ulps seen).  The grid-200
    reference takes 2.5 one-shell evaluations per point and no end check.  A
    pure function of its arguments: the seed never comes from another point."""
    if not config.R2 < R1 <= config.r_i:
        raise NoSolutionAtRadius(f"R1={R1} outside (R2, r_i] = ({config.R2}, {config.r_i}]")
    f_lo = (2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2)
    if f_lo >= F_UPPER:
        raise NoSolutionAtRadius(f"no admissible f interval at R1={R1}")
    try:
        dt2, dtau2 = _two_shell_period(config, R1)
    except GeodesicError as exc:
        raise NoSolutionAtRadius(f"two-shell branch invalid at R1={R1}: {exc}") from exc
    f_star, dt1, dtau1 = _contour_root(config, R1, dtau2 / dt2, max(f_lo, 0.0), F_UPPER)
    return ContourPoint(R1, f_star, dt1, dtau1, dt2, dtau2)


def rate_table(config: SearchConfig) -> tuple[list[float], list[float], list[float]]:
    """SearchConfig.rate_table as it stood before its sweep inlined
    _one_shell_period, kept verbatim as its bit-for-bit reference: one
    _one_shell_period call per row, and e^s formed twice."""
    s_lo, s_hi = math.log(F_MARGIN * config.R1_min), math.log(config.R1_max - 2.0 * config.M)
    log_rates, s_values, ds_dL = [], [], []
    for i in range(SEED_RADII):
        s = s_lo + (s_hi - s_lo) * i / (SEED_RADII - 1)
        dt, dtau, slope = _one_shell_period(config, 2.0 * config.M + math.exp(s))
        if slope > 0.0:  # False for NaN too
            log_rates.append(math.log(dtau / dt))
            s_values.append(s)
            ds_dL.append(dtau / dt / (slope * math.exp(s)))
    return log_rates, s_values, ds_dL


# switch's operator check and measurement as they stood before their in-place
# and shared-slice forms, kept verbatim as their bit-for-bit references

def unitarity_defect(m: np.ndarray) -> float:
    """OperatorSpec's defect of a square complex matrix: max |m^H m - I|."""
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()


def measure_control_diagonal(joint, sign: int) -> tuple[np.ndarray, float]:
    """(target, probability) of switch.measure_control_diagonal."""
    amp = (joint.branch(0) + sign * joint.branch(1)) / math.sqrt(2.0)
    other = (joint.branch(0) - sign * joint.branch(1)) / math.sqrt(2.0)
    raw = float(np.vdot(amp, amp).real)
    prob = raw / (raw + float(np.vdot(other, other).real))
    if prob < 1e-30:
        return np.zeros_like(amp), 0.0
    return amp / math.sqrt(prob), prob


# cli's trace tables as they were written when trajectory returned a list of
# (t_global, r, tau) tuples: each row formatted whole, and the far-side rows
# built as tuples and sorted by a lambda key; kept verbatim (less cli's
# write-error wrapper) as the byte-for-byte reference of its shared-text writers

def _write_csv(path, header: str, rows) -> None:
    """Rows of three floats, each to 17 significant digits."""
    text = header + "\n" + "".join("%.17g,%.17g,%.17g\n" % row for row in rows)
    path.write_text(text)


def trace_tables(outdir, config, solution, samples: int) -> None:
    """The four CSV tables of cli.cmd_trace, each trajectory's rows turned
    back into the list of Python float tuples it returned."""
    branches = {
        "gamma1": one_shell_spacetime(config, solution.R),
        "gamma2": two_shell_spacetime(config, solution.R1),
    }
    t_max = float(config.q) * solution.dt1
    for name, st in branches.items():
        rows = list(zip(*trajectory(st, config.r_i, t_max, samples).T.tolist()))
        _write_csv(outdir / f"{name}.csv", "t_global,r,tau", rows)
    _far_side_tables(outdir, config, solution, samples)


def _far_side_tables(outdir, config, solution, samples: int) -> None:
    r_lo = solution.R1
    radii = [r_lo + (config.r_i - r_lo) * i / (samples - 1) for i in range(samples)]
    passes = ((-1, radii), (+1, [config.r_i - (r - r_lo) for r in radii[1:]]))
    legs = {r: _exterior_leg(config.release[0], r)[:2] for r in {r for _, rs in passes for r in rs}}
    spans = [(sign, r, *legs[r]) for sign, rs in passes for r in rs]
    halves = {
        "gamma1": (solution.dt1 / 2.0, solution.dtau1 / 2.0),
        "gamma2": (solution.dt2 / 2.0, solution.dtau2 / 2.0),
    }
    for name, (t_half, tau_half) in halves.items():
        rows = sorted(
            ((t_half + sign * t_e, r, tau_half + sign * tau_e) for sign, r, t_e, tau_e in spans),
            key=lambda row: row[0],
        )
        _write_csv(outdir / f"farside_{name}.csv", "t_global,r,tau", rows)


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
