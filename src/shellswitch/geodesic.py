"""Piecewise-analytic radial geodesics and null rays in glued shell spacetimes.

Bound radial Schwarzschild geodesics are handled in closed form through the
cycloid parametrization r = r_apo * cos^2(eta/2).  Segments in flat patches are
straight lines.  Crossing a shell transfers the tangent vector between the two
patch descriptions while keeping proper time and global coordinate time
continuous; a full oscillation is composed out of quarter-oscillation legs with
the spacetime's per-patch lapse factors applied.

The coordinate-time log term is evaluated through (r - 2*mass)/r expressions:
the configurations of interest place shells within ~1e-4 of their horizons,
where the naive tan-difference form loses most of its digits.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
# Unused here, and kept: the benchmark's tracer (bench/tracer.py) wraps and
# counts geodesic.replace, so the name must stay a module attribute.
from dataclasses import replace  # noqa: F401

from .errors import (
    GeodesicError,
    HorizonViolation,
    NoRestoringForceError,
    UnboundGeodesicError,
    UnreachableRadiusError,
)
from .spacetime import ShellSpacetime, metric_factor

APOAPSIS_CLAMP = 1e-14
NEWTON_STEPS, NEWTON_TOL = 30, 1e-9


# ---------------------------------------------------------------------------
# Single-patch cycloid kinematics

# slotted and not frozen, as Leg: a frozen build, through object.__setattr__,
# took about twice as long, and the walk builds one per Schwarzschild patch
@dataclass(slots=True)
class CycloidParams:
    """Bound radial geodesic in one Schwarzschild patch of the given mass,
    released from rest (possibly fictitiously) at r_apo.  The per-orbit factors
    of the closed forms are computed once, each the leading part of its formula."""

    mass: float
    r_apo: float
    energy: float
    t_scale: float = field(init=False, repr=False, compare=False)  # E*sqrt(r_apo^3/(2M))
    tau_scale: float = field(init=False, repr=False, compare=False)  # sqrt(r_apo^3/(8M))
    u_scale: float = field(init=False, repr=False, compare=False)  # sqrt(2M/r_apo)
    one_minus_E2: float = field(init=False, repr=False, compare=False)  # 2M/r_apo
    tan_h: float = field(init=False, repr=False, compare=False)  # tan(eta_h/2), eta_h = 2 asin(E)

    def __post_init__(self):
        if not 0.0 < self.energy < 1.0:
            raise UnboundGeodesicError(
                f"bound motion requires 0 < E < 1, got E={self.energy}"
            )
        mass, r_apo = self.mass, self.r_apo
        if not mass > 0.0:
            raise NoRestoringForceError(f"a cycloid needs mass > 0, got mass={mass}")
        try:
            cube = r_apo**3
        except OverflowError:
            raise GeodesicError(f"apoapsis r_apo={r_apo} is too large: r_apo**3 overflows") from None
        if cube < sys.float_info.min:  # the closed forms lose bits, or divide by 0
            raise GeodesicError(f"apoapsis r_apo={r_apo} is too small: r_apo**3 underflows")
        self.t_scale = self.energy * math.sqrt(cube / (2.0 * mass))
        self.tau_scale = math.sqrt(cube / (8.0 * mass))
        self.u_scale = math.sqrt(2.0 * mass / r_apo)
        self.one_minus_E2 = 2.0 * mass / r_apo
        self.tan_h = math.sqrt((r_apo - 2.0 * mass) / (2.0 * mass))

    @classmethod
    def from_state(cls, mass: float, r: float, u_r: float) -> "CycloidParams":
        """Extend a mid-flight state (r, dr/dtau) to its fictitious rest-release
        geodesic in a single metric of this mass."""
        f = metric_factor(mass, r)
        E_sq = u_r * u_r + f
        if E_sq >= 1.0:
            raise UnboundGeodesicError(
                f"local energy E={math.sqrt(E_sq):.12g} >= 1 at r={r}"
            )
        if u_r == 0.0:
            # at rest r is the apoapsis; 2*mass / (2*mass/r) can round off it
            r_apo = r
        else:
            # 1 - E^2 = 2*mass/r - u_r^2, formed without subtracting near-unity terms
            r_apo = 2.0 * mass / (2.0 * mass / r - u_r * u_r)
        return cls(mass=mass, r_apo=r_apo, energy=math.sqrt(E_sq))


def eta_of_radius(params: CycloidParams, r: float) -> float:
    """Invert r = r_apo * cos^2(eta/2) on the inbound branch eta in [0, pi)."""
    x = r / params.r_apo
    if x > 1.0:
        if x - 1.0 > APOAPSIS_CLAMP:
            raise UnreachableRadiusError(
                f"radius {r} beyond apoapsis {params.r_apo}"
            )
        x = 1.0
    if x < 0.0:
        raise GeodesicError(f"negative radius {r}")
    return 2.0 * math.acos(math.sqrt(x))


def radius(params: CycloidParams, eta: float) -> float:
    return params.r_apo * math.cos(0.5 * eta) ** 2


def proper_time(params: CycloidParams, eta: float) -> float:
    """Proper time elapsed from rest at r_apo (eta = 0)."""
    return params.tau_scale * (eta + math.sin(eta))


def coordinate_time(params: CycloidParams, eta: float, r: float | None = None) -> float:
    """Patch coordinate time elapsed from rest at r_apo (eta = 0).

    When the radius at eta is known exactly (e.g. a shell radius), pass it as r
    so that the near-horizon factor r - 2*mass is formed from the exact value.
    """
    mass, r_apo, tan_h = params.mass, params.r_apo, params.tan_h
    if r is None:
        r = radius(params, eta)
    if r <= 2.0 * mass:
        raise GeodesicError(
            f"coordinate time diverges: r={r} at or inside horizon {2.0 * mass}"
        )
    poly = params.t_scale * (0.5 * (eta + math.sin(eta)) + params.one_minus_E2 * eta)
    tan_e = math.tan(0.5 * eta)
    # tan_h^2 - tan_e^2 == r_apo*(r - 2*mass) / (2*mass*r), so the log of the
    # ratio (tan_h + tan_e)/(tan_h - tan_e) can be formed without cancellation:
    log_term = 2.0 * mass * math.log(
        (tan_h + tan_e) ** 2 * (2.0 * mass * r) / (r_apo * (r - 2.0 * mass))
    )
    return poly + log_term


# ---------------------------------------------------------------------------
# Patch spans, shell crossings and the full oscillation

def _schwarzschild_span(mass: float, r: float, u_r: float, r_exit: float):
    """Motion from r (radial velocity u_r) to r_exit in one Schwarzschild patch:
    (dt_local, dtau, u_r, u_t at r_exit, cycloid, eta_entry, eta_exit, and the
    cycloid's (t, tau) at entry).

    The motion is a piece of the fictitious rest-release cycloid through the
    entry state, both ends read by _exterior_leg; outbound pieces use the
    time-reflection of the inbound branch, so both spans are absolute values of
    parametric differences.
    """
    params = CycloidParams.from_state(mass, r, u_r)
    t_a, tau_a, _, _, eta_a = _exterior_leg(params, r)
    t_b, tau_b, u_t, u_r_b, eta_b = _exterior_leg(params, r_exit)
    sign = 1.0 if r_exit > r else (-1.0 if r_exit < r else math.copysign(1.0, u_r))
    return (abs(t_b - t_a), abs(tau_b - tau_a), sign * abs(u_r_b), u_t,
            params, eta_a, eta_b, (t_a, tau_a))


def _minkowski_span(r: float, u_r: float, u_t: float, r_exit: float) -> tuple[float, float]:
    """(dt_local, dtau) of uniform straight-line motion from r to r_exit in a
    flat patch; the velocity (u_r, u_t) does not change."""
    dr = r_exit - r
    if dr == 0.0:
        return 0.0, 0.0
    if u_r == 0.0:
        raise GeodesicError("stationary particle cannot reach a different radius")
    dtau = abs(dr / u_r)
    return u_t * dtau, dtau


# slotted for trajectory's attribute reads (a NamedTuple field reads ~3x slower);
# not frozen, which would cost ~3 us per leg to build
@dataclass(slots=True)
class Leg:
    """One patch traversal of the inbound quarter oscillation: spans from r_outer
    down to r_inner, the proper time since release at entry and, in a
    Schwarzschild patch, the cycloid, its eta range and its (t, tau) at entry,
    the origin that trajectory's solves measure from (None in a flat patch)."""

    patch_index: int
    r_outer: float
    r_inner: float
    dt_local: float
    dt_global: float
    dtau: float
    tau: float
    cycloid: CycloidParams | None
    eta_entry: float | None
    eta_exit: float | None
    origin: tuple[float, float] | None


def _exterior_leg(release: CycloidParams, r: float) -> tuple[float, float, float, float, float]:
    """(t, tau, u_t, u_r, eta) at r on the cycloid from rest at release.r_apo, t with
    the release's own t not subtracted; the walk's spans, the search's one-shell
    kernel, the meeting and the far-side tables read it (the contour sweep inlines
    it, in its order, with the checks that can fire there), and it is the program's
    one source of a 4-velocity, (u_t, u_r) = (dt/dtau, dr/dtau) on the inbound
    branch.  One pass: eta_of_radius, coordinate_time and proper_time inlined, in
    their order and with their checks, sharing one tan(eta/2) and one sin(eta),
    so t, tau and eta keep their bits."""
    mass, r_apo = release.mass, release.r_apo
    x = r / r_apo
    if x > 1.0:
        if x - 1.0 > APOAPSIS_CLAMP:
            raise UnreachableRadiusError(f"radius {r} beyond apoapsis {r_apo}")
        x = 1.0
    if x < 0.0:
        raise GeodesicError(f"negative radius {r}")
    eta = 2.0 * math.acos(math.sqrt(x))
    if r <= 2.0 * mass:
        raise GeodesicError(f"coordinate time diverges: r={r} at or inside horizon {2.0 * mass}")
    u_t = release.energy * r / (r - 2.0 * mass)
    tan_e, sin_e = math.tan(0.5 * eta), math.sin(eta)
    t = (release.t_scale * (0.5 * (eta + sin_e) + release.one_minus_E2 * eta)
         + 2.0 * mass * math.log((release.tan_h + tan_e) ** 2 * (2.0 * mass * r)
                                 / (r_apo * (r - 2.0 * mass))))
    return t, release.tau_scale * (eta + sin_e), u_t, -release.u_scale * tan_e, eta


def oscillation_period(spacetime: ShellSpacetime, r_i: float) -> tuple[float, float, list[Leg]]:
    """(Dt_global, Dtau, inbound quarter legs) of one oscillation from rest at r_i.

    The walk, one leg per patch, outermost first: the exterior's span from rest
    at r_i down to its shell; at each shell the transfer u_r / k, u_t * k, with
    k = sqrt(f_out / f_in); each patch's span down to its r_min, the flat core's
    to the center, in global time by the patch's spacetime.lapses entry; four
    mirrored quarters.  The search's straight-line copies of its one- and
    two-shell cases are held to it bit for bit: search._one_shell_period, and the
    two-shell walk written inline in search._contour_points, whose reference is
    _two_shell_period in tests/oracles.py.
    """
    patches, lapses = spacetime.patches, spacetime.lapses
    if patches[0].mass != 0.0:
        raise NoRestoringForceError("oscillation through the center requires a flat core")
    if patches[-1].mass <= 0.0:
        raise NoRestoringForceError("outermost patch is flat: nothing pulls the body back")
    if r_i < patches[-1].r_min:
        raise GeodesicError(f"release radius {r_i} below the outermost patch")
    legs, dt, dtau, r, u_r, u_t = [], 0.0, 0.0, r_i, 0.0, None
    for index in range(len(patches) - 1, -1, -1):
        mass, r_min = patches[index].mass, patches[index].r_min
        if legs:  # the shell at r
            k = math.sqrt(metric_factor(patches[index + 1].mass, r) / metric_factor(mass, r))
            u_r, u_t = u_r / k, u_t * k
        if mass > 0.0:
            span_t, span_tau, u_r, u_t, params, eta_a, eta_b, origin = _schwarzschild_span(
                mass, r, u_r, r_min)
        else:
            span_t, span_tau = _minkowski_span(r, u_r, u_t, r_min)
            params = eta_a = eta_b = origin = None
        span_global = lapses[index] * span_t
        legs.append(Leg(index, r, r_min, span_t, span_global, span_tau, dtau,
                        params, eta_a, eta_b, origin))
        dt, dtau, r = dt + span_global, dtau + span_tau, r_min
    return 4.0 * dt, 4.0 * dtau, legs


# ---------------------------------------------------------------------------
# Trajectory sampling in global time

def _solve_leg(leg: Leg, t_in_legs: list[float]) -> tuple[list[float], list[float], int]:
    """(r, tau elapsed within leg) at each of the ascending global-time offsets
    t_in_legs from the start of a Schwarzschild leg, and the number of
    evaluations of t(eta) made.

    Each solve finds the root of t(eta) - t0 = t_local_target in its sign
    bracket [eta_entry, eta_exit], by Newton safeguarded by bisection
    (rtsafe, Numerical Recipes 9.4): steps are taken in s = log(eta_h - eta),
    eta_h = 2 asin(E) at the horizon, so that near-horizon legs converge fast
    too, and a step that leaves the bracket bisects it.  A solve starts from
    the previous root in the leg, moved along its tangent, or from the linear
    guess across the leg: for the first solve, after a leg-end or bisected
    one, and where the prediction leaves the leg.  After NEWTON_STEPS without
    convergence the bracket is bisected to its last bit.

    One sweep per leg: the leg's and cycloid's invariants are read once, the
    seed stays in locals, and radius, coordinate_time and proper_time are
    inlined in the Newton loop in their float order and with their checks, so
    each root has the bits of a solve through those functions.  Flat legs
    never come here: trajectory solves them as array arithmetic."""
    r_outer, r_inner, dt_global, leg_dtau = leg.r_outer, leg.r_inner, leg.dt_global, leg.dtau
    params = leg.cycloid
    mass, r_apo, tan_h, t_scale = params.mass, params.r_apo, params.tan_h, params.t_scale
    one_minus_E2, tau_scale = params.one_minus_E2, params.tau_scale
    eta_h, two_m, scale = 2.0 * math.asin(params.energy), 2.0 * mass, params.energy * tau_scale
    (t0, tau0), entry, exit_ = leg.origin, leg.eta_entry, leg.eta_exit
    t_per_local = dt_global / leg.dt_local
    cos, sin, tan, log, expm1 = math.cos, math.sin, math.tan, math.log, math.expm1
    rs, dtaus, evals, steps = [], [], 0, NEWTON_STEPS
    add_r, add_dtau = rs.append, dtaus.append
    seed_eta = seed_target = seed_slope = None  # at the previous root in the leg
    for t_in_leg in t_in_legs:
        if t_in_leg <= 0.0:
            add_r(r_outer)
            add_dtau(0.0)
            seed_eta = None
            continue
        if t_in_leg >= dt_global:
            add_r(r_inner)
            add_dtau(leg_dtau)
            seed_eta = None
            continue
        target = t_in_leg / t_per_local
        # t(eta) is strictly increasing on the inbound branch
        lo, hi = entry, exit_
        eta = lo if seed_eta is None else seed_eta + (target - seed_target) / seed_slope
        if not lo < eta < hi:  # no seed, or its prediction leaves the leg
            eta = lo + (hi - lo) * t_in_leg / dt_global
        seed_eta = None
        for _ in range(steps):
            evals += 1
            r = r_apo * cos(0.5 * eta) ** 2
            if r <= two_m:
                raise GeodesicError(f"coordinate time diverges: r={r} at or inside horizon {two_m}")
            tan_e = tan(0.5 * eta)
            g = (t_scale * (0.5 * (eta + sin(eta)) + one_minus_E2 * eta)
                 + two_m * log((tan_h + tan_e) ** 2 * (two_m * r) / (r_apo * (r - two_m)))
                 - t0 - target)
            lo, hi = (eta, hi) if g < 0.0 else (lo, eta)
            dt_deta = scale * r / (r - two_m) * (1.0 + cos(eta))
            s_step = g / (dt_deta * (eta_h - eta))
            new = eta - (eta_h - eta) * expm1(1.0 if s_step > 1.0 else s_step)  # min(s_step, 1.0), no call
            if abs(new - eta) <= NEWTON_TOL:
                add_r(r_apo * cos(0.5 * new) ** 2)
                add_dtau(tau_scale * (new + sin(new)) - tau0)
                seed_eta, seed_target, seed_slope = new, target, dt_deta
                break
            eta = new if lo < new < hi else 0.5 * (lo + hi)
        else:
            while lo < (eta := 0.5 * (lo + hi)) < hi:
                evals += 1
                lo, hi = (eta, hi) if coordinate_time(params, eta) - t0 < target else (lo, eta)
            add_r(radius(params, eta))
            add_dtau(proper_time(params, eta) - tau0)
    return rs, dtaus, evals


def trajectory(
    spacetime: ShellSpacetime, r_i: float, t_global_max: float, sample_count: int
) -> "np.ndarray":
    """Uniform global-time samples of the oscillating drop: a C-contiguous
    (sample_count, 3) float64 array whose rows are (t_global, r, tau).

    Each sample time is reduced to an offset in the inbound quarter, rem or
    t_half - rem after divmod(t, t_half), and the distinct offsets are swept
    in ascending order, each solved once: samples one period apart, and
    mirrored samples in a half period, often share an offset.  The offsets
    are split among the quarter's legs, each going to the first leg that ends
    at or after it (else the last).  A flat leg's share is array arithmetic,
    r and tau linear in t; each Schwarzschild leg's share is solved in one
    _solve_leg sweep, with no Python call per offset.  A Schwarzschild solve
    starts from the previous root in its leg, moved along its tangent: about
    1.35 evaluations of t(eta) per solve.  So a row's last bits can depend on
    the call's other samples; the same arguments give the same rows, and
    equal offsets in one call share their bits.

    The sample times, their reduction, each leg's offsets from its start, the
    flat legs' r and tau are numpy array operations, each a basic IEEE
    operation (numpy's divmod is CPython's fmod-based one), so rows keep the
    bits of per-sample Python arithmetic on every SIMD level; the
    Schwarzschild solves stay in math.  The rows are the three columns copied
    side by side, signed zeros included: 24 bytes a sample, and no Python
    object per row.  numpy is imported here, not at module scope, so
    importing geodesic, the package or its CLI loads no numpy until a
    trajectory is sampled.
    """
    import numpy as np

    if sample_count <= 0:
        raise GeodesicError("sample_count must be positive")
    # NaN and inf t_global_max, and a finite one whose t_global_max * i
    # overflows, would give NaN rows
    if not math.isfinite(t_global_max * (sample_count - 1)):
        raise GeodesicError(
            f"sample times must be finite: t_global_max={t_global_max} over {sample_count} samples"
        )
    dt_period, dtau_period, legs = oscillation_period(spacetime, r_i)
    t_quarter, t_half, tau_half = dt_period / 4.0, dt_period / 2.0, dtau_period / 2.0

    t = (t_global_max * np.arange(sample_count, dtype=float) / (sample_count - 1)
         if sample_count > 1 else np.zeros(1))
    n_half, rem = np.divmod(t, t_half)
    inbound = rem <= t_quarter
    offsets, solve_of = np.unique(np.where(inbound, rem, t_half - rem), return_inverse=True)
    ascending = offsets.tolist()
    # r and tau_q of each distinct offset, filled leg by leg
    r_solved, tau_solved = np.empty(len(ascending)), np.empty(len(ascending))
    start, t0, last = 0, 0.0, len(legs) - 1
    for k, leg in enumerate(legs):
        # the leg holding an offset: the first that ends at or after it, else the last
        end = len(ascending) if k == last else bisect_right(ascending, t0 + leg.dt_global, start)
        if end > start:
            offs = offsets[start:end] - t0
            if leg.cycloid is None:
                # flat patch: r and tau are linear in t.  The outermost patch
                # is never flat, so every offset here is past the leg's start;
                # the run at or past its end is clamped to it.
                inside = start + int(offs.searchsorted(leg.dt_global))
                frac = offs[:inside - start] / leg.dt_global
                r_solved[start:inside] = leg.r_outer + frac * (leg.r_inner - leg.r_outer)
                tau_solved[start:inside] = leg.tau + frac * leg.dtau
                r_solved[inside:end], tau_solved[inside:end] = leg.r_inner, leg.tau + leg.dtau
            else:
                rs, dtaus, _ = _solve_leg(leg, offs.tolist())
                r_solved[start:end] = rs
                tau_solved[start:end] = leg.tau + np.array(dtaus)
        start, t0 = end, t0 + leg.dt_global
    r, tau_q = r_solved[solve_of], tau_solved[solve_of]
    tau = np.where(inbound, n_half * tau_half + tau_q, (n_half + 1.0) * tau_half - tau_q)
    return np.column_stack((t, r, tau))


# ---------------------------------------------------------------------------
# Null rays and static observers

def _null_dt_schwarzschild(mass: float, r_near: float, r_far: float) -> float:
    """Coordinate time for a radial light ray between two radii (one patch).
    Where the quotient (r_far - 2M) / (r_near - 2M) overflows (r_near near the
    horizon, r_far large), its log is taken as a difference of logs instead;
    every finite quotient keeps its bits."""
    if r_near <= 2.0 * mass:
        raise HorizonViolation(
            f"null segment reaches r={r_near} at or inside horizon {2.0 * mass}"
        )
    far, near = r_far - 2.0 * mass, r_near - 2.0 * mass
    quotient = far / near
    log_quotient = math.log(quotient) if quotient != math.inf else math.log(far) - math.log(near)
    return (r_far - r_near) + 2.0 * mass * log_quotient


def null_crossing_time(spacetime: ShellSpacetime, r_a: float, r_b: float) -> float:
    """Global coordinate time for a radial null ray from r_a to r_b.

    Each patch contributes its local closed-form crossing time, converted to
    global time by the patch lapse.
    """
    lo, hi = min(r_a, r_b), max(r_a, r_b)
    total = 0.0
    for k, patch in enumerate(spacetime.patches):
        p_lo = max(lo, patch.r_min)
        p_hi = hi if patch.r_max is None else min(hi, patch.r_max)
        if p_hi <= p_lo:
            continue
        if patch.mass > 0.0:
            dt_local = _null_dt_schwarzschild(patch.mass, p_lo, p_hi)
        else:
            dt_local = p_hi - p_lo
        total += spacetime.lapses[k] * dt_local
    return total


def diametral_crossing_time(spacetime: ShellSpacetime, r_from: float, r_to: float) -> float:
    """Radial ray through the center: r_from down to 0, then out to r_to."""
    return null_crossing_time(spacetime, r_from, 0.0) + null_crossing_time(
        spacetime, 0.0, r_to
    )


def static_exchange(r_a: float, r_b: float, tau_a: float, M: float) -> float:
    """Proper time of a static observer at r_b receiving a radial light signal
    emitted at proper time tau_a by a static observer at r_a (same exterior
    Schwarzschild patch of mass M, r_b > r_a)."""
    if not r_b > r_a:
        raise GeodesicError(f"need r_b > r_a, got r_a={r_a}, r_b={r_b}")
    if r_a <= 2.0 * M:
        raise HorizonViolation(f"static observer at r_a={r_a} inside horizon")
    if M == 0.0:
        return tau_a + (r_b - r_a)
    f_a = metric_factor(M, r_a)
    f_b = metric_factor(M, r_b)
    dt = _null_dt_schwarzschild(M, r_a, r_b)
    return math.sqrt(f_b) * (tau_a / math.sqrt(f_a) + dt)
