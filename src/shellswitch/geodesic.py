"""Piecewise-analytic radial geodesics and null rays in glued shell spacetimes.

Bound radial Schwarzschild geodesics are handled in closed form through the
cycloid parametrization r = r_apo * cos^2(eta/2).  Segments in flat patches are
straight lines.  Crossing a shell transfers the tangent vector between the two
patch descriptions while keeping proper time and global coordinate time
continuous; a full oscillation is composed out of quarter-oscillation legs with
the per-patch lapse factors applied.

The coordinate-time log term is evaluated through (r - 2*mass)/r expressions:
the configurations of interest place shells within ~1e-4 of their horizons,
where the naive tan-difference form loses most of its digits.
"""

from __future__ import annotations

import math
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
from .spacetime import ShellSpacetime, metric_factor, stack_lapses

SHELL_TOL = 1e-12  # |r - R| <= SHELL_TOL * R counts as "at the shell"
APOAPSIS_CLAMP = 1e-14
ETA_GUARD = 1e-11  # sampling evaluates t(eta) only this near the Newton estimate
NEWTON_STEPS, NEWTON_TOL = 30, 1e-9


# ---------------------------------------------------------------------------
# Single-patch cycloid kinematics

@dataclass(frozen=True)
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
    tan_h: float = field(init=False, repr=False, compare=False)  # tan(eta_horizon/2)

    def __post_init__(self):
        if not 0.0 < self.energy < 1.0:
            raise UnboundGeodesicError(
                f"bound motion requires 0 < E < 1, got E={self.energy}"
            )
        mass, r_apo, set_ = self.mass, self.r_apo, object.__setattr__
        if not mass > 0.0:
            raise NoRestoringForceError(f"a cycloid needs mass > 0, got mass={mass}")
        set_(self, "t_scale", self.energy * math.sqrt(r_apo**3 / (2.0 * mass)))
        set_(self, "tau_scale", math.sqrt(r_apo**3 / (8.0 * mass)))
        set_(self, "u_scale", math.sqrt(2.0 * mass / r_apo))
        set_(self, "one_minus_E2", 2.0 * mass / r_apo)
        set_(self, "tan_h", math.sqrt((r_apo - 2.0 * mass) / (2.0 * mass)))

    @property
    def eta_horizon(self) -> float:
        return 2.0 * math.asin(self.energy)

    @classmethod
    def from_rest(cls, mass: float, r_apo: float) -> "CycloidParams":
        return cls(mass=mass, r_apo=r_apo, energy=drop_energy(mass, r_apo))

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


def drop_energy(mass: float, r_i: float) -> float:
    """Conserved energy of a body released from rest at r_i."""
    if r_i <= 2.0 * mass:
        raise HorizonViolation(
            f"release radius r_i={r_i} at or inside the horizon 2*mass={2.0 * mass}"
        )
    return math.sqrt(metric_factor(mass, r_i))


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


def tangent(params: CycloidParams, eta: float, r: float | None = None) -> tuple[float, float]:
    """(U^0, U^1) = (dt/dtau, dr/dtau) on the inbound branch."""
    if r is None:
        r = radius(params, eta)
    U0 = params.energy * r / (r - 2.0 * params.mass)
    U1 = -params.u_scale * math.tan(0.5 * eta)
    return U0, U1


# ---------------------------------------------------------------------------
# Patch spans, shell crossings and the full oscillation

def _schwarzschild_span(mass: float, r: float, u_r: float, r_exit: float):
    """Motion from r (radial velocity u_r) to r_exit in one Schwarzschild patch:
    (dt_local, dtau, u_r, u_t at r_exit, cycloid, eta_entry, eta_exit).

    The motion is a piece of the fictitious rest-release cycloid through the
    entry state; outbound pieces use the time-reflection of the inbound branch,
    so both spans are absolute values of parametric differences.
    """
    params = CycloidParams.from_state(mass, r, u_r)
    if r_exit > params.r_apo * (1.0 + APOAPSIS_CLAMP):
        raise UnreachableRadiusError(
            f"exit radius {r_exit} beyond fictitious apoapsis {params.r_apo}"
        )
    eta_a = eta_of_radius(params, r)
    eta_b = eta_of_radius(params, r_exit)
    dt = abs(coordinate_time(params, eta_b, r_exit) - coordinate_time(params, eta_a, r))
    dtau = abs(proper_time(params, eta_b) - proper_time(params, eta_a))
    sign = 1.0 if r_exit > r else (-1.0 if r_exit < r else math.copysign(1.0, u_r))
    U0, U1 = tangent(params, eta_b, r_exit)
    return dt, dtau, sign * abs(U1), U0, params, eta_a, eta_b


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


def _shell_transfer(mu_in: float, mu_out: float, R: float, r: float) -> float:
    """k = sqrt(f_out / f_in) at the shell at R, for a body at r:
    u_r(out) = k * u_r(in) and u_t(out) = u_t(in) / k."""
    if abs(r - R) > SHELL_TOL * R:
        raise GeodesicError(f"state at r={r} is not at shell R={R}")
    return math.sqrt(metric_factor(mu_out, R) / metric_factor(mu_in, R))


# slotted for trajectory's attribute reads (a NamedTuple field reads ~3x slower);
# not frozen, which would cost ~3 us per leg to build
@dataclass(slots=True)
class Leg:
    """One patch traversal of the inbound quarter oscillation: spans from r_outer
    down to r_inner, the entry state (u_r = dr/dtau and u_t = dt_local/dtau in
    the patch's coordinates, tau since release) and, in a Schwarzschild patch,
    the cycloid and its eta range (None in a flat patch)."""

    patch_index: int
    r_outer: float
    r_inner: float
    dt_local: float
    dt_global: float
    dtau: float
    u_r: float
    u_t: float
    tau: float
    cycloid: CycloidParams | None
    eta_entry: float | None
    eta_exit: float | None


def _release_u_t(mass: float, r_min: float, r_i: float) -> float:
    """dt/dtau at rest at r_i in the outermost patch (mass, from r_min)."""
    if mass <= 0.0:
        raise NoRestoringForceError("outermost patch is flat: nothing pulls the body back")
    if r_i < r_min:
        raise GeodesicError(f"release radius {r_i} below the outermost patch")
    return drop_energy(mass, r_i) / metric_factor(mass, r_i)


def _inward_walk(masses, r_mins, shells, lapses, r_i: float) -> list[tuple]:
    """The quarter oscillation from rest at r_i down to the center.

    Each patch is crossed by _schwarzschild_span or _minkowski_span, and each
    shell rescales (u_r, u_t) by its _shell_transfer factor; proper time runs
    on across it.  One plain tuple per patch, outermost first, holding the
    fields of Leg in its order (the search's hot loop builds no Leg).
    """
    if masses[0] != 0.0:
        raise NoRestoringForceError("oscillation through the center requires a flat core")
    r, u_r, u_t, tau = r_i, 0.0, _release_u_t(masses[-1], r_mins[-1], r_i), 0.0
    legs = []
    for k in range(len(masses) - 1, -1, -1):
        mass, r_target = masses[k], r_mins[k]  # r_min is 0 for the core
        if mass > 0.0:
            dt, dtau, u_r_out, u_t_out, *arc = _schwarzschild_span(mass, r, u_r, r_target)
        else:
            dt, dtau = _minkowski_span(r, u_r, u_t, r_target)
            u_r_out, u_t_out, arc = u_r, u_t, (None, None, None)
        legs.append((k, r, r_target, dt, lapses[k] * dt, dtau, u_r, u_t, tau, *arc))
        r, u_r, u_t, tau = r_target, u_r_out, u_t_out, tau + dtau
        if k > 0:
            kappa = _shell_transfer(masses[k - 1], mass, shells[k - 1], r)
            u_r, u_t = u_r / kappa, u_t * kappa
    return legs


def _four_quarters(legs: list[tuple]) -> tuple[float, float]:
    """(Dt_global, Dtau) of the full oscillation: exactly four mirrored quarter
    oscillations of the time-symmetric motion through the center."""
    return 4.0 * sum(leg[4] for leg in legs), 4.0 * sum(leg[5] for leg in legs)


def period_spans(masses, shells, r_i: float) -> tuple[float, float]:
    """(Dt_global, Dtau) of oscillation_period(build_spacetime(stack), r_i) for
    the center-out stack with masses[k] between shells[k - 1] (0 for the core)
    and shells[k], bit for bit and raising the same errors, from floats alone."""
    r_mins = (0.0, *shells)
    lapses = stack_lapses(masses, r_mins, (*shells, None))
    return _four_quarters(_inward_walk(masses, r_mins, shells, lapses, r_i))


def oscillation_period(spacetime: ShellSpacetime, r_i: float) -> tuple[float, float, list[Leg]]:
    """(Dt_global, Dtau, inbound quarter legs) for one full radial oscillation."""
    masses, r_mins = zip(*((p.mass, p.r_min) for p in spacetime.patches))
    records = _inward_walk(masses, r_mins, spacetime.shells, spacetime.lapses, r_i)
    return (*_four_quarters(records), [Leg(*record) for record in records])


# ---------------------------------------------------------------------------
# Trajectory sampling in global time

def _eta_estimate(params: CycloidParams, lo, hi, eta, t0, t_local_target) -> float:
    """Root of t(eta) - t0 = t_local_target by Newton from eta, stepping in
    s = log(eta_horizon - eta) so that near-horizon legs converge fast too; an
    unconverged step that leaves the sign bracket bisects it; NaN after NEWTON_STEPS."""
    eta_h, two_m, scale = params.eta_horizon, 2.0 * params.mass, params.energy * params.tau_scale
    for _ in range(NEWTON_STEPS):
        r = radius(params, eta)
        g = coordinate_time(params, eta, r) - t0 - t_local_target
        lo, hi = (eta, hi) if g < 0.0 else (lo, eta)
        dt_deta = scale * r / (r - two_m) * (1.0 + math.cos(eta))
        new = eta_h - (eta_h - eta) * math.exp(min(g / (dt_deta * (eta_h - eta)), 1.0))
        if abs(new - eta) <= NEWTON_TOL:
            return new
        eta = new if lo < new < hi else 0.5 * (lo + hi)
    return math.nan


def _bisect_eta(params: CycloidParams, lo, hi, t0, t_local_target, estimate) -> float:
    """Bisect t(eta) - t0 = t_local_target to 1e-12 in eta, deciding midpoints
    farther than ETA_GUARD from the estimate by their side of it.  A final lo or
    hi so decided is evaluated: the float predicate is monotone at scales far
    above its rounding (if float error in t(eta) - t0 is far below ETA_GUARD *
    t'(eta)), so P(lo) and not P(hi) prove that every guess matched plain
    bisection, whose result this is to the last bit; NaN if they do not."""
    guessed_lo = guessed_hi = False
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid < estimate - ETA_GUARD:
            lo, guessed_lo = mid, True
        elif mid > estimate + ETA_GUARD:
            hi, guessed_hi = mid, True
        elif coordinate_time(params, mid) - t0 < t_local_target:
            lo, guessed_lo = mid, False
        else:
            hi, guessed_hi = mid, False
    if (guessed_lo and not coordinate_time(params, lo) - t0 < t_local_target
            or guessed_hi and coordinate_time(params, hi) - t0 < t_local_target):
        return math.nan
    return 0.5 * (lo + hi)


def _leg_origin(leg: Leg) -> tuple[float, float] | None:
    """(t, tau) of a Schwarzschild leg's cycloid at its entry; None if flat."""
    params, eta = leg.cycloid, leg.eta_entry
    return None if params is None else (
        coordinate_time(params, eta, leg.r_outer), proper_time(params, eta))


def _invert_leg(leg: Leg, origin: tuple[float, float] | None, t_in_leg: float) -> tuple[float, float]:
    """(r, tau elapsed within leg) at global-time offset t_in_leg from leg start."""
    if t_in_leg <= 0.0:
        return leg.r_outer, 0.0
    if t_in_leg >= leg.dt_global:
        return leg.r_inner, leg.dtau
    if leg.cycloid is None:
        # flat patch: r and tau are linear in t
        frac = t_in_leg / leg.dt_global
        return leg.r_outer + frac * (leg.r_inner - leg.r_outer), frac * leg.dtau
    params, (t0, tau0) = leg.cycloid, origin
    t_local_target = t_in_leg / (leg.dt_global / leg.dt_local)
    # t(eta) is strictly increasing on the inbound branch
    lo, hi = leg.eta_entry, leg.eta_exit
    guess = lo + (hi - lo) * t_in_leg / leg.dt_global
    estimate = _eta_estimate(params, lo, hi, guess, t0, t_local_target)
    eta = _bisect_eta(params, lo, hi, t0, t_local_target, estimate)
    if math.isnan(eta):
        eta = _bisect_eta(params, lo, hi, t0, t_local_target, math.nan)  # no guesses
    return radius(params, eta), proper_time(params, eta) - tau0


def _quarter_sample(legs: list[Leg], origins: list, t_quarter_offset: float) -> tuple[float, float]:
    """(r, tau) within the inbound quarter at global-time offset from release."""
    t0 = 0.0
    for leg, origin in zip(legs, origins):
        if t_quarter_offset <= t0 + leg.dt_global or leg is legs[-1]:
            r, dtau = _invert_leg(leg, origin, t_quarter_offset - t0)
            return r, leg.tau + dtau
        t0 += leg.dt_global
    raise AssertionError("unreachable")


def trajectory(
    spacetime: ShellSpacetime, r_i: float, t_global_max: float, sample_count: int
) -> list[tuple[float, float, float]]:
    """Uniform global-time samples (t_global, r, tau) of the oscillating drop."""
    if sample_count <= 0:
        raise GeodesicError("sample_count must be positive")
    dt_period, dtau_period, legs = oscillation_period(spacetime, r_i)
    origins = [_leg_origin(leg) for leg in legs]
    t_quarter, t_half, tau_half = dt_period / 4.0, dt_period / 2.0, dtau_period / 2.0

    samples = []
    for i in range(sample_count):
        t = t_global_max * i / (sample_count - 1) if sample_count > 1 else 0.0
        n_half, rem = divmod(t, t_half)
        if rem <= t_quarter:
            r, tau_q = _quarter_sample(legs, origins, rem)
            tau = n_half * tau_half + tau_q
        else:
            r, tau_q = _quarter_sample(legs, origins, t_half - rem)
            tau = (n_half + 1.0) * tau_half - tau_q
        samples.append((t, r, tau))
    return samples


# ---------------------------------------------------------------------------
# Null rays and static observers

def _null_dt_schwarzschild(mass: float, r_near: float, r_far: float) -> float:
    """Coordinate time for a radial light ray between two radii (one patch)."""
    if r_near <= 2.0 * mass:
        raise HorizonViolation(
            f"null segment reaches r={r_near} at or inside horizon {2.0 * mass}"
        )
    return (r_far - r_near) + 2.0 * mass * math.log(
        (r_far - 2.0 * mass) / (r_near - 2.0 * mass)
    )


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
