"""Parameter search for the two switch-geometry conditions.

The one-shell spacetime (shell at R) and the two-shell spacetime (shells at
R2 < R1) share the exterior mass M and the release radius r_i.  With
R = R2 + (R1 - R2)*f, the search solves

  equal clock rates:  Dtau1/Dt1 = Dtau2/Dt2        (contour in f at fixed R1)
  rational periods:   Dt1/Dt2 = p/q                (root in R1 along the contour)

and then locates the radius where the two branch geodesics cross at equal
proper time on their first far-side excursion.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property

from ._brent import brentq
from .errors import (
    GeodesicError,
    MultipleCrossingsError,
    NoMeetingError,
    NoSolutionAtRadius,
    SearchError,
    UnattainableRatioError,
    UnboundGeodesicError,
    UnreachableRadiusError,
)
from .fields import FLOAT_MAX, integer, real
from .geodesic import (
    APOAPSIS_CLAMP,
    NEWTON_STEPS,
    CycloidParams,
    _exterior_leg,
    coordinate_time,
    eta_of_radius,
    radius,
)
from .spacetime import (
    DEFAULT_HORIZON_MARGIN, PatchSpec, ShellSpacetime, build_spacetime, metric_factor,
)

F_MARGIN = 1e-6        # radial margin 1e-6 * R1 above 2M for the f bracket
F_UPPER = 1.0 - 1e-6
SEED_RADII = 33        # rows of the one-shell rate table that seeds each contour point
END_GUARD = 1e-9       # a converged f this close to an unchecked end checks that end
RESIDUAL_TOL = 1e-8    # bound on a solution's clock-rate and period-ratio residuals


@dataclass(frozen=True)
class SearchConfig:
    m: float
    M: float
    R2: float
    r_i: float
    p: int
    q: int
    R1_min: float
    R1_max: float
    grid: int = 200
    root_tol: float = 1e-10

    def __post_init__(self):
        if self.m <= 0 or self.M <= 0:
            raise SearchError("masses must be positive")
        # the two-shell period's inner shell, checked here once for every R1
        if self.R2 <= 2.0 * self.m or metric_factor(self.m, self.R2) < DEFAULT_HORIZON_MARGIN:
            raise SearchError(f"R2={self.R2} must clear the horizon 2m={2.0 * self.m} "
                              f"by the relative margin {DEFAULT_HORIZON_MARGIN}")
        if self.p <= 0 or self.q <= 0:
            raise SearchError("p and q must be positive integers")
        for key in ("p", "q", "grid"):  # each enters float arithmetic
            if getattr(self, key) > FLOAT_MAX:
                raise SearchError(f"{key} must be at most {FLOAT_MAX!r}: it is too large for a float")
        if self.R1_min <= self.R2:
            raise SearchError(f"R1_min={self.R1_min} must exceed R2={self.R2}")
        if self.R1_min >= self.R1_max:
            raise SearchError("need R1_min < R1_max")
        if self.grid < 2:
            raise SearchError("grid must have at least 2 points")
        if not self.root_tol > 0.0:
            raise SearchError(f"root tolerance tol={self.root_tol} must be positive")
        if not self.R1_max > 2.0 * self.M:  # else no grid point admits a shell outside 2M
            raise SearchError(f"R1_max={self.R1_max} must exceed the exterior horizon "
                              f"2M={2.0 * self.M}")
        if not self.r_i > max(2.0 * self.M, self.R1_max):  # release in the shared exterior
            raise SearchError(f"r_i={self.r_i} must exceed 2M and R1_max={self.R1_max}")
        if metric_factor(self.M, self.r_i) == 1.0:  # 2M/r_i rounds to 0: E = 1, unbound
            raise SearchError(f"M={self.M} is too small for a bound release from r_i={self.r_i}")
        try:
            self.release  # built here once, and cached for the search
        except GeodesicError as exc:  # r_i**3 overflows (r_i ~ 5.6e102 up) or underflows
            raise SearchError(f"no release cycloid for M={self.M} and r_i={self.r_i}: {exc}") from None

    @property
    def target_ratio(self) -> float:
        return self.p / self.q

    @cached_property
    def release(self) -> tuple[CycloidParams, float]:
        """The exterior cycloid from rest at r_i and its coordinate time there."""
        params = CycloidParams.from_state(self.M, self.r_i, 0.0)
        return params, coordinate_time(params, 0.0, self.r_i)

    @cached_property
    def rate_table(self) -> tuple[list[float], list[float], list[float]]:
        """(L, s, ds/dL) of the one-shell branch at SEED_RADII radii R = 2M + e^s,
        L = log Dtau1/Dt1, s evenly spaced from log(F_MARGIN * R1_min) to
        log(R1_max - 2M): every shell radius a contour point admits.  The
        closed-form rate slope gives ds/dL = rate / (slope e^s) at no extra
        evaluation.  Radii where the one-shell period is invalid are left out;
        the rate rises in R, so L and s ascend.  One sweep: the release
        cycloid's invariants are read once, and _one_shell_period with its
        _exterior_leg is inlined in its float order, so every row has the bits
        of a row through those functions (tests/oracles.rate_table)."""
        two_M, r_i = 2.0 * self.M, self.r_i
        cycloid, t_release = self.release
        r_apo, energy = cycloid.r_apo, cycloid.energy
        t_scale, one_minus_E2, tan_h = cycloid.t_scale, cycloid.one_minus_E2, cycloid.tan_h
        tau_scale, u_scale = cycloid.tau_scale, cycloid.u_scale
        acos, sin, sqrt, tan, log, exp = math.acos, math.sin, math.sqrt, math.tan, math.log, math.exp
        s_lo, s_hi = log(F_MARGIN * self.R1_min), log(self.R1_max - two_M)
        log_rates, s_values, ds_dL = [], [], []
        for i in range(SEED_RADII):
            s = s_lo + (s_hi - s_lo) * i / (SEED_RADII - 1)
            e_s = exp(s)
            R = two_M + e_s
            # _one_shell_period(self, R) for R > 0: the row is left out where
            # that returns NaN; behind its guard x = R / r_apo lies in (0, 1]
            # and R above 2M, so _exterior_leg's checks cannot fire
            if not R < r_i or (f := (R - two_M) / R) < DEFAULT_HORIZON_MARGIN:
                continue
            eta = 2.0 * acos(sqrt(R / r_apo))
            u_t = energy * R / (R - two_M)
            tan_e, sin_e = tan(0.5 * eta), sin(eta)
            t = (t_scale * (0.5 * (eta + sin_e) + one_minus_E2 * eta)
                 + two_M * log((tan_h + tan_e) ** 2 * (two_M * R) / (r_apo * (R - two_M))))
            u_r = -u_scale * tan_e
            k = sqrt(f)
            dtau_core = abs(R / (u_r / k))
            dt_core = sqrt(1.0 / f) * (u_t * k * dtau_core)
            dt = 4.0 * (abs(t - t_release) + dt_core)
            dtau = 4.0 * (tau_scale * (eta + sin_e) + dtau_core)
            df = two_M / (R * R)
            shared, lapse = 1.0 / R + df / (2.0 * u_r * u_r), df / (2.0 * f)
            speed = abs(u_r)
            ddtau = dtau_core * (shared + lapse) - 1.0 / speed
            ddt = dt_core * (shared - lapse) - u_t / speed
            rate = dtau / dt
            slope = 4.0 * (ddtau - rate * ddt) / dt
            if slope > 0.0:  # False for NaN too
                log_rates.append(log(rate))
                s_values.append(s)
                ds_dL.append(rate / (slope * e_s))
        return log_rates, s_values, ds_dL

    @classmethod
    def from_dict(cls, doc: dict) -> "SearchConfig":
        readers = dict(m=real, M=real, R2=real, r_i=real, p=integer, q=integer,
                       R1_min=real, R1_max=real)
        kwargs = {key: read(doc, key, SearchError) for key, read in readers.items()}
        if "grid" in doc:
            kwargs["grid"] = integer(doc, "grid", SearchError)
        if "tol" in doc:
            kwargs["root_tol"] = real(doc, "tol", SearchError)
        return cls(**kwargs)


# slotted and not frozen: a frozen build costs ~1 us more per contour point
@dataclass(slots=True)
class ContourPoint:
    """Both branch periods where the clock rates agree at one R1."""
    R1: float
    f: float
    dt1: float
    dtau1: float
    dt2: float
    dtau2: float

    @property
    def ratio(self) -> float:
        return self.dt1 / self.dt2


@dataclass(frozen=True)
class SwitchSolution:
    R1: float
    f: float
    R: float
    dt1: float
    dtau1: float
    dt2: float
    dtau2: float
    achieved_ratio: float
    clock_residual: float
    ratio_residual: float
    config: SearchConfig
    # the (R1, f_star, Dt1/Dt2) contour the solve traced
    curve: tuple[tuple[float, float, float], ...] = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "R1": self.R1, "f": self.f, "R": self.R,
            "dt1": self.dt1, "dtau1": self.dtau1,
            "dt2": self.dt2, "dtau2": self.dtau2,
            "achieved_ratio": self.achieved_ratio,
            "clock_residual": self.clock_residual,
            "ratio_residual": self.ratio_residual,
        }


@dataclass(frozen=True)
class MeetingEvent:
    r_t: float
    tau_A: float
    t_A1: float
    t_A2: float

    def as_dict(self) -> dict:
        return {
            "r_t": self.r_t, "tau_A": self.tau_A,
            "t_A1": self.t_A1, "t_A2": self.t_A2,
            "gamma1_direction": "inbound",
            "gamma2_direction": "outbound",
        }


def one_shell_spacetime(config: SearchConfig, R: float) -> ShellSpacetime:
    return build_spacetime(
        [PatchSpec(0.0, 0.0, R), PatchSpec(config.M, R, None)]
    )


def two_shell_spacetime(config: SearchConfig, R1: float) -> ShellSpacetime:
    return build_spacetime(
        [
            PatchSpec(0.0, 0.0, config.R2),
            PatchSpec(config.m, config.R2, R1),
            PatchSpec(config.M, R1, None),
        ]
    )


def shell_radius(config: SearchConfig, R1: float, f: float) -> float:
    return config.R2 + (R1 - config.R2) * f


def _one_shell_period(config: SearchConfig, R: float) -> tuple[float, float, float]:
    """(Dt, Dtau) of oscillation_period(one_shell_spacetime(config, R), r_i), and the
    rate slope d(Dtau/Dt)/dR in closed form; (NaN, NaN, NaN) exactly where
    oscillation_period raises.  Straight-line code over locals, inlined in
    _contour_points' Newton loop and in the rate table, and called for the end
    checks and the bisection fallback: oscillation_period's one-shell walk (the exterior
    leg from the config's cached release, the transfer at R into the flat core,
    the core's span) with every float operation in the walk's order, so every
    output has its bits.  f(M, R) is formed once (metric_factor inlined), for the
    guard and the transfer."""
    M, r_i = config.M, config.r_i
    # at R == r_i the particle rests at the shell and never reaches the core
    if not 0.0 < R < r_i or (f := (R - 2.0 * M) / R) < DEFAULT_HORIZON_MARGIN:
        return math.nan, math.nan, math.nan
    cycloid, t_release = config.release
    t, tau, u_t, u_r, _ = _exterior_leg(cycloid, R)
    # R < r_i puts eta above 0 and u_r below 0: the walk's stationary check cannot fire
    k = math.sqrt(f)
    dtau_core = abs(R / (u_r / k))
    dt_core = math.sqrt(1.0 / f) * (u_t * k * dtau_core)
    dt, dtau = 4.0 * (abs(t - t_release) + dt_core), 4.0 * (tau + dtau_core)
    # Per unit R the exterior spans shrink by 1/|u_r| (tau) and u_t/|u_r| (t);
    # the core spans R sqrt(f)/|u_r| and E R/(sqrt(f) |u_r|), with |u_r|^2 =
    # E^2 - f and f' = 2M/R^2, have log-derivatives 1/R + f'/(2 u_r^2) +- f'/(2f).
    df = 2.0 * M / (R * R)
    shared, lapse = 1.0 / R + df / (2.0 * u_r * u_r), df / (2.0 * f)
    speed = abs(u_r)
    ddtau = dtau_core * (shared + lapse) - 1.0 / speed
    ddt = dt_core * (shared - lapse) - u_t / speed
    return dt, dtau, 4.0 * (ddtau - dtau / dt * ddt) / dt


def ratio_residual(R1: float, f: float, config: SearchConfig, rate2: float) -> float:
    """Dtau1/Dt1 - rate2, rate2 being the two-shell Dtau2/Dt2 at R1; NaN marks
    a geometrically invalid point."""
    dt1, dtau1, _ = _one_shell_period(config, shell_radius(config, R1, f))
    return dtau1 / dt1 - rate2


def _check_end(config: SearchConfig, R1: float, rate2: float, end: float, side: float) -> None:
    """Raise NoSolutionAtRadius unless the clock-rate residual at an end of the
    admissible f interval lies on the root's side of 0: side -1.0 at the lower
    end (residual <= 0), +1.0 at the upper (>= 0).  A NaN fails."""
    if not side * ratio_residual(R1, end, config, rate2) >= 0.0:
        raise NoSolutionAtRadius(f"no sign change of the clock-rate residual in f at R1={R1}")


def _contour_points(config: SearchConfig, R1s) -> tuple[list, int, int]:
    """For each R1 in R1s, the contour point (R1, f, Dt1, Dtau1, Dt2, Dtau2) at the
    root in f of the clock-rate residual g = Dtau1/Dt1 - Dtau2/Dt2, or the
    NoSolutionAtRadius that solve_contour raises there; the number of one-shell
    periods evaluated (the config's rate table not included); and the number of
    two-shell periods, one per point that passes the domain checks.  The one
    code path that solves a contour point: solve_contour runs it on one R1,
    period_ratio_curve on the whole grid.

    Per point: the domain checks; the two-shell period, once;
    then Newton from the rate table's Hermite seed, safeguarded by bisection
    (rtsafe, Numerical Recipes 9.4).  The seed inverts the table's s(L) by cubic
    Hermite interpolation (L = log rate clamped to the table's rows, R = 2M + e^s);
    on the reference its R - 2M is ~2.5e-7 relative off the root, so Newton needs
    ~2.5 evaluations.  g' is the closed-form rate slope times dR/df = R1 - R2, and
    a step that leaves the sign bracket bisects it.  The one-shell rate rises
    strictly in R, so g rises in f and has a root iff g(lo) <= 0 <= g(hi).

    Neither end is evaluated up front.  An end is checked (_check_end) only when
    the seed or a Newton step leaves the bracket through it, or when the returned
    f lies within END_GUARD of it, far beyond the residual's rounding noise in f.
    Elsewhere the root found, an interior zero of the rising g, already implies
    both signs, so NoSolutionAtRadius is raised exactly where checks of both ends
    would raise.  On the grid-200 reference no end is evaluated.

    Stops once a Newton step is at most 4 ulps of f, brentq's relative floor.
    f itself can then be up to that step plus half an ulp of R (in f) off the
    root, while f - step is off by the half ulp of R alone; so f - step is
    returned when it keeps the evaluated shell radius, whose periods it then
    shares, and otherwise evaluated once more.  f is not bounded in its own
    ulps: when f is small, ulp(f) is far below ulp(R) / (R1 - R2).  After
    NEWTON_STEPS without convergence, bisects the bracket to its last bit (the
    guard then checks an end the bisection ran into).

    One sweep: the config's and the release cycloid's invariants are read once.
    The two-shell walk is inlined per point, and the seed, shell_radius and
    _one_shell_period with its _exterior_leg in the Newton loop, each in its
    float order and with every check that can fire, so every point has the bits
    of a solve through those functions: the two-shell walk's reference,
    _two_shell_period, is kept in tests/oracles.py.  No point makes a Python
    call but where an end check or the bisection fallback runs; those, and the
    table, call _one_shell_period.  On the grid-200 reference a point takes
    about 7.0 us, against 7.9 us with the two-shell period called as a function
    (timeit minima of period_ratio_curve)."""
    R2, r_i, two_M = config.R2, config.r_i, 2.0 * config.M
    cycloid, t_release = config.release  # from rest at r_i in the mass-M exterior
    r_apo, energy = cycloid.r_apo, cycloid.energy
    t_scale, one_minus_E2, tan_h = cycloid.t_scale, cycloid.one_minus_E2, cycloid.tan_h
    tau_scale, u_scale = cycloid.tau_scale, cycloid.u_scale
    log_rates, s_values, ds_dL = config.rate_table
    last = len(log_rates) - 1
    steps, tiny = NEWTON_STEPS, sys.float_info.min
    acos, sin, sqrt, tan, log, exp, ulp = (
        math.acos, math.sin, math.sqrt, math.tan, math.log, math.exp, math.ulp)
    # the two-shell period's terms that depend on the mass-m patch and R2 alone
    two_m, eight_m = 2.0 * config.m, 8.0 * config.m
    gap_b = R2 - two_m
    two_m_R2, f_core = two_m * R2, gap_b / R2
    k_core, core_lapse = sqrt(f_core), sqrt(1.0 / f_core)
    points, evals, two_shell_evals = [], 0, 0
    add = points.append
    for R1 in R1s:
        try:
            if not R2 < R1 <= r_i:
                raise NoSolutionAtRadius(f"R1={R1} outside (R2, r_i] = ({R2}, {r_i}]")
            dR_df = R1 - R2
            f_lo = (two_M + F_MARGIN * R1 - R2) / dR_df
            if f_lo >= F_UPPER:
                raise NoSolutionAtRadius(f"no admissible f interval at R1={R1}")
            two_shell_evals += 1
            # the two-shell period (tests/oracles._two_shell_period): the exterior
            # leg to R1, where R1 <= r_i = r_apo and the non-empty f interval puts
            # R1 above 2M, so _exterior_leg's checks cannot fire; the transfer at
            # R1; the mass-m patch's rest-release cycloid from R1 to R2; the
            # transfer at R2 and the flat core
            try:
                eta = 2.0 * acos(sqrt(R1 / r_apo))
                tan_e, sin_e = tan(0.5 * eta), sin(eta)
                t = (t_scale * (0.5 * (eta + sin_e) + one_minus_E2 * eta)
                     + two_M * log((tan_h + tan_e) ** 2 * (two_M * R1)
                                   / (r_apo * (R1 - two_M))))
                dtau2 = tau_scale * (eta + sin_e)
                gap_a = R1 - two_m
                f_out, f_in = (R1 - two_M) / R1, gap_a / R1
                u_r = -u_scale * tan_e / sqrt(f_out / f_in)
                lapse = sqrt(f_in / f_out)
                E_sq = u_r * u_r + f_in
                if not E_sq < 1.0:  # E_sq > 0: f_in > 0
                    raise UnboundGeodesicError(f"local energy E={sqrt(E_sq):.12g} >= 1 at r={R1}")
                m_apo = R1 if u_r == 0.0 else two_m / (two_m / R1 - u_r * u_r)
                E = sqrt(E_sq)
                try:
                    cube = m_apo**3
                except OverflowError:
                    raise GeodesicError(
                        f"apoapsis r_apo={m_apo} is too large: r_apo**3 overflows") from None
                if cube < tiny:
                    raise GeodesicError(f"apoapsis r_apo={m_apo} is too small: r_apo**3 underflows")
                m_t_scale, m_tau_scale = E * sqrt(cube / two_m), sqrt(cube / eight_m)
                m_tan_h = sqrt((m_apo - two_m) / two_m)
                # entry at R1 and exit at R2 (R2 / r_apo <= R1 / r_apo: one apoapsis check)
                x_a, x_b = R1 / m_apo, R2 / m_apo
                if x_a - 1.0 > APOAPSIS_CLAMP:
                    raise UnreachableRadiusError(f"radius {R1} beyond apoapsis {m_apo}")
                eta_a = 2.0 * acos(sqrt(1.0 if x_a > 1.0 else x_a))
                eta_b = 2.0 * acos(sqrt(1.0 if x_b > 1.0 else x_b))
                sin_a, sin_b = sin(eta_a), sin(eta_b)
                m_one_minus_E2 = two_m / m_apo
                t_a = (m_t_scale * (0.5 * (eta_a + sin_a) + m_one_minus_E2 * eta_a)
                       + two_m * log((m_tan_h + tan(0.5 * eta_a)) ** 2 * (two_m * R1)
                                     / (m_apo * gap_a)))
                tan_b = tan(0.5 * eta_b)
                t_b = (m_t_scale * (0.5 * (eta_b + sin_b) + m_one_minus_E2 * eta_b)
                       + two_m * log((m_tan_h + tan_b) ** 2 * two_m_R2 / (m_apo * gap_b)))
                dt2 = abs(t - t_release) + lapse * abs(t_b - t_a)
                dtau2 += abs(m_tau_scale * (eta_b + sin_b) - m_tau_scale * (eta_a + sin_a))
                u_r = -sqrt(m_one_minus_E2) * tan_b
                if u_r == 0.0:
                    raise GeodesicError("stationary particle cannot reach a different radius")
                dtau_core = abs(R2 / (u_r / k_core))
                dt_core = lapse * core_lapse * (E * R2 / gap_b * k_core * dtau_core)
                dt2, dtau2 = 4.0 * (dt2 + dt_core), 4.0 * (dtau2 + dtau_core)
            except GeodesicError as exc:
                raise NoSolutionAtRadius(f"two-shell branch invalid at R1={R1}: {exc}") from exc
            rate2 = dtau2 / dt2
            # the seed: the rate table inverted at rate2, NaN with fewer than two rows
            if last < 1:
                f = math.nan
            else:
                x = min(max(log(rate2), log_rates[0]), log_rates[-1])
                i = min(bisect(log_rates, x), last)
                h = log_rates[i] - log_rates[i - 1]
                t = (x - log_rates[i - 1]) / h
                u = 1.0 - t
                s = (u * u * ((1.0 + 2.0 * t) * s_values[i - 1] + t * h * ds_dL[i - 1])
                     + t * t * ((3.0 - 2.0 * t) * s_values[i] - u * h * ds_dL[i]))
                f = (two_M + exp(s) - R2) / dR_df
            lo, hi = max(f_lo, 0.0), F_UPPER
            a, b = lo, hi  # the admissible ends, None once checked
            settled = False
            for _ in range(steps):
                if not lo < f < hi:
                    if f >= hi == b:
                        evals += 1
                        _check_end(config, R1, rate2, b, 1.0)
                        b = None
                    elif f <= lo == a:
                        evals += 1
                        _check_end(config, R1, rate2, a, -1.0)
                        a = None
                    f = 0.5 * (lo + hi)
                R = R2 + dR_df * f
                evals += 1
                # _one_shell_period(config, R); behind its guard x = R / r_apo lies
                # in (0, 1] and R above 2M, so _exterior_leg's checks cannot fire
                if not 0.0 < R < r_i or (f_R := (R - two_M) / R) < DEFAULT_HORIZON_MARGIN:
                    dt1 = dtau1 = slope = math.nan
                else:
                    eta = 2.0 * acos(sqrt(R / r_apo))
                    u_t = energy * R / (R - two_M)
                    tan_e, sin_e = tan(0.5 * eta), sin(eta)
                    t = (t_scale * (0.5 * (eta + sin_e) + one_minus_E2 * eta)
                         + two_M * log((tan_h + tan_e) ** 2 * (two_M * R)
                                          / (r_apo * (R - two_M))))
                    u_r = -u_scale * tan_e
                    k = sqrt(f_R)
                    dtau_core = abs(R / (u_r / k))
                    dt_core = sqrt(1.0 / f_R) * (u_t * k * dtau_core)
                    dt1 = 4.0 * (abs(t - t_release) + dt_core)
                    dtau1 = 4.0 * (tau_scale * (eta + sin_e) + dtau_core)
                    df = two_M / (R * R)
                    shared, lapse = 1.0 / R + df / (2.0 * u_r * u_r), df / (2.0 * f_R)
                    speed = abs(u_r)
                    ddtau = dtau_core * (shared + lapse) - 1.0 / speed
                    ddt = dt_core * (shared - lapse) - u_t / speed
                    slope = 4.0 * (ddtau - dtau1 / dt1 * ddt) / dt1
                g = dtau1 / dt1 - rate2
                lo, hi = (f, hi) if g < 0.0 else (lo, f)
                d = slope * dR_df
                step = g / d if d else math.inf
                if abs(step) <= 4.0 * ulp(f):
                    if R2 + dR_df * (f - step) == R:
                        f -= step
                        break
                    if settled:
                        break
                    settled = True
                f -= step
            else:
                while lo < (f := 0.5 * (lo + hi)) < hi:
                    evals += 1
                    lo, hi = (f, hi) if ratio_residual(R1, f, config, rate2) < 0.0 else (lo, f)
                evals += 1
                dt1, dtau1, _ = _one_shell_period(config, R2 + dR_df * f)
            if a is not None and f - a <= END_GUARD:
                evals += 1
                _check_end(config, R1, rate2, a, -1.0)
            if b is not None and b - f <= END_GUARD:
                evals += 1
                _check_end(config, R1, rate2, b, 1.0)
            add((R1, f, dt1, dtau1, dt2, dtau2))
        except NoSolutionAtRadius as exc:
            add(exc)
    return points, evals, two_shell_evals


def solve_contour(R1: float, config: SearchConfig) -> ContourPoint:
    """Both branch periods at the root in f of the equal-clock-rate residual at
    fixed R1: _contour_points on R1 alone, raising the NoSolutionAtRadius it
    returns; the R1 root's refinements call it.  The domain is R2 < R1 <= r_i
    with a non-empty admissible f interval, which puts R1 above
    2M / (1 - 1e-6); elsewhere NoSolutionAtRadius is raised.  The one-shell rate
    Dtau1/Dt1 rises strictly in R (tests/test_search.py checks it at 50 digits),
    so the root is unique, and there is one iff the residual is <= 0 at the
    lower end of the admissible interval and >= 0 at the upper (else
    NoSolutionAtRadius).  The shell radius R = R2 + (R1 - R2) f is within 4 ulps
    of its 50-digit root for shells within 10% above 2M (1.4 ulps worst over 598
    random points); farther out the rate flattens in R, and the residual's
    rounding moves the root by more (8.8 ulps seen).  Both periods are computed
    inline in the sweep, the two-shell one once; at R1 = 10.07 on the reference
    a point takes about 7.4 us (timeit minimum).  A pure function of its
    arguments: no point seeds another, so an R1 gets the same bits here as in
    any sweep, period_ratio_curve's included."""
    (point,), _, _ = _contour_points(config, (R1,))
    if isinstance(point, NoSolutionAtRadius):
        raise point
    return ContourPoint(*point)


def period_ratio_curve(config: SearchConfig) -> list[tuple[float, float, float]]:
    """(R1, f_star, Dt1/Dt2) along the contour over the configured R1 grid,
    skipping grid points with no contour root.  One _contour_points sweep over
    the grid, which builds no ContourPoint and makes no Python call per point
    but an end check or the bisection fallback where one runs; 1.40 to 1.55 ms,
    7.0 to 7.8 us a point, on the grid-200 reference (timeit minima of three
    sessions on 2 shared cores)."""
    grid, start, span = config.grid, config.R1_min, config.R1_max - config.R1_min
    points, _, _ = _contour_points(config, [start + span * i / (grid - 1) for i in range(grid)])
    return [(point[0], point[1], point[2] / point[4]) for point in points
            if not isinstance(point, NoSolutionAtRadius)]


def ratio_crossings(curve, target: float) -> list[tuple[float, float]]:
    """(R1, R1) brackets of neighbouring curve points between which the period
    ratio reaches target.  A grid point exactly on target ends one bracket
    and would start the next; it counts once, in the bracket it ends."""
    crossings = []
    for a, b in zip(curve, curve[1:]):
        counted = a[2] == target != b[2] and crossings and crossings[-1][1] == a[0]
        if (a[2] - target) * (b[2] - target) <= 0.0 and not counted:
            crossings.append((a[0], b[0]))
    return crossings


def solve_switch_configuration(config: SearchConfig) -> SwitchSolution:
    """Solve both conditions: returns the geometry with Dt1/Dt2 = p/q on the
    contour, carrying the contour it traced as `curve`.  The ratio must cross
    p/q exactly once along the traced curve (a grid point on p/q counts once);
    more crossings raise MultipleCrossingsError with every bracket, none
    raises UnattainableRatioError.  R1 is solved by brentq to root_tol in that
    bracket; each contour point's shell radius to within 4 ulps
    (solve_contour).  The curve is one _contour_points sweep over the grid
    (period_ratio_curve), and each of brentq's refinements solves one point
    (solve_contour).  On the grid-200 reference the sweeps count 512 one-shell
    evaluations over 203 contour points, 545 with the seed table's 33 rows, and
    203 two-shell evaluations, all inline in the sweeps, and evaluate no end of
    an f interval.  The solve takes 1.54 to 1.58 ms with the config's rate
    table built, and 1.62 to 1.65 ms building the config and its table
    (timeit minima of three sessions on 2 shared cores).  brentq is the
    package's port of scipy's (_brent), which gives its bits."""
    curve = period_ratio_curve(config)
    if len(curve) < 2:
        raise SearchError(
            f"contour could not be traced over the R1 grid: {config.grid - len(curve)} "
            f"of {config.grid} grid points have no contour root"
        )
    target = config.target_ratio
    crossings = ratio_crossings(curve, target)
    if not crossings:
        ratios = [pt[2] for pt in curve]
        raise UnattainableRatioError(target, min(ratios), max(ratios))
    if len(crossings) > 1:
        raise MultipleCrossingsError(target, crossings)
    bracket = crossings[0]

    # brentq starts at the bracket ends, grid points of the curve, and returns
    # an abscissa it evaluated: none of the three is solved again
    traced = {R1: ratio for R1, _, ratio in curve}
    points = {}

    def g(R1: float) -> float:
        if R1 in traced:
            return traced[R1] - target
        points[R1] = solve_contour(R1, config)
        return points[R1].ratio - target

    R1_star = brentq(g, bracket[0], bracket[1], xtol=config.root_tol, rtol=8.9e-16)
    pt = points.get(R1_star) or solve_contour(R1_star, config)
    solution = SwitchSolution(
        R1=pt.R1, f=pt.f, R=shell_radius(config, pt.R1, pt.f),
        dt1=pt.dt1, dtau1=pt.dtau1, dt2=pt.dt2, dtau2=pt.dtau2,
        achieved_ratio=pt.ratio,
        clock_residual=pt.dtau1 / pt.dt1 - pt.dtau2 / pt.dt2,
        ratio_residual=pt.ratio - target,
        config=config,
        curve=tuple(curve),
    )
    _validate_solution(solution)
    return solution


def _validate_solution(sol: SwitchSolution) -> None:
    cfg = sol.config
    if not (2.0 * cfg.M < sol.R < sol.R1 and cfg.R2 < sol.R):
        raise SearchError(f"solved geometry invalid: R={sol.R}, R1={sol.R1}")
    if abs(sol.clock_residual) > RESIDUAL_TOL:
        raise SearchError(f"clock-rate residual {sol.clock_residual} above tolerance")
    if abs(sol.ratio_residual) > RESIDUAL_TOL:
        raise SearchError(f"period-ratio residual {sol.ratio_residual} above tolerance")


# ---------------------------------------------------------------------------
# Meeting event on the far side

def find_meeting_radius(solution: SwitchSolution, config: SearchConfig) -> MeetingEvent:
    """Radius where the two branch geodesics cross at equal proper time.

    On the first far-side excursion the one-shell branch is inbound and the
    two-shell branch still outbound, both on the shared exterior's rest-release
    cycloid (config.release), where tau = tau_scale (eta + sin eta).  Equal
    proper time is then eta + sin eta = x, x = (dtau2 - dtau1) / (4 tau_scale),
    in eta between the images of r_i (1 - 1e-12) and R1 (1 + 1e-12); the left
    side rises in eta, so a crossing needs x strictly between its end values
    (else NoMeetingError).  brentq (_brent's port of scipy's, which gives its
    bits) stops at 8.9e-16 relative in eta, which is dimensionless and at
    least ~2e-6 here, so the tiny xtol never governs.
    """
    params = config.release[0]
    x = (solution.dtau2 - solution.dtau1) / (4.0 * params.tau_scale)
    lo = eta_of_radius(params, config.r_i * (1.0 - 1e-12))
    hi = eta_of_radius(params, solution.R1 * (1.0 + 1e-12))
    if not lo + math.sin(lo) < x < hi + math.sin(hi):
        raise NoMeetingError("proper-time curves do not cross transversally on (R1, r_i)")
    eta = brentq(lambda eta: eta + math.sin(eta) - x, lo, hi, xtol=1e-300, rtol=8.9e-16)
    r_t = radius(params, eta)
    t_e, tau_e = _exterior_leg(params, r_t)[:2]
    t_A1 = solution.dt1 / 2.0 + t_e
    t_A2 = solution.dt2 / 2.0 - t_e
    if not t_A1 < t_A2:
        raise NoMeetingError(f"crossing found but t_A1={t_A1} >= t_A2={t_A2}")
    return MeetingEvent(r_t=r_t, tau_A=solution.dtau1 / 2.0 + tau_e, t_A1=t_A1, t_A2=t_A2)
