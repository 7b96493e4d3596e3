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
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property

from scipy.optimize import brentq

from .errors import (
    GeodesicError,
    GeometryError,
    MultipleCrossingsError,
    NoMeetingError,
    NoSolutionAtRadius,
    SearchError,
    UnattainableRatioError,
)
from .fields import integer, real
from .geodesic import (
    NEWTON_STEPS,
    CycloidParams,
    coordinate_time,
    eta_of_radius,
    period_spans,
    proper_time,
    tangent,
)
from .spacetime import (
    DEFAULT_HORIZON_MARGIN, PatchSpec, ShellSpacetime, build_spacetime, metric_factor,
)

F_MARGIN = 1e-6        # radial margin 1e-6 * R1 above 2M for the f bracket
F_UPPER = 1.0 - 1e-6
SEED_RADII = 33        # rows of the one-shell rate table that seeds each contour point
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
        if self.R2 <= 2.0 * self.m:
            raise SearchError(f"R2={self.R2} must exceed 2m={2.0 * self.m}")
        if self.p <= 0 or self.q <= 0:
            raise SearchError("p and q must be positive integers")
        if self.R1_min <= self.R2:
            raise SearchError(f"R1_min={self.R1_min} must exceed R2={self.R2}")
        if self.R1_min >= self.R1_max:
            raise SearchError("need R1_min < R1_max")
        if self.grid < 2:
            raise SearchError("grid must have at least 2 points")
        if not self.root_tol > 0.0:
            raise SearchError(f"root tolerance tol={self.root_tol} must be positive")
        if not self.r_i > max(2.0 * self.M, self.R1_max):  # release in the shared exterior
            raise SearchError(f"r_i={self.r_i} must exceed 2M and R1_max={self.R1_max}")

    @property
    def target_ratio(self) -> float:
        return self.p / self.q

    @cached_property
    def release(self) -> tuple[CycloidParams, float]:
        """The exterior cycloid from rest at r_i and its coordinate time there."""
        params = CycloidParams.from_rest(self.M, self.r_i)
        return params, coordinate_time(params, 0.0, self.r_i)

    @cached_property
    def rate_table(self) -> tuple[list[float], list[float]]:
        """(log Dtau1/Dt1, s) of the one-shell branch at SEED_RADII radii
        R = 2M + e^s, s evenly spaced from log(F_MARGIN * R1_min) to
        log(R1_max - 2M): every shell radius a contour point admits.  Radii
        where the one-shell period is invalid are left out; the rate rises in
        R, so both lists ascend."""
        s_lo, s_hi = math.log(F_MARGIN * self.R1_min), math.log(self.R1_max - 2.0 * self.M)
        log_rates, s_values = [], []
        for i in range(SEED_RADII):
            s = s_lo + (s_hi - s_lo) * i / (SEED_RADII - 1)
            dt, dtau, _ = _one_shell_period(self, 2.0 * self.M + math.exp(s))
            if not math.isnan(dt):
                log_rates.append(math.log(dtau / dt))
                s_values.append(s)
        return log_rates, s_values

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


@dataclass(frozen=True)
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
    gamma1_direction: str = "inbound"
    gamma2_direction: str = "outbound"

    def as_dict(self) -> dict:
        return {
            "r_t": self.r_t, "tau_A": self.tau_A,
            "t_A1": self.t_A1, "t_A2": self.t_A2,
            "gamma1_direction": self.gamma1_direction,
            "gamma2_direction": self.gamma2_direction,
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
    """(Dt, Dtau) of oscillation_period(one_shell_spacetime(config, R), r_i), bit for
    bit: its operations in their order (exterior leg from rest at r_i to R, tangent
    transfer by k = sqrt(f(M, R)), core leg times the core lapse sqrt(1 / f(M, R)),
    4 x the legs' sum) without the spacetime; then the slope d(Dtau/Dt)/dR of the
    clock rate in closed form.  (NaN, NaN, NaN) exactly where the period raises."""
    M, r_i = config.M, config.r_i
    # at R == r_i the particle rests at the shell and never reaches the core
    if not 0.0 < R < r_i or metric_factor(M, R) < DEFAULT_HORIZON_MARGIN:
        return math.nan, math.nan, math.nan
    f_out = metric_factor(M, R)
    params, t_release = config.release
    eta = eta_of_radius(params, R)
    dt_out = abs(coordinate_time(params, eta, R) - t_release)
    dtau_out = proper_time(params, eta)  # proper_time(params, 0.0) is 0.0
    u_t, u_r = tangent(params, eta, R)
    k = math.sqrt(f_out)
    dtau_core = R / (abs(u_r) / k)
    dt_core = math.sqrt(1.0 / f_out) * (u_t * k * dtau_core)
    dt, dtau = 4.0 * (dt_out + dt_core), 4.0 * (dtau_out + dtau_core)
    # Per unit R the exterior spans shrink by 1/|u_r| (tau) and u_t/|u_r| (t);
    # the core spans R sqrt(f)/|u_r| and E R/(sqrt(f) |u_r|), with |u_r|^2 =
    # E^2 - f and f' = 2M/R^2, have log-derivatives 1/R + f'/(2 u_r^2) +- f'/(2f).
    df = 2.0 * M / (R * R)
    shared, lapse = 1.0 / R + df / (2.0 * u_r * u_r), df / (2.0 * f_out)
    ddtau = dtau_core * (shared + lapse) - 1.0 / abs(u_r)
    ddt = dt_core * (shared - lapse) - u_t / abs(u_r)
    return dt, dtau, 4.0 * (ddtau - dtau / dt * ddt) / dt


def ratio_residual(R1: float, f: float, config: SearchConfig, rate2: float) -> float:
    """Dtau1/Dt1 - rate2, rate2 being the two-shell Dtau2/Dt2 at R1; NaN marks
    a geometrically invalid point."""
    dt1, dtau1, _ = _one_shell_period(config, shell_radius(config, R1, f))
    return dtau1 / dt1 - rate2


def _seed(config: SearchConfig, R1: float, rate2: float) -> float:
    """f where the linear interpolation of config.rate_table puts the one-shell
    rate at rate2; NaN if the table has fewer than two rows."""
    log_rates, s_values = config.rate_table
    if len(log_rates) < 2:
        return math.nan
    x = min(max(math.log(rate2), log_rates[0]), log_rates[-1])
    i = min(bisect(log_rates, x), len(log_rates) - 1)
    w = (x - log_rates[i - 1]) / (log_rates[i] - log_rates[i - 1])
    s = s_values[i - 1] + w * (s_values[i] - s_values[i - 1])
    return (2.0 * config.M + math.exp(s) - config.R2) / (R1 - config.R2)


def _contour_root(config: SearchConfig, R1: float, rate2: float,
                  lo: float, hi: float, rising: bool) -> tuple[float, float, float]:
    """(f, Dt1, Dtau1) at the root of the clock-rate residual g in [lo, hi],
    where g changes sign (rising: from negative at lo), by Newton from the rate
    table's seed safeguarded by bisection (rtsafe, Numerical Recipes 9.4): g' is
    the closed-form rate slope times dR/df = R1 - R2, and a step that leaves
    the sign bracket bisects it.

    Stops once a Newton step is at most 4 ulps of f, brentq's relative floor.
    f itself can then be up to that step plus half an ulp of R (in f) off the
    root, while f - step is off by the half ulp of R alone; so f - step is
    returned when it keeps the evaluated shell radius, whose periods it then
    shares, and otherwise evaluated once more.  After NEWTON_STEPS without
    convergence, bisects the bracket to its last bit."""
    dR_df = R1 - config.R2
    f, settled = _seed(config, R1, rate2), False
    for _ in range(NEWTON_STEPS):
        if not lo < f < hi:
            f = 0.5 * (lo + hi)
        R = shell_radius(config, R1, f)
        dt1, dtau1, slope = _one_shell_period(config, R)
        g = dtau1 / dt1 - rate2
        lo, hi = (f, hi) if (g < 0.0) == rising else (lo, f)
        d = slope * dR_df
        step = g / d if d else math.inf
        if abs(step) <= 4.0 * math.ulp(f):
            if shell_radius(config, R1, f - step) == R:
                return f - step, dt1, dtau1
            if settled:
                return f, dt1, dtau1
            settled = True
        f -= step
    while lo < (f := 0.5 * (lo + hi)) < hi:
        lo, hi = (f, hi) if (ratio_residual(R1, f, config, rate2) < 0.0) == rising else (lo, f)
    return (f, *_one_shell_period(config, shell_radius(config, R1, f))[:2])


def solve_contour(R1: float, config: SearchConfig) -> ContourPoint:
    """Both branch periods at the root in f of the equal-clock-rate residual at
    fixed R1.  The two-shell period depends on R1 alone, so it is computed once
    and only the one-shell branch varies with f.  The one-shell rate Dtau1/Dt1
    rises strictly in R (tests/test_search.py checks it at 50 digits), so the
    root is unique.  The residual's signs at both ends of the whole admissible
    interval decide whether there is one (a NaN or no sign change raises
    NoSolutionAtRadius); safeguarded Newton on the closed-form rate slope then
    solves f from the config's rate-table seed to within 4 ulps of the 50-digit
    root (_contour_root).  On 30 benchmark-like geometries that takes 5.7
    one-shell period evaluations per point, the two end checks included (14.4
    with the full-interval brentq it replaces).  A pure function of its
    arguments: the seed never comes from another point."""
    f_lo = (2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2)
    if f_lo >= F_UPPER:
        raise NoSolutionAtRadius(f"no admissible f interval at R1={R1}")
    try:
        dt2, dtau2 = period_spans((0.0, config.m, config.M), (config.R2, R1), config.r_i)
    except (GeometryError, GeodesicError) as exc:
        raise NoSolutionAtRadius(f"two-shell branch invalid at R1={R1}: {exc}") from exc
    rate2 = dtau2 / dt2
    lo, hi = max(f_lo, 0.0), F_UPPER
    g_lo, g_hi = ratio_residual(R1, lo, config, rate2), ratio_residual(R1, hi, config, rate2)
    if not (g_lo <= 0.0 <= g_hi or g_hi <= 0.0 <= g_lo):  # a NaN, or no sign change
        raise NoSolutionAtRadius(
            f"no sign change of the clock-rate residual in f at R1={R1}"
        )
    f_star, dt1, dtau1 = _contour_root(config, R1, rate2, lo, hi, g_lo < 0.0 or g_hi > 0.0)
    return ContourPoint(R1, f_star, dt1, dtau1, dt2, dtau2)


def period_ratio_curve(config: SearchConfig) -> list[tuple[float, float, float]]:
    """(R1, f_star, Dt1/Dt2) along the contour over the configured R1 grid,
    skipping grid points with no contour root."""
    curve = []
    for i in range(config.grid):
        R1 = config.R1_min + (config.R1_max - config.R1_min) * i / (config.grid - 1)
        try:
            point = solve_contour(R1, config)
        except NoSolutionAtRadius:
            continue
        curve.append((point.R1, point.f, point.ratio))
    return curve


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
    bracket; each contour point's f to within 4 ulps (solve_contour).  The
    grid-200 reference solve evaluates the one-shell period 1,152 times over
    its 203 contour points, the seed table's 33 rows included."""
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

def _exterior_spans(config: SearchConfig, r: float) -> tuple[float, float]:
    """(t, tau) spans from rest at r_i down to r in the shared exterior metric."""
    params = config.release[0]
    eta = eta_of_radius(params, r)
    return coordinate_time(params, eta, r), proper_time(params, eta)


def find_meeting_radius(solution: SwitchSolution, config: SearchConfig) -> MeetingEvent:
    """Radius where the two branch geodesics cross at equal proper time.

    On the first far-side excursion the one-shell branch is past its turning
    point (inbound) and the two-shell branch is still outbound; in the shared
    exterior both are time-shifted copies of the same rest-release cycloid, so
    the crossing condition reduces to a bracketed root in r on (R1, r_i).
    """
    half_tau_1, half_tau_2 = solution.dtau1 / 2.0, solution.dtau2 / 2.0
    half_t_1, half_t_2 = solution.dt1 / 2.0, solution.dt2 / 2.0

    def tau_gap(r: float) -> float:
        _, tau_e = _exterior_spans(config, r)
        return (half_tau_1 + tau_e) - (half_tau_2 - tau_e)

    r_lo = solution.R1 * (1.0 + 1e-12)
    r_hi = config.r_i * (1.0 - 1e-12)
    g_lo, g_hi = tau_gap(r_lo), tau_gap(r_hi)
    if g_lo * g_hi >= 0.0:
        raise NoMeetingError(
            "proper-time curves do not cross transversally on (R1, r_i)"
        )
    r_t = brentq(tau_gap, r_lo, r_hi, xtol=1e-12, rtol=8.9e-16)
    t_e, tau_e = _exterior_spans(config, r_t)
    t_A1 = half_t_1 + t_e
    t_A2 = half_t_2 - t_e
    if not t_A1 < t_A2:
        raise NoMeetingError(f"crossing found but t_A1={t_A1} >= t_A2={t_A2}")
    return MeetingEvent(r_t=r_t, tau_A=half_tau_1 + tau_e, t_A1=t_A1, t_A2=t_A2)
