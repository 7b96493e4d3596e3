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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import (
    GeodesicError,
    GeometryError,
    NoMeetingError,
    NoSolutionAtRadius,
    SearchError,
    UnattainableRatioError,
)
from .fields import integer, real
from .geodesic import (
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
BRACKET_SCAN = 64      # f subdivisions used to find the first sign change
SCAN_GUARD = 1e-12     # a numpy scan residual this near zero is evaluated exactly
SCAN_BLOCK = 32        # R1 grid points per numpy scan pass, bounding its memory
_SCAN_STEPS = np.arange(BRACKET_SCAN + 1.0)


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
    residual_tol: float = 1e-8

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


def _one_shell_period(config: SearchConfig, R: float) -> tuple[float, float]:
    """(Dt, Dtau) of oscillation_period(one_shell_spacetime(config, R), r_i), bit for
    bit: its operations in their order (exterior leg from rest at r_i to R, tangent
    transfer by k = sqrt(f(M, R)), core leg times the core lapse sqrt(1 / f(M, R)),
    4 x the legs' sum) without the spacetime.  (NaN, NaN) exactly where it raises."""
    M, r_i = config.M, config.r_i
    # at R == r_i the particle rests at the shell and never reaches the core
    if not 0.0 < R < r_i or metric_factor(M, R) < DEFAULT_HORIZON_MARGIN:
        return math.nan, math.nan
    f_out = metric_factor(M, R)
    params, t_release = config.release
    eta = eta_of_radius(params, R)
    dt_out = abs(coordinate_time(params, eta, R) - t_release)
    dtau_out = proper_time(params, eta)  # proper_time(params, 0.0) is 0.0
    u_t, u_r = tangent(params, eta, R)
    k = math.sqrt(f_out)
    dtau_core = R / (abs(u_r) / k)
    dt_core = math.sqrt(1.0 / f_out) * (u_t * k * dtau_core)
    return 4.0 * (dt_out + dt_core), 4.0 * (dtau_out + dtau_core)


def ratio_residual(R1: float, f: float, config: SearchConfig, rate2: float) -> float:
    """Dtau1/Dt1 - rate2, rate2 being the two-shell Dtau2/Dt2 at R1; NaN marks
    a geometrically invalid point."""
    dt1, dtau1 = _one_shell_period(config, shell_radius(config, R1, f))
    return dtau1 / dt1 - rate2


def _one_shell_rates(config: SearchConfig, R: np.ndarray) -> np.ndarray:
    """Dtau1/Dt1 of _one_shell_period at each radius of R, from its float
    operations in its order on numpy.  NaN where it returns NaN or either span
    is not finite; wherever it raises, the rate is therefore not finite.
    numpy's transcendentals may differ from math's in the last bits, so these
    rates only choose a bracket."""
    M, r_i = config.M, config.r_i
    params, t_release = config.release
    r_apo = params.r_apo
    with np.errstate(all="ignore"):
        f_out = (R - 2.0 * M) / R
        eta = 2.0 * np.arccos(np.sqrt(R / r_apo))
        sin_eta, tan_e = np.sin(eta), np.tan(0.5 * eta)
        poly = params.t_scale * (0.5 * (eta + sin_eta) + params.one_minus_E2 * eta)
        log_term = 2.0 * M * np.log(
            (params.tan_h + tan_e) ** 2 * (2.0 * M * R) / (r_apo * (R - 2.0 * M))
        )
        dt_out = np.abs(poly + log_term - t_release)
        dtau_out = params.tau_scale * (eta + sin_eta)
        u_t = params.energy * R / (R - 2.0 * M)
        k = np.sqrt(f_out)
        dtau_core = R / (np.abs(params.u_scale * tan_e) / k)
        dt_core = np.sqrt(1.0 / f_out) * (u_t * k * dtau_core)
        dt1, dtau1 = 4.0 * (dt_out + dt_core), 4.0 * (dtau_out + dtau_core)
        valid = ((0.0 < R) & (R < r_i) & (f_out >= DEFAULT_HORIZON_MARGIN)
                 & np.isfinite(dt1) & np.isfinite(dtau1))
        return np.where(valid, dtau1 / dt1, np.nan)


def _scan_block(R1s: list[float], config: SearchConfig):
    """The f scans of the R1s in one numpy pass: per row the lower f end (before
    its admissibility check), the BRACKET_SCAN + 1 scan abscissae and the
    one-shell clock rate at each."""
    f_los = [(2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2) for R1 in R1s]
    lo = np.array([max(f_lo, 0.0) for f_lo in f_los])[:, None]
    fs = lo + (F_UPPER - lo) * _SCAN_STEPS / BRACKET_SCAN
    R = config.R2 + (np.array(R1s)[:, None] - config.R2) * fs
    return f_los, fs.tolist(), _one_shell_rates(config, R)


def _scan_residuals(R1: float, fs: list[float], rates: np.ndarray,
                    config: SearchConfig, rate2: float) -> list[float]:
    """ratio_residual at each scan abscissa: the numpy rate minus rate2 where that
    is finite and farther than SCAN_GUARD from zero, so its sign is the exact
    residual's; ratio_residual itself everywhere else, in ascending f."""
    with np.errstate(all="ignore"):
        vals = rates - rate2
        redo = np.flatnonzero(~(np.abs(vals) > SCAN_GUARD) | ~np.isfinite(vals))
    vals = vals.tolist()
    for j in redo.tolist():
        vals[j] = ratio_residual(R1, fs[j], config, rate2)
    return vals


def _contour_point(R1: float, f_lo: float, fs: list[float], rates: np.ndarray,
                   config: SearchConfig) -> ContourPoint:
    """solve_contour at R1 from its row of _scan_block."""
    if f_lo >= F_UPPER:
        raise NoSolutionAtRadius(f"no admissible f interval at R1={R1}")
    try:
        dt2, dtau2 = period_spans((0.0, config.m, config.M), (config.R2, R1), config.r_i)
    except (GeometryError, GeodesicError) as exc:
        raise NoSolutionAtRadius(f"two-shell branch invalid at R1={R1}: {exc}") from exc
    rate2 = dtau2 / dt2
    vals = _scan_residuals(R1, fs, rates, config, rate2)
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


def solve_contour(R1: float, config: SearchConfig) -> ContourPoint:
    """Both branch periods at the first root (in ascending f) of the
    equal-clock-rate residual at fixed R1.  The two-shell period depends on R1
    alone, so it is computed once and only the one-shell branch varies with f."""
    f_los, fs, rates = _scan_block([R1], config)
    return _contour_point(R1, f_los[0], fs[0], rates[0], config)


def period_ratio_curve(config: SearchConfig) -> list[tuple[float, float, float]]:
    """(R1, f_star, Dt1/Dt2) along the contour over the configured R1 grid,
    skipping grid points with no contour root.  The f scans of SCAN_BLOCK grid
    points at a time are one numpy pass."""
    R1s = [config.R1_min + (config.R1_max - config.R1_min) * i / (config.grid - 1)
           for i in range(config.grid)]
    curve = []
    for start in range(0, config.grid, SCAN_BLOCK):
        block = R1s[start:start + SCAN_BLOCK]
        for R1, *row in zip(block, *_scan_block(block, config)):
            try:
                point = _contour_point(R1, *row, config)
            except NoSolutionAtRadius:
                continue
            curve.append((point.R1, point.f, point.ratio))
    return curve


def solve_switch_configuration(config: SearchConfig) -> SwitchSolution:
    """Solve both conditions: returns the geometry with Dt1/Dt2 = p/q on the
    contour, carrying the contour it traced as `curve`.  Where the ratio is so
    steep in f that an f root within root_tol leaves the R1 root off and a
    residual above residual_tol, the solve is repeated with root_tol / 100."""
    solution = _solve(config)
    if max(abs(solution.clock_residual), abs(solution.ratio_residual)) > config.residual_tol:
        solution = _solve(replace(config, root_tol=config.root_tol / 100.0))
    _validate_solution(solution)
    return solution


def _solve(config: SearchConfig) -> SwitchSolution:
    curve = period_ratio_curve(config)
    if len(curve) < 2:
        raise SearchError("contour could not be traced over the R1 grid")
    target = config.target_ratio
    ratios = [pt[2] for pt in curve]
    crossings = (
        (a[0], b[0]) for a, b in zip(curve, curve[1:]) if (a[2] - target) * (b[2] - target) <= 0.0
    )
    bracket = next(crossings, None)
    if bracket is None:
        raise UnattainableRatioError(target, min(ratios), max(ratios))

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
    return SwitchSolution(
        R1=pt.R1, f=pt.f, R=shell_radius(config, pt.R1, pt.f),
        dt1=pt.dt1, dtau1=pt.dtau1, dt2=pt.dt2, dtau2=pt.dtau2,
        achieved_ratio=pt.ratio,
        clock_residual=pt.dtau1 / pt.dt1 - pt.dtau2 / pt.dt2,
        ratio_residual=pt.ratio - target,
        config=config,
        curve=tuple(curve),
    )


def _validate_solution(sol: SwitchSolution) -> None:
    cfg = sol.config
    if not (2.0 * cfg.M < sol.R < sol.R1 and cfg.R2 < sol.R):
        raise SearchError(f"solved geometry invalid: R={sol.R}, R1={sol.R1}")
    if abs(sol.clock_residual) > cfg.residual_tol:
        raise SearchError(f"clock-rate residual {sol.clock_residual} above tolerance")
    if abs(sol.ratio_residual) > cfg.residual_tol:
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
