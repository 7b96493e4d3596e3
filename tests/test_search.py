import dataclasses
import math
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shellswitch.search
from shellswitch.errors import (
    GeodesicError,
    GeometryError,
    MultipleCrossingsError,
    NoMeetingError,
    NoSolutionAtRadius,
    SearchError,
    UnattainableRatioError,
)
import shellswitch.geodesic
import shellswitch.spacetime
from shellswitch.geodesic import oscillation_period, trajectory
from shellswitch.search import (
    F_MARGIN,
    F_UPPER,
    SEED_RADII,
    ContourPoint,
    SearchConfig,
    _contour_points,
    _one_shell_period,
    find_meeting_radius,
    one_shell_spacetime,
    period_ratio_curve,
    ratio_crossings,
    ratio_residual,
    shell_radius,
    solve_contour,
    solve_switch_configuration,
    two_shell_spacetime,
)
from shellswitch.spacetime import DEFAULT_HORIZON_MARGIN, metric_factor

from conftest import REFERENCE
import oracles
from oracles import (
    DPS, _bracketed_root, _two_shell_period, mp_contour_ratio, mp_period, mp_quad_period, mp_rate,
    mp_switch_root,
)


class TestConfig:
    def test_from_dict_tol_alias(self):
        doc = dict(REFERENCE, tol=1e-9, grid=50)
        cfg = SearchConfig.from_dict(doc)
        assert cfg.root_tol == 1e-9
        assert cfg.grid == 50

    def test_shell_inside_inner_horizon(self):
        with pytest.raises(SearchError):
            SearchConfig(**dict(REFERENCE, R2=3.0))

    def test_bad_grid(self):
        with pytest.raises(SearchError):
            SearchConfig(**dict(REFERENCE), grid=1)

    def test_bad_interval(self):
        with pytest.raises(SearchError):
            SearchConfig(**dict(REFERENCE, R1_min=12.0, R1_max=9.0))

    @pytest.mark.parametrize("field, value", [
        ("p", 9.7), ("q", 10.5), ("grid", 24.9), ("p", True), ("grid", False),
        ("q", "10"), ("grid", None),
    ])
    def test_integer_fields_not_truncated(self, field, value):
        # truncating p = 9.7 to 9 would solve a ratio nobody asked for
        with pytest.raises(SearchError, match=field):
            SearchConfig.from_dict(dict(REFERENCE, **{field: value}))

    def test_integral_floats_accepted(self):
        cfg = SearchConfig.from_dict(dict(REFERENCE, p=9.0, q=10.0, grid=24.0))
        assert (cfg.p, cfg.q, cfg.grid) == (9, 10, 24)
        assert all(type(v) is int for v in (cfg.p, cfg.q, cfg.grid))

    def test_inner_shell_inside_horizon_margin(self):
        # 5e-10 relative above 2m: every grid point's two-shell period used to
        # raise, and the search ended as an untraceable contour
        m = REFERENCE["R2"] / 2.0 * (1.0 - 5e-10)
        with pytest.raises(SearchError, match=r"R2=4\.0 .* 2m=.* margin 1e-09"):
            SearchConfig(**dict(REFERENCE, m=m))

    def test_release_that_rounds_to_unbound(self):
        # 2M/r_i rounds away at M = 1e-17: the release cycloid would have E = 1,
        # and every grid point failed on it (the search exited 3)
        with pytest.raises(SearchError, match=r"M=1e-17 .* r_i=12\.0"):
            SearchConfig(**dict(REFERENCE, M=1e-17))

    def test_release_whose_cube_overflows(self):
        # the release cycloid forms r_i**3, which overflows at r_i = 1e301:
        # the search ended in an OverflowError traceback
        with pytest.raises(SearchError, match=r"M=1e\+300 and r_i=1e\+301: .* overflows"):
            SearchConfig(**dict(REFERENCE, M=1e300, r_i=1e301, R1_max=2.5e300))

    @pytest.mark.parametrize("R1_max", [5.9, 6.0])
    def test_grid_must_reach_past_exterior_horizon(self, R1_max):
        # 2M = 6: every grid point used to fail (the search exited 3), and
        # solve_contour raised ValueError from the seed table's log(R1_max - 2M)
        with pytest.raises(SearchError, match=rf"R1_max={R1_max} .* 2M=6\.0"):
            SearchConfig(**dict(REFERENCE, R1_min=4.5, R1_max=R1_max))

    @pytest.mark.parametrize("R1_min", [4.0, 3.5])
    def test_outer_shell_must_clear_inner(self, R1_min):
        # R1_min == R2 used to reach a division by R1 - R2 in the f bracket
        with pytest.raises(SearchError):
            SearchConfig(**dict(REFERENCE, R1_min=R1_min))

    @pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["m", "M", "R2", "r_i", "R1_min", "R1_max", "tol"])
    def test_float_fields_finite_and_not_boolean(self, field, value):
        # "tol": true used to solve with a root tolerance of 1.0
        with pytest.raises(SearchError, match=f"{field} must be a finite number"):
            SearchConfig.from_dict(dict(REFERENCE, **{field: value}))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-400])
    def test_root_tolerance_must_be_positive(self, tol):
        # tol = 0 used to reach scipy's "xtol too small"
        with pytest.raises(SearchError, match="tol"):
            SearchConfig.from_dict(dict(REFERENCE, tol=tol))

    @pytest.mark.parametrize("r_i", [1.0, 6.0, 10.0, 11.5])
    def test_release_in_shared_exterior(self, r_i):
        # inside the horizon 2M = 6, or at or inside R1_max = 11.5
        with pytest.raises(SearchError, match="r_i"):
            SearchConfig.from_dict(dict(REFERENCE, r_i=r_i))


class TestContour:
    def test_root_near_reference_point(self, ref_config):
        point = solve_contour(10.072, ref_config)
        rate2 = point.dtau2 / point.dt2
        assert 0.30 < point.f < 0.36
        assert abs(ratio_residual(10.072, point.f, ref_config, rate2)) < 1e-10

    def test_residual_sign_change_around_root(self, ref_config):
        # the admissible band below the root is only ~1e-4 wide in f before
        # the shell dips under the exterior horizon, so probe close in
        point = solve_contour(10.072, ref_config)
        rate2 = point.dtau2 / point.dt2
        lo = ratio_residual(10.072, point.f - 3e-5, ref_config, rate2)
        hi = ratio_residual(10.072, point.f + 3e-5, ref_config, rate2)
        assert lo * hi < 0.0

    def test_point_carries_both_branch_periods(self, ref_config):
        point = solve_contour(10.072, ref_config)
        R = shell_radius(ref_config, 10.072, point.f)
        dt1, dtau1, _ = oscillation_period(one_shell_spacetime(ref_config, R), ref_config.r_i)
        dt2, dtau2, _ = oscillation_period(two_shell_spacetime(ref_config, 10.072), ref_config.r_i)
        assert point.R1 == 10.072
        assert (point.dt1, point.dtau1, point.dt2, point.dtau2) == (dt1, dtau1, dt2, dtau2)
        assert point.ratio == dt1 / dt2

    def test_no_admissible_interval(self, ref_config):
        # R1 barely above 2M leaves no room for the shell bracket
        with pytest.raises(NoSolutionAtRadius):
            solve_contour(6.0 + 1e-5, ref_config)

    @pytest.mark.parametrize("R1", [
        4.0,                             # R1 == R2: the f interval divided by zero
        3.0,                             # R1 < R2
        math.nextafter(12.0, math.inf),  # an ulp above r_i: released inside the outer shell
        12.5,
    ])
    def test_outside_domain(self, ref_config, R1):
        with pytest.raises(NoSolutionAtRadius, match=r"outside \(R2, r_i\]"):
            solve_contour(R1, ref_config)


def general_period(config, R):
    """One-shell (Dt, Dtau) by oscillation_period on the built spacetime; (NaN,
    NaN) where it raises."""
    try:
        dt, dtau, _ = oscillation_period(one_shell_spacetime(config, R), config.r_i)
    except (GeometryError, GeodesicError):
        return math.nan, math.nan
    return dt, dtau


def period_rate(config, R1, f, rate2):
    """Dtau1/Dt1 - rate2 by oscillation_period on the built spacetime; NaN where
    it raises."""
    dt, dtau = general_period(config, shell_radius(config, R1, f))
    return dtau / dt - rate2


def grid_interval(M, R2, r_i):
    """An R1 grid interval SearchConfig accepts, above R2 and 2M and below r_i;
    the period properties below never trace it."""
    R1_max = 0.5 * (r_i + max(R2, 2.0 * M))
    return dict(R1_min=0.5 * (R2 + R1_max), R1_max=R1_max)


@st.composite
def residual_inputs(draw):
    """(config, R1, f, rate2) with R anywhere from inside the exterior horizon
    to beyond r_i; some f place R at the horizon margin or just below r_i."""
    M = draw(st.floats(0.5, 5.0))
    r_i = 2.0 * M * draw(st.floats(1.001, 4.0))
    R2 = r_i * draw(st.floats(0.05, 0.9))
    config = SearchConfig(m=R2 / 2.5, M=M, R2=R2, r_i=r_i, p=9, q=10,
                          **grid_interval(M, R2, r_i))
    R1 = R2 * draw(st.floats(1.001, 1.5)) + (r_i - R2) * draw(st.floats(0.0, 1.5))
    grazing = 2.0 * M / (1.0 - DEFAULT_HORIZON_MARGIN * draw(st.floats(0.999, 1.001)))
    near_release = r_i * (1.0 - draw(st.floats(1e-15, 1e-6)))
    f = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [(grazing - R2) / (R1 - R2), (near_release - R2) / (R1 - R2)])))
    return config, R1, f, draw(st.sampled_from([0.0, 0.03125, 0.0311]))


class TestClosedFormResidual:
    """The search's one-shell kernel starts from the config's cached release,
    with no spacetime built; it must give the (Dt, Dtau) that
    oscillation_period walks on the built spacetime, bit for bit, and NaN
    exactly where that raises.  CI reruns it under five seeds."""

    @given(residual_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_oscillation_period(self, inputs):
        config, R1, f, rate2 = inputs
        got, want = ratio_residual(R1, f, config, rate2), period_rate(config, R1, f, rate2)
        assert got == want or (math.isnan(got) and math.isnan(want))
        R = shell_radius(config, R1, f)
        closed, general = _one_shell_period(config, R)[:2], general_period(config, R)
        assert closed == general or all(math.isnan(x) for x in closed + general)

    # R1 - R2 = 8 makes R = R2 + (R1 - R2) * f exact for these f
    @pytest.mark.parametrize("f, why", [
        (1.0, "R == r_i: the particle rests at the shell"),
        (1.25, "R > r_i: the release is inside the shell"),
        (0.25, "R == 2M: the shell sits on the exterior horizon"),
        (0.125, "R < 2M: the shell is inside the exterior horizon"),
    ])
    def test_invalid_shell_is_nan(self, ref_config, f, why):
        assert math.isnan(period_rate(ref_config, 12.0, f, 0.0)), why
        assert math.isnan(ratio_residual(12.0, f, ref_config, 0.0)), why

    def test_horizon_margin_edge(self, ref_config):
        # walk R up by ulps until f(M, R) reaches DEFAULT_HORIZON_MARGIN
        R = 6.0 * (1.0 + 0.999999 * DEFAULT_HORIZON_MARGIN)
        while metric_factor(3.0, R) < DEFAULT_HORIZON_MARGIN:
            inside, R = R, math.nextafter(R, math.inf)
        f_in, f_out = (inside - 4.0) / 8.0, (R - 4.0) / 8.0
        assert shell_radius(ref_config, 12.0, f_out) == R
        assert math.isnan(period_rate(ref_config, 12.0, f_in, 0.0))
        assert math.isnan(ratio_residual(12.0, f_in, ref_config, 0.0))
        rate = ratio_residual(12.0, f_out, ref_config, 0.0)
        assert rate == period_rate(ref_config, 12.0, f_out, 0.0) and rate > 0.0


def outcome(period):
    """The periods' bits, or the class of the exception raised."""
    try:
        dt, dtau = period()[:2]
    except Exception as exc:
        return type(exc)
    return dt.hex(), dtau.hex()


def in_contour_domain(config, R1):
    """Whether solve_contour evaluates the two-shell period at R1: R2 < R1 <= r_i
    with a non-empty admissible f interval."""
    if not config.R2 < R1 <= config.r_i:
        return False
    return (2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2) < F_UPPER


@st.composite
def two_shell_inputs(draw):
    """(config, R1) with R1 across solve_contour's domain: above R2 and above
    the 2M / (1 - 1e-6) that a non-empty f interval needs, an ulp above that
    floor, at r_i and an ulp below it.  R2 clears its horizon 2m by 1.3e-9 to
    0.8 relative, as SearchConfig requires."""
    M = draw(st.floats(0.5, 5.0))
    r_i = 2.0 * M * draw(st.floats(1.001, 4.0))
    R2 = r_i * draw(st.floats(0.05, 0.9))
    config = SearchConfig(
        m=0.5 * R2 * (1.0 - 10.0 ** draw(st.floats(-8.9, -0.1))), M=M, R2=R2, r_i=r_i,
        p=9, q=10, **grid_interval(M, R2, r_i),
    )
    floor = max(R2, 2.0 * M / (1.0 - F_MARGIN))
    R1 = draw(st.one_of(
        st.floats(0.0, 1.0).map(lambda w: floor + (r_i - floor) * w),
        st.floats(-12.0, 0.0).map(lambda x: floor + (r_i - floor) * 10.0 ** x),
        st.sampled_from([math.nextafter(floor, math.inf), r_i, math.nextafter(r_i, 0.0)]),
    ))
    assume(in_contour_domain(config, R1))
    return config, R1


class TestTwoShellClosedForm:
    """The two-shell kernel (oracles._two_shell_period, which the contour sweep
    inlines and TestContourSweep holds the sweep to) starts from the config's
    cached release, with no spacetime built; on solve_contour's domain it must
    give the (Dt, Dtau) that oscillation_period walks on the built spacetime,
    bit for bit, and raise the exception class that oscillation_period raises
    wherever that raises.  test_outside_domain covers R1 outside the domain.
    CI reruns it under five seeds."""

    @given(two_shell_inputs())
    @example((SearchConfig(**REFERENCE), 12.0))   # R1 == r_i: the release rests at the shell
    @settings(max_examples=500, deadline=None)
    def test_matches_oscillation_period(self, inputs):
        config, R1 = inputs
        walked = outcome(lambda: oscillation_period(two_shell_spacetime(config, R1), config.r_i))
        assert outcome(lambda: _two_shell_period(config, R1)) == walked


def count_sweeps(monkeypatch):
    """A list that grows by the (contour points, one-shell evaluations, two-shell
    evaluations) that each shellswitch.search._contour_points sweep returns."""
    sweeps, sweep = [], shellswitch.search._contour_points

    def counted(config, R1s):
        points, evaluations, two_shell = sweep(config, R1s)
        sweeps.append((len(points), evaluations, two_shell))
        return points, evaluations, two_shell

    monkeypatch.setattr(shellswitch.search, "_contour_points", counted)
    return sweeps


def test_hoisted_work_per_contour_point(monkeypatch):
    """Each contour point computes its two-shell period once (as the sweeps count
    it), from the config's cached release, and builds no spacetime; the grid is
    traced in one sweep, and the outer root solves no point the curve or its own
    iterations already hold, so the grid-24 solve makes 24 + 4 points.  Both
    periods are straight-line code: the solve never calls the walk's spans, and builds one
    CycloidParams, the release."""
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(shellswitch.search, "build_spacetime")
    count(shellswitch.spacetime, "build_spacetime")
    count(shellswitch.geodesic, "oscillation_period")
    count(shellswitch.geodesic, "_schwarzschild_span")
    assert not hasattr(shellswitch.search, "_schwarzschild_span")  # a reference the count would miss
    # the dataclass __init__ looks __post_init__ up on the class at each build
    count(shellswitch.geodesic.CycloidParams, "__post_init__")
    sweeps = count_sweeps(monkeypatch)
    solve_switch_configuration(SearchConfig(grid=24, **REFERENCE))
    assert [points for points, _, _ in sweeps] == [24, 1, 1, 1, 1]
    assert sum(two_shell for _, _, two_shell in sweeps) == 28
    assert counts["oscillation_period"] == 0
    assert counts["build_spacetime"] == 0
    assert counts["_schwarzschild_span"] == 0
    assert counts["__post_init__"] == 1


def count_calls(monkeypatch, name):
    """A list that grows by one at each call of shellswitch.search.<name>."""
    calls, original = [], getattr(shellswitch.search, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(shellswitch.search, name, counted)
    return calls


def test_one_shell_evaluations_per_solve(monkeypatch):
    """The grid-200 reference solve evaluates the one-shell period at most 560
    times (it makes 545: ~2.5 per contour point over 203 points, counted by the
    sweeps, plus the seed table's 33 rows, inline in its own sweep; 1,152 with
    a linear seed and two end checks per point), and builds the table once."""
    tables, table = [], SearchConfig.rate_table

    def counted_table(config):
        tables.append(None)
        return table.func(config)

    counted = cached_property(counted_table)
    counted.__set_name__(SearchConfig, "rate_table")
    monkeypatch.setattr(SearchConfig, "rate_table", counted)
    rows = count_calls(monkeypatch, "_one_shell_period")
    sweeps = count_sweeps(monkeypatch)
    config = SearchConfig(grid=200, **REFERENCE)
    solve_switch_configuration(config)
    points, evaluations, _ = (sum(counts) for counts in zip(*sweeps))
    table_rows = len(config.rate_table[0])
    assert len(tables) == 1 and table_rows == SEED_RADII
    assert rows == []  # no end check, no bisection
    assert points <= evaluations and table_rows + evaluations <= 560


def test_end_checks_per_solve(monkeypatch):
    """An end of the admissible f interval is evaluated only where it decides
    whether a point has a root: the grid-200 reference solve, whose 203
    contour points all have one, makes no end check (it made 406)."""
    sweeps = count_sweeps(monkeypatch)
    end_checks = count_calls(monkeypatch, "ratio_residual")
    solve_switch_configuration(SearchConfig(grid=200, **REFERENCE))
    assert sum(points for points, _, _ in sweeps) == 203
    assert len(end_checks) <= 2


@pytest.mark.parametrize("m, R1, evaluations", [
    # R2 1e-8 relative above its horizon: the two-shell clock is so slow that
    # the shell would sit below 2M + F_MARGIN R1, and the seed leaves the
    # bracket through the lower end
    (2.0 * (1.0 - 1e-8), 10.0, 1),
    # a near-flat middle patch with its outer shell at r_i: the two-shell clock
    # outruns every admissible shell, and the first step leaves through the upper end
    (1e-10, 12.0, 2),
])
def test_rootless_point_checks_one_end(monkeypatch, m, R1, evaluations):
    """A point with no root costs one end check, made as soon as the seed or a
    step leaves the bracket through that end, not a Newton run into it."""
    config = SearchConfig(**dict(REFERENCE, m=m))
    config.rate_table
    end_checks = count_calls(monkeypatch, "ratio_residual")
    (point,), made, _ = _contour_points(config, [R1])
    assert isinstance(point, NoSolutionAtRadius) and "no sign change" in str(point)
    assert (len(end_checks), made) == (1, evaluations)


@st.composite
def contour_inputs(draw):
    """(config, R1) near the reference geometry, drawn as the benchmark draws
    it but with R2 from 1e-7 (not 1e-5) to 1e-2 relative above its horizon 2m,
    and R1 from below 2M, where no f is admissible, to R1_max, crowding the
    configured [R1_min, R1_max]."""
    R2 = draw(st.floats(3.95, 4.05))
    m = 0.5 * R2 * (1.0 - 10.0 ** draw(st.floats(-7.0, -2.0)))
    config = SearchConfig(m=m, M=draw(st.floats(2.9, 3.1)), R2=R2,
                          r_i=draw(st.floats(11.8, 12.2)), p=9, q=10, R1_min=9.0, R1_max=11.5)
    return config, draw(st.one_of(st.floats(5.0, 11.5), st.floats(9.0, 11.5)))


def expected_contour_root(config, R1):
    """None where the admissible f interval is empty, the two-shell branch
    invalid, or the clock-rate residual has no sign change across the whole
    interval (a NaN at an end included); otherwise the interval's ends."""
    f_lo = (2.0 * config.M + F_MARGIN * R1 - config.R2) / (R1 - config.R2)
    if f_lo >= F_UPPER:
        return None
    try:
        dt2, dtau2, _ = oscillation_period(two_shell_spacetime(config, R1), config.r_i)
    except (GeometryError, GeodesicError):
        return None
    ends = (max(f_lo, 0.0), F_UPPER)
    lo, hi = (ratio_residual(R1, f, config, dtau2 / dt2) for f in ends)
    return ends if lo <= 0.0 <= hi or hi <= 0.0 <= lo else None


def fifty_digit_R(config, point):
    """The 50-digit root R of mp_rate((0, M), (R,), r_i) = Dtau2/Dt2, the
    two-shell rate of the point, bracketed 1e-12 relative around its R."""
    R = shell_radius(config, point.R1, point.f)
    with mp.workdps(DPS):
        rate2 = mp.mpf(point.dtau2) / mp.mpf(point.dt2)
        return _bracketed_root(lambda x: mp_rate((0.0, config.M), (x,), config.r_i) - rate2,
                               R * (1.0 - 1e-12), R * (1.0 + 1e-12))


def fifty_digit_f(config, point):
    """f of fifty_digit_R."""
    with mp.workdps(DPS):
        R2 = mp.mpf(config.R2)
        return (fifty_digit_R(config, point) - R2) / (mp.mpf(point.R1) - R2)


def assert_root_or_no_sign_change(config, R1):
    """solve_contour raises NoSolutionAtRadius exactly where the residual has
    no sign change across the admissible interval; else it returns f inside
    it, with the shell radius R within 4 ulps of the 50-digit root.  Returns
    the point, or None."""
    ends = expected_contour_root(config, R1)
    if ends is None:
        with pytest.raises(NoSolutionAtRadius):
            solve_contour(R1, config)
        return None
    point = solve_contour(R1, config)
    assert ends[0] <= point.f <= ends[1]
    R_star = float(fifty_digit_R(config, point))
    assert abs(shell_radius(config, R1, point.f) - R_star) <= 4 * math.ulp(R_star)
    return point


# a near-reference geometry of contour_inputs
NEAR_REFERENCE = SearchConfig(m=1.9766306075809594, M=3.0248335429174165, R2=3.9550801030965967,
                              r_i=12.099786187127252, p=9, q=10, R1_min=9.0, R1_max=11.5)


@st.composite
def small_f_inputs(draw):
    """(config, R1) near the reference geometry, but with R2 from 1e-6 to 1e-2
    relative below the exterior horizon 2M and m from 1e-7 to 1e-3 relative
    below R2 / 2, so that the contour's shell sits just above R2: f from ~4e-6
    to ~2e-2 where there is a root, and about a third of the draws have none."""
    M = draw(st.floats(2.9, 3.1))
    R2 = 2.0 * M * (1.0 - 10.0 ** draw(st.floats(-6.0, -2.0)))
    config = SearchConfig(m=0.5 * R2 * (1.0 - 10.0 ** draw(st.floats(-7.0, -3.0))), M=M, R2=R2,
                          r_i=draw(st.floats(11.8, 12.2)), p=9, q=10, R1_min=9.0, R1_max=11.5)
    return config, draw(st.floats(9.0, 11.5))


class TestContourPrecision:
    """solve_contour's shell radius R = R2 + (R1 - R2) f lies within 4 ulps of
    the 50-digit root, and it raises NoSolutionAtRadius exactly where the
    residual's signs at the two ends of the admissible interval (the old
    unconditional end checks) have no sign change."""

    @given(contour_inputs())
    @example((NEAR_REFERENCE, 8.431232201003974))  # the evaluated f at its last Newton step is 4.04 ulps off
    @example((NEAR_REFERENCE, NEAR_REFERENCE.r_i))  # R1 at the release radius
    @example((NEAR_REFERENCE, 2.0 * NEAR_REFERENCE.M * (1.0 + 1e-12)))  # R1 just outside 2M
    @settings(max_examples=300, deadline=None)
    def test_fifty_digit_root_or_no_sign_change(self, inputs):
        config, R1 = inputs
        point = assert_root_or_no_sign_change(config, R1)
        if point is not None:
            # near the reference (R1 - R2) ulp(f) stays below ulp(R), so f holds 4 ulps too
            f_star = fifty_digit_f(config, point)
            assert abs(point.f - f_star) <= 4 * math.ulp(float(f_star))

    @given(small_f_inputs())
    @settings(max_examples=200, deadline=None)
    def test_small_f_shell_radius(self, inputs):
        # f ~ 1e-4 has an ulp ~1e-4 of ulp(R) / (R1 - R2): R's own rounding puts
        # f hundreds of its ulps off, so the bound is stated on R
        assert_root_or_no_sign_change(*inputs)

    @pytest.mark.parametrize("R1", [9.0, 10.072, 11.5])
    def test_bisection_fallback(self, monkeypatch, R1):
        # with no Newton step the bracket is bisected to its last bit
        config = SearchConfig(**REFERENCE)
        newton = solve_contour(R1, config)
        monkeypatch.setattr(shellswitch.search, "NEWTON_STEPS", 0)
        bisected = solve_contour(R1, config)
        f_star = fifty_digit_f(config, bisected)
        assert abs(bisected.f - f_star) <= 4 * math.ulp(float(f_star))
        assert abs(bisected.f - newton.f) <= 8 * math.ulp(newton.f)


@st.composite
def sweep_inputs(draw):
    """(config, R1s, steps): a contour_inputs draw, half the time with its middle
    patch lightened to m from 1e-10 to 0.8 of R2 / 2, which leaves the two-shell
    branch unbound over much of (R2, r_i]; its R1 and up to five more for one
    sweep, from below R2 to above r_i, with R2, r_i and the floor
    2M / (1 - F_MARGIN) of a non-empty f interval among them; and NEWTON_STEPS,
    or 0 to 2 Newton steps before the bisection fallback."""
    config, R1 = draw(contour_inputs())
    if draw(st.booleans()):
        config = dataclasses.replace(config, m=0.5 * config.R2 * 10.0 ** draw(st.floats(-10.0, -0.1)))
    R2, r_i = config.R2, config.r_i
    floor = 2.0 * config.M / (1.0 - F_MARGIN)
    edges = [R2, math.nextafter(R2, math.inf), floor, math.nextafter(floor, math.inf),
             r_i, math.nextafter(r_i, math.inf)]
    more = st.one_of(st.floats(0.5 * R2, 1.1 * r_i), st.floats(9.0, r_i), st.sampled_from(edges))
    steps = draw(st.sampled_from([shellswitch.search.NEWTON_STEPS, 0, 1, 2]))
    return config, [R1, *draw(st.lists(more, max_size=5))], steps


def point_bits(point):
    """A contour point's (R1, f, Dt1, Dtau1, Dt2, Dtau2) as float.hex, or its
    NoSolutionAtRadius as (class, message, class of the cause)."""
    if isinstance(point, NoSolutionAtRadius):
        return type(point), str(point), type(point.__cause__)
    if isinstance(point, ContourPoint):
        point = (point.R1, point.f, point.dt1, point.dtau1, point.dt2, point.dtau2)
    return tuple(x.hex() for x in point)


def solved_point(R1, config, solve):
    """solve(R1, config), or the NoSolutionAtRadius it raises."""
    try:
        return solve(R1, config)
    except NoSolutionAtRadius as exc:
        return exc


class TestContourSweep:
    """The contour sweep solves each point as the per-point solve it replaced
    (oracles.solve_contour, with _two_shell_period, _seed and _contour_root),
    bit for bit: the same f, periods and exception class and message at every
    R1, whichever points share its sweep, and the same counts of one- and
    two-shell evaluations.  CI reruns it under five seeds."""

    @given(sweep_inputs())
    @example((SearchConfig(**dict(REFERENCE, m=2.0 * (1.0 - 1e-8))),  # rootless, lower end
              [10.0, 10.072, 9.0], shellswitch.search.NEWTON_STEPS))
    # R1 <= R2, an empty f interval, an unbound two-shell branch, and rootless
    # at r_i, all through the bisection fallback
    @example((SearchConfig(**dict(REFERENCE, m=1e-10)), [3.0, 4.0, 6.000001, 9.0, 12.0], 0))
    @example((SearchConfig(**REFERENCE), [9.0, 10.072, 11.5], 0))
    # the mass-m cycloid's r_apo**3 underflows, then overflows
    @example((SearchConfig(m=2e-113, M=1e-116, R2=1e-112, r_i=1e-100, p=9, q=10,
                           R1_min=1e-111, R1_max=1e-101), [1e-110, 1e-104, 1e-102],
              shellswitch.search.NEWTON_STEPS))
    @example((SearchConfig(m=2.5025e99, M=3e100, R2=6e99, r_i=1.2e101, p=9, q=10,
                           R1_min=4.1e100, R1_max=1.15e101), [1.14e101, 1.1499999999999999e101],
              shellswitch.search.NEWTON_STEPS))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_point_reference(self, inputs):
        config, R1s, steps = inputs
        calls, two_shell_calls = [], []

        def counted(function, calls=calls):
            def wrapper(*args):
                calls.append(None)
                return function(*args)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shellswitch.search, "NEWTON_STEPS", steps)
            patch.setattr(oracles, "NEWTON_STEPS", steps)
            points, evaluations, two_shell = _contour_points(config, R1s)
            single = [solved_point(R1, config, solve_contour) for R1 in R1s]
            patch.setattr(oracles, "_one_shell_period", counted(_one_shell_period))
            patch.setattr(oracles, "ratio_residual", counted(ratio_residual))
            patch.setattr(oracles, "_two_shell_period", counted(_two_shell_period, two_shell_calls))
            patch.setattr(shellswitch.search, "ratio_residual", counted(ratio_residual))
            want = [point_bits(solved_point(R1, config, oracles.solve_contour)) for R1 in R1s]
        assert [point_bits(point) for point in points] == want
        assert [point_bits(point) for point in single] == want
        assert evaluations == len(calls)
        assert two_shell == len(two_shell_calls)


@st.composite
def table_configs(draw):
    """SearchConfigs whose seed table spans from 1e-6 R1_min above 2M, with
    R1_min from 1e-6 of R1_max up: where 1e-6 R1_min is below 2e-9 M the
    lowest rows fall inside the horizon margin and are left out (about a
    third of the draws)."""
    M = draw(st.floats(0.5, 5.0))
    r_i = 2.0 * M * draw(st.floats(1.01, 20.0))
    R1_max = 2.0 * M + (r_i - 2.0 * M) * draw(st.floats(0.01, 0.99))
    R1_min = R1_max * 10.0 ** draw(st.floats(-6.0, -0.01))
    R2 = R1_min * draw(st.floats(0.1, 0.99))
    return SearchConfig(m=0.5 * R2 * draw(st.floats(0.01, 0.99)), M=M, R2=R2, r_i=r_i,
                        p=9, q=10, R1_min=R1_min, R1_max=R1_max)


DROPPED_ROWS = SearchConfig(m=3.4e-05, M=0.56, R2=1.45e-04, r_i=18.9, p=9, q=10,
                            R1_min=1.47e-04, R1_max=5.8)


@given(table_configs())
@example(SearchConfig(**REFERENCE))
@example(DROPPED_ROWS)
@settings(max_examples=300, deadline=None)
def test_rate_table_matches_per_row_reference(config):
    """The seed table's one sweep gives the rows of one _one_shell_period call
    per row (oracles.rate_table) bit for bit, the rows left out included."""
    hexes = [[x.hex() for x in column] for column in config.rate_table]
    assert hexes == [[x.hex() for x in column] for column in oracles.rate_table(config)]


def test_rate_table_leaves_out_rows_inside_the_margin():
    """DROPPED_ROWS, an example of the property above, exercises the rows left out."""
    assert 0 < len(DROPPED_ROWS.rate_table[0]) < SEED_RADII


@pytest.fixture(scope="module")
def narrow_config():
    return SearchConfig(**dict(REFERENCE, R1_min=9.8, R1_max=10.4), grid=13)


class TestCurve:
    def test_curve_brackets_target(self, narrow_config):
        curve = period_ratio_curve(narrow_config)
        assert len(curve) == 13
        ratios = [pt[2] for pt in curve]
        assert min(ratios) < 0.9 < max(ratios)

    def test_curve_is_smooth_in_f(self, narrow_config):
        curve = period_ratio_curve(narrow_config)
        fs = [pt[1] for pt in curve]
        assert all(0.0 < f < 1.0 for f in fs)
        steps = [abs(b - a) for a, b in zip(fs, fs[1:])]
        assert max(steps) < 0.05

    def test_solution_carries_the_traced_curve(self, narrow_config):
        solution = solve_switch_configuration(narrow_config)
        assert solution.curve == tuple(period_ratio_curve(narrow_config))
        assert "curve" not in solution.as_dict()


class TestSolution:
    def test_matches_reference_digits(self, ref_solution):
        assert ref_solution.R1 == pytest.approx(10.072, abs=5e-4)
        assert ref_solution.f == pytest.approx(0.3295, abs=5e-4)
        assert ref_solution.R == pytest.approx(6.00057, abs=1e-4)

    def test_period_ratio_hits_target(self, ref_solution):
        assert ref_solution.achieved_ratio == pytest.approx(0.9, abs=1e-8)
        assert abs(ref_solution.ratio_residual) < 1e-8

    def test_clock_rates_agree(self, ref_solution):
        assert abs(ref_solution.clock_residual) < 1e-8
        assert ref_solution.dtau1 / ref_solution.dt1 == pytest.approx(
            ref_solution.dtau2 / ref_solution.dt2, rel=1e-10
        )

    def test_solution_consistent_with_periods(self, ref_solution, ref_config):
        R = shell_radius(ref_config, ref_solution.R1, ref_solution.f)
        dt1, _, _ = oscillation_period(one_shell_spacetime(ref_config, R), ref_config.r_i)
        dt2, _, _ = oscillation_period(
            two_shell_spacetime(ref_config, ref_solution.R1), ref_config.r_i
        )
        assert ref_solution.dt1 == dt1
        assert ref_solution.dt2 == dt2
        assert ref_solution.R == shell_radius(
            ref_config, ref_solution.R1, ref_solution.f
        )

    def test_scaled_ratio_gives_same_geometry(self, ref_solution):
        cfg = SearchConfig(**dict(REFERENCE, p=18, q=20), grid=60)
        sol = solve_switch_configuration(cfg)
        assert sol.R1 == pytest.approx(ref_solution.R1, abs=1e-8)
        assert sol.f == pytest.approx(ref_solution.f, abs=1e-8)

    def test_steep_contour_solves_with_tighter_root(self):
        # here the period ratio moves ~2e4 per unit f, so R1 holds root_tol
        # only if each contour f is solved far below root_tol
        config = SearchConfig(
            m=1.982769840947147, M=2.9026069070469456, R2=3.9655875460951253,
            r_i=12.152849338001285, p=7, q=8, R1_min=9.0, R1_max=11.5, grid=40,
        )
        solution = solve_switch_configuration(config)
        assert solution.config.root_tol == 1e-10
        assert abs(solution.clock_residual) < 1e-12
        assert abs(solution.ratio_residual) < 1e-11
        assert abs(solution.R1 - fifty_digit_root(config)) < 1e-10

    def test_unattainable_ratio(self):
        cfg = SearchConfig(**dict(REFERENCE, p=1, q=2), grid=16)
        with pytest.raises(UnattainableRatioError) as err:
            solve_switch_configuration(cfg)
        assert err.value.ratio == 0.5
        lo, hi = err.value.attainable
        assert not (lo <= 0.5 <= hi)

    def test_untraceable_contour_counts_dropped_points(self):
        # 2M = 6: no R1 in [4.5, 2M + 1e-6] admits a shell F_MARGIN * R1 above
        # the exterior horizon (an R1_max at or below 2M is an input error)
        cfg = SearchConfig(**dict(REFERENCE, R1_min=4.5, R1_max=6.000001), grid=8)
        with pytest.raises(SearchError, match="8 of 8 grid points have no contour root"):
            solve_switch_configuration(cfg)

    def test_several_crossings_are_listed_not_chosen(self, monkeypatch):
        curve = [(9.0, 0.3, 0.95), (9.5, 0.3, 0.85), (10.0, 0.3, 0.95), (10.5, 0.3, 0.85)]
        monkeypatch.setattr(shellswitch.search, "period_ratio_curve", lambda config: curve)
        with pytest.raises(MultipleCrossingsError) as err:
            solve_switch_configuration(SearchConfig(**REFERENCE, grid=4))
        assert err.value.brackets == ((9.0, 9.5), (9.5, 10.0), (10.0, 10.5))
        assert "crossed 3 times" in str(err.value) and "[9.5, 10.0]" in str(err.value)

    @pytest.mark.parametrize("ratios, brackets", [
        ((0.95, 0.9, 0.85), [(9.0, 9.5)]),               # through a grid point: once
        ((0.95, 0.9, 0.95), [(9.0, 9.5)]),               # touching it: once
        ((0.9, 0.95, 0.97), [(9.0, 9.5)]),               # at the first point
        ((0.95, 0.97, 0.9), [(9.5, 10.0)]),              # at the last point
        ((0.95, 0.9, 0.9), [(9.0, 9.5), (9.5, 10.0)]),   # two grid points on it
        ((0.95, 0.85, 0.95), [(9.0, 9.5), (9.5, 10.0)]),
        ((0.95, 0.93, 0.91), []),
    ])
    def test_ratio_crossings(self, ratios, brackets):
        curve = [(9.0 + 0.5 * i, 0.3, ratio) for i, ratio in enumerate(ratios)]
        assert ratio_crossings(curve, 0.9) == brackets

    def test_as_dict_round_trip(self, ref_solution):
        doc = ref_solution.as_dict()
        assert doc["R1"] == ref_solution.R1
        assert set(doc) >= {"R1", "f", "R", "dt1", "dt2", "achieved_ratio"}


def fifty_digit_root(config):
    """R1 of the config's switch geometry from the 50-digit oracle."""
    return float(mp_switch_root(config.m, config.M, config.R2, config.r_i,
                                config.p, config.q, config.R1_min, config.R1_max))


# switch geometries with their R1 roots at 30 digits: the reference at two
# ratios, a benchmark geometry where R1 once sat 1.2e-5 off, and the steep one
ROOT_GEOMETRIES = [
    (dict(REFERENCE), "10.0721903133643714695803962217"),
    (dict(REFERENCE, p=13, q=15), "11.0369825739800794261741163065"),
    (dict(REFERENCE, m=2.0139606550675664, M=2.9104579730358564, R2=4.027969966098064,
          r_i=12.087938288655302), "10.4969912709210260961872255586"),
    (dict(REFERENCE, m=1.982769840947147, M=2.9026069070469456, R2=3.9655875460951253,
          r_i=12.152849338001285, p=7, q=8), "11.1992981071310921094084542656"),
]


@st.composite
def one_shell_radii(draw):
    """(r_i, R) for M = 1/2: r_i from 1 + 1e-6 to 1e6, and R from 1e-14
    relative above the horizon 2M = 1 to 1e-12 relative below r_i, with draws
    crowding either end."""
    r_i = 1.0 + 10.0 ** draw(st.floats(-6.0, math.log10(1e6 - 1.0)))
    lo, hi = 1.0 + 1e-14, r_i * (1.0 - 1e-12)
    exponent = st.floats(-14.0, 0.0)
    w = draw(st.one_of(st.floats(0.0, 1.0), exponent.map(lambda x: 10.0 ** x),
                       exponent.map(lambda x: 1.0 - 10.0 ** x)))
    return r_i, lo + (hi - lo) * w


@st.composite
def benchmark_geometries(draw):
    """(m, M, R2, r_i, R1): a geometry as the solve_geometries benchmark draws
    it, R2 1e-5 to 1e-2 relative above its horizon 2m, and R1 anywhere in the
    R1 interval it searches."""
    R2 = draw(st.floats(3.95, 4.05))
    m = 0.5 * R2 * (1.0 - 10.0 ** draw(st.floats(-5.0, -2.0)))
    M, r_i = draw(st.floats(2.9, 3.1)), draw(st.floats(11.8, 12.2))
    return m, M, R2, r_i, draw(st.floats(REFERENCE["R1_min"], REFERENCE["R1_max"]))


class TestFiftyDigitOracle:
    """The 50-digit closed forms of tests/oracles.py: tanh-sinh quadrature
    agrees with them, the float periods match them, and the one-shell clock
    rate they give rises strictly in R, so each R1 has at most one contour root."""

    @pytest.mark.parametrize("masses, shells, r_i", [
        ((0.0, 3.0), (6.000569857819382,), 12.0),
        ((0.0, 1.9999, 3.0), (4.0, 10.07219031346676), 12.0),
        ((0.0, 1.9999, 3.0), (3.9998000079995997, 11.5), 12.0),
    ])
    def test_closed_forms_match_quadrature(self, masses, shells, r_i):
        with mp.workdps(DPS):
            for closed, quad in zip(mp_period(masses, shells, r_i),
                                    mp_quad_period(masses, shells, r_i)):
                assert abs(closed / quad - 1) < mp.mpf(10) ** -40

    @pytest.mark.parametrize("R", [6.000000011999999, 6.000569857819382, 7.0, 9.5])
    def test_one_shell_period(self, ref_config, R):
        with mp.workdps(DPS):
            want = mp_period((0.0, 3.0), (R,), 12.0)
            for got, exact in zip(_one_shell_period(ref_config, R), want):
                assert abs(got / exact - 1) < 1e-15

    @pytest.mark.parametrize("R2, R1", [
        (4.0, 9.0), (4.0, 10.07219031346676), (4.0, 11.5), (3.9998000079995997, 11.5),
    ])
    def test_two_shell_period(self, R2, R1):
        config = SearchConfig(**dict(REFERENCE, R2=R2))
        walked = oscillation_period(two_shell_spacetime(config, R1), 12.0)[:2]
        assert _two_shell_period(config, R1) == walked
        with mp.workdps(DPS):
            want = mp_period((0.0, 1.9999, 3.0), (R2, R1), 12.0)
            for got, exact in zip(walked, want):
                assert abs(got / exact - 1) < 1e-15

    @pytest.mark.parametrize("R", [6.000000011999999, 6.000569857819382, 7.0, 9.5, 11.9])
    def test_one_shell_rate_slope(self, ref_config, R):
        # the closed-form d(Dtau1/Dt1)/dR that drives the contour's Newton steps
        with mp.workdps(DPS):
            want = mp.diff(lambda x: mp_rate((0.0, 3.0), (x,), 12.0), mp.mpf(R))
            assert abs(_one_shell_period(ref_config, R)[2] / want - 1) < 1e-13

    @given(one_shell_radii())
    @settings(max_examples=500, deadline=None)
    def test_one_shell_rate_rises_in_R(self, radii):
        # Dtau1/Dt1 depends on R/M and r_i/M alone, so M = 1/2 covers every M
        r_i, R = radii
        with mp.workdps(DPS):
            assert mp.diff(lambda x: mp_rate((0.0, 0.5), (x,), r_i), mp.mpf(R)) > 0

    @given(benchmark_geometries())
    @settings(max_examples=80, deadline=None)
    def test_contour_ratio_falls_in_R1(self, drawn):
        # Dt1/Dt2 along the contour falls strictly in R1, so the period-ratio
        # condition has one root in R1; one mp.diff (~40 ms) per draw
        m, M, R2, r_i, R1 = drawn
        with mp.workdps(DPS):
            assert mp.diff(lambda x: mp_contour_ratio(m, M, R2, r_i, x), mp.mpf(R1)) < 0

    @pytest.mark.parametrize("geometry, digits", ROOT_GEOMETRIES)
    def test_switch_roots(self, geometry, digits):
        config = SearchConfig(**geometry)
        with mp.workdps(DPS):
            root = mp_switch_root(config.m, config.M, config.R2, config.r_i,
                                  config.p, config.q, config.R1_min, config.R1_max)
            assert abs(root - mp.mpf(digits)) < mp.mpf(10) ** -28


class TestRootPrecision:
    """The solved R1 lies within root_tol of the 50-digit root."""

    @pytest.mark.parametrize("grid", [24, 200])
    @pytest.mark.parametrize("p, q", [(9, 10), (13, 15)])
    def test_reference(self, grid, p, q):
        config = SearchConfig(**dict(REFERENCE, p=p, q=q), grid=grid)
        solution = solve_switch_configuration(config)
        assert abs(solution.R1 - fifty_digit_root(config)) < config.root_tol

    def test_benchmark_geometry(self):
        # steep in f: residuals inside RESIDUAL_TOL allow R1 1.2e-5 off this root
        config = SearchConfig(**ROOT_GEOMETRIES[2][0], grid=64)
        solution = solve_switch_configuration(config)
        assert abs(solution.R1 - fifty_digit_root(config)) < 1e-10


# The grid-24 reference solve, printed to 17 significant digits.
GRID24 = dict(
    R1=10.072190313466759,
    f=0.32946428793290061,
    R=6.0005698578193822,
    dt1=2801.5543858916944,
    dtau1=87.583320033572448,
    dt2=3112.8382065442029,
    dtau2=97.314800037589563,
)
GRID24_MEETING = dict(
    r_t=11.93823925369098,
    t_A1=1404.2237259351834,
    t_A2=1552.9725702827652,
)


class TestGrid24Pin:
    """Refactors keep the solved numbers to 1e-10 relative, far inside the
    acceptance gate's 1e-3."""

    @pytest.fixture(scope="class")
    def solved(self):
        config = SearchConfig(grid=24, **REFERENCE)
        solution = solve_switch_configuration(config)
        return solution, find_meeting_radius(solution, config)

    @pytest.mark.parametrize("name", sorted(GRID24))
    def test_solution(self, solved, name):
        assert getattr(solved[0], name) == pytest.approx(GRID24[name], rel=1e-10, abs=0)

    @pytest.mark.parametrize("name", sorted(GRID24_MEETING))
    def test_meeting(self, solved, name):
        assert getattr(solved[1], name) == pytest.approx(GRID24_MEETING[name], rel=1e-10, abs=0)


class TestMeeting:
    def test_radius_in_shared_exterior(self, ref_solution, ref_meeting):
        assert ref_solution.R1 < ref_meeting.r_t < REFERENCE["r_i"]

    def test_ordering_allows_intermediate_event(self, ref_meeting):
        assert ref_meeting.t_A1 < ref_meeting.t_A2

    def test_equal_proper_time_on_both_branches(self, ref_solution, ref_meeting):
        from shellswitch.geodesic import _exterior_leg

        tau_e = _exterior_leg(ref_solution.config.release[0], ref_meeting.r_t)[1]
        tau_gamma1 = ref_solution.dtau1 / 2.0 + tau_e
        tau_gamma2 = ref_solution.dtau2 / 2.0 - tau_e
        assert tau_gamma1 == pytest.approx(tau_gamma2, rel=1e-12)
        assert ref_meeting.tau_A == pytest.approx(tau_gamma1, rel=1e-12)

    def test_branch_directions(self, ref_meeting):
        doc = ref_meeting.as_dict()
        assert (doc["gamma1_direction"], doc["gamma2_direction"]) == ("inbound", "outbound")

    def test_deterministic(self, ref_solution, ref_config, ref_meeting):
        again = find_meeting_radius(ref_solution, ref_config)
        assert again.r_t == ref_meeting.r_t
        assert again.t_A1 == ref_meeting.t_A1

    def test_equal_periods_never_meet(self, ref_solution, ref_config):
        # x = 0 lies below the interval: gamma1 is ahead at every far-side radius
        same = dataclasses.replace(ref_solution, dtau2=ref_solution.dtau1)
        with pytest.raises(NoMeetingError):
            find_meeting_radius(same, ref_config)

    def test_gap_beyond_the_far_apoapsis_never_meets(self, ref_solution, ref_config):
        # x = pi is eta + sin(eta) at the far apoapsis, above the interval's
        # top at R1: gamma2 lags at every far-side radius
        tau_scale = ref_config.release[0].tau_scale
        late = dataclasses.replace(ref_solution,
                                   dtau2=ref_solution.dtau1 + 4.0 * math.pi * tau_scale)
        with pytest.raises(NoMeetingError):
            find_meeting_radius(late, ref_config)


@st.composite
def solved_geometries(draw):
    """(config, solution) drawn as the solve_geometries benchmark draws them:
    R2, m, M and r_i near the reference, grids 24 to 64, and p/q with q <= 24
    in the middle half of the ratio range the contour spans over the R1 grid."""
    R2 = draw(st.floats(3.95, 4.05))
    config = SearchConfig(**dict(
        REFERENCE, R2=R2, m=0.5 * R2 * (1.0 - 10.0 ** draw(st.floats(-5.0, -2.0))),
        M=draw(st.floats(2.9, 3.1)), r_i=draw(st.floats(11.8, 12.2)),
    ), grid=draw(st.integers(24, 64)))
    lo, hi = sorted(solve_contour(R1, config).ratio for R1 in (config.R1_min, config.R1_max))
    ratio = Fraction(lo + (hi - lo) * draw(st.floats(0.25, 0.75))).limit_denominator(24)
    assume(lo < ratio < hi)
    config = dataclasses.replace(config, p=ratio.numerator, q=ratio.denominator)
    return config, solve_switch_configuration(config)


class TestMeetingPrecision:
    @given(solved_geometries())
    @settings(max_examples=60, deadline=None)
    def test_radius_matches_fifty_digit_inversion(self, drawn):
        """r_t within 4 ulps of r_i cos^2(eta / 2), eta the 50-digit root of
        eta + sin(eta) = (dtau2 - dtau1) / (4 tau_scale) at the solution's
        dtaus, tau_scale = sqrt(r_i^3 / (8 M)): 1.46 ulps worst over 180 such draws."""
        config, solution = drawn
        r_t = find_meeting_radius(solution, config).r_t
        with mp.workdps(DPS):
            M, r_i = mp.mpf(config.M), mp.mpf(config.r_i)
            x = (mp.mpf(solution.dtau2) - mp.mpf(solution.dtau1)) / (4 * mp.sqrt(r_i**3 / (8 * M)))
            eta = _bracketed_root(lambda eta: eta + mp.sin(eta) - x, 0, mp.pi)
            r_mp = r_i * mp.cos(eta / 2) ** 2
            assert abs(mp.mpf(r_t) - r_mp) <= 4 * math.ulp(float(r_mp))


@cache
def scaled_run(k: int) -> tuple[list[float], list[float]]:
    """The grid-24 reference at 9/10 with every length and root_tol scaled by
    2^k: (its length and time outputs -- R1, R, the four periods, the
    meeting's r_t, tau_A, t_A1 and t_A2, and the rows of both branches'
    33-sample trajectories over q * dt1 -- and its dimensionless outputs)."""
    doc = dict(REFERENCE, grid=24, root_tol=math.ldexp(1e-10, k))
    for key in ("m", "M", "R2", "r_i", "R1_min", "R1_max"):
        doc[key] = math.ldexp(doc[key], k)
    config = SearchConfig(**doc)
    sol = solve_switch_configuration(config)
    meeting = find_meeting_radius(sol, config)
    branches = (one_shell_spacetime(config, sol.R), two_shell_spacetime(config, sol.R1))
    rows = [v for st in branches
            for row in trajectory(st, config.r_i, config.q * sol.dt1, 33) for v in row]
    lengths = [sol.R1, sol.R, sol.dt1, sol.dtau1, sol.dt2, sol.dtau2,
               meeting.r_t, meeting.tau_A, meeting.t_A1, meeting.t_A2, *rows]
    return lengths, [sol.f, sol.achieved_ratio, sol.clock_residual, sol.ratio_residual]


@given(st.integers(-300, 300))
@example(-40)
@settings(max_examples=100, deadline=None)
def test_search_is_scale_covariant(k):
    """G = c = 1 leaves one length scale, and scaling by 2^k is exact, so
    every length and time output scales by exactly 2^k and every
    dimensionless one stays: no absolute constant hides in the pipeline.
    An xtol of 1e-12 in r would put r_t 0.52% off at k = -40."""
    lengths, ratios = scaled_run(k)
    unscaled_lengths, unscaled_ratios = scaled_run(0)
    assert lengths == [math.ldexp(v, k) for v in unscaled_lengths]
    assert ratios == unscaled_ratios


class TestDeterminism:
    def test_solver_is_reproducible(self, ref_config, ref_solution):
        again = solve_switch_configuration(ref_config)
        assert again.R1 == ref_solution.R1
        assert again.f == ref_solution.f
        assert again.dt1 == ref_solution.dt1
