import math

import pytest

from shellswitch import (
    SearchConfig,
    find_meeting_radius,
    period_ratio_curve,
    ratio_residual,
    solve_contour,
    solve_switch_configuration,
)
from shellswitch.errors import (
    NoSolutionAtRadius,
    SearchError,
    UnattainableRatioError,
)
from shellswitch.geodesic import oscillation_period
from shellswitch.search import (
    one_shell_spacetime,
    shell_radius,
    two_shell_spacetime,
)

from conftest import REFERENCE


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

    @pytest.mark.parametrize("R1_min", [4.0, 3.5])
    def test_outer_shell_must_clear_inner(self, R1_min):
        # R1_min == R2 used to reach a division by R1 - R2 in the f bracket
        with pytest.raises(SearchError):
            SearchConfig(**dict(REFERENCE, R1_min=R1_min))


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

    def test_unattainable_ratio(self):
        cfg = SearchConfig(**dict(REFERENCE, p=1, q=2), grid=16)
        with pytest.raises(UnattainableRatioError) as err:
            solve_switch_configuration(cfg)
        assert err.value.ratio == 0.5
        lo, hi = err.value.attainable
        assert not (lo <= 0.5 <= hi)

    def test_as_dict_round_trip(self, ref_solution):
        doc = ref_solution.as_dict()
        assert doc["R1"] == ref_solution.R1
        assert set(doc) >= {"R1", "f", "R", "dt1", "dt2", "achieved_ratio"}


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
        from shellswitch.search import _exterior_spans

        _, tau_e = _exterior_spans(ref_solution.config, ref_meeting.r_t)
        tau_gamma1 = ref_solution.dtau1 / 2.0 + tau_e
        tau_gamma2 = ref_solution.dtau2 / 2.0 - tau_e
        assert tau_gamma1 == pytest.approx(tau_gamma2, rel=1e-12)
        assert ref_meeting.tau_A == pytest.approx(tau_gamma1, rel=1e-12)

    def test_branch_directions(self, ref_meeting):
        assert ref_meeting.gamma1_direction == "inbound"
        assert ref_meeting.gamma2_direction == "outbound"

    def test_deterministic(self, ref_solution, ref_config, ref_meeting):
        again = find_meeting_radius(ref_solution, ref_config)
        assert again.r_t == ref_meeting.r_t
        assert again.t_A1 == ref_meeting.t_A1


class TestDeterminism:
    def test_solver_is_reproducible(self, ref_config, ref_solution):
        again = solve_switch_configuration(ref_config)
        assert again.R1 == ref_solution.R1
        assert again.f == ref_solution.f
        assert again.dt1 == ref_solution.dt1
