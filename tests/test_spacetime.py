import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellswitch import (
    PatchSpec,
    build_spacetime,
    induced_metric_gap,
    shell_stress,
)
from shellswitch.errors import GeometryError, HorizonViolation
from shellswitch.spacetime import metric_factor, patches_from_config, stress_report


def one_shell(M, R):
    return build_spacetime([PatchSpec(0.0, 0.0, R), PatchSpec(M, R, None)])


def m2_reference(R1=10.072):
    return build_spacetime([
        PatchSpec(0.0, 0.0, 4.0),
        PatchSpec(1.9999, 4.0, R1),
        PatchSpec(3.0, R1, None),
    ])


class TestBuild:
    def test_single_unbounded_patch(self):
        st_ = build_spacetime([PatchSpec(3.0, 0.0, None)])
        assert st_.shells == ()
        assert st_.lapses == (1.0,)

    def test_m1_config(self):
        st_ = one_shell(3.0, 6.00057)
        assert st_.shells == (6.00057,)
        assert st_.lapses[0] == pytest.approx(math.sqrt(6.00057 / 0.00057), rel=1e-12)
        assert st_.lapses[0] == pytest.approx(102.603, abs=5e-4)

    def test_m2_config(self):
        st_ = m2_reference()
        assert st_.shells == (4.0, 10.072)
        assert not st_.warnings

    def test_horizon_violation(self):
        with pytest.raises(HorizonViolation):
            one_shell(3.0, 5.0)

    def test_gap_between_patches(self):
        with pytest.raises(GeometryError):
            build_spacetime([PatchSpec(0.0, 0.0, 4.0), PatchSpec(3.0, 5.0, None)])

    def test_nonzero_core_mass_rejected(self):
        with pytest.raises(GeometryError):
            build_spacetime([PatchSpec(1.0, 0.0, 8.0), PatchSpec(3.0, 8.0, None)])

    def test_mass_decrease_warns_not_errors(self):
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, 10.0),
            PatchSpec(3.0, 10.0, 20.0),
            PatchSpec(1.0, 20.0, None),
        ])
        assert st_.warnings

    def test_patch_domain_inside_horizon(self):
        with pytest.raises(HorizonViolation):
            PatchSpec(3.0, 5.0, 10.0)


class TestLapse:
    def test_outermost_is_one(self):
        assert m2_reference().lapses[2] == 1.0

    def test_m2_region_ii(self):
        want = math.sqrt((1 - 3.9998 / 10.072) / (1 - 6 / 10.072))
        assert m2_reference().lapses[1] == pytest.approx(want, rel=1e-14)
        assert m2_reference().lapses[1] == pytest.approx(1.2212, abs=1e-4)

    def test_core_is_product_of_shell_factors(self):
        st_ = m2_reference()
        factor2 = math.sqrt(1.0 / metric_factor(1.9999, 4.0))
        assert st_.lapses[0] == pytest.approx(st_.lapses[1] * factor2, rel=1e-14)

    def test_index_out_of_range(self):
        # one lapse per patch, and none beyond the outermost
        st_ = m2_reference()
        assert len(st_.lapses) == len(st_.patches) == 3
        with pytest.raises(IndexError):
            st_.lapses[3]


class TestInducedMetric:
    def test_m1_gap_zero(self):
        assert induced_metric_gap(one_shell(3.0, 6.00057), 0) <= 1e-12

    def test_m2_gaps_zero(self):
        st_ = m2_reference()
        for j in range(2):
            assert induced_metric_gap(st_, j) <= 1e-12

    def test_broken_time_identification_detected(self):
        st_ = one_shell(3.0, 6.00057)
        broken = replace(st_, lapses=(1.0, 1.0))
        assert induced_metric_gap(broken, 0) > 1e-3


class TestStress:
    def test_large_radius_limit_single_shell(self):
        # rho coefficient at R=100, M=3 approaches M/(4 pi R^2) within 2%
        st_ = one_shell(3.0, 100.0)
        rho = shell_stress(st_, 0).rho
        want = (1.0 - math.sqrt(0.94)) / (4.0 * math.pi * 100.0)
        assert rho == pytest.approx(want, rel=1e-12)
        assert rho == pytest.approx(3.0 / (4.0 * math.pi * 100.0**2), rel=0.02)

    def test_equal_masses_no_shell(self):
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, 8.0),
            PatchSpec(2.0, 8.0, 20.0),
            PatchSpec(2.0, 20.0, None),
        ])
        s = shell_stress(st_, 1)
        assert s.rho == pytest.approx(0.0, abs=1e-15)
        assert s.P_tangential == pytest.approx(0.0, abs=1e-15)

    def test_sigma1_closed_form(self):
        # independent closed-form evaluation of the two-mass shell density
        R1, M, m = 10.072, 3.0, 1.9999
        s = shell_stress(m2_reference(R1), 1)
        want = (math.sqrt(1 - 2 * m / R1) - math.sqrt(1 - 2 * M / R1)) / (4 * math.pi * R1)
        assert s.rho == pytest.approx(want, rel=1e-12)
        assert s.rho == pytest.approx(1.111e-3, abs=2e-6)

    def test_tangential_pressure_closed_form(self):
        R1, M, m = 10.072, 3.0, 1.9999
        s = shell_stress(m2_reference(R1), 1)
        want = (
            (R1 - M) / math.sqrt(1 - 2 * M / R1)
            - (R1 - m) / math.sqrt(1 - 2 * m / R1)
        ) / (8 * math.pi * R1**2)
        assert s.P_tangential == pytest.approx(want, rel=1e-12)

    def test_radial_pressure_identically_zero(self):
        assert shell_stress(one_shell(3.0, 50.0), 0).P_radial == 0.0

    @given(st.floats(min_value=0.1, max_value=4.0),
           st.floats(min_value=0.0, max_value=0.9),
           st.floats(min_value=50.0, max_value=5000.0))
    @settings(max_examples=60)
    def test_large_radius_series_bound(self, mu_out, ratio_in, scale):
        mu_in = mu_out * ratio_in
        R = scale * mu_out
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, R / 2),
            PatchSpec(mu_in, R / 2, R),
            PatchSpec(mu_out, R, None),
        ]) if mu_in > 0 else one_shell(mu_out, R)
        j = len(st_.shells) - 1
        rho = shell_stress(st_, j).rho
        dm = mu_out - mu_in
        if dm == 0:
            return
        rel = abs(rho * 4 * math.pi * R * R - dm) / dm
        assert rel <= 2.0 * mu_out / R

    def test_pressure_diverges_toward_horizon(self):
        M = 3.0
        radii = [6.0 * (1 + eps) for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        pressures = [shell_stress(one_shell(M, R), 0).P_tangential for R in radii]
        assert all(a < b for a, b in zip(pressures, pressures[1:]))

    def test_pressure_vanishes_at_large_radius(self):
        M = 3.0
        vals = [
            abs(shell_stress(one_shell(M, R), 0).P_tangential) * 8 * math.pi * R
            for R in (1e2, 1e4, 1e6)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_stress_satisfies_jump_relation(self):
        # S_ab must reproduce -(1/8pi)([K_ab] - [K] h_ab)
        st_ = m2_reference()
        s = shell_stress(st_, 1)
        R = s.shell_radius
        f_out = metric_factor(3.0, R)
        h = (-f_out, R * R, R * R)
        trace = sum(kj / hc for kj, hc in zip(s.K_jump, h))
        for S_ab, K_ab, h_ab in zip(s.S, s.K_jump, h):
            assert S_ab == pytest.approx(
                -(K_ab - trace * h_ab) / (8 * math.pi), rel=1e-13, abs=1e-18
            )


class TestConfig:
    def test_round_trip(self):
        doc = {"patches": [
            {"mass": 0.0, "r_min": 0.0, "r_max": 4.0},
            {"mass": 1.9999, "r_min": 4.0, "r_max": 10.072},
            {"mass": 3.0, "r_min": 10.072, "r_max": None},
        ]}
        st_ = build_spacetime(patches_from_config(doc))
        assert st_.shells == (4.0, 10.072)

    def test_missing_patches_key(self):
        with pytest.raises(GeometryError):
            patches_from_config({"nope": []})

    def test_stress_report_keys(self):
        report = stress_report(m2_reference())
        assert set(report) == {"4.0", "10.072"}
        assert all("rho" in rec for rec in report.values())
