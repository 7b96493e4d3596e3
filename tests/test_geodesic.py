import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellswitch import (
    CycloidParams,
    GeodesicState,
    PatchSpec,
    build_spacetime,
    cross_shell,
    cycloid_state,
    drop_energy,
    null_crossing_time,
    oscillation_period,
    segment_minkowski,
    segment_schwarzschild,
    static_exchange,
    trajectory,
)
from shellswitch.errors import (
    GeodesicError,
    HorizonViolation,
    NoRestoringForceError,
    UnboundGeodesicError,
)
from shellswitch.geodesic import (
    coordinate_time,
    diametral_crossing_time,
    eta_of_radius,
    period_spans,
    proper_time,
    quarter_oscillation,
    radius,
    release_state,
    tangent,
)
from shellswitch.spacetime import DEFAULT_HORIZON_MARGIN, metric_factor

from oracles import quad_spans


def one_shell(M, R):
    return build_spacetime([PatchSpec(0.0, 0.0, R), PatchSpec(M, R, None)])


def m2_reference(R1=10.072):
    return build_spacetime([
        PatchSpec(0.0, 0.0, 4.0),
        PatchSpec(1.9999, 4.0, R1),
        PatchSpec(3.0, R1, None),
    ])


class TestDropEnergy:
    def test_half_schwarzschild(self):
        assert drop_energy(3.0, 12.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_flat_limit(self):
        assert drop_energy(0.0, 17.0) == 1.0

    def test_horizon_release(self):
        with pytest.raises(HorizonViolation):
            drop_energy(3.0, 6.0)


class TestCycloid:
    def test_rest_at_apoapsis(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        r, t, tau, U0, U1 = cycloid_state(params, 0.0)
        assert (r, t, tau, U1) == (12.0, 0.0, 0.0, 0.0)
        assert U0 == pytest.approx(1.0 / params.energy, rel=1e-14)

    def test_quarter_parameter(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        r, _, tau, _, _ = cycloid_state(params, math.pi / 2)
        assert r == pytest.approx(6.0, rel=1e-14)
        assert tau == pytest.approx(math.sqrt(72.0) * (math.pi / 2 + 1.0), rel=1e-14)

    def test_center_limit_proper_time(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        assert proper_time(params, math.pi) == pytest.approx(
            math.sqrt(72.0) * math.pi, rel=1e-14
        )
        assert radius(params, math.pi) == pytest.approx(0.0, abs=1e-25)

    def test_eta_domain(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        with pytest.raises(GeodesicError):
            cycloid_state(params, -0.1)
        with pytest.raises(GeodesicError):
            cycloid_state(params, 3.2)

    def test_coordinate_time_diverges_at_horizon(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        eta_h = params.eta_horizon
        with pytest.raises(GeodesicError):
            coordinate_time(params, eta_h + 1e-3)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
    def test_massless_cycloid_rejected(self, mass):
        # the per-orbit factors divide by the mass: a flat or repulsive patch
        # has no cycloid, and says so instead of dividing by zero
        with pytest.raises(NoRestoringForceError):
            CycloidParams(mass=mass, r_apo=12.0, energy=0.5)

    def test_factors_outside_equality_and_repr(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        assert params == CycloidParams(3.0, 12.0, params.energy)
        assert repr(params) == f"CycloidParams(mass=3.0, r_apo=12.0, energy={params.energy!r})"

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 1.4])
    def test_finite_difference_tangent(self, eta):
        params = CycloidParams.from_rest(3.0, 12.0)
        h = 1e-4
        dr = radius(params, eta + h) - radius(params, eta - h)
        dt = coordinate_time(params, eta + h) - coordinate_time(params, eta - h)
        dtau = proper_time(params, eta + h) - proper_time(params, eta - h)
        U0, U1 = tangent(params, eta)
        assert dr / dtau == pytest.approx(U1, rel=1e-6, abs=1e-6)
        assert dt / dtau == pytest.approx(U0, rel=1e-6)


class TestSegments:
    def rest_entry(self, mass, r):
        E = drop_energy(mass, r)
        return GeodesicState(
            patch_index=0, r=r, u_r=0.0, u_t=E / metric_factor(mass, r),
            tau=0.0,
        )

    def test_rest_drop_spans(self):
        # r = 6 itself is the horizon (coordinate time diverges); check the
        # proper-time value there via the parametric form and the full spans
        # against the quadrature oracle just above it.
        seg = segment_schwarzschild(3.0, self.rest_entry(3.0, 12.0), 6.00057)
        dt_oracle, dtau_oracle = quad_spans(3.0, math.sqrt(0.5), 12.0, 6.00057)
        assert seg.dt_local == pytest.approx(abs(dt_oracle), rel=1e-9)
        assert seg.dtau == pytest.approx(abs(dtau_oracle), rel=1e-9)
        assert seg.dtau == pytest.approx(math.sqrt(72.0) * (math.pi / 2 + 1.0), abs=2e-3)

    def test_segment_to_horizon_rejected(self):
        with pytest.raises(GeodesicError):
            segment_schwarzschild(3.0, self.rest_entry(3.0, 12.0), 6.0)

    def test_zero_length_segment(self):
        entry = self.rest_entry(3.0, 12.0)
        seg = segment_schwarzschild(3.0, entry, 12.0)
        assert seg.dt_local == 0.0 and seg.dtau == 0.0
        assert seg.exit_state.r == entry.r

    def test_unbound_rejected(self):
        entry = GeodesicState(0, 12.0, -1.5, 2.0, 0.0)
        with pytest.raises(UnboundGeodesicError):
            segment_schwarzschild(3.0, entry, 6.5)

    def test_unreachable_radius(self):
        entry = self.rest_entry(3.0, 12.0)
        from shellswitch.errors import UnreachableRadiusError
        with pytest.raises(UnreachableRadiusError):
            segment_schwarzschild(3.0, entry, 12.5)

    def test_energy_constant_within_segment(self):
        entry = self.rest_entry(3.0, 12.0)
        seg = segment_schwarzschild(3.0, entry, 6.2)
        s = seg.exit_state
        E_in = math.sqrt(entry.u_r**2 + metric_factor(3.0, entry.r))
        E_out = math.sqrt(s.u_r**2 + metric_factor(3.0, s.r))
        assert E_out == pytest.approx(E_in, rel=1e-10)

    def test_midflight_oracle_agreement(self):
        # entry at the outer shell of the two-shell reference geometry
        st_ = m2_reference()
        legs = quarter_oscillation(st_, 12.0)
        leg = legs[1]  # intermediate patch
        E_loc = math.sqrt(leg.entry.u_r**2 + metric_factor(1.9999, leg.entry.r))
        dt_oracle, dtau_oracle = quad_spans(1.9999, E_loc, leg.entry.r, leg.r_inner)
        assert leg.dt_local == pytest.approx(abs(dt_oracle), rel=1e-8)
        assert leg.dtau == pytest.approx(abs(dtau_oracle), rel=1e-8)

    def test_minkowski_drop_to_center(self):
        entry = GeodesicState(0, 4.0, -0.5, math.sqrt(1.25), 0.0)
        seg = segment_minkowski(entry, 0.0)
        assert seg.dtau == pytest.approx(8.0, rel=1e-15)

    def test_minkowski_uniform(self):
        entry = GeodesicState(0, 0.0, 1.0, math.sqrt(2.0), 0.0)
        seg = segment_minkowski(entry, 4.0)
        assert seg.dtau == pytest.approx(4.0)
        assert seg.dt_local == pytest.approx(4.0 * math.sqrt(2.0))

    def test_minkowski_zero_length(self):
        entry = GeodesicState(0, 4.0, -0.5, math.sqrt(1.25), 0.0)
        seg = segment_minkowski(entry, 4.0)
        assert (seg.dt_local, seg.dtau) == (0.0, 0.0)

    def test_minkowski_stationary_error(self):
        entry = GeodesicState(0, 4.0, 0.0, 1.0, 0.0)
        with pytest.raises(GeodesicError):
            segment_minkowski(entry, 0.0)

    def test_time_reflection_symmetry(self):
        # infall r_i -> R spans equal the outbound R -> r_i spans; the only
        # slack is the one-ulp apoapsis reconstruction from the mid-flight
        # state (the period itself is composed as 4x one quarter, exactly).
        inbound = segment_schwarzschild(3.0, self.rest_entry(3.0, 12.0), 7.0)
        s = inbound.exit_state
        back = segment_schwarzschild(
            3.0,
            GeodesicState(0, 7.0, -s.u_r, s.u_t, 0.0),
            12.0,
        )
        assert back.dt_local == pytest.approx(inbound.dt_local, rel=1e-13)
        assert back.dtau == pytest.approx(inbound.dtau, rel=1e-13)

    def test_randomized_quadrature_oracle(self):
        rng = np.random.default_rng(20240824)
        for _ in range(100):
            mass = rng.uniform(0.5, 3.0)
            r_apo = rng.uniform(3.0, 40.0) * mass
            if r_apo <= 2.5 * mass:
                r_apo = 2.5 * mass
            lo = 2.0 * mass * 1.05
            r_from = rng.uniform(lo, r_apo)
            r_to = rng.uniform(lo, r_from)
            E = drop_energy(mass, r_apo)
            params = CycloidParams.from_rest(mass, r_apo)
            ea, eb = eta_of_radius(params, r_from), eta_of_radius(params, r_to)
            dt = coordinate_time(params, eb, r_to) - coordinate_time(params, ea, r_from)
            dtau = proper_time(params, eb) - proper_time(params, ea)
            dt_o, dtau_o = quad_spans(mass, E, r_from, r_to)
            assert dt == pytest.approx(abs(dt_o), rel=1e-8)
            assert dtau == pytest.approx(abs(dtau_o), rel=1e-8)


class TestCrossShell:
    def entry_at_shell(self, st_, shell_index, u_r, patch_index):
        R = st_.shells[shell_index]
        mass = st_.patches[patch_index].mass
        f = metric_factor(mass, R)
        u_t = math.sqrt((1.0 + u_r * u_r / f) / f)
        return GeodesicState(patch_index, R, u_r, u_t, 0.0)

    def test_identity_crossing(self):
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, 8.0),
            PatchSpec(2.0, 8.0, 20.0),
            PatchSpec(2.0, 20.0, None),
        ])
        s = self.entry_at_shell(st_, 1, -0.5, 2)
        out = cross_shell(s, st_, 1)
        assert out.u_r == pytest.approx(s.u_r, rel=1e-15)
        assert out.u_t == pytest.approx(s.u_t, rel=1e-15)

    def test_minkowski_interior_factor(self):
        st_ = one_shell(3.0, 10.0)
        s = self.entry_at_shell(st_, 0, -0.5, 1)
        inner = cross_shell(s, st_, 0)
        assert inner.u_r == pytest.approx(-0.5 / math.sqrt(0.4), rel=1e-14)
        assert inner.u_r == pytest.approx(-0.7906, abs=1e-4)

    def test_round_trip_identity(self):
        st_ = one_shell(3.0, 10.0)
        s = self.entry_at_shell(st_, 0, -0.5, 1)
        back = cross_shell(cross_shell(s, st_, 0), st_, 0)
        assert back.u_r == pytest.approx(s.u_r, rel=1e-14)
        assert back.u_t == pytest.approx(s.u_t, rel=1e-14)

    def test_not_at_shell(self):
        st_ = one_shell(3.0, 10.0)
        s = GeodesicState(1, 11.0, -0.5, 2.0, 0.0)
        with pytest.raises(GeodesicError):
            cross_shell(s, st_, 0)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=100)
    def test_norm_preserved(self, mu_in, mu_out, u_r, clearance):
        R = 2.0 * max(mu_in, mu_out) * clearance
        try:
            st_ = build_spacetime([
                PatchSpec(0.0, 0.0, R / 2),
                PatchSpec(mu_in, R / 2, R),
                PatchSpec(mu_out, R, None),
            ])
        except Exception:
            return
        f = metric_factor(mu_out, R)
        u_t = math.sqrt((1.0 + u_r * u_r / f) / f)
        s = GeodesicState(2, R, u_r, u_t, 0.0)
        inner = cross_shell(s, st_, 1)
        assert inner.norm_defect(mu_in) < 1e-9


class TestOscillation:
    def test_reference_ratio(self, ref_solution):
        assert ref_solution.dt1 / ref_solution.dt2 == pytest.approx(0.9, abs=1e-3)

    def test_clock_rates_match_at_solution(self, ref_solution):
        r1 = ref_solution.dtau1 / ref_solution.dt1
        r2 = ref_solution.dtau2 / ref_solution.dt2
        assert r1 == pytest.approx(r2, abs=1e-6)

    def test_period_is_four_quarters(self):
        st_ = m2_reference()
        dt, dtau, legs = oscillation_period(st_, 12.0)
        assert dt == 4.0 * sum(leg.dt_global for leg in legs)
        assert dtau == 4.0 * sum(leg.dtau for leg in legs)

    def test_positive_finite(self):
        dt, dtau, _ = oscillation_period(m2_reference(), 12.0)
        assert 0 < dtau < dt < math.inf

    def test_all_flat_error(self):
        st_ = build_spacetime([PatchSpec(0.0, 0.0, None)])
        with pytest.raises(NoRestoringForceError):
            oscillation_period(st_, 12.0)

    def test_rest_release_starts_at_apoapsis(self):
        # 2M / (2M / r_i) rounds one ulp above r_i here; the release radius
        # itself must be the apoapsis, so the exterior leg starts at eta = 0
        # and its proper time is the from-rest closed form, bit for bit
        M, r_i, R = 3.0749440709202327, 11.977602456133065, 7.0
        leg = quarter_oscillation(one_shell(M, R), r_i)[0]
        assert leg.segment.eta_entry == 0.0
        params = CycloidParams.from_rest(M, r_i)
        assert leg.dtau == proper_time(params, eta_of_radius(params, R))

    def test_norm_along_quarter(self):
        # 4-velocity norm -1 at sampled points of every leg, in local coords
        st_ = m2_reference()
        legs = quarter_oscillation(st_, 12.0)
        checked = 0
        for leg in legs:
            mass = st_.patches[leg.patch_index].mass
            seg = leg.segment
            if seg.cycloid is None:
                assert leg.entry.norm_defect(mass) < 1e-9
                checked += 1
                continue
            for k in range(50):
                eta = seg.eta_entry + (seg.eta_exit - seg.eta_entry) * k / 49
                r = radius(seg.cycloid, eta)
                U0, U1 = tangent(seg.cycloid, eta, r)
                s = GeodesicState(leg.patch_index, r, U1, U0, 0.0)
                assert s.norm_defect(mass) < 1e-9
                checked += 1
        assert checked > 100


class TestTrajectory:
    def test_initial_sample(self):
        samples = trajectory(m2_reference(), 12.0, 100.0, 5)
        assert samples[0] == (0.0, 12.0, 0.0)

    def test_period_consistency(self):
        st_ = m2_reference()
        dt, dtau, _ = oscillation_period(st_, 12.0)
        samples = trajectory(st_, 12.0, dt, 9)
        t, r, tau = samples[-1]
        assert t == pytest.approx(dt, rel=1e-15)
        assert r == pytest.approx(12.0, rel=1e-8)
        assert tau == pytest.approx(dtau, rel=1e-8)

    def test_tau_strictly_increasing(self):
        st_ = m2_reference()
        dt, _, _ = oscillation_period(st_, 12.0)
        samples = trajectory(st_, 12.0, 2.5 * dt, 400)
        taus = [s[2] for s in samples]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_bad_sample_count(self):
        with pytest.raises(GeodesicError):
            trajectory(m2_reference(), 12.0, 10.0, 0)


class TestNullRays:
    def test_single_patch_closed_form(self):
        st_ = build_spacetime([PatchSpec(3.0, 0.0, None)])
        dt = null_crossing_time(st_, 10.0, 20.0)
        assert dt == pytest.approx(10.0 + 6.0 * math.log(3.5), rel=1e-14)
        assert dt == pytest.approx(17.5166, abs=1e-4)

    def test_flat_only(self):
        st_ = build_spacetime([PatchSpec(0.0, 0.0, None)])
        assert null_crossing_time(st_, 0.0, 7.0) == 7.0

    def test_branch_delays_differ(self, ref_solution, ref_config):
        from shellswitch.search import one_shell_spacetime, two_shell_spacetime
        st1 = one_shell_spacetime(ref_config, ref_solution.R)
        st2 = two_shell_spacetime(ref_config, ref_solution.R1)
        d1 = diametral_crossing_time(st1, 12.0, 12.0)
        d2 = diametral_crossing_time(st2, 12.0, 12.0)
        assert d1 != pytest.approx(d2, rel=1e-3)

    def test_symmetric_in_endpoints(self):
        st_ = m2_reference()
        assert null_crossing_time(st_, 3.0, 11.0) == null_crossing_time(st_, 11.0, 3.0)


class TestStaticExchange:
    def test_flat_limit(self):
        assert static_exchange(10.0, 20.0, 5.0, 0.0) == 15.0

    def test_schwarzschild_value(self):
        tau_b = static_exchange(10.0, 20.0, 0.0, 3.0)
        want = math.sqrt(0.7) * (10.0 + 6.0 * math.log(3.5))
        assert tau_b == pytest.approx(want, rel=1e-14)
        assert tau_b == pytest.approx(14.655, abs=1e-3)

    def test_affine_in_tau_a(self):
        slope = (static_exchange(10.0, 20.0, 2.0, 3.0)
                 - static_exchange(10.0, 20.0, 1.0, 3.0))
        want = math.sqrt((1 - 6 / 20) / (1 - 6 / 10))
        assert slope == pytest.approx(want, rel=1e-12)

    def test_ordering_violation(self):
        with pytest.raises(GeodesicError):
            static_exchange(20.0, 10.0, 0.0, 3.0)


class TestReleaseState:
    def test_norm(self):
        s = release_state(m2_reference(), 12.0)
        assert s.norm_defect(3.0) < 1e-12


@st.composite
def stacks(draw):
    """(masses, shells, r_i): a flat core and 1-6 shells with outward-growing
    masses.  Some shells graze, meet or cross the horizon margin of the patch
    outside them, some fall below the shell inside them, and some releases lie
    at or below the outer shell."""
    n = draw(st.integers(1, 6))
    masses = [0.0] + sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    shells = []
    for k in range(n):
        below = shells[-1] if shells else 0.0
        horizon = 2.0 * masses[k + 1]
        grazing = horizon / (1.0 - DEFAULT_HORIZON_MARGIN * draw(st.floats(0.999, 1.001)))
        shells.append(draw(st.one_of(
            st.just(grazing),
            st.floats(1e-4, 0.5).map(lambda x: max(below, horizon) * (1.0 + x) + 1e-3),
            st.floats(0.5, 1.0).map(lambda x: below * x),
        )))
    r_i = shells[-1] * draw(st.one_of(st.just(1.0), st.floats(0.9, 1.5)))
    return tuple(masses), tuple(shells), r_i


def outcome(period):
    """The periods' bits, or the class of the exception raised."""
    try:
        dt, dtau = period()[:2]
    except Exception as exc:
        return type(exc)
    return dt.hex(), dtau.hex()


class TestPeriodSpans:
    """period_spans checks a stack given as floats and walks it without the
    spacetime: the same bits as oscillation_period(build_spacetime(...)), and
    the same exception class where that raises."""

    @given(stacks())
    @settings(max_examples=300, deadline=None)
    def test_matches_built_spacetime(self, stack):
        masses, shells, r_i = stack
        bounds = (0.0, *shells, None)

        def built():
            patches = [PatchSpec(m, bounds[k], bounds[k + 1]) for k, m in enumerate(masses)]
            return oscillation_period(build_spacetime(patches), r_i)

        assert outcome(lambda: period_spans(masses, shells, r_i)) == outcome(built)

