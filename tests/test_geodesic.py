import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellswitch import (
    CycloidParams,
    PatchSpec,
    build_spacetime,
    drop_energy,
    null_crossing_time,
    oscillation_period,
    static_exchange,
    trajectory,
)
from shellswitch.errors import (
    GeodesicError,
    HorizonViolation,
    NoRestoringForceError,
    UnboundGeodesicError,
    UnreachableRadiusError,
)
from shellswitch import geodesic
from shellswitch.geodesic import (
    Leg,
    _invert_leg,
    _inward_walk,
    _leg_origin,
    _minkowski_span,
    _release_u_t,
    _schwarzschild_span,
    _shell_transfer,
    coordinate_time,
    diametral_crossing_time,
    eta_of_radius,
    period_spans,
    proper_time,
    radius,
    tangent,
)
from shellswitch.spacetime import DEFAULT_HORIZON_MARGIN, metric_factor

from oracles import DPS, _cycloid_at, mp_invert_leg, norm_defect, quad_spans


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
        r = radius(params, 0.0)
        U0, U1 = tangent(params, 0.0, r)
        t, tau = coordinate_time(params, 0.0, r), proper_time(params, 0.0)
        assert (r, t, tau, U1) == (12.0, 0.0, 0.0, 0.0)
        assert U0 == pytest.approx(1.0 / params.energy, rel=1e-14)

    def test_quarter_parameter(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        r, tau = radius(params, math.pi / 2), proper_time(params, math.pi / 2)
        assert r == pytest.approx(6.0, rel=1e-14)
        assert tau == pytest.approx(math.sqrt(72.0) * (math.pi / 2 + 1.0), rel=1e-14)

    def test_center_limit_proper_time(self):
        params = CycloidParams.from_rest(3.0, 12.0)
        assert proper_time(params, math.pi) == pytest.approx(
            math.sqrt(72.0) * math.pi, rel=1e-14
        )
        assert radius(params, math.pi) == pytest.approx(0.0, abs=1e-25)

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
    """_schwarzschild_span and _minkowski_span, the walk's per-patch spans."""

    def test_rest_drop_spans(self):
        # r = 6 itself is the horizon (coordinate time diverges); check the
        # proper-time value there via the parametric form and the full spans
        # against the 50-digit closed form just above it.  (scipy's quad does
        # not converge here: the integrand is singular at rest at r = 12.)
        dt, dtau, *_ = _schwarzschild_span(3.0, 12.0, 0.0, 6.00057)
        with mp.workdps(DPS):
            dt_oracle, dtau_oracle = _cycloid_at(mp.mpf(3), mp.mpf(12), mp.mpf(6.00057))
        assert dt == pytest.approx(float(dt_oracle), rel=1e-14)
        assert dtau == pytest.approx(float(dtau_oracle), rel=1e-14)
        assert dtau == pytest.approx(math.sqrt(72.0) * (math.pi / 2 + 1.0), abs=2e-3)

    def test_segment_to_horizon_rejected(self):
        with pytest.raises(GeodesicError):
            _schwarzschild_span(3.0, 12.0, 0.0, 6.0)

    def test_zero_length_segment(self):
        dt, dtau, u_r, _, _, eta_entry, eta_exit = _schwarzschild_span(3.0, 12.0, 0.0, 12.0)
        assert (dt, dtau, u_r) == (0.0, 0.0, 0.0)
        assert eta_entry == eta_exit == 0.0

    def test_unbound_rejected(self):
        with pytest.raises(UnboundGeodesicError):
            _schwarzschild_span(3.0, 12.0, -1.5, 6.5)

    def test_unreachable_radius(self):
        with pytest.raises(UnreachableRadiusError):
            _schwarzschild_span(3.0, 12.0, 0.0, 12.5)

    def test_energy_constant_within_segment(self):
        _, _, u_r, u_t, *_ = _schwarzschild_span(3.0, 12.0, 0.0, 6.2)
        E_in = math.sqrt(metric_factor(3.0, 12.0))
        E_out = math.sqrt(u_r**2 + metric_factor(3.0, 6.2))
        assert E_out == pytest.approx(E_in, rel=1e-10)
        # the conserved energy read off the time component agrees
        assert metric_factor(3.0, 6.2) * u_t == pytest.approx(E_in, rel=1e-10)

    def test_midflight_oracle_agreement(self):
        # entry at the outer shell of the two-shell reference geometry
        _, _, legs = oscillation_period(m2_reference(), 12.0)
        leg = legs[1]  # intermediate patch
        E_loc = math.sqrt(leg.u_r**2 + metric_factor(1.9999, leg.r_outer))
        dt_oracle, dtau_oracle = quad_spans(1.9999, E_loc, leg.r_outer, leg.r_inner)
        assert leg.dt_local == pytest.approx(abs(dt_oracle), rel=1e-8)
        assert leg.dtau == pytest.approx(abs(dtau_oracle), rel=1e-8)

    def test_minkowski_drop_to_center(self):
        _, dtau = _minkowski_span(4.0, -0.5, math.sqrt(1.25), 0.0)
        assert dtau == pytest.approx(8.0, rel=1e-15)

    def test_minkowski_uniform(self):
        dt, dtau = _minkowski_span(0.0, 1.0, math.sqrt(2.0), 4.0)
        assert dtau == pytest.approx(4.0)
        assert dt == pytest.approx(4.0 * math.sqrt(2.0))

    def test_minkowski_zero_length(self):
        assert _minkowski_span(4.0, -0.5, math.sqrt(1.25), 4.0) == (0.0, 0.0)

    def test_minkowski_stationary_error(self):
        with pytest.raises(GeodesicError):
            _minkowski_span(4.0, 0.0, 1.0, 0.0)

    def test_time_reflection_symmetry(self):
        # infall r_i -> R spans equal the outbound R -> r_i spans; the only
        # slack is the one-ulp apoapsis reconstruction from the mid-flight
        # state (the period itself is composed as 4x one quarter, exactly).
        dt_in, dtau_in, u_r, *_ = _schwarzschild_span(3.0, 12.0, 0.0, 7.0)
        dt_back, dtau_back, *_ = _schwarzschild_span(3.0, 7.0, -u_r, 12.0)
        assert dt_back == pytest.approx(dt_in, rel=1e-13)
        assert dtau_back == pytest.approx(dtau_in, rel=1e-13)

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


def cross(mu_in, mu_out, R, u_r, u_t, inward=True):
    """(u_r, u_t) on the other side of the shell at R, by the walk's rule."""
    k = _shell_transfer(mu_in, mu_out, R, R)
    return (u_r / k, u_t * k) if inward else (u_r * k, u_t / k)


def on_shell_u_t(mass, r, u_r):
    """u_t of a unit-norm radial 4-velocity with this u_r at r."""
    f = metric_factor(mass, r)
    return math.sqrt((1.0 + u_r * u_r / f) / f)


class TestCrossShell:
    """_shell_transfer: the tangent vector re-expressed across a shell."""

    def test_identity_crossing(self):
        u_r, u_t = -0.5, on_shell_u_t(2.0, 20.0, -0.5)
        out = cross(2.0, 2.0, 20.0, u_r, u_t)
        assert out[0] == pytest.approx(u_r, rel=1e-15)
        assert out[1] == pytest.approx(u_t, rel=1e-15)

    def test_minkowski_interior_factor(self):
        inner_u_r, _ = cross(0.0, 3.0, 10.0, -0.5, on_shell_u_t(3.0, 10.0, -0.5))
        assert inner_u_r == pytest.approx(-0.5 / math.sqrt(0.4), rel=1e-14)
        assert inner_u_r == pytest.approx(-0.7906, abs=1e-4)

    def test_round_trip_identity(self):
        u_r, u_t = -0.5, on_shell_u_t(3.0, 10.0, -0.5)
        back = cross(0.0, 3.0, 10.0, *cross(0.0, 3.0, 10.0, u_r, u_t), inward=False)
        assert back[0] == pytest.approx(u_r, rel=1e-14)
        assert back[1] == pytest.approx(u_t, rel=1e-14)

    def test_not_at_shell(self):
        with pytest.raises(GeodesicError):
            _shell_transfer(0.0, 3.0, 10.0, 11.0)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=100)
    def test_norm_preserved(self, mu_in, mu_out, u_r, clearance):
        R = 2.0 * max(mu_in, mu_out) * clearance
        try:
            build_spacetime([
                PatchSpec(0.0, 0.0, R / 2),
                PatchSpec(mu_in, R / 2, R),
                PatchSpec(mu_out, R, None),
            ])
        except Exception:
            return
        inner = cross(mu_in, mu_out, R, u_r, on_shell_u_t(mu_out, R, u_r))
        assert norm_defect(mu_in, R, *inner) < 1e-9


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
        leg = oscillation_period(one_shell(M, R), r_i)[2][0]
        assert leg.eta_entry == 0.0
        params = CycloidParams.from_rest(M, r_i)
        assert leg.dtau == proper_time(params, eta_of_radius(params, R))

    def test_norm_along_quarter(self):
        # 4-velocity norm -1 at sampled points of every leg, in local coords
        st_ = m2_reference()
        _, _, legs = oscillation_period(st_, 12.0)
        checked = 0
        for leg in legs:
            mass = st_.patches[leg.patch_index].mass
            assert norm_defect(mass, leg.r_outer, leg.u_r, leg.u_t) < 1e-9
            checked += 1
            if leg.cycloid is None:
                continue
            for k in range(50):
                eta = leg.eta_entry + (leg.eta_exit - leg.eta_entry) * k / 49
                r = radius(leg.cycloid, eta)
                U0, U1 = tangent(leg.cycloid, eta, r)
                assert norm_defect(mass, r, U1, U0) < 1e-9
                checked += 1
        assert checked > 100

    def test_legs_are_the_walk_records(self):
        # one flat Leg per walk record, outermost patch first; each leg starts
        # where the one outside it ended, tau running on across the shells
        st_ = m2_reference()
        _, _, legs = oscillation_period(st_, 12.0)
        masses = [p.mass for p in st_.patches]
        r_mins = [p.r_min for p in st_.patches]
        records = _inward_walk(masses, r_mins, st_.shells, st_.lapses, 12.0)
        assert legs == [Leg(*record) for record in records]
        assert [leg.patch_index for leg in legs] == [2, 1, 0]
        assert (legs[0].r_outer, legs[0].u_r, legs[0].tau) == (12.0, 0.0, 0.0)
        for outer, inner in zip(legs, legs[1:]):
            assert inner.r_outer == outer.r_inner
            assert inner.tau == outer.tau + outer.dtau
            assert inner.dt_global == st_.lapses[inner.patch_index] * inner.dt_local


def count_t_calls(monkeypatch) -> list:
    """One entry per coordinate_time call the sampler makes from here on."""
    calls = []

    def counted(*args):
        calls.append(None)
        return coordinate_time(*args)

    monkeypatch.setattr(geodesic, "coordinate_time", counted)
    return calls


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

    def test_coordinate_time_calls_per_sample(self, monkeypatch):
        """Work pin: the safeguarded Newton solve evaluates t(eta) about 4
        times per Schwarzschild-leg sample."""
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, 4.0), PatchSpec(1.9, 4.0, 9.0), PatchSpec(3.0, 9.0, None),
        ])
        dt, _, _ = oscillation_period(st_, 12.0)
        calls = count_t_calls(monkeypatch)
        samples = trajectory(st_, 12.0, 2.0 * dt, 500)
        inverted = sum(4.0 < r < 12.0 for _, r, _ in samples)
        assert inverted > 300
        assert len(calls) <= 6 * inverted


def leg_from(mass, r_apo, r_entry, r_exit, lapse):
    """The Schwarzschild leg from r_entry down to r_exit on the rest-release
    cycloid from r_apo, with global time lapse * local time."""
    params = CycloidParams.from_rest(mass, r_apo)
    U0, U1 = tangent(params, eta_of_radius(params, r_entry), r_entry)
    dt, dtau, _, _, cycloid, eta_entry, eta_exit = _schwarzschild_span(mass, r_entry, U1, r_exit)
    return Leg(1, r_entry, r_exit, dt, lapse * dt, dtau, U1, U0, 0.0, cycloid, eta_entry, eta_exit)


@st.composite
def legs(draw):
    """(leg, t_in_leg): exits anywhere down to within 1e-9 of the horizon,
    entries from rest or mid-flight, and targets across the leg."""
    mass = draw(st.floats(0.1, 5.0))
    horizon = 2.0 * mass
    r_apo = horizon * (1.0 + draw(st.floats(2e-3, 20.0)))
    r_exit = draw(st.one_of(
        st.floats(-9.0, -3.0).map(lambda x: horizon * (1.0 + 10.0**x)),
        st.floats(0.01, 0.99).map(lambda u: horizon + (r_apo - horizon) * u),
    ))
    v = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    leg = leg_from(mass, r_apo, r_exit + (r_apo - r_exit) * v, r_exit, draw(st.floats(0.01, 100.0)))
    return leg, leg.dt_global * draw(st.floats(1e-6, 1.0 - 1e-6))


def assert_matches_fifty_digits(leg, t, got):
    """r within 1e-13 relative of the 50-digit inversion, and tau within 1e-14
    of the proper time since the cycloid's rest plus 2M/E.  Near the horizon
    the float t(eta) is off by a few ulps of 2M r/(r - 2M), which moves tau by a
    few ulps of 2M/E however exact the root."""
    params = leg.cycloid
    r_mp, tau_mp = mp_invert_leg(leg, t)
    r, tau = got
    scale = tau_mp + proper_time(params, leg.eta_entry) + 2.0 * params.mass / params.energy
    assert abs(r - r_mp) <= 1e-13 * r_mp
    assert abs(tau - tau_mp) <= 1e-14 * scale


class TestNewtonSampling:
    """The safeguarded Newton solve against a 50-digit inversion of the same leg."""

    @given(legs())
    @settings(max_examples=400, deadline=None)
    def test_matches_fifty_digit_inversion(self, drawn):
        leg, t = drawn
        assert_matches_fifty_digits(leg, t, _invert_leg(leg, _leg_origin(leg), t))

    @pytest.mark.parametrize("r_exit", [6.000000011999999, 9.0])
    def test_bisection_fallback(self, monkeypatch, r_exit):
        """With no Newton step the bracket is bisected to its last bit, which
        holds the same bounds."""
        leg = leg_from(3.0, 12.0, 12.0, r_exit, 1.0)
        origin = _leg_origin(leg)
        monkeypatch.setattr(geodesic, "NEWTON_STEPS", 0)
        calls = count_t_calls(monkeypatch)
        for frac in (1e-6, 0.01, 0.3, 0.7, 0.999, 1.0 - 1e-6):
            t = frac * leg.dt_global
            calls.clear()
            got = _invert_leg(leg, origin, t)
            assert len(calls) > 40
            assert_matches_fifty_digits(leg, t, got)


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
        u_t = _release_u_t(3.0, 10.072, 12.0)
        assert norm_defect(3.0, 12.0, 0.0, u_t) < 1e-12
        leg = oscillation_period(m2_reference(), 12.0)[2][0]
        assert (leg.u_r, leg.u_t) == (0.0, u_t)


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

