import ast
import itertools
import json
import math
from bisect import bisect_left
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shellswitch import (
    CycloidParams,
    PatchSpec,
    build_spacetime,
    null_crossing_time,
    oscillation_period,
    static_exchange,
    trajectory,
)
from shellswitch.errors import (
    GeodesicError,
    NoRestoringForceError,
    UnboundGeodesicError,
    UnreachableRadiusError,
)
from shellswitch import geodesic
from shellswitch.geodesic import (
    Leg,
    _exterior_leg,
    _minkowski_span,
    _schwarzschild_span,
    _solve_leg,
    coordinate_time,
    diametral_crossing_time,
    eta_of_radius,
    proper_time,
    radius,
)
from shellswitch.spacetime import metric_factor, spacetime_from_config

import oracles
from oracles import DPS, _cycloid_at, invert_leg, mp_invert_leg, mp_period, norm_defect, quad_spans

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def one_shell(M, R):
    return build_spacetime([PatchSpec(0.0, 0.0, R), PatchSpec(M, R, None)])


def m2_reference(R1=10.072):
    return build_spacetime([
        PatchSpec(0.0, 0.0, 4.0),
        PatchSpec(1.9999, 4.0, R1),
        PatchSpec(3.0, R1, None),
    ])


class TestCycloid:
    def test_rest_release_energy(self):
        # E = sqrt(1 - 2M/r_apo) of a body released from rest at r_apo
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        assert params.energy == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert params.r_apo == 12.0

    def test_rest_at_apoapsis(self):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        r = radius(params, 0.0)
        t, tau, U0, U1, eta = _exterior_leg(params, r)
        assert (r, t, tau, U1, eta) == (12.0, 0.0, 0.0, 0.0, 0.0)
        assert U0 == pytest.approx(1.0 / params.energy, rel=1e-14)

    def test_quarter_parameter(self):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        r, tau = radius(params, math.pi / 2), proper_time(params, math.pi / 2)
        assert r == pytest.approx(6.0, rel=1e-14)
        assert tau == pytest.approx(math.sqrt(72.0) * (math.pi / 2 + 1.0), rel=1e-14)

    def test_center_limit_proper_time(self):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        assert proper_time(params, math.pi) == pytest.approx(
            math.sqrt(72.0) * math.pi, rel=1e-14
        )
        assert radius(params, math.pi) == pytest.approx(0.0, abs=1e-25)

    def test_coordinate_time_diverges_at_horizon(self):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        eta_h = 2.0 * math.asin(params.energy)
        with pytest.raises(GeodesicError):
            coordinate_time(params, eta_h + 1e-3)

    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan])
    def test_massless_cycloid_rejected(self, mass):
        # the per-orbit factors divide by the mass: a flat or repulsive patch
        # has no cycloid, and says so instead of dividing by zero
        with pytest.raises(NoRestoringForceError):
            CycloidParams(mass=mass, r_apo=12.0, energy=0.5)

    @pytest.mark.parametrize("build", [
        lambda: CycloidParams(1e149, 1e151, 0.5),
        lambda: CycloidParams.from_state(1e149, 1e151, 0.0),
    ])
    def test_overflowing_apoapsis_rejected(self, build):
        # r_apo**3 overflows above r_apo ~ 5.6e102: it raised OverflowError
        with pytest.raises(GeodesicError, match=r"r_apo=1e\+151 is too large"):
            build()

    def test_factors_outside_equality_and_repr(self):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        assert params == CycloidParams(3.0, 12.0, params.energy)
        assert repr(params) == f"CycloidParams(mass=3.0, r_apo=12.0, energy={params.energy!r})"

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 1.4])
    def test_finite_difference_tangent(self, eta):
        params = CycloidParams.from_state(3.0, 12.0, 0.0)
        h = 1e-4
        dr = radius(params, eta + h) - radius(params, eta - h)
        dt = coordinate_time(params, eta + h) - coordinate_time(params, eta - h)
        dtau = proper_time(params, eta + h) - proper_time(params, eta - h)
        U0, U1 = _exterior_leg(params, radius(params, eta))[2:4]
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

    def test_cycloid_point_at_horizon_rejected(self):
        # the horizon check comes before u_t = E r / (r - 2M) divides by zero
        with pytest.raises(GeodesicError, match="at or inside horizon"):
            _exterior_leg(CycloidParams.from_state(3.0, 12.0, 0.0), 6.0)

    def test_zero_length_segment(self):
        dt, dtau, u_r, _, _, eta_entry, eta_exit, _ = _schwarzschild_span(3.0, 12.0, 0.0, 12.0)
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
        E_loc = leg.cycloid.energy  # sqrt(u_r^2 + f) of the entry state
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
            params = CycloidParams.from_state(mass, r_apo, 0.0)
            E = params.energy
            ea, eb = eta_of_radius(params, r_from), eta_of_radius(params, r_to)
            dt = coordinate_time(params, eb, r_to) - coordinate_time(params, ea, r_from)
            dtau = proper_time(params, eb) - proper_time(params, ea)
            dt_o, dtau_o = quad_spans(mass, E, r_from, r_to)
            assert dt == pytest.approx(abs(dt_o), rel=1e-8)
            assert dtau == pytest.approx(abs(dtau_o), rel=1e-8)


def transfer(mu_in, mu_out, R):
    """The walk's tangent transfer factor at the shell at R, k = sqrt(f_out / f_in):
    u_r(out) = k * u_r(in) and u_t(out) = u_t(in) / k.
    check_walk_records holds the walk to it bit for bit."""
    return math.sqrt(metric_factor(mu_out, R) / metric_factor(mu_in, R))


def entry_tangents(spacetime, legs):
    """(u_r, u_t) at each leg's entry, carried as the walk carries them: from
    rest at the release, through each Schwarzschild patch by
    _schwarzschild_span's exit tangent (a flat patch keeps it), and across
    each shell by transfer."""
    masses = [patch.mass for patch in spacetime.patches]
    first = legs[0]
    u_r, u_t = 0.0, _exterior_leg(first.cycloid, first.r_outer)[2]
    states = []
    for leg, inner in zip(legs, [*legs[1:], None]):
        states.append((u_r, u_t))
        mass = masses[leg.patch_index]
        if leg.cycloid is not None:
            u_r, u_t = _schwarzschild_span(mass, leg.r_outer, u_r, leg.r_inner)[2:4]
        if inner is not None:
            k = transfer(masses[inner.patch_index], mass, leg.r_inner)
            u_r, u_t = u_r / k, u_t * k
    return states


def cross(mu_in, mu_out, R, u_r, u_t, inward=True):
    """(u_r, u_t) on the other side of the shell at R, by the walk's rule."""
    k = transfer(mu_in, mu_out, R)
    return (u_r / k, u_t * k) if inward else (u_r * k, u_t / k)


def on_shell_u_t(mass, r, u_r):
    """u_t of a unit-norm radial 4-velocity with this u_r at r."""
    f = metric_factor(mass, r)
    return math.sqrt((1.0 + u_r * u_r / f) / f)


class TestCrossShell:
    """The walk's transfer: the tangent vector re-expressed across a shell."""

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

    def test_period_is_four_times_the_quarter(self):
        st_ = m2_reference()
        dt, dtau, legs = oscillation_period(st_, 12.0)
        assert dt == 4.0 * sum(leg.dt_global for leg in legs)
        assert dtau == 4.0 * sum(leg.dtau for leg in legs)

    def test_positive_finite(self):
        dt, dtau, _ = oscillation_period(m2_reference(), 12.0)
        assert 0 < dtau < dt < math.inf

    def test_flat_middle_patch(self):
        # a flat patch between two shells: the walk's Minkowski span between
        # shell transfers, which no search geometry reaches
        doc = json.loads((CONFIGS / "flat_middle_spacetime.json").read_text())
        dt, dtau, _ = oscillation_period(spacetime_from_config(doc), doc["r_i"])
        with mp.workdps(DPS):
            want = mp_period((0.0, 1.9, 0.0, 3.0), (4.0, 6.0, 9.0), 12.0)
            for got, exact in zip((dt, dtau), want):
                assert abs(got / exact - 1) < 1e-15

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
        params = CycloidParams.from_state(M, r_i, 0.0)
        assert params.r_apo == r_i
        assert leg.dtau == proper_time(params, eta_of_radius(params, R))

    def test_norm_along_quarter(self):
        # 4-velocity norm -1 at sampled points of every leg, in local coords
        st_ = m2_reference()
        _, _, legs = oscillation_period(st_, 12.0)
        checked = 0
        for leg, (u_r, u_t) in zip(legs, entry_tangents(st_, legs), strict=True):
            mass = st_.patches[leg.patch_index].mass
            assert norm_defect(mass, leg.r_outer, u_r, u_t) < 1e-9
            checked += 1
            if leg.cycloid is None:
                continue
            for k in range(50):
                eta = leg.eta_entry + (leg.eta_exit - leg.eta_entry) * k / 49
                r = radius(leg.cycloid, eta)
                U0, U1 = _exterior_leg(leg.cycloid, r)[2:4]
                assert norm_defect(mass, r, U1, U0) < 1e-9
                checked += 1
        assert checked > 100

    def test_legs_are_the_walk_records(self):
        assert check_walk_records(m2_reference(), 12.0) == 0

    def test_flat_middle_legs_are_the_walk_records(self):
        doc = json.loads((CONFIGS / "flat_middle_spacetime.json").read_text())
        assert check_walk_records(spacetime_from_config(doc), doc["r_i"]) == 1


def check_walk_records(spacetime, r_i):
    """One Leg per patch, outermost first, holding its patch's span; each leg
    starts where the one outside it ended, with the exit tangent rescaled at
    the shell between them and tau running on across it.  Returns the number
    of flat patches between two shells, whose legs hold _minkowski_span's."""
    _, _, legs = oscillation_period(spacetime, r_i)
    mass = [p.mass for p in spacetime.patches]
    states = entry_tangents(spacetime, legs)
    assert [leg.patch_index for leg in legs] == list(range(len(mass) - 1, -1, -1))
    assert (legs[0].r_outer, legs[0].tau, states[0][0]) == (r_i, 0.0, 0.0)
    flat_middles = 0
    for outer, inner, (u_r, u_t) in zip(legs, legs[1:], states):
        assert inner.r_outer == outer.r_inner
        assert inner.tau == outer.tau + outer.dtau
        assert inner.dt_global == spacetime.lapses[inner.patch_index] * inner.dt_local
        if outer.cycloid is None:
            assert (outer.dt_local, outer.dtau) == _minkowski_span(outer.r_outer, u_r, u_t, outer.r_inner)
            assert (outer.eta_entry, outer.eta_exit, outer.origin) == (None, None, None)
            flat_middles += 1
            continue
        span = _schwarzschild_span(mass[outer.patch_index], outer.r_outer, u_r, outer.r_inner)
        assert (outer.dt_local, outer.dtau) == span[:2]
        assert (outer.cycloid, outer.eta_entry, outer.eta_exit, outer.origin) == span[4:]
    core = legs[-1]
    assert (core.r_inner, core.cycloid, core.origin) == (0.0, None, None)
    assert (core.dt_local, core.dtau) == _minkowski_span(core.r_outer, *states[-1], 0.0)
    return flat_middles


def leg_reference(leg):
    """The reference for a leg's (dt_local, dtau, eta_entry, eta_exit, origin):
    in a Schwarzschild leg, its cycloid's eta at r_outer and r_inner by
    eta_of_radius, the differences of coordinate_time and proper_time between
    them, and their values at entry; in a flat leg, the spans and four Nones."""
    params = leg.cycloid
    if params is None:
        return leg.dt_local, leg.dtau, None, None, None
    eta_a, eta_b = eta_of_radius(params, leg.r_outer), eta_of_radius(params, leg.r_inner)
    t_a, tau_a = coordinate_time(params, eta_a, leg.r_outer), proper_time(params, eta_a)
    return (abs(coordinate_time(params, eta_b, leg.r_inner) - t_a),
            abs(proper_time(params, eta_b) - tau_a), eta_a, eta_b, (t_a, tau_a))


@st.composite
def released_stacks(draw):
    """(spacetime, r_i): 1 to 5 shells, masses rising outward, each shell 1.3e-9
    to 2 relative above the horizon of the patch outside it (or above the shell
    inside it), and the release above the outermost shell, up to twice it."""
    masses = sorted(draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=5)))
    shells, r = [], 0.0
    for mass in masses:
        r = max(r, 2.0 * mass) * (1.0 + 10.0 ** draw(st.floats(-8.9, 0.3)))
        shells.append(r)
    bounds = (0.0, *shells, None)
    patches = [PatchSpec(mass, bounds[k], bounds[k + 1]) for k, mass in enumerate((0.0, *masses))]
    return build_spacetime(patches), r * draw(st.floats(1.0, 2.0, exclude_min=True))


class TestLegOrigin:
    @given(released_stacks())
    @settings(max_examples=200, deadline=None)
    def test_origin_is_the_entry_time(self, drawn):
        """A Schwarzschild leg's spans, eta range and origin are those that
        eta_of_radius, coordinate_time and proper_time recompute from its
        cycloid, bit for bit, and each leg's global span is its local span
        times its patch's lapse from the spacetime.  This holds the walk's
        one-pass cycloid points to the separate kernel functions; CI reruns
        it under five seeds."""
        spacetime, r_i = drawn
        try:
            legs = oscillation_period(spacetime, r_i)[2]
        except UnboundGeodesicError:  # a shell near its horizon can unbind the fall
            assume(False)
        for leg in legs:
            assert (leg.dt_local, leg.dtau, leg.eta_entry, leg.eta_exit, leg.origin) == leg_reference(leg)
            assert leg.dt_global == spacetime.lapses[leg.patch_index] * leg.dt_local


def record_leg_sweeps(monkeypatch) -> list:
    """One (leg, t_in_legs, rows, evaluations of t(eta)) entry per leg the
    sampler sweeps, rows the (r, tau) of each offset."""
    swept = []

    def recorded(leg, t_in_legs):
        rs, dtaus, evals = _solve_leg(leg, t_in_legs)
        swept.append((leg, t_in_legs, list(zip(rs, dtaus)), evals))
        return rs, dtaus, evals

    monkeypatch.setattr(geodesic, "_solve_leg", recorded)
    return swept


def solves_root(leg, t_in_leg) -> bool:
    """Whether a sweep solves t(eta) for a root at this offset: one strictly
    inside a Schwarzschild leg."""
    return leg.cycloid is not None and 0.0 < t_in_leg < leg.dt_global


class TestTrajectory:
    def test_initial_sample(self):
        samples = trajectory(m2_reference(), 12.0, 100.0, 5)
        assert samples[0].tolist() == [0.0, 12.0, 0.0]

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

    @pytest.mark.parametrize("t_max, sample_count", [
        (math.nan, 5), (math.inf, 5), (-math.inf, 5), (math.inf, 1), (1e308, 600),
    ])
    def test_non_finite_sample_times(self, t_max, sample_count):
        # each would put NaN in the rows: NaN and inf, and a t_max whose t_max * i overflows
        with pytest.raises(GeodesicError, match="sample times must be finite"):
            trajectory(m2_reference(), 12.0, t_max, sample_count)

    def test_numpy_not_imported_at_module_scope(self):
        """trajectory imports numpy itself; geodesic's module scope does not.
        (The package __init__ serves switch's names on first use, so importing
        shellswitch.geodesic loads no numpy: test_cli_import_loads_no_numpy.)"""
        tree = ast.parse(Path(geodesic.__file__).read_text())
        modules = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
        assert "math" in modules
        assert "numpy" not in modules

    def test_coordinate_time_calls_per_offset(self, monkeypatch):
        """Work pin: each Schwarzschild solve starts from the previous root in
        its leg, moved along its tangent, and evaluates t(eta) about 1.5 times
        (a linear guess across the leg cost about 4).  On this grid, aligned
        to the period, 501 samples hit 150 such solves and 226 evaluations,
        as the sweeps count them, at least one each; the period's spans,
        which record the legs' origins too, make none, as they read their
        cycloid points through _exterior_leg; solving every sample from a
        linear guess would cost about 9 evaluations per solve."""
        st_ = build_spacetime([
            PatchSpec(0.0, 0.0, 4.0), PatchSpec(1.9, 4.0, 9.0), PatchSpec(3.0, 9.0, None),
        ])
        dt, _, _ = oscillation_period(st_, 12.0)
        swept = record_leg_sweeps(monkeypatch)
        trajectory(st_, 12.0, 2.0 * dt, 501)
        inverted = [t for leg, t_in_legs, _, _ in swept for t in t_in_legs if solves_root(leg, t)]
        evals = sum(evals for _, _, _, evals in swept)
        assert len(inverted) > 140
        assert len(inverted) <= evals <= 1.6 * len(inverted)

    def test_each_distinct_offset_solved_once(self, monkeypatch):
        """Work pin: on a grid aligned to the period, samples one period apart
        and mirrored samples in a half period share their quarter offset, and
        each distinct offset that falls in a Schwarzschild leg is solved once,
        in one sweep per such leg that holds offsets: the legs outermost
        first, the offsets ascending within each.  The flat core's offsets are
        array arithmetic and reach no sweep.  Each sweep returns one row per
        offset."""
        doc = json.loads((CONFIGS / "two_shell_spacetime.json").read_text())
        st_, r_i = spacetime_from_config(doc), doc["r_i"]
        dt, _, legs = oscillation_period(st_, r_i)
        swept = record_leg_sweeps(monkeypatch)
        trajectory(st_, r_i, 2.0 * dt, 4001)
        offsets = set()
        for i in range(4001):
            rem = divmod(2.0 * dt * i / 4000, dt / 2.0)[1]
            offsets.add(rem if rem <= dt / 4.0 else dt / 2.0 - rem)
        # each offset's leg, the first that ends at or after it (else the
        # last), and its offset from that leg's start
        ends = list(itertools.accumulate(leg.dt_global for leg in legs))
        wanted, flat = [], 0
        for offset in sorted(offsets):
            k = min(bisect_left(ends, offset), len(legs) - 1)
            if legs[k].cycloid is None:
                flat += 1
            else:
                wanted.append((legs[k].patch_index, (offset - (ends[k - 1] if k else 0.0)).hex()))
        solved = [(leg.patch_index, t.hex()) for leg, t_in_legs, _, _ in swept for t in t_in_legs]
        assert solved == wanted
        assert flat > 0 and len(solved) + flat == len(offsets) < 4001 / 2
        assert len({id(leg) for leg, _, _, _ in swept}) == len(swept) > 1
        assert all(len(rows) == len(t_in_legs) > 0 for _, t_in_legs, rows, _ in swept)


def leg_from(mass, r_apo, r_entry, r_exit, lapse):
    """The Schwarzschild leg from r_entry down to r_exit on the rest-release
    cycloid from r_apo, with global time lapse * local time."""
    params = CycloidParams.from_state(mass, r_apo, 0.0)
    U1 = _exterior_leg(params, r_entry)[3]
    dt, dtau, _, _, *arc = _schwarzschild_span(mass, r_entry, U1, r_exit)
    return Leg(1, r_entry, r_exit, dt, lapse * dt, dtau, 0.0, *arc)


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


@st.composite
def swept_legs(draw):
    """(leg, t_in_legs, NEWTON_STEPS): a legs() leg, and 1 to 40 ascending
    offsets that may repeat and may be the leg's two ends or past its end, as
    trajectory's last leg gets them; NEWTON_STEPS 0 to 3, where solves bisect
    and hand on no seed, or the module's own.  Flat legs never reach a sweep:
    the test_pins.py properties hold trajectory's array arithmetic for them to
    the per-offset solve."""
    leg = draw(legs())[0]
    t = st.one_of(st.floats(0.0, 1.0).map(lambda u: leg.dt_global * u),
                  st.sampled_from([0.0, leg.dt_global, 1.25 * leg.dt_global]))
    t_in_legs = sorted(draw(st.lists(t, min_size=1, max_size=40)))
    return leg, t_in_legs, draw(st.sampled_from([0, 1, 2, 3, geodesic.NEWTON_STEPS]))


class TestNewtonSampling:
    """The safeguarded Newton solve against a 50-digit inversion of the same leg."""

    @given(legs(), st.floats(1e-6, 1.0))
    @settings(max_examples=400, deadline=None)
    def test_matches_fifty_digit_inversion(self, drawn, back):
        """From the linear guess across the leg, and from the seed of an
        earlier solve in the same sweep, a fraction back of the way to its start."""
        leg, t = drawn
        rs, dtaus, _ = _solve_leg(leg, [t])
        assert_matches_fifty_digits(leg, t, (rs[0], dtaus[0]))
        rs, dtaus, _ = _solve_leg(leg, [t * (1.0 - back), t])
        assert_matches_fifty_digits(leg, t, (rs[1], dtaus[1]))

    @given(swept_legs())
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_per_offset_reference(self, drawn):
        """A leg's sweep gives the rows of the per-offset solve it replaced
        (oracles.invert_leg), each seeded from the one before it, bit for bit,
        and counts the reference's evaluations of t(eta)."""
        leg, t_in_legs, steps = drawn
        calls = []

        def counted(*args):
            calls.append(None)
            return coordinate_time(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geodesic, "NEWTON_STEPS", steps)
            patch.setattr(oracles, "NEWTON_STEPS", steps)
            patch.setattr(oracles, "coordinate_time", counted)
            rs, dtaus, evals = _solve_leg(leg, t_in_legs)
            seed, want = None, []
            for t in t_in_legs:
                r, dtau, seed = invert_leg(leg, t, seed)
                want.append((r.hex(), dtau.hex()))
        assert [(r.hex(), dtau.hex()) for r, dtau in zip(rs, dtaus, strict=True)] == want
        assert evals == len(calls)

    @pytest.mark.parametrize("r_exit", [6.000000011999999, 9.0])
    def test_bisection_fallback(self, monkeypatch, r_exit):
        """With no Newton step the bracket is bisected to its last bit, which
        holds the same bounds."""
        leg = leg_from(3.0, 12.0, 12.0, r_exit, 1.0)
        monkeypatch.setattr(geodesic, "NEWTON_STEPS", 0)
        for frac in (1e-6, 0.01, 0.3, 0.7, 0.999, 1.0 - 1e-6):
            t = frac * leg.dt_global
            rs, dtaus, evals = _solve_leg(leg, [t])
            assert evals > 40
            assert_matches_fifty_digits(leg, t, (rs[0], dtaus[0]))

    def test_trajectory_bisection_fallback(self, monkeypatch):
        """With no Newton step every solve of a whole trajectory bisects, at
        more than 40 evaluations of t(eta) each.  The rows hold the same
        bounds over the outer leg of this stack, which ends 2e-9 above its
        horizon."""
        shell = 6.000000011999999
        st_ = build_spacetime([PatchSpec(0.0, 0.0, shell), PatchSpec(3.0, shell, None)])
        t_max = oscillation_period(st_, 12.0)[2][0].dt_global  # the outer leg
        newton = trajectory(st_, 12.0, t_max, 61)
        monkeypatch.setattr(geodesic, "NEWTON_STEPS", 0)
        swept = record_leg_sweeps(monkeypatch)
        rows = trajectory(st_, 12.0, t_max, 61)
        inverted = [(leg, t, got) for leg, t_in_legs, solved, _ in swept
                    for t, got in zip(t_in_legs, solved) if solves_root(leg, t)]
        assert len(inverted) > 20
        for leg, t_in_legs, _, evals in swept:
            assert evals > 40 * sum(solves_root(leg, t) for t in t_in_legs)
        for leg, t, got in inverted[::4]:
            assert_matches_fifty_digits(leg, t, got)
        for (t, r, _), (t_newton, r_newton, _) in zip(rows, newton, strict=True):
            assert t == t_newton and abs(r - r_newton) <= 2e-13 * r_newton


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
        # the walk releases from rest at r_i: its exterior cycloid has its
        # apoapsis there, and the 4-velocity at entry is (1/sqrt(f), 0)
        st_ = m2_reference()
        legs = oscillation_period(st_, 12.0)[2]
        u_r, u_t = entry_tangents(st_, legs)[0]
        assert (u_r, legs[0].eta_entry, legs[0].cycloid.r_apo) == (0.0, 0.0, 12.0)
        assert u_t == pytest.approx(1.0 / math.sqrt(metric_factor(3.0, 12.0)), rel=1e-15)
        assert norm_defect(3.0, 12.0, u_r, u_t) < 1e-12
