"""Acceptance gate: the seven reference-reproduction criteria.

Each test evaluates one criterion at its stated tolerance and emits a single
PASS/FAIL line (visible with `pytest -s` and in captured output on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from shellswitch import (
    OperatorSpec,
    PatchSpec,
    build_spacetime,
    induced_metric_gap,
    measure_control_diagonal,
    run_general_protocol,
    run_switch,
    shell_stress,
    solve_switch_configuration,
)
from shellswitch.cli import main
from shellswitch.geodesic import (
    CycloidParams,
    _schwarzschild_span,
    coordinate_time,
    eta_of_radius,
    oscillation_period,
    proper_time,
    radius,
    tangent,
)
from shellswitch.search import SearchConfig, one_shell_spacetime, two_shell_spacetime
from shellswitch.switch import EventSchedule, broken_switch_slots

from conftest import REFERENCE
from oracles import quad_spans, random_state, random_unitary

SCHED = EventSchedule(
    tau_A=0.0, t_A1=0.0, t_A2=2.0, t_B=1.0, t_f=3.0, tau_B=0.8, r_t=10.0
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}: {detail}")
    assert ok, detail


def test_criterion_1_golden_reproduction():
    config = SearchConfig(**REFERENCE, grid=200)
    start = time.perf_counter()
    sol = solve_switch_configuration(config)
    elapsed = time.perf_counter() - start
    ok = (
        abs(sol.R1 - 10.072) < 0.01
        and abs(sol.f - 0.329464) < 0.001
        and abs(sol.R - 6.00057) < 0.001
        and elapsed < 60.0
    )
    report(
        1, ok,
        f"R1={sol.R1:.6f} (10.072±0.01), f={sol.f:.6f} (0.329464±0.001), "
        f"R={sol.R:.6f} (6.00057±0.001), runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_2_meeting_radius(ref_solution, ref_meeting):
    from shellswitch.search import _exterior_spans

    _, tau_e = _exterior_spans(ref_solution.config, ref_meeting.r_t)
    tau_1 = ref_solution.dtau1 / 2.0 + tau_e
    tau_2 = ref_solution.dtau2 / 2.0 - tau_e
    ok = (
        abs(ref_meeting.r_t - 11.9382) < 0.001
        and abs(tau_1 - tau_2) < 1e-8
        and ref_meeting.t_A1 < ref_meeting.t_A2
    )
    report(
        2, ok,
        f"r_t={ref_meeting.r_t:.6f} (11.9382±0.001), "
        f"|tau1-tau2|={abs(tau_1 - tau_2):.2e} < 1e-8, "
        f"t_A1={ref_meeting.t_A1:.2f} < t_A2={ref_meeting.t_A2:.2f}",
    )


def test_criterion_3_condition_residuals(ref_solution):
    clock = abs(ref_solution.dtau1 / ref_solution.dt1
                - ref_solution.dtau2 / ref_solution.dt2)
    ratio = abs(ref_solution.dt1 / ref_solution.dt2 - 0.9)
    ok = clock < 1e-6 and ratio < 1e-3
    report(
        3, ok,
        f"clock-rate residual {clock:.2e} < 1e-6, "
        f"period-ratio residual {ratio:.2e} < 1e-3",
    )


def test_criterion_4_invariant_suite(ref_solution):
    config = ref_solution.config
    checks = []

    # 4-velocity norm within 1e-9 at >= 1000 points per branch trajectory
    worst_norm = 0.0
    for st in (one_shell_spacetime(config, ref_solution.R),
               two_shell_spacetime(config, ref_solution.R1)):
        _, _, legs = oscillation_period(st, config.r_i)
        schw = [leg for leg in legs if leg.cycloid is not None]
        per_leg = max(2, 1000 // max(len(schw), 1) + 1)
        for leg in schw:
            params = leg.cycloid
            mass = st.patches[leg.patch_index].mass
            e0, e1 = leg.eta_entry, leg.eta_exit
            for i in range(per_leg):
                eta = e0 + (e1 - e0) * (i + 0.5) / per_leg
                u_t, u_r = tangent(params, eta)
                f = 1.0 - 2.0 * mass / radius(params, eta)
                worst_norm = max(worst_norm, abs(-f * u_t**2 + u_r**2 / f + 1.0))
    checks.append(("norm", worst_norm, 1e-9))

    # per-segment energy constancy within 1e-10
    worst_energy = 0.0
    for st in (one_shell_spacetime(config, ref_solution.R),
               two_shell_spacetime(config, ref_solution.R1)):
        _, _, legs = oscillation_period(st, config.r_i)
        for leg in legs:
            if leg.cycloid is None:
                continue
            params = leg.cycloid
            mass = st.patches[leg.patch_index].mass
            e0, e1 = leg.eta_entry, leg.eta_exit
            energies = []
            for i in range(16):
                eta = e0 + (e1 - e0) * (i + 0.5) / 16
                u_t, _ = tangent(params, eta)
                energies.append((1.0 - 2.0 * mass / radius(params, eta)) * u_t)
            worst_energy = max(worst_energy, max(energies) - min(energies))
    checks.append(("energy", worst_energy, 1e-10))

    # finite-difference vs analytic (U0, U1) within 1e-6
    params = CycloidParams.from_rest(config.M, config.r_i)
    worst_fd = 0.0
    h = 1e-5
    # stay on the exterior-patch side of the horizon value eta_H = pi/2
    for eta in (0.3, 0.7, 1.1, 1.45):
        t_m, tau_m = coordinate_time(params, eta - h), proper_time(params, eta - h)
        t_p, tau_p = coordinate_time(params, eta + h), proper_time(params, eta + h)
        r_m, r_p = radius(params, eta - h), radius(params, eta + h)
        u_t, u_r = tangent(params, eta)
        worst_fd = max(
            worst_fd,
            abs((t_p - t_m) / (tau_p - tau_m) - u_t) / abs(u_t),
            abs((r_p - r_m) / (tau_p - tau_m) - u_r) / abs(u_r),
        )
    checks.append(("finite-difference tangent", worst_fd, 1e-6))

    # quadrature-oracle segment agreement within 1e-8 over 100 random configs
    # (segments start strictly below the apoapsis, where the oracle integrand
    # is regular)
    rng = np.random.default_rng(20240824)
    worst_quad = 0.0
    for _ in range(100):
        mass = rng.uniform(0.5, 3.0)
        r_apo = rng.uniform(4.0, 40.0) * mass
        r_entry = rng.uniform(2.5 * mass, 0.98 * r_apo)
        r_exit = rng.uniform(2.2 * mass, r_entry)
        E = math.sqrt(1.0 - 2.0 * mass / r_apo)
        cp = CycloidParams.from_rest(mass, r_apo)
        _, u_r = tangent(cp, eta_of_radius(cp, r_entry))
        dt, dtau, *_ = _schwarzschild_span(mass, r_entry, u_r, r_exit)
        dt_o, dtau_o = quad_spans(mass, E, r_entry, r_exit)
        worst_quad = max(
            worst_quad,
            abs(dt - abs(dt_o)) / abs(dt_o),
            abs(dtau - abs(dtau_o)) / abs(dtau_o),
        )
    checks.append(("quadrature oracle", worst_quad, 1e-8))

    # junction gap within 1e-12
    worst_gap = 0.0
    for st in (one_shell_spacetime(config, ref_solution.R),
               two_shell_spacetime(config, ref_solution.R1)):
        for j in range(len(st.shells)):
            worst_gap = max(worst_gap, induced_metric_gap(st, j))
    checks.append(("junction gap", worst_gap, 1e-12))

    ok = all(val <= tol for _, val, tol in checks)
    detail = "; ".join(f"{name} {val:.2e} <= {tol:.0e}" for name, val, tol in checks)
    report(4, ok, detail)


def test_criterion_5_stress_energy():
    # large-R density limit for R >= 50*mu_out
    worst = 0.0
    for mu_out, mu_in, scale in [(3.0, 0.0, 50.0), (3.0, 0.0, 200.0),
                                 (2.0, 1.0, 50.0), (1.0, 0.5, 400.0)]:
        R = scale * mu_out
        patches = [PatchSpec(0.0, 0.0, R / 2), PatchSpec(mu_in, R / 2, R),
                   PatchSpec(mu_out, R, None)] if mu_in > 0 else [
            PatchSpec(0.0, 0.0, R), PatchSpec(mu_out, R, None)]
        st = build_spacetime(patches)
        j = len(st.shells) - 1
        rho = shell_stress(st, j).rho
        rel = abs(rho * 4 * math.pi * R * R - (mu_out - mu_in)) / (mu_out - mu_in)
        worst = max(worst, rel / (2.0 * mu_out / R))
    limit_ok = worst <= 1.0

    # pressure vanishes at large R, grows without bound toward the horizon
    def P(R):
        st = build_spacetime(
            [PatchSpec(0.0, 0.0, R), PatchSpec(3.0, R, None)],
            horizon_margin=1e-13,
        )
        return shell_stress(st, 0).P_tangential

    fall = [abs(P(R)) for R in (1e2, 1e4, 1e6)]
    rise = [P(6.0 * (1 + eps)) for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
    trend_ok = (
        all(a > b for a, b in zip(fall, fall[1:]))
        and all(a < b for a, b in zip(rise, rise[1:]))
        and rise[-1] > 1e2
    )
    ok = limit_ok and trend_ok
    report(
        5, ok,
        f"large-R density error/bound ratio {worst:.3f} <= 1, "
        f"P falls to {fall[-1]:.1e} at R=1e6 and rises to {rise[-1]:.1e} near 2M",
    )


def test_criterion_6_switch_algebra():
    rng = np.random.default_rng(20260824)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        A = OperatorSpec(random_unitary(rng, d))
        B = OperatorSpec(random_unitary(rng, d))
        psi = random_state(rng, d)
        joint = run_switch(A, B, psi, SCHED)
        oracle = np.concatenate(
            [B.matrix @ A.matrix @ psi, A.matrix @ B.matrix @ psi]
        ) / math.sqrt(2.0)
        worst = max(worst, float(np.abs(joint.amplitudes - oracle).max()))
    algebra_ok = worst < 1e-12

    X = OperatorSpec(np.array([[0, 1], [1, 0]], dtype=complex))
    Y = OperatorSpec(np.array([[0, -1j], [1j, 0]]))
    Z = OperatorSpec(np.array([[1, 0], [0, -1]], dtype=complex))
    ket0 = np.array([1.0, 0.0], dtype=complex)
    joint = run_switch(X, Z, ket0, SCHED)
    p_plus = measure_control_diagonal(joint, +1).probability
    p_minus = measure_control_diagonal(joint, -1).probability
    pauli_ok = p_plus == 0.0 and p_minus == 1.0

    broken = run_general_protocol(broken_switch_slots(X, Y, Z), ket0)
    want = np.concatenate(
        [X.matrix @ Z.matrix @ ket0, Z.matrix @ Y.matrix @ ket0]
    ) / math.sqrt(2.0)
    broken_ok = float(np.abs(broken.amplitudes - want).max()) < 1e-12

    ok = algebra_ok and pauli_ok and broken_ok
    report(
        6, ok,
        f"oracle max dev {worst:.2e} < 1e-12 over 100 pairs; "
        f"X/Z/|0> probabilities ({p_plus}, {p_minus}) == (0, 1); "
        f"broken-switch pattern matches to 1e-12: {broken_ok}",
    )


def test_criterion_7_determinism(tmp_path):
    config = dict(REFERENCE, grid=25, R1_min=9.8, R1_max=10.4)
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for tag in "abc":
        sol = tmp_path / f"sol_{tag}.json"
        outdir = tmp_path / f"trace_{tag}"
        assert main(["search", "--config", str(cfg), "--out", str(sol)]) == 0
        assert main(["trace", "--config", str(cfg), "--out", str(outdir),
                     "--samples", "48"]) == 0
        blob = sol.read_bytes() + (tmp_path / f"sol_{tag}_curve.csv").read_bytes()
        for name in ("gamma1.csv", "gamma2.csv", "farside_gamma1.csv",
                     "farside_gamma2.csv", "meeting.json"):
            blob += (outdir / name).read_bytes()
        blobs.append(blob)
    ok = blobs[0] == blobs[1] == blobs[2]
    report(
        7, ok,
        "search+trace outputs byte-identical across three repeated runs",
    )
