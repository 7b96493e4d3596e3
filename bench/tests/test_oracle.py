"""Tests of the benchmark's oracle, workloads and tracer.

    python3 -m pytest bench/tests -q

The oracle is held to 50-digit mpmath quadrature and to identities of the
thin-shell junction; the workloads' checks must pass on the program as it
is; the traced counts must repeat exactly and match the reference figures.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

mp.mp.dps = 50


def mp_period(masses, shells, r_i):
    """Full period from 50-digit tanh-sinh quadrature of each patch."""
    masses = [mp.mpf(m) for m in masses]
    bounds = [mp.mpf(0)] + [mp.mpf(R) for R in shells] + [mp.mpf(r_i)]

    def f(m, r):
        return 1 - 2 * m / r

    n = len(masses)
    L = [mp.mpf(1)] * n
    for k in range(n - 2, -1, -1):
        R = bounds[k + 1]
        L[k] = L[k + 1] * mp.sqrt(f(masses[k], R) / f(masses[k + 1], R))
    E = mp.sqrt(f(masses[-1], bounds[-1]))
    dt = dtau = mp.mpf(0)
    for k in range(n - 1):
        Ek, m, a, b = E * L[k], masses[k], bounds[k], bounds[k + 1]
        dtau += mp.quad(lambda r: 1 / mp.sqrt(Ek**2 - f(m, r)), [a, b])
        dt += L[k] * mp.quad(lambda r: Ek / (f(m, r) * mp.sqrt(Ek**2 - f(m, r))), [a, b])
    # release patch: r = b - s^2 removes the inverse square root at rest
    m, a, b = masses[-1], bounds[-2], bounds[-1]

    def dtau_ds(s):
        r = b - s * s
        return 2 * mp.sqrt(r * b / (2 * m))

    dtau += mp.quad(dtau_ds, [0, mp.sqrt(b - a)])
    dt += mp.quad(lambda s: E * dtau_ds(s) / f(m, b - s * s), [0, mp.sqrt(b - a)])
    return 4 * dt, 4 * dtau


STACKS = [
    ([0.0, 3.0], [6.00057], 12.0),                      # reference one-shell branch
    ([0.0, 1.9999, 3.0], [4.0, 10.07219], 12.0),        # reference two-shell branch
    ([0.0, 3.0], [6.0 + 6e-6], 11.5),                   # shell 1e-6 from its horizon
    ([0.0, 0.7, 1.1, 1.6], [1.40002, 2.9, 3.6], 4.0),   # inner shell next to its horizon
]


@pytest.mark.parametrize("masses, shells, r_i", STACKS)
def test_period_matches_50_digit_quadrature(masses, shells, r_i):
    dt, dtau = oracle.period(masses, shells, r_i)
    want_dt, want_dtau = mp_period(masses, shells, r_i)
    assert abs(dt / float(want_dt) - 1.0) < 1e-13
    assert abs(dtau / float(want_dtau) - 1.0) < 1e-13


def test_generated_stacks_match_50_digit_quadrature():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        masses, shells, r_i = workloads.draw_stack(rng, n)
        dt, dtau = oracle.period(masses, shells, r_i)
        want_dt, want_dtau = mp_period(masses, shells, r_i)
        assert abs(dt / float(want_dt) - 1.0) < 1e-12, (masses, shells, r_i)
        assert abs(dtau / float(want_dtau) - 1.0) < 1e-12, (masses, shells, r_i)


def test_generated_stacks_keep_local_energy_below_one():
    rng = np.random.default_rng(11)
    for i in range(300):
        masses, shells, r_i = workloads.draw_stack(rng, i % 6 + 1)
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert all(a < b for a, b in zip(shells, shells[1:])) and shells[-1] < r_i
        assert max(oracle.energies(masses, shells, r_i)[1:]) < 1.0


def test_null_time_matches_quadrature():
    masses, shells = [0.0, 1.9999, 3.0], [4.0, 10.07219]
    L = oracle.lapses(masses, shells)
    want = mp.mpf(0)
    bounds = [0.0, *shells, 12.0]
    for k, m in enumerate(masses):
        want += L[k] * mp.quad(lambda r: r / (r - 2 * mp.mpf(m)), [bounds[k], bounds[k + 1]])
    assert abs(oracle.null_time(masses, shells, 12.0, 0.0) / float(want) - 1.0) < 1e-14


def test_shell_density_satisfies_mass_relation():
    # (sqrt f_in - sqrt f_out)(sqrt f_in + sqrt f_out) = 2 (m_out - m_in) / R
    for m_in, m_out, R in [(0.0, 3.0, 6.00057), (1.9999, 3.0, 10.07), (0.5, 0.6, 1.3)]:
        rho = oracle.shell_density(m_in, m_out, R)
        s = math.sqrt(oracle.metric(m_in, R)) + math.sqrt(oracle.metric(m_out, R))
        assert math.isclose(2.0 * math.pi * R * R * rho * s, m_out - m_in, rel_tol=1e-12)


def test_lapses_make_induced_metric_continuous():
    masses, shells = [0.0, 0.7, 1.1, 1.6], [1.40002, 2.9, 3.6]
    L = oracle.lapses(masses, shells)
    for j, R in enumerate(shells):
        inner = oracle.metric(masses[j], R) / L[j] ** 2
        outer = oracle.metric(masses[j + 1], R) / L[j + 1] ** 2
        assert math.isclose(inner, outer, rel_tol=1e-14)


def test_switch_probabilities():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    psi = np.array([1, 0], dtype=complex)
    assert oracle.switch_probabilities(X, Z, psi) == (0.0, 1.0)  # {X, Z} = 0
    rng = np.random.default_rng(3)
    A, B = workloads._unitary(rng, 3), workloads._unitary(rng, 3)
    p, m = oracle.switch_probabilities(A, B, workloads._state(rng, 3))
    assert math.isclose(p + m, 1.0, rel_tol=1e-14)


def test_rounds_are_fixed_by_the_seed(tmp_out):
    pkg = load_program()
    for cls in (workloads.SolveGeometries, workloads.PropagateStacks):
        a, b = cls(pkg, 5, tmp_out).round(2), cls(pkg, 5, tmp_out).round(2)
        for x, y in zip(a, b):
            assert x.keys() == y.keys()
            for k in x:
                assert np.array_equal(np.asarray(x[k], dtype=object), np.asarray(y[k], dtype=object))


# ---------------------------------------------------------------------------
# The workloads' checks pass on the program, and the traced counts repeat.


@pytest.fixture
def tmp_out():
    out = BENCH / "_out" / "tests"
    out.mkdir(parents=True, exist_ok=True)
    yield out
    import shutil
    shutil.rmtree(out, ignore_errors=True)


def load_program():
    import importlib

    pkg = importlib.import_module("shellswitch")
    for layer in ("spacetime", "geodesic", "search", "switch", "cli"):
        importlib.import_module(f"shellswitch.{layer}")
    return pkg


def run_round(workload, items, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        outputs = []
        for item in items:
            outputs.append(workload.run(item))
            if tracer is not None:
                tracer.end_op(1.0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return workload.check(items, outputs)


def test_propagate_round_passes_checks_and_counts_repeat(tmp_out):
    from tracer import Tracer

    pkg = load_program()
    workload = workloads.PropagateStacks(pkg, 3, tmp_out)
    items = workload.round(0)
    counts = []
    for _ in range(2):
        tracer = Tracer(pkg)
        assert run_round(workload, items, tracer) == []
        counts.append(dict(tracer.calls))
    assert counts[0] == counts[1]
    assert counts[0]["geodesic.trajectory.samples"] == sum(s["samples"] for s in items)


def test_solve_checks_pass_on_small_grids(tmp_out):
    pkg = load_program()
    workload = workloads.SolveGeometries(pkg, 4, tmp_out)
    items = [dict(item, grid=12) for item in workload.round(0)[:2]]
    assert run_round(workload, items) == []


def test_solve_checks_catch_a_wrong_solution(tmp_out):
    from dataclasses import replace

    pkg = load_program()
    workload = workloads.SolveGeometries(pkg, 4, tmp_out)
    item = dict(workload.round(0)[0], grid=12)
    out = workload.run(item)
    sol = out["sol"]
    f = sol.f * (1.0 + 1e-5)
    wrong = replace(sol, f=f, R=item["R2"] + (sol.R1 - item["R2"]) * f)
    assert any("clock-rate residual" in e for e in workload.check([item], [dict(out, sol=wrong)]))


def test_reference_solve_counts():
    """Work counts of one reference solve at grid 200 (ROADMAP baseline)."""
    from tracer import Tracer

    pkg = load_program()
    config = pkg.search.SearchConfig(**workloads.REFERENCE, grid=200)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        pkg.search.solve_switch_configuration(config)
    finally:
        tracer.uninstall()
    assert tracer.calls["geodesic.oscillation_period"] == 31_724
    assert tracer.calls["search.ratio_residual"] == 15_656
    assert tracer.calls["search.solve_contour"] == 206
    assert tracer.calls["geodesic.replace"] == 237_930


def test_cli_search_traces_the_contour_twice(tmp_out):
    import json

    from tracer import Tracer

    pkg = load_program()
    config = tmp_out / "grid40.json"
    config.write_text(json.dumps({**workloads.REFERENCE, "grid": 40}))
    tracer = Tracer(pkg)
    tracer.install()
    try:
        code = pkg.cli.main(["search", "--config", str(config), "--out", str(tmp_out / "s.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["search.period_ratio_curve"] == 2
    assert tracer.calls["search.solve_contour"] == 87
