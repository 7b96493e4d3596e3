"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

A workload hands out rounds.  Round r is drawn from numpy's generator seeded
with (seed, r), so a seed fixes the whole sequence however long a run lasts.
A run attempts whole rounds; every round has the same make-up (the same mix
of grid sizes, sample counts or CLI requests), which keeps the cost of a
round nearly the same from seed to seed.

`run(item)` is the timed operation.  It reaches the program only through
module attributes looked up at call time, so the tracer's wrappers see it.
`check(round_items, outputs)` runs outside the timed region and returns
failure messages; it compares against `oracle` or against properties the
method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

import oracle

REFERENCE = dict(m=1.9999, M=3.0, R2=4.0, r_i=12.0, p=9, q=10, R1_min=9.0, R1_max=11.5)
# The paper's reference solution (README, acceptance gate) at ratio 9/10.
PAPER = dict(R1=10.07219, f=0.329464, R=6.00057, r_t=11.9382)
F_EDGE = 1e-6  # the search's admissible f interval starts 1e-6*R1 above 2M

RESIDUAL_TOL = 1e-8   # switch conditions; the acceptance gate allows 1e-3
# Closed-form periods against quadrature.  The program loses up to ~3e-8 of
# a period when the apoapsis it re-derives from rest rounds one ulp above r_i
# (eta_of_radius(r_i) then returns 3e-8, not 0); 1e-7 passes that known error
# and still fails any change that breaks propagation.
PERIOD_RTOL = 1e-7
NULL_RTOL = 1e-12     # closed forms against closed forms
PROB_ATOL = 1e-12     # state algebra


def _rng(seed: int, index: int) -> np.random.Generator:
    """Stream for round `index` (-1 is the warm-up) of a run seeded with `seed`."""
    return np.random.default_rng([seed % 2**63, index + 1])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Geometry draws


def clock_rate(masses, shells, r_i) -> tuple[float, float, float]:
    dt, dtau = oracle.period(masses, shells, r_i)
    return dt, dtau, dtau / dt


def oracle_contour_ratio(m, M, R2, r_i, R1) -> float:
    """Dt1/Dt2 on the equal-clock-rate contour at R1, from oracle periods."""
    dt2, _, rate2 = clock_rate([0.0, m, M], [R2, R1], r_i)
    f_lo = (2.0 * M + F_EDGE * R1 - R2) / (R1 - R2)
    fs = np.linspace(max(f_lo, 0.0), 1.0 - F_EDGE, 25)

    def residual(f):
        R = R2 + (R1 - R2) * f
        return clock_rate([0.0, M], [R], r_i)[2] - rate2

    vals = [residual(f) for f in fs]
    for i in range(len(fs) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            f = brentq(residual, fs[i], fs[i + 1], xtol=1e-12)
            return oracle.period([0.0, M], [R2 + (R1 - R2) * f], r_i)[0] / dt2
    raise ValueError(f"no contour root at R1={R1}")


def pick_ratio(rng, lo: float, hi: float, q_max: int = 24) -> tuple[int, int]:
    """A rational p/q with q <= q_max in the middle of [lo, hi]."""
    width = hi - lo
    frac = Fraction(lo + width * rng.uniform(0.25, 0.75)).limit_denominator(q_max)
    if not lo + 0.1 * width < frac < hi - 0.1 * width:
        raise ValueError(f"ratio {frac} too near the ends of [{lo}, {hi}]")
    return frac.numerator, frac.denominator


def draw_stack(rng, n_shells: int):
    """(masses, shells, r_i) of a patch stack with a flat core.

    Masses grow outward.  The outermost shell sits near its horizon a third
    of the time; in stacks of two or more, the innermost does so half of the
    time (as R2 does in the paper's geometry).  The cycloid parametrization needs the local energy
    E_k = E L_k below 1 in every Schwarzschild patch.  With q_k the square
    of E_k at the lowest release energy E^2 = f_M(shells[-1]), crossing a
    shell inward multiplies q by f_in/f_out there; the stack is built from
    the outside in, choosing each inner mass so that q stays below Q_MAX,
    and r_i is placed where every E_k^2 = q_k f_M(r_i)/f_M(shells[-1]) < 1.
    """
    Q_MAX = 0.9
    masses = [rng.uniform(1.0, 4.0)]
    near = rng.random() < 0.33
    delta = 10.0 ** rng.uniform(-5, -2) if near else rng.uniform(0.1, 1.0)
    shells = [2.0 * masses[0] * (1.0 + delta)]
    q = q_max = 0.0
    for k in range(n_shells - 1):
        m_out, R = masses[0], shells[0]
        f_out = oracle.metric(m_out, R)
        if k == 0:
            q = f_out  # outermost Schwarzschild patch, released just above R
        # inner mass m: q * f_m(R) / f_out < Q_MAX  <=>  m > R (1 - c) / 2
        c = Q_MAX * f_out / q
        lo = max(0.3 * m_out, 0.5 * R * (1.0 - c))
        m = lo + (m_out - lo) * rng.uniform(0.2, 0.9)
        q *= oracle.metric(m, R) / f_out
        q_max = max(q_max, q)
        masses.insert(0, m)
        inner = k == n_shells - 2
        if inner and rng.random() < 0.5:
            R_in = 2.0 * m * (1.0 + 10.0 ** rng.uniform(-5, -2))
        else:
            R_in = 2.0 * m + (R - 2.0 * m) * rng.uniform(0.3, 0.8)
        shells.insert(0, R_in)
    masses.insert(0, 0.0)
    f_lo = oracle.metric(masses[-1], shells[-1])
    f_hi = min(0.99 * f_lo / q_max, 0.95) if q_max > 0.0 else 0.95
    f_ri = f_lo + (f_hi - f_lo) * rng.uniform(0.2, 0.9)
    return masses, shells, 2.0 * masses[-1] / (1.0 - f_ri)


def _patches(masses, shells):
    bounds = [0.0, *shells, None]
    return [(masses[k], bounds[k], bounds[k + 1]) for k in range(len(masses))]


# ---------------------------------------------------------------------------
# solve_geometries


class SolveGeometries:
    """Full switch solves, each on a distinct geometry near the reference."""

    # The middle three grids sit close together, so that the median latency
    # falls among near-equal solves and not between two far-apart ones.
    GRIDS = (24, 40, 56, 64, 72, 120, 200)

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed

    def round(self, index: int) -> list[dict]:
        rng = _rng(self.seed, index)
        grids = list(self.GRIDS)
        rng.shuffle(grids)
        return [self._draw(rng, grid) for grid in grids]

    def _draw(self, rng, grid: int) -> dict:
        while True:
            R2 = rng.uniform(3.95, 4.05)
            m = 0.5 * R2 * (1.0 - 10.0 ** rng.uniform(-5, -2))
            M = rng.uniform(2.9, 3.1)
            r_i = rng.uniform(11.8, 12.2)
            ends = [oracle_contour_ratio(m, M, R2, r_i, R1)
                    for R1 in (REFERENCE["R1_min"], REFERENCE["R1_max"])]
            try:
                p, q = pick_ratio(rng, min(ends), max(ends))
            except ValueError:
                continue
            d = int(rng.integers(2, 5))
            ops = {k: _unitary(rng, d) for k in "ABCD"}
            return dict(m=m, M=M, R2=R2, r_i=r_i, p=p, q=q, grid=grid,
                        psi=_state(rng, d), **ops)

    def warmup_item(self) -> dict:
        item = self.round(-1)[0]
        return {**item, "grid": self.GRIDS[0]}

    def run(self, g: dict) -> dict:
        search, switch = self.pkg.search, self.pkg.switch
        config = search.SearchConfig(
            m=g["m"], M=g["M"], R2=g["R2"], r_i=g["r_i"], p=g["p"], q=g["q"],
            R1_min=REFERENCE["R1_min"], R1_max=REFERENCE["R1_max"], grid=g["grid"],
        )
        sol = search.solve_switch_configuration(config)
        meeting = search.find_meeting_radius(sol, config)
        sched = switch.schedule(sol, meeting)
        A, B, C, D = (switch.OperatorSpec(g[k]) for k in "ABCD")
        joint = switch.run_switch(A, B, g["psi"], sched)
        broken = switch.run_general_protocol(switch.broken_switch_slots(C, D, B), g["psi"])
        return dict(
            sol=sol, meeting=meeting, sched=sched, joint=joint, broken=broken,
            plus=switch.measure_control_diagonal(joint, +1),
            minus=switch.measure_control_diagonal(joint, -1),
        )

    def check(self, items, outputs) -> list[str]:
        errors = []
        for g, out in zip(items, outputs):
            errors += [f"solve grid={g['grid']} m={g['m']!r}: {e}" for e in self._check(g, out)]
        return errors

    @staticmethod
    def _check(g, out) -> list[str]:
        errors = []
        sol, meeting, sched = out["sol"], out["meeting"], out["sched"]
        m, M, R2, r_i = g["m"], g["M"], g["R2"], g["r_i"]
        errors += check_solution(m, M, R2, r_i, g["p"] / g["q"], sol.R1, sol.f, sol.R)
        dt1, dtau1 = oracle.period([0.0, M], [sol.R], r_i)
        dt2, dtau2 = oracle.period([0.0, m, M], [R2, sol.R1], r_i)
        errors += check_meeting(M, r_i, sol.R1, dt1, dtau1, dtau2, meeting.r_t, meeting.t_A1)
        if not sched.t_A1 < sched.t_B < sched.t_A2:
            errors.append("schedule out of order")
        A, B, C, D, psi = (g[k] for k in ("A", "B", "C", "D", "psi"))
        p_plus, p_minus = oracle.switch_probabilities(A, B, psi)
        if abs(out["plus"].probability - p_plus) > PROB_ATOL:
            errors.append(f"P+ {out['plus'].probability} != {p_plus}")
        if abs(out["minus"].probability - p_minus) > PROB_ATOL:
            errors.append(f"P- {out['minus'].probability} != {p_minus}")
        plain = np.concatenate([B @ (A @ psi), A @ (B @ psi)]) / math.sqrt(2.0)
        if np.abs(out["joint"].amplitudes - plain).max() > PROB_ATOL:
            errors.append("switch output differs from B A psi (+) A B psi")
        if np.abs(out["broken"].amplitudes - oracle.broken_switch_joint(B, C, D, psi)).max() > PROB_ATOL:
            errors.append("broken-switch output differs from C B psi (+) B D psi")
        return errors


def check_solution(m, M, R2, r_i, target, R1, f, R) -> list[str]:
    """Both switch conditions, evaluated with oracle periods at (R1, f)."""
    errors = []
    if _rel(R, R2 + (R1 - R2) * f) > 1e-12:
        errors.append(f"R={R} is not R2 + (R1 - R2) f")
    if not (2.0 * M < R < R1 and REFERENCE["R1_min"] <= R1 <= REFERENCE["R1_max"]):
        errors.append(f"geometry out of range: R={R}, R1={R1}")
        return errors
    dt1, dtau1, rate1 = clock_rate([0.0, M], [R], r_i)
    dt2, dtau2, rate2 = clock_rate([0.0, m, M], [R2, R1], r_i)
    if abs(rate1 - rate2) > RESIDUAL_TOL:
        errors.append(f"clock-rate residual {rate1 - rate2:.3e}")
    if abs(dt1 / dt2 - target) > RESIDUAL_TOL:
        errors.append(f"period-ratio residual {dt1 / dt2 - target:.3e}")
    return errors


def check_meeting(M, r_i, R1, dt1, dtau1, dtau2, r_t, t_A1) -> list[str]:
    """Equal proper time at r_t on the first far-side excursion."""
    if not R1 < r_t < r_i:
        return [f"meeting radius {r_t} outside (R1, r_i)"]
    t_e, tau_e = oracle.exterior_spans(M, r_i, r_t)
    errors = []
    gap = (0.5 * dtau1 + tau_e) - (0.5 * dtau2 - tau_e)
    if abs(gap) > RESIDUAL_TOL * dtau1:
        errors.append(f"proper-time gap {gap:.3e} at r_t")
    if _rel(t_A1, 0.5 * dt1 + t_e) > PERIOD_RTOL:
        errors.append(f"t_A1 {t_A1} != {0.5 * dt1 + t_e}")
    return errors


# ---------------------------------------------------------------------------
# propagate_stacks


class PropagateStacks:
    """Periods, trajectories, light rays and shell stresses on seeded stacks."""

    # 30 sample counts spaced evenly in log from 250 to 2500: every round has
    # the same cost mix, and no gap in it sits at the median.
    SAMPLES = tuple(int(round(250 * 10 ** (i / 29))) for i in range(30))

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed

    def round(self, index: int) -> list[dict]:
        """Each sample count once, each shell count (1-6) five times, paired at random."""
        rng = _rng(self.seed, index)
        samples = rng.permutation(self.SAMPLES)
        return [self._draw(rng, i % 6 + 1, int(n)) for i, n in enumerate(samples)]

    def _draw(self, rng, n_shells: int, samples: int) -> dict:
        masses, shells, r_i = draw_stack(rng, n_shells)
        periods = int(rng.integers(2, 5))
        step = max(1, round(samples / periods))
        radii = rng.uniform(0.0, 1.3 * r_i, size=8)
        r_a = rng.uniform(shells[-1], r_i)
        return dict(
            masses=masses, shells=shells, r_i=r_i, periods=periods,
            step=step, samples=periods * step + 1,
            null_pairs=[(radii[0], radii[1]), (radii[2], radii[3]), (radii[4], radii[5])],
            diametral=(radii[6], radii[7]),
            exchange=(r_a, rng.uniform(r_a * 1.01, 2.0 * r_i), rng.uniform(0.0, 100.0)),
        )

    def warmup_item(self) -> dict:
        return self.round(-1)[0]

    def run(self, s: dict) -> dict:
        spacetime, geodesic = self.pkg.spacetime, self.pkg.geodesic
        st = spacetime.build_spacetime(
            [spacetime.PatchSpec(*p) for p in _patches(s["masses"], s["shells"])]
        )
        r_i = s["r_i"]
        dt, dtau, _ = geodesic.oscillation_period(st, r_i)
        traj = geodesic.trajectory(st, r_i, s["periods"] * dt, s["samples"])
        nulls = [geodesic.null_crossing_time(st, a, b) for a, b in s["null_pairs"]]
        diametral = geodesic.diametral_crossing_time(st, *s["diametral"])
        stress = [spacetime.shell_stress(st, j) for j in range(len(s["shells"]))]
        gaps = [spacetime.induced_metric_gap(st, j) for j in range(len(s["shells"]))]
        r_a, r_b, tau_a = s["exchange"]
        exchange = geodesic.static_exchange(r_a, r_b, tau_a, s["masses"][-1])
        return dict(dt=dt, dtau=dtau, traj=traj, nulls=nulls, diametral=diametral,
                    stress=stress, gaps=gaps, exchange=exchange, lapses=st.lapses)

    def check(self, items, outputs) -> list[str]:
        errors = []
        for s, out in zip(items, outputs):
            errors += [f"stack {s['shells']!r}: {e}" for e in self._check(s, out)]
        return errors

    @staticmethod
    def _check(s, out) -> list[str]:
        errors = []
        masses, shells, r_i = s["masses"], s["shells"], s["r_i"]
        errors += check_period(masses, shells, r_i, out["dt"], out["dtau"])
        _, dtau = oracle.period(masses, shells, r_i)
        traj = out["traj"]
        if len(traj) != s["samples"]:
            errors.append(f"{len(traj)} samples, asked for {s['samples']}")
        ts = [row[0] for row in traj]
        rs = [row[1] for row in traj]
        taus = [row[2] for row in traj]
        if any(b < a for a, b in zip(taus, taus[1:])):
            errors.append("tau decreases along the trajectory")
        if any(b < a for a, b in zip(ts, ts[1:])):
            errors.append("t_global decreases along the trajectory")
        if min(rs) < 0.0 or max(rs) > r_i * (1.0 + 1e-12):
            errors.append("radius leaves [0, r_i]")
        for n in range(s["periods"] + 1):
            i = n * s["step"]
            if abs(rs[i] - r_i) > 1e-9 * r_i:
                errors.append(f"r={rs[i]!r} after {n} periods, expected r_i={r_i!r}")
            if abs(taus[i] - n * dtau) > PERIOD_RTOL * max(n, 1) * dtau:
                errors.append(f"tau={taus[i]!r} after {n} periods, expected {n * dtau!r}")
        for (a, b), got in zip(s["null_pairs"], out["nulls"]):
            want = oracle.null_time(masses, shells, a, b)
            if _rel(got, want) > NULL_RTOL and abs(got - want) > 1e-13:
                errors.append(f"null time {a}->{b}: {got} != {want}")
        a, b = s["diametral"]
        want = oracle.null_time(masses, shells, a, 0.0) + oracle.null_time(masses, shells, 0.0, b)
        if _rel(out["diametral"], want) > NULL_RTOL:
            errors.append(f"diametral time {out['diametral']} != {want}")
        errors += check_shells(masses, shells, out["lapses"],
                               [st.rho for st in out["stress"]], out["gaps"])
        if any(st.P_radial != 0.0 for st in out["stress"]):
            errors.append("nonzero radial pressure")
        r_a, r_b, tau_a = s["exchange"]
        M = masses[-1]
        want = math.sqrt(oracle.metric(M, r_b)) * (
            tau_a / math.sqrt(oracle.metric(M, r_a)) + oracle.null_time([M], [], r_a, r_b)
        )
        if _rel(out["exchange"], want) > NULL_RTOL:
            errors.append(f"static exchange {out['exchange']} != {want}")
        return errors


def check_period(masses, shells, r_i, dt, dtau) -> list[str]:
    want_dt, want_dtau = oracle.period(masses, shells, r_i)
    errors = []
    if _rel(dt, want_dt) > PERIOD_RTOL:
        errors.append(f"period dt {dt!r} != {want_dt!r}")
    if _rel(dtau, want_dtau) > PERIOD_RTOL:
        errors.append(f"period dtau {dtau!r} != {want_dtau!r}")
    return errors


def check_shells(masses, shells, lapses, rhos, gaps) -> list[str]:
    errors = []
    for got, want in zip(lapses, oracle.lapses(masses, shells)):
        if _rel(got, want) > 1e-12:
            errors.append(f"lapse {got!r} != {want!r}")
    for j, R in enumerate(shells):
        want = oracle.shell_density(masses[j], masses[j + 1], R)
        if abs(rhos[j] - want) > 1e-12 * max(abs(want), 1.0 / (4.0 * math.pi * R)):
            errors.append(f"rho at R={R!r}: {rhos[j]!r} != {want!r}")
        if abs(gaps[j]) > 1e-12 * R * R:
            errors.append(f"induced-metric gap {gaps[j]!r} at R={R!r}")
    return errors


# ---------------------------------------------------------------------------
# cli_session


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


class CliSession:
    """A fixed session of in-process `shellswitch` commands, replayed each round.

    The geometry is the paper's reference.  Ten searches at distinct ratios
    and grids, two traces and one branch-mode lightray at grid 24, and one
    each of period, validate, stress and switch on generated configs.  The
    search grids spread the searches' costs evenly, so that the median
    latency does not sit at the edge of a cluster of equal requests.  Rounds
    repeat the same requests, so every round after the first must reproduce
    the first round's files byte for byte.
    """

    GRID = 24
    SEARCH_GRIDS = (16, 18, 20, 22, 24, 27, 30, 34, 40, 48)
    # Ten of the 17 fractions with q <= 30 in the middle 70% of the reference
    # contour's attainable interval [0.8387, 0.9222], evenly spread, 9/10
    # among them, each with a fixed grid: a search's cost depends on both,
    # so fixing the pairs fixes a round's cost mix, whatever the seed.
    RATIOS = ((23, 27), (25, 29), (13, 15), (20, 23), (22, 25),
              (23, 26), (25, 28), (17, 19), (9, 10), (10, 11))

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.dir = workdir
        rng = _rng(seed, 0)
        cfg = self.dir / "config"
        cfg.mkdir(parents=True, exist_ok=True)
        search_doc = {**REFERENCE, "grid": self.GRID, "tol": 1e-10}
        _write_json(cfg / "search.json", search_doc)
        for grid in self.SEARCH_GRIDS:
            _write_json(cfg / f"search_g{grid}.json", {**search_doc, "grid": grid})
        self.lightray = dict(r_a=float(rng.uniform(0.0, 12.0)), r_b=float(rng.uniform(0.0, 12.0)),
                             diametral=bool(rng.random() < 0.5))
        _write_json(cfg / "lightray.json", {**search_doc, **self.lightray})
        self.stack = draw_stack(rng, int(rng.integers(1, 7)))
        masses, shells, r_i = self.stack
        _write_json(cfg / "stack.json", {
            "patches": [{"mass": m, "r_min": lo, "r_max": hi} for m, lo, hi in _patches(masses, shells)],
            "r_i": r_i,
        })
        d = int(rng.integers(2, 5))
        self.ops = {k: _unitary(rng, d) for k in "ABCD"}
        self.psi = _state(rng, d)
        self.broken = bool(rng.random() < 0.5)
        switch_doc = {"psi": [[z.real, z.imag] for z in self.psi]}
        for k in ("ABCD" if self.broken else "AB"):
            switch_doc[k] = [[[z.real, z.imag] for z in row] for row in self.ops[k]]
        _write_json(cfg / "switch.json", switch_doc)

        out = self.dir / "out"
        out.mkdir()
        requests = []
        for (p, q), grid in zip(self.RATIOS, self.SEARCH_GRIDS):
            path = out / f"search_{p}_{q}.json"
            requests.append(dict(kind="search", ratio=(p, q), grid=grid, path=path, argv=[
                "search", "--config", str(cfg / f"search_g{grid}.json"), "--out", str(path),
                "--ratio", f"{p}/{q}"]))
        other = self.RATIOS[int(rng.integers(0, len(self.RATIOS)))]
        for k, (p, q) in enumerate([(9, 10), other]):
            path = out / f"trace{k}"
            samples = int(rng.integers(64, 513))
            requests.append(dict(kind="trace", ratio=(p, q), path=path, samples=samples, argv=[
                "trace", "--config", str(cfg / "search.json"), "--out", str(path),
                "--samples", str(samples), "--ratio", f"{p}/{q}"]))
        for kind, doc in (("lightray", "lightray"), ("period", "stack"), ("validate", "stack"),
                          ("stress", "stack"), ("switch", "switch")):
            path = out / f"{kind}.json"
            requests.append(dict(kind=kind, path=path, argv=[
                kind, "--config", str(cfg / f"{doc}.json"), "--out", str(path)]))
        order = rng.permutation(len(requests))
        self.requests = [requests[i] for i in order]
        self.first_hashes: dict[str, str] | None = None
        self.round_bytes = 0  # bytes of the files the last checked round wrote

    def round(self, index: int) -> list[dict]:
        return self.requests

    def warmup_item(self) -> dict:
        req = next(r for r in self.requests if r["kind"] == "search")
        path = self.dir / "warmup.json"
        argv = list(req["argv"])
        argv[argv.index("--out") + 1] = str(path)
        return dict(req, argv=argv, path=path)

    def run(self, req: dict) -> int:
        return self.pkg.cli.main(req["argv"])

    @staticmethod
    def files(req: dict) -> list[Path]:
        path = req["path"]
        if req["kind"] == "search":
            return [path, path.with_name(path.stem + "_curve.csv")]
        if req["kind"] == "trace":
            return sorted(path.iterdir()) if path.is_dir() else []
        return [path]

    def check(self, items, outputs) -> list[str]:
        try:
            return self._check_round(items, outputs)
        finally:
            # every round has to write its files again, or stale ones would pass
            for req in items:
                for f in self.files(req):
                    f.unlink(missing_ok=True)

    def _check_round(self, items, outputs) -> list[str]:
        errors = []
        for req, code in zip(items, outputs):
            if code != 0:
                errors.append(f"{' '.join(req['argv'][:1])} exited {code}")
        if errors:
            return errors
        data = {str(f): f.read_bytes() for req in items for f in self.files(req)}
        self.round_bytes = sum(map(len, data.values()))
        hashes = {k: hashlib.sha256(v).hexdigest() for k, v in data.items()}
        if self.first_hashes is None:
            self.first_hashes = hashes
            for req in items:
                errors += [f"{req['kind']} {req['path'].name}: {e}" for e in self._check(req)]
        elif hashes != self.first_hashes:
            first = self.first_hashes
            changed = sorted(k for k in hashes.keys() | first.keys() if hashes.get(k) != first.get(k))
            errors.append(f"repeated requests changed files: {changed}")
        return errors

    def _check(self, req) -> list[str]:
        ref = REFERENCE
        kind = req["kind"]
        if kind == "search":
            sol = json.loads(req["path"].read_text())
            p, q = req["ratio"]
            errors = check_solution(ref["m"], ref["M"], ref["R2"], ref["r_i"], p / q,
                                    sol["R1"], sol["f"], sol["R"])
            curve = req["path"].with_name(req["path"].stem + "_curve.csv").read_text().split("\n")
            if curve[0] != "R1,f,ratio" or not 2 <= len(curve) - 2 <= req["grid"]:
                errors.append("malformed contour table")
            if (p, q) == (9, 10):
                errors += check_paper(sol)
            return errors
        if kind == "trace":
            doc = json.loads((req["path"] / "meeting.json").read_text())
            sol, meeting = doc["solution"], doc["meeting"]
            p, q = req["ratio"]
            errors = check_solution(ref["m"], ref["M"], ref["R2"], ref["r_i"], p / q,
                                    sol["R1"], sol["f"], sol["R"])
            dt1, dtau1 = oracle.period([0.0, ref["M"]], [sol["R"]], ref["r_i"])
            _, dtau2 = oracle.period([0.0, ref["m"], ref["M"]], [ref["R2"], sol["R1"]], ref["r_i"])
            errors += check_meeting(ref["M"], ref["r_i"], sol["R1"], dt1, dtau1, dtau2,
                                    meeting["r_t"], meeting["t_A1"])
            if not meeting["t_A1"] < meeting["t_A2"]:
                errors.append("t_A1 >= t_A2")
            if (p, q) == (9, 10):
                errors += check_paper({**sol, "r_t": meeting["r_t"]})
            for name in ("gamma1", "gamma2"):
                rows = (req["path"] / f"{name}.csv").read_text().split("\n")[1:-1]
                table = [[float(x) for x in row.split(",")] for row in rows]
                if len(table) != req["samples"]:
                    errors.append(f"{name}.csv has {len(table)} rows")
                    continue
                if any(b[2] < a[2] for a, b in zip(table, table[1:])):
                    errors.append(f"{name}.csv: tau decreases")
                # q Dt1 = p Dt2: both branches are back at r_i at the last sample
                if abs(table[-1][1] - ref["r_i"]) > 1e-6 * ref["r_i"]:
                    errors.append(f"{name}.csv ends at r={table[-1][1]}, not r_i")
            return errors
        if kind == "lightray":
            return self._check_lightray(req)
        masses, shells, r_i = self.stack
        doc = json.loads(req["path"].read_text())
        if kind == "period":
            return check_period(masses, shells, r_i, doc["dt_global"], doc["dtau"]) + (
                [] if len(doc["legs"]) == len(masses) else ["one leg per patch expected"])
        if kind == "validate":
            errors = check_shells(masses, shells, doc["lapses"],
                                  [sh["rho"] for sh in doc["shells"]],
                                  [sh["junction_gap"] for sh in doc["shells"]])
            return errors + ([f"warnings: {doc['warnings']}"] if doc["warnings"] else [])
        if kind == "stress":
            recs = [doc[repr(R)] for R in shells]
            return check_shells(masses, shells, oracle.lapses(masses, shells),
                                [r["rho"] for r in recs], [0.0] * len(shells))
        if kind == "switch":
            return self._check_switch(doc)
        return [f"unknown request {kind}"]

    def _check_lightray(self, req) -> list[str]:
        # the branch geometries come from the 9/10 search of the same session
        search = next(r for r in self.requests if r["kind"] == "search" and r["ratio"] == (9, 10))
        sol = json.loads(search["path"].read_text())
        doc = json.loads(req["path"].read_text())
        ref, ray = REFERENCE, self.lightray
        errors = []
        for key, masses, shells in (("dt_branch1", [0.0, ref["M"]], [sol["R"]]),
                                    ("dt_branch2", [0.0, ref["m"], ref["M"]], [ref["R2"], sol["R1"]])):
            if ray["diametral"]:
                want = (oracle.null_time(masses, shells, ray["r_a"], 0.0)
                        + oracle.null_time(masses, shells, 0.0, ray["r_b"]))
            else:
                want = oracle.null_time(masses, shells, ray["r_a"], ray["r_b"])
            if _rel(doc[key], want) > 1e-9:
                errors.append(f"{key} {doc[key]!r} != {want!r}")
        return errors

    def _check_switch(self, doc) -> list[str]:
        A, B, C, D = (self.ops[k] for k in "ABCD")
        psi = self.psi
        joint = np.array([complex(re, im) for re, im in doc["joint_state"]])
        if self.broken:
            want = oracle.broken_switch_joint(B, C, D, psi)
            a, b = want[:len(psi)], want[len(psi):]
            p_plus = float(np.vdot(a + b, a + b).real) / 2.0
            p_minus = float(np.vdot(a - b, a - b).real) / 2.0
        else:
            want = np.concatenate([B @ (A @ psi), A @ (B @ psi)]) / math.sqrt(2.0)
            p_plus, p_minus = oracle.switch_probabilities(A, B, psi)
        errors = []
        if np.abs(joint - want).max() > 1e-12:
            errors.append("joint state differs from the operator products")
        meas = doc["measurement"]
        if abs(meas["plus"]["probability"] - p_plus) > 1e-12:
            errors.append(f"P+ {meas['plus']['probability']} != {p_plus}")
        if abs(meas["minus"]["probability"] - p_minus) > 1e-12:
            errors.append(f"P- {meas['minus']['probability']} != {p_minus}")
        return errors


def check_paper(doc: dict) -> list[str]:
    """The paper's reference numbers at ratio 9/10, to the digits it quotes."""
    errors = []
    for key, want in PAPER.items():
        if key in doc and abs(doc[key] - want) > 0.6 * 10.0 ** (-len(repr(want).split(".")[1])):
            errors.append(f"{key}={doc[key]!r}, paper {want}")
    return errors


WORKLOADS = {
    "solve_geometries": SolveGeometries,
    "propagate_stacks": PropagateStacks,
    "cli_session": CliSession,
}
