#!/usr/bin/env python3
"""Reproduce the reference switch geometry end to end.

Solves the two geometry conditions over the (R1, f) plane, locates the
far-side meeting radius, assembles the event schedule, and runs the X/Z
switch verification on |0>.  Writes a JSON summary next to the CSV of the
contour the solve traced.

Usage:
    python3 scripts/reproduce_solution.py [--out results/] [--grid N]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shellswitch.cli import _write_csv
from shellswitch.search import SearchConfig, find_meeting_radius, solve_switch_configuration
from shellswitch.switch import OperatorSpec, measure_control_diagonal, run_switch, schedule


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--grid", type=int, default=200)
    args = ap.parse_args()

    config = SearchConfig(
        m=1.9999, M=3.0, R2=4.0, r_i=12.0, p=9, q=10,
        R1_min=9.0, R1_max=11.5, grid=args.grid,
    )

    start = time.perf_counter()
    solution = solve_switch_configuration(config)
    meeting = find_meeting_radius(solution, config)
    sched = schedule(solution, meeting)
    elapsed = time.perf_counter() - start

    print(f"solved in {elapsed:.2f} s")
    print(f"  R1 = {solution.R1:.10g}")
    print(f"  f  = {solution.f:.10g}")
    print(f"  R  = {solution.R:.10g}")
    print(f"  Dt1/Dt2 = {solution.achieved_ratio:.12g}  (target {config.p}/{config.q})")
    print(f"  clock residual = {solution.clock_residual:.3e}")
    print(f"  meeting radius r_t = {meeting.r_t:.10g}")
    print(f"  t_A1 = {meeting.t_A1:.6f} < t_B = {sched.t_B:.6f} "
          f"< t_A2 = {meeting.t_A2:.6f}")

    # switch verification: A = X, B = Z on |0>
    X = OperatorSpec(np.array([[0, 1], [1, 0]], dtype=complex))
    Z = OperatorSpec(np.array([[1, 0], [0, -1]], dtype=complex))
    joint = run_switch(X, Z, np.array([1.0, 0.0], dtype=complex), sched)
    plus = measure_control_diagonal(joint, +1)
    minus = measure_control_diagonal(joint, -1)
    print(f"  X/Z switch on |0>: p(+) = {plus.probability}, "
          f"p(-) = {minus.probability}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "solution": solution.as_dict(),
        "meeting": meeting.as_dict(),
        "schedule": {
            "tau_A": sched.tau_A, "t_A1": sched.t_A1, "t_A2": sched.t_A2,
            "t_B": sched.t_B, "tau_B": sched.tau_B, "t_f": sched.t_f,
        },
        "runtime_seconds": elapsed,
    }
    (outdir / "solution.json").write_text(json.dumps(summary, indent=2) + "\n")
    _write_csv(outdir / "contour.csv", "R1,f,ratio", solution.curve)
    print(f"wrote {outdir / 'solution.json'} and {outdir / 'contour.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
