"""Check that the calibration kernel steadies both kinds of code the program runs.

    python3 bench/calibration_check.py

Runs two operations, each in PROCESSES fresh processes of SECONDS: a scalar-bound
`trajectory` call (the geodesic kernel's pure-Python bisection) and a
numpy-bound one (unitarity check and switch evolution with 128-dimensional
operators).  For each process it prints the raw and the calibrated median
latency, then the spread of each across processes, as (max - min) / median.
Run it from the root of a source checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OPS = ("trajectory", "numpy_switch")
PROCESSES = 5
SECONDS = 10.0


def make_op(name: str):
    sys.path.insert(0, str(BENCH.parent / "src"))
    import numpy as np
    from shellswitch import PatchSpec, build_spacetime, trajectory
    from shellswitch.switch import OperatorSpec, broken_switch_slots, run_general_protocol

    if name == "trajectory":
        st = build_spacetime([PatchSpec(0.0, 0.0, 4.0), PatchSpec(1.9999, 4.0, 10.07219),
                              PatchSpec(3.0, 10.07219, None)])
        return lambda: trajectory(st, 12.0, 300.0, 40)
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(3):
        z = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        q, r = np.linalg.qr(z)
        mats.append(q * (np.diag(r) / np.abs(np.diag(r))))
    psi = np.ones(128, dtype=complex) / np.sqrt(128)

    def op():
        specs = [OperatorSpec(m) for m in mats]
        return run_general_protocol(broken_switch_slots(*specs), psi)

    return op


def child(name: str) -> None:
    sys.path.insert(0, str(BENCH))
    from calibrate import timed

    op = make_op(name)
    op()
    raw, cal = [], []
    deadline = time.perf_counter() + SECONDS
    while time.perf_counter() < deadline:
        _, r, c = timed(op)
        raw.append(r)
        cal.append(c)
    print(json.dumps({"n": len(raw), "raw": statistics.median(raw), "cal": statistics.median(cal)}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"] and len(argv) == 2 and argv[1] in OPS:
        child(argv[1])
        return 0
    if argv:
        sys.exit(__doc__)
    for name in OPS:
        rows = []
        for _ in range(PROCESSES):
            out = subprocess.run(
                [sys.executable, __file__, "--child", name],
                check=True, capture_output=True, text=True,
            ).stdout
            rows.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{name:13s} n={rows[-1]['n']:6d} raw median {rows[-1]['raw'] * 1e3:8.4f} ms"
                  f"  calibrated {rows[-1]['cal'] * 1e3:8.4f} ms", flush=True)
        for key in ("raw", "cal"):
            vals = [r[key] for r in rows]
            print(f"{name:13s} {key:3s} across processes: {min(vals) * 1e3:.4f}-{max(vals) * 1e3:.4f} ms,"
                  f" spread {(max(vals) - min(vals)) / statistics.median(vals):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
