"""shellswitch benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  The run attempts whole rounds of its workload until S
seconds have passed, checks every output outside the timed regions, and
prints one JSON object as its last line.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it runs one round untraced and the same
round traced, and reports the per-layer metrics.  Timings are scaled to a
reference speed by the calibration kernel (see calibrate.py); the raw figures
are printed on the lines before the result.
"""

from __future__ import annotations

import os

# One thread: pin the BLAS pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_PROBES = 5


def import_program():
    """Import shellswitch from this checkout's src/, never from elsewhere."""
    if not (SRC / "shellswitch" / "__init__.py").is_file():
        sys.exit(f"bench: no shellswitch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    pkg = importlib.import_module("shellswitch")
    if Path(pkg.__file__).resolve().parent != SRC / "shellswitch":
        sys.exit(f"bench: imported shellswitch from {pkg.__file__}, not {SRC}")
    for layer in ("spacetime", "geodesic", "search", "switch", "cli"):
        importlib.import_module(f"shellswitch.{layer}")
    return pkg


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up only (import and generate inputs), then exit")
    return ap.parse_args(argv)


def make_workload(pkg, name: str, seed: int, workdir: Path):
    """The workload and its round-0 items: set-up includes making the inputs."""
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name](pkg, seed, workdir)
    return workload, workload.round(0)


def measure_setup(args) -> tuple[float, float]:
    """Median (calibrated, raw) set-up time over fresh interpreters.

    Each probe times the kernel itself when it starts and when it is set up,
    and the parent does so around it; the parent samples nothing while the
    probe runs, since on two cores it would compete with the probe.
    """
    from calibrate import NOMINAL_KERNEL_S, kernel_time

    cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, cal = [], []
    for _ in range(SETUP_PROBES):
        k0 = kernel_time()
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
        elapsed = time.perf_counter() - t0
        k1 = kernel_time()
        probe = json.loads(out.splitlines()[-1])
        speed = (k0, k1, probe["k0"], probe["k1"])
        raw.append(elapsed)
        cal.append(elapsed * NOMINAL_KERNEL_S * len(speed) / sum(speed))
    return statistics.median(cal), statistics.median(raw)


def probe(args) -> int:
    """Set up as a run does (import, generate inputs) and report kernel times."""
    from calibrate import kernel_time

    k0 = kernel_time()
    pkg = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        make_workload(pkg, args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"k0": k0, "k1": kernel_time()}))
    return 0


class Run:
    """Executes rounds, times each operation and collects the checks' verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.raw: list[float] = []
        self.cal: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def round(self, items, on_op=None) -> None:
        from calibrate import timed

        outputs = []
        for item in items:
            try:
                out, raw, cal = timed(self.workload.run, item)
            except Exception as exc:  # an operation that raises counts as failed
                self.failed += 1
                self.errors.append(f"operation raised {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            if on_op is not None:
                on_op(cal / raw)
            self.raw.append(raw)
            self.cal.append(cal)
            outputs.append(out)
        done = [(i, o) for i, o in zip(items, outputs) if o is not None]
        if done:
            try:
                self.errors += self.workload.check(*zip(*done))
            except Exception as exc:  # a check that cannot read an output fails
                self.errors.append(f"check raised {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    pkg = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if not args.trace:
            setup_s, setup_raw = measure_setup(args)
        workload, items = make_workload(pkg, args.workload, args.seed, workdir)
        workload.run(workload.warmup_item())
        if args.trace:
            return traced(pkg, args, workload, items)
        run = Run(workload)
        index = 0
        deadline = time.perf_counter() + args.seconds
        while index == 0 or time.perf_counter() < deadline:
            run.round(items if index == 0 else workload.round(index))
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n = len(run.cal)
        attempted = n + run.failed
        report_errors(run.errors)
        if not n:
            sys.exit("bench: every operation failed")
        print(f"# {args.workload} seed={args.seed}: {index} rounds, {attempted} operations, "
              f"{run.failed} failed")
        print(f"# raw: ops_per_s={n / sum(run.raw):.6g} op_p50_s={statistics.median(run.raw):.6g} "
              f"setup_s={setup_raw:.6g}")
        if n >= 100:
            print(f"# op_p90_s={statistics.quantiles(run.cal, n=10)[-1]:.6g} "
                  f"(raw {statistics.quantiles(run.raw, n=10)[-1]:.6g})")
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / sum(run.cal), "1/s"),
            "op_p50_s": (statistics.median(run.cal), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result = {
            "correct": not run.errors,
            "attempted": attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced(pkg, args, workload, items) -> int:
    """Round 0 untraced, then the same round traced; per-layer metrics."""
    from tracer import Tracer

    plain = Run(workload)
    plain.round(items)
    tracer = Tracer(pkg)
    traced_run = Run(workload)
    tracer.install()
    try:
        traced_run.round(items, on_op=tracer.end_op)
    finally:
        tracer.uninstall()
    bytes_written = getattr(workload, "round_bytes", 0)
    overhead = sum(traced_run.cal) - sum(plain.cal)
    spans = OUT / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(spans)
    errors = plain.errors + traced_run.errors
    report_errors(errors)
    print(f"# traced {args.workload} seed={args.seed}: {len(items)} operations, "
          f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}")
    print(f"# raw: untraced {sum(plain.raw):.6g} s, traced {sum(traced_run.raw):.6g} s")
    result = {
        "correct": not errors,
        "attempted": len(items) * 2,
        "failed": plain.failed + traced_run.failed,
        "metrics": tracer.metrics(bytes_written, overhead),
    }
    print(json.dumps(result))
    return 0


def report_errors(errors) -> None:
    for line in errors[:20]:
        print(f"# CHECK FAILED: {line}")
    if len(errors) > 20:
        print(f"# ... {len(errors) - 20} more check failures")


if __name__ == "__main__":
    sys.exit(main())
