"""Per-layer tracing for the traced benchmark run.

Public shellswitch functions are replaced by wrappers in every module that
holds a reference to them (cli calls `period_ratio_curve` through its own
imported name, so wrapping the defining module alone would miss it).  Each
call of a layer-boundary function records a span; the hot leaf functions
`geodesic.replace` and `geodesic.coordinate_time` are only counted.  Spans
stay in memory and are written once, when the run ends.

A span's self time is its duration minus the durations of the spans it
directly contains.  Spans are timed on `calibrate.clock_ns`, so the time the
calibration sampler spends in its handler counts in no span.  Self times are gathered per operation so that the run can
scale them by that operation's calibration factor.
"""

from __future__ import annotations

import math
from collections import Counter

from calibrate import clock_ns

SPANNED = {
    "cli": ("main",),
    "search": (
        "solve_switch_configuration", "period_ratio_curve", "solve_contour",
        "ratio_residual", "find_meeting_radius",
    ),
    "geodesic": (
        "oscillation_period", "trajectory", "null_crossing_time",
        "diametral_crossing_time", "static_exchange",
    ),
    "spacetime": (
        "build_spacetime", "shell_stress", "induced_metric_gap",
        "spacetime_from_config", "stress_report",
    ),
    "switch": (
        "schedule", "run_switch", "run_general_protocol",
        "measure_control_diagonal", "broken_switch_slots",
    ),
}
COUNTED = (("geodesic", "replace"), ("geodesic", "coordinate_time"))
LAYERS = tuple(SPANNED)

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("search.period_ratio_curve.calls", "count"),
    ("search.solve_contour.calls", "count"),
    ("search.ratio_residual.calls", "count"),
    ("search.ratio_residual.self_s", "s"),
    ("search.ratio_residual.nan", "count"),
    ("search.residuals_per_contour", "ratio"),
    ("search.brentq.evals", "count"),
    ("search.solve_switch_configuration.total_s", "s"),
    ("search.find_meeting_radius.total_s", "s"),
    ("search.self_s", "s"),
    ("geodesic.oscillation_period.calls", "count"),
    ("geodesic.oscillation_period.self_s", "s"),
    ("geodesic.replace.calls", "count"),
    ("geodesic.trajectory.self_s", "s"),
    ("geodesic.trajectory.samples", "count"),
    ("geodesic.coordinate_time.calls", "count"),
    ("geodesic.null_crossing_time.calls", "count"),
    ("geodesic.self_s", "s"),
    ("spacetime.build_spacetime.calls", "count"),
    ("spacetime.build_spacetime.self_s", "s"),
    ("spacetime.shell_stress.calls", "count"),
    ("spacetime.self_s", "s"),
    ("switch.self_s", "s"),
    ("switch.run_general_protocol.calls", "count"),
    ("tracing_overhead_s", "s"),
)


class Tracer:
    """Wraps the program's functions while installed; holds all trace state."""

    def __init__(self, package):
        self._package = package
        self._modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 1
        self.op = 0
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self._op_self_ns: Counter = Counter()
        self._op_total_ns: Counter = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, names in SPANNED.items():
            module = getattr(self._package, layer)
            for name in names:
                self._replace(getattr(module, name), self._span(f"{layer}.{name}"))
        for layer, name in COUNTED:
            module = getattr(self._package, layer)
            self._replace(getattr(module, name), self._count(f"{layer}.{name}"))
        search = self._package.search
        self._replace(search.brentq, self._brentq(search.brentq))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _replace(self, original, wrapper) -> None:
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str):
        fn = self._original(name)
        stack, spans, calls = self._stack, self.spans, self.calls
        op_self, op_total = self._op_self_ns, self._op_total_ns
        clock = clock_ns
        is_residual = name == "search.ratio_residual"
        is_trajectory = name == "geodesic.trajectory"

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                op_self[name] += duration - frame[1]
                op_total[name] += duration
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                spans.append((span_id, parent, self.op, name, start, end))
            if is_residual and math.isnan(result):
                calls["search.ratio_residual.nan"] += 1
            if is_trajectory:
                calls["geodesic.trajectory.samples"] += int(
                    args[3] if len(args) > 3 else kwargs["sample_count"]
                )
            return result

        return wrapper

    def _original(self, name: str):
        layer, attr = name.split(".")
        return getattr(getattr(self._package, layer), attr)

    def _count(self, name: str):
        fn = self._original(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _brentq(self, brentq):
        calls = self.calls

        def wrapper(f, a, b, *args, **kwargs):
            def counted(x, *fargs):
                calls["search.brentq.evals"] += 1
                return f(x, *fargs)

            return brentq(counted, a, b, *args, **kwargs)

        return wrapper

    # -- per-operation accounting ------------------------------------------

    def end_op(self, factor: float) -> None:
        """Fold the finished operation's times in, scaled to the reference speed."""
        for name, ns in self._op_self_ns.items():
            self.self_s[name] += ns * 1e-9 * factor
        for name, ns in self._op_total_ns.items():
            self.total_s[name] += ns * 1e-9 * factor
        self._op_self_ns.clear()
        self._op_total_ns.clear()
        self.op += 1

    # -- results ------------------------------------------------------------

    def metrics(self, bytes_written: int, overhead_s: float) -> dict:
        c, s = self.calls, self.self_s

        def layer_self(layer: str) -> float:
            return sum(v for k, v in s.items() if k.startswith(layer + "."))

        contours = c["search.solve_contour"]
        values = {
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": s["cli.main"],
            "cli.bytes_written": bytes_written,
            "search.period_ratio_curve.calls": c["search.period_ratio_curve"],
            "search.solve_contour.calls": contours,
            "search.ratio_residual.calls": c["search.ratio_residual"],
            "search.ratio_residual.self_s": s["search.ratio_residual"],
            "search.ratio_residual.nan": c["search.ratio_residual.nan"],
            "search.residuals_per_contour": (
                c["search.ratio_residual"] / contours if contours else 0.0
            ),
            "search.brentq.evals": c["search.brentq.evals"],
            "search.solve_switch_configuration.total_s":
                self.total_s["search.solve_switch_configuration"],
            "search.find_meeting_radius.total_s": self.total_s["search.find_meeting_radius"],
            "search.self_s": layer_self("search"),
            "geodesic.oscillation_period.calls": c["geodesic.oscillation_period"],
            "geodesic.oscillation_period.self_s": s["geodesic.oscillation_period"],
            "geodesic.replace.calls": c["geodesic.replace"],
            "geodesic.trajectory.self_s": s["geodesic.trajectory"],
            "geodesic.trajectory.samples": c["geodesic.trajectory.samples"],
            "geodesic.coordinate_time.calls": c["geodesic.coordinate_time"],
            "geodesic.null_crossing_time.calls": c["geodesic.null_crossing_time"],
            "geodesic.self_s": layer_self("geodesic"),
            "spacetime.build_spacetime.calls": c["spacetime.build_spacetime"],
            "spacetime.build_spacetime.self_s": s["spacetime.build_spacetime"],
            "spacetime.shell_stress.calls": c["spacetime.shell_stress"],
            "spacetime.self_s": layer_self("spacetime"),
            "switch.self_s": layer_self("switch"),
            "switch.run_general_protocol.calls": c["switch.run_general_protocol"],
            "tracing_overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write_spans(self, path) -> None:
        """CSV of all spans; times in ns from the start of the earliest span."""
        t0 = min((row[4] for row in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for span, parent, op, name, start, end in self.spans:
                fh.write(f"{span},{parent},{op},{name},{start - t0},{end - t0}\n")
