"""Glued spherical-shell spacetimes, radial geodesics, and the gravitational
quantum switch parameter search."""

import importlib as _importlib

from .spacetime import (
    PatchSpec,
    ShellSpacetime,
    SurfaceStress,
    build_spacetime,
    induced_metric_gap,
    shell_stress,
)
from .geodesic import (
    CycloidParams,
    null_crossing_time,
    oscillation_period,
    static_exchange,
    trajectory,
)
from .search import (
    MeetingEvent,
    SearchConfig,
    SwitchSolution,
    find_meeting_radius,
    period_ratio_curve,
    ratio_residual,
    solve_contour,
    solve_switch_configuration,
)

# switch imports numpy, so its names are served on first use (PEP 562): the
# package and its CLI import without numpy
_SWITCH_NAMES = frozenset({
    "EventSchedule",
    "JointState",
    "OperatorSpec",
    "measure_control_diagonal",
    "run_general_protocol",
    "run_switch",
    "schedule",
})

__all__ = sorted({
    name for name in globals() if not name.startswith("_")
} | _SWITCH_NAMES | {"switch"})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "switch" or name in _SWITCH_NAMES:
        switch = _importlib.import_module(".switch", __name__)
        return switch if name == "switch" else getattr(switch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
