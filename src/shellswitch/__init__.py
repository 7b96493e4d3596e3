"""Glued spherical-shell spacetimes, radial geodesics, and the gravitational
quantum switch parameter search."""

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
    drop_energy,
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
from .switch import (
    EventSchedule,
    JointState,
    OperatorSpec,
    measure_control_diagonal,
    run_general_protocol,
    run_switch,
    schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
