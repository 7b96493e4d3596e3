"""Operational event schedule and control(geometry) x target state evolution.

The control system spans {|M1>, |M2>}, the two branch geometries.  Operator
application order per branch follows the schedule's global-time ordering: in
the one-shell branch the freely falling agent meets the target before the
static agent acts (A then B), in the two-shell branch afterwards (B then A).
States are stored as flat control-major complex vectors of length 2*d.

Preparation uses the + relative phase between the branches; any physical phase
offset amounts to a rotation of the diagonal measurement basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ScheduleError
from .fields import amplitude
from .search import MeetingEvent, SwitchSolution
from .spacetime import metric_factor

UNITARITY_TOL = 1e-12
# operator labels in application order for (branch M1, branch M2); the
# schedule's ordering t_A1 < t_B < t_A2 fixes them
SWITCH_ORDERS = (("A", "B"), ("B", "A"))


@dataclass(frozen=True)
class EventSchedule:
    """Global-time bookkeeping for one run of the protocol."""

    tau_A: float
    t_A1: float
    t_A2: float
    t_B: float
    t_f: float
    tau_B: float
    r_t: float

    def __post_init__(self):
        if not self.t_A1 < self.t_B < self.t_A2:
            raise ScheduleError(
                f"need t_A1 < t_B < t_A2, got {self.t_A1}, {self.t_B}, {self.t_A2}"
            )


@dataclass(frozen=True)
class OperatorSpec:
    """Dense complex operator with an optional unitarity requirement."""

    matrix: np.ndarray
    unitary: bool = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        if self.unitary:
            defect = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
            if defect > UNITARITY_TOL:
                raise DimensionMismatchError(
                    f"operator flagged unitary has defect {defect:.3e}"
                )

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_json(cls, entries: list, unitary: bool = True, name: str = "operator") -> "OperatorSpec":
        """Entries as nested [[ [re, im], ... ], ...] of finite numbers."""
        m = np.array([[amplitude(z, f"{name}[{i}][{j}]") for j, z in enumerate(row)]
                      for i, row in enumerate(entries)])
        return cls(matrix=m, unitary=unitary)

    def to_json(self) -> list:
        return [[[z.real, z.imag] for z in row] for row in self.matrix]


@dataclass(frozen=True)
class JointState:
    """Control(2) x target(d) state as a flat control-major vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size % 2 != 0 or v.size == 0:
            raise DimensionMismatchError(f"joint vector length {v.size} is not 2*d")
        object.__setattr__(self, "amplitudes", v)

    @property
    def target_dim(self) -> int:
        return self.amplitudes.size // 2

    def branch(self, index: int) -> np.ndarray:
        d = self.target_dim
        return self.amplitudes[index * d:(index + 1) * d]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class MeasurementResult:
    target: np.ndarray
    probability: float
    zero_probability: bool = False


def schedule(
    solution: SwitchSolution,
    meeting: MeetingEvent,
    t_B: float | None = None,
) -> EventSchedule:
    """Assemble the event schedule; default policy puts t_B at the midpoint."""
    if t_B is None:
        t_B = 0.5 * (meeting.t_A1 + meeting.t_A2)
    t_f = solution.config.q * solution.dt1
    # a static observer at r_t ages sqrt(1 - 2M/r_t) per unit global time
    tau_B = math.sqrt(metric_factor(solution.config.M, meeting.r_t)) * t_B
    return EventSchedule(
        tau_A=meeting.tau_A,
        t_A1=meeting.t_A1,
        t_A2=meeting.t_A2,
        t_B=t_B,
        t_f=t_f,
        tau_B=tau_B,
        r_t=meeting.r_t,
    )


def run_switch(
    A: OperatorSpec, B: OperatorSpec, psi, sched: EventSchedule
) -> JointState:
    """Evolve (|M1> + |M2>)/sqrt(2) x psi through the scheduled operations.

    sched is not read: building it checked t_A1 < t_B < t_A2, the ordering
    whose layers switch_slots applies.
    """
    return run_general_protocol(switch_slots(A, B), psi)


def measure_control_diagonal(joint: JointState, sign: int) -> MeasurementResult:
    """Project the control on (|M1> +/- |M2>)/sqrt(2); sign is +1 or -1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    amp = (joint.branch(0) + sign * joint.branch(1)) / math.sqrt(2.0)
    other = (joint.branch(0) - sign * joint.branch(1)) / math.sqrt(2.0)
    raw = float(np.vdot(amp, amp).real)
    # normalize by the completeness of the two diagonal projectors so the
    # pair of outcome probabilities sums to one exactly
    prob = raw / (raw + float(np.vdot(other, other).real))
    if prob < 1e-30:
        return MeasurementResult(
            target=np.zeros_like(amp), probability=0.0, zero_probability=True
        )
    return MeasurementResult(target=amp / math.sqrt(prob), probability=prob)


@dataclass(frozen=True)
class ControlledSlot:
    """One layer of the protocol circuit: the operator applied in each branch."""

    on_m1: np.ndarray
    on_m2: np.ndarray


def run_general_protocol(slots: list[ControlledSlot], psi) -> JointState:
    """Apply branch-controlled layers in time order.

    With layers [(1, D), (B, B), (C, 1)] this realizes the broken-switch
    pattern (C B psi x |M1> + B D psi x |M2>)/sqrt(2); with C = D = A it
    gives the plain switch output with the branch labels swapped,
    (A B psi x |M1> + B A psi x |M2>)/sqrt(2).
    """
    if not slots:
        raise DimensionMismatchError("at least one slot is required")
    d = np.asarray(slots[0].on_m1).shape[0]
    psi = _as_state(psi, d)
    psi_1, psi_2 = psi.copy(), psi.copy()
    for slot in slots:
        m1 = np.asarray(slot.on_m1, dtype=complex)
        m2 = np.asarray(slot.on_m2, dtype=complex)
        if m1.shape != (d, d) or m2.shape != (d, d):
            raise DimensionMismatchError("slot operator dimensions inconsistent")
        psi_1 = m1 @ psi_1
        psi_2 = m2 @ psi_2
    return JointState(np.concatenate([psi_1, psi_2]) / math.sqrt(2.0))


def switch_slots(A: OperatorSpec, B: OperatorSpec) -> list[ControlledSlot]:
    """Layers of the plain switch: A then B in branch M1, B then A in M2."""
    ops = {"A": A.matrix, "B": B.matrix}
    return [ControlledSlot(ops[a], ops[b]) for a, b in zip(*SWITCH_ORDERS)]


def broken_switch_slots(C: OperatorSpec, D: OperatorSpec, B: OperatorSpec) -> list[ControlledSlot]:
    """Layers for an A-operation that depends on a branch-distinguishing reading."""
    d = B.dimension
    eye = np.eye(d, dtype=complex)
    return [
        ControlledSlot(eye, D.matrix),
        ControlledSlot(B.matrix, B.matrix),
        ControlledSlot(C.matrix, eye),
    ]


def _as_state(psi, d: int) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != d:
        raise DimensionMismatchError(f"state dimension {v.size} != operator dimension {d}")
    # scaled by the largest component, so that no square overflows or underflows
    scale = float(np.maximum(np.abs(v.real), np.abs(v.imag)).max(initial=0.0))
    n = scale * float(np.linalg.norm(v / scale)) if scale > 0.0 else 0.0
    if abs(n - 1.0) > 1e-9:
        raise DimensionMismatchError(f"state norm {n} is not 1")
    return v
