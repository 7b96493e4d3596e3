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

from .errors import DimensionMismatchError, InputError, ScheduleError
from .fields import amplitudes
from .search import MeetingEvent, SwitchSolution
from .spacetime import metric_factor

UNITARITY_TOL = 1e-12
# operator labels in application order for (branch M1, branch M2); the
# schedule's ordering t_A1 < t_B < t_A2 fixes them
SWITCH_ORDERS = (("A", "B"), ("B", "A"))
# the broken switch: an A-operation C or D chosen by a branch-distinguishing
# reading, after B in M1 and before it in M2
BROKEN_ORDERS = (("B", "C"), ("D", "B"))


@dataclass(frozen=True)
class EventSchedule:
    """Global-time bookkeeping for one run of the protocol."""

    tau_A: float
    t_A1: float
    t_A2: float
    t_B: float
    t_f: float
    tau_B: float

    def __post_init__(self):
        if not self.t_A1 < self.t_B < self.t_A2:
            raise ScheduleError(
                f"need t_A1 < t_B < t_A2, got {self.t_A1}, {self.t_B}, {self.t_A2}"
            )


@dataclass(frozen=True)
class OperatorSpec:
    """Dense complex unitary operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        defect = _unitarity_defect(m)
        if defect > UNITARITY_TOL:
            raise DimensionMismatchError(
                f"operator flagged unitary has defect {defect:.3e}"
            )

    @classmethod
    def from_json(cls, entries: list, name: str = "operator") -> "OperatorSpec":
        """Entries as nested [[ [re, im], ... ], ...] of finite numbers, as many
        pairs in each row as there are rows."""
        if not isinstance(entries, list):
            raise InputError(f"{name} must be a list of rows of [re, im] pairs, got {entries!r}")
        rows = [amplitudes(row, f"{name}[{i}]") for i, row in enumerate(entries)]
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise InputError(f"{name}[{i}] must hold {len(rows)} [re, im] pairs, "
                                 f"one per row of {name}, got {len(row)}")
        return cls(matrix=np.array(rows))


@dataclass(frozen=True)
class JointState:
    """Control(2) x target(d) state as a flat control-major vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size % 2 != 0 or v.size == 0:
            raise DimensionMismatchError(f"joint vector length {v.size} is not 2*d")
        object.__setattr__(self, "amplitudes", v)

    def branch(self, index: int) -> np.ndarray:
        d = self.amplitudes.size // 2
        return self.amplitudes[index * d:(index + 1) * d]


@dataclass(frozen=True)
class MeasurementResult:
    target: np.ndarray
    probability: float


def schedule(solution: SwitchSolution, meeting: MeetingEvent) -> EventSchedule:
    """Assemble the event schedule, with t_B midway between t_A1 and t_A2."""
    t_B = 0.5 * (meeting.t_A1 + meeting.t_A2)
    t_f = solution.config.q * solution.dt1
    # a static observer at r_t ages sqrt(1 - 2M/r_t) per unit global time
    tau_B = math.sqrt(metric_factor(solution.config.M, meeting.r_t)) * t_B
    return EventSchedule(meeting.tau_A, meeting.t_A1, meeting.t_A2, t_B, t_f, tau_B)


def run_switch(
    A: OperatorSpec, B: OperatorSpec, psi, sched: EventSchedule
) -> JointState:
    """Evolve (|M1> + |M2>)/sqrt(2) x psi through the scheduled operations.

    sched is not read: building it checked t_A1 < t_B < t_A2, the ordering
    that SWITCH_ORDERS records.
    """
    return run_general_protocol(switch_slots(A, B), psi)


def measure_control_diagonal(joint: JointState, sign: int) -> MeasurementResult:
    """Project the control on (|M1> +/- |M2>)/sqrt(2); sign is +1 or -1.
    A joint state whose squared norm is 0, or underflows to 0, raises
    InputError: it has no outcome probabilities."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    # a + sign*b and a - sign*b, not a - b: the product by -1 can flip a signed zero
    a, signed_b = joint.branch(0), sign * joint.branch(1)
    amp = (a + signed_b) / math.sqrt(2.0)
    other = (a - signed_b) / math.sqrt(2.0)
    raw = float(np.vdot(amp, amp).real)
    # normalize by the completeness of the two diagonal projectors so the
    # pair of outcome probabilities sums to one exactly
    total = raw + float(np.vdot(other, other).real)
    if total == 0.0:
        raise InputError("cannot measure a joint state whose squared norm is 0 or underflows")
    prob = raw / total
    if prob < 1e-30:
        return MeasurementResult(target=np.zeros_like(amp), probability=0.0)
    return MeasurementResult(target=amp / math.sqrt(prob), probability=prob)


def run_general_protocol(branches, psi) -> JointState:
    """Apply each branch's operators to psi in their listed order.

    branches holds one sequence of matrices per control state, (M1, M2).
    With BROKEN_ORDERS, ((B, C), (D, B)), this realizes the broken-switch
    state (C B psi x |M1> + B D psi x |M2>)/sqrt(2); with SWITCH_ORDERS,
    ((A, B), (B, A)), the plain switch (B A psi x |M1> + A B psi x |M2>)/sqrt(2).
    """
    branches = [[np.asarray(m, dtype=complex) for m in ops] for ops in branches]
    mats = [m for ops in branches for m in ops]
    if len(branches) != 2 or not mats:
        raise DimensionMismatchError("one operator sequence per branch is required")
    d = mats[0].shape[0]
    psi = _as_state(psi, d)
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatchError("slot operator dimensions inconsistent")
    outs = []
    for ops in branches:
        v = psi
        for m in ops:
            v = m @ v
        outs.append(v)
    return JointState(np.concatenate(outs) / math.sqrt(2.0))


def _branches(orders, **ops: OperatorSpec) -> tuple:
    """Each branch's matrices, in the application order that orders lists."""
    return tuple(tuple(ops[label].matrix for label in order) for order in orders)


def switch_slots(A: OperatorSpec, B: OperatorSpec) -> tuple:
    """The plain switch's branches: A then B in M1, B then A in M2."""
    return _branches(SWITCH_ORDERS, A=A, B=B)


def broken_switch_slots(C: OperatorSpec, D: OperatorSpec, B: OperatorSpec) -> tuple:
    """The broken switch's branches: B then C in M1, D then B in M2."""
    return _branches(BROKEN_ORDERS, B=B, C=C, D=D)


def _unitarity_defect(m: np.ndarray) -> float:
    """max |m^H m - I| of a square complex matrix: the Gram matrix's diagonal
    less 1 in place, the subtraction of np.eye without building it."""
    gram = m.conj().T @ m
    gram.flat[::m.shape[0] + 1] -= 1.0
    return np.abs(gram).max()


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
