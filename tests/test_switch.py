import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shellswitch.errors import DimensionMismatchError, InputError, ScheduleError
from shellswitch.switch import (
    BROKEN_ORDERS,
    SWITCH_ORDERS,
    EventSchedule,
    JointState,
    OperatorSpec,
    _unitarity_defect,
    broken_switch_slots,
    measure_control_diagonal,
    run_general_protocol,
    run_switch,
    schedule,
    switch_slots,
)

import oracles
from oracles import random_state, random_unitary

X = OperatorSpec(np.array([[0, 1], [1, 0]], dtype=complex))
Y = OperatorSpec(np.array([[0, -1j], [1j, 0]]))
Z = OperatorSpec(np.array([[1, 0], [0, -1]], dtype=complex))
KET0 = np.array([1.0, 0.0], dtype=complex)

STUB = EventSchedule(tau_A=0.0, t_A1=0.0, t_A2=2.0, t_B=1.0, t_f=3.0, tau_B=0.8)


class TestSchedule:
    def test_event_ordering(self, ref_solution, ref_meeting):
        sched = schedule(ref_solution, ref_meeting)
        assert sched.t_A1 < sched.t_B < sched.t_A2
        assert sched.t_B == 0.5 * (sched.t_A1 + sched.t_A2)

    def test_final_time_closes_both_branches(self, ref_solution, ref_meeting):
        sched = schedule(ref_solution, ref_meeting)
        assert sched.t_f == ref_solution.config.q * ref_solution.dt1
        assert sched.t_f == pytest.approx(
            ref_solution.config.p * ref_solution.dt2, rel=1e-8
        )
        assert sched.t_A2 < sched.t_f

    def test_static_clock_runs_slow(self, ref_solution, ref_meeting):
        sched = schedule(ref_solution, ref_meeting)
        want = math.sqrt(1.0 - 2.0 * ref_solution.config.M / ref_meeting.r_t)
        assert sched.tau_B == pytest.approx(want * sched.t_B, rel=1e-12)
        assert sched.tau_B < sched.t_B

    def test_branch_orders(self):
        assert SWITCH_ORDERS == (("A", "B"), ("B", "A"))
        assert BROKEN_ORDERS == (("B", "C"), ("D", "B"))

    def test_misordered_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            EventSchedule(tau_A=0.0, t_A1=2.0, t_A2=0.5, t_B=1.0, t_f=3.0, tau_B=0.8)


class TestOperatorSpec:
    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            OperatorSpec(np.zeros((2, 3)))

    def test_non_unitary_rejected(self):
        with pytest.raises(DimensionMismatchError):
            OperatorSpec(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestJointState:
    def test_odd_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            JointState(np.ones(3, dtype=complex))

    def test_branch_slices(self):
        js = JointState(np.arange(6, dtype=complex))
        assert np.array_equal(js.branch(0), [0, 1, 2])
        assert np.array_equal(js.branch(1), [3, 4, 5])


class TestSwitch:
    def test_pauli_example(self):
        # A = X, B = Z on |0>: output (-|M1> + |M2>) x |1> / sqrt(2)
        joint = run_switch(X, Z, KET0, STUB)
        want = np.array([0.0, -1.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(joint.amplitudes, want, atol=1e-15)
        assert np.linalg.norm(joint.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_pauli_measurement_is_deterministic(self):
        joint = run_switch(X, Z, KET0, STUB)
        plus = measure_control_diagonal(joint, +1)
        minus = measure_control_diagonal(joint, -1)
        assert plus.probability == 0.0
        assert np.array_equal(plus.target, [0.0, 0.0])
        assert minus.probability == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(minus.target, [0.0, -1.0], atol=1e-15)

    def test_commuting_operators_never_entangle(self):
        A = OperatorSpec(np.diag([1.0, 1j]))
        B = OperatorSpec(np.diag([1j, -1.0]))
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        joint = run_switch(A, B, psi, STUB)
        plus = measure_control_diagonal(joint, +1)
        minus = measure_control_diagonal(joint, -1)
        assert plus.probability == pytest.approx(1.0, abs=1e-15)
        assert minus.probability == pytest.approx(0.0, abs=1e-15)

    def test_random_unitaries_against_direct_products(self):
        rng = np.random.default_rng(20260824)
        for trial in range(100):
            d = int(rng.integers(2, 5))
            A = OperatorSpec(random_unitary(rng, d))
            B = OperatorSpec(random_unitary(rng, d))
            psi = random_state(rng, d)
            joint = run_switch(A, B, psi, STUB)
            want = np.concatenate(
                [B.matrix @ A.matrix @ psi, A.matrix @ B.matrix @ psi]
            ) / math.sqrt(2.0)
            assert np.allclose(joint.amplitudes, want, atol=1e-12)

    def test_diagonal_probabilities_from_branch_overlap(self):
        # p_+/- = (1 +/- Re<psi_1|psi_2>)/2 with psi_i the branch outputs
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            A = OperatorSpec(random_unitary(rng, d))
            B = OperatorSpec(random_unitary(rng, d))
            psi = random_state(rng, d)
            joint = run_switch(A, B, psi, STUB)
            overlap = np.vdot(B.matrix @ A.matrix @ psi, A.matrix @ B.matrix @ psi)
            p_plus = measure_control_diagonal(joint, +1).probability
            p_minus = measure_control_diagonal(joint, -1).probability
            assert p_plus == pytest.approx((1.0 + overlap.real) / 2.0, abs=1e-12)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_faithfulness_via_schmidt_rank(self):
        # non-proportional branch outputs entangle control and target;
        # commuting orders leave a product state
        H = OperatorSpec(np.array([[1, 1], [1, -1]]) / math.sqrt(2.0))
        entangled = run_switch(X, H, KET0, STUB)
        svals = np.linalg.svd(
            entangled.amplitudes.reshape(2, 2), compute_uv=False
        )
        assert np.sum(svals > 1e-12) == 2

        product = run_switch(X, X, KET0, STUB)
        svals = np.linalg.svd(product.amplitudes.reshape(2, 2), compute_uv=False)
        assert np.sum(svals > 1e-12) == 1

    def test_dimension_mismatch(self):
        three = OperatorSpec(np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatchError):
            run_switch(X, three, KET0, STUB)
        with pytest.raises(DimensionMismatchError):
            run_switch(X, Z, np.array([1.0, 0.0, 0.0]), STUB)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(DimensionMismatchError):
            run_switch(X, Z, np.array([1.0, 1.0]), STUB)

    def test_bad_measurement_sign(self):
        joint = run_switch(X, Z, KET0, STUB)
        with pytest.raises(ValueError):
            measure_control_diagonal(joint, 0)


class TestGeneralProtocol:
    def test_broken_switch_pauli_example(self):
        # C = X, D = Y, B = Z on |0>: (|1> x |M1> - i |1> x |M2>)/sqrt(2)
        joint = run_general_protocol(broken_switch_slots(X, Y, Z), KET0)
        want = np.array([0.0, 1.0, 0.0, -1j]) / math.sqrt(2.0)
        assert np.allclose(joint.amplitudes, want, atol=1e-15)

    def test_broken_switch_reduces_to_switch_when_C_equals_D(self):
        # the circuit convention applies the early A-layer in the second
        # branch, so the reduction matches the plain switch with the branch
        # labels swapped (the physical state is invariant under that
        # relabeling together with swapping the per-branch orders)
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            A = OperatorSpec(random_unitary(rng, d))
            B = OperatorSpec(random_unitary(rng, d))
            psi = random_state(rng, d)
            via_slots = run_general_protocol(broken_switch_slots(A, A, B), psi)
            via_switch = run_switch(A, B, psi, STUB)
            assert np.allclose(via_slots.branch(0), via_switch.branch(1), atol=1e-12)
            assert np.allclose(via_slots.branch(1), via_switch.branch(0), atol=1e-12)

    def test_distinct_C_D_is_not_a_switch(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            C = OperatorSpec(random_unitary(rng, 2))
            D = OperatorSpec(random_unitary(rng, 2))
            B = OperatorSpec(random_unitary(rng, 2))
            psi = random_state(rng, 2)
            broken = run_general_protocol(broken_switch_slots(C, D, B), psi)
            # compare against the true switch with either branch labeling
            true_1 = np.concatenate(
                [B.matrix @ C.matrix @ psi, C.matrix @ B.matrix @ psi]
            ) / math.sqrt(2.0)
            fidelity = abs(np.vdot(true_1, broken.amplitudes))
            assert fidelity < 1.0 - 1e-6

    def test_empty_slots_rejected(self):
        with pytest.raises(DimensionMismatchError):
            run_general_protocol([], KET0)

    def test_inconsistent_slot_dimensions(self):
        bad = ((np.eye(2, dtype=complex),), (np.eye(3, dtype=complex),))
        with pytest.raises(DimensionMismatchError):
            run_general_protocol(bad, KET0)


def layered(layers, psi):
    """The layered evaluation the order tables replaced: one (M1, M2) pair of
    matrices per time layer, the identity where a branch idles."""
    psi_1, psi_2 = psi.copy(), psi.copy()
    for on_m1, on_m2 in layers:
        psi_1 = on_m1 @ psi_1
        psi_2 = on_m2 @ psi_2
    return np.concatenate([psi_1, psi_2]) / math.sqrt(2.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_order_tables_match_layered_evaluation(seed, d):
    # dropping an identity product can flip only the sign of a zero, which
    # elementwise == does not see
    rng = np.random.default_rng(seed)
    A, B, C, D = (OperatorSpec(random_unitary(rng, d)) for _ in range(4))
    psi = random_state(rng, d)
    eye = np.eye(d, dtype=complex)
    cases = [
        (switch_slots(A, B), [(A.matrix, B.matrix), (B.matrix, A.matrix)]),
        (broken_switch_slots(C, D, B),
         [(eye, D.matrix), (B.matrix, B.matrix), (C.matrix, eye)]),
    ]
    for branches, layers in cases:
        joint = run_general_protocol(branches, psi)
        assert (joint.amplitudes == layered(layers, psi)).all()



PAULIS = (np.eye(2, dtype=complex), X.matrix, Y.matrix, Z.matrix)
SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])


@st.composite
def switch_inputs(draw):
    """(A, B, psi): random unitaries and a random state of dimension 2 to 4,
    or Pauli operators (the identity included) on a basis state, whose
    products hold exact zeros."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        d = draw(st.integers(2, 4))
        return random_unitary(rng, d), random_unitary(rng, d), random_state(rng, d)
    A, B = (PAULIS[draw(st.integers(0, 3))] for _ in range(2))
    psi = np.zeros(2, dtype=complex)
    psi[draw(st.integers(0, 1))] = draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    return A, B, psi


@st.composite
def joint_states(draw):
    """A switch's output on switch_inputs, or a joint vector of 2 to 8
    components whose parts are drawn from 0.0, -0.0, 1.0, -1.0 and 0.5: where
    a zero meets a -0.0, a + (-1)*b and a - b differ in the sign of a zero."""
    if draw(st.booleans()):
        A, B, psi = draw(switch_inputs())
        return run_general_protocol(switch_slots(OperatorSpec(A), OperatorSpec(B)), psi)
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(st.tuples(SIGNED, SIGNED), min_size=2 * n, max_size=2 * n))
    return JointState(np.array([complex(re, im) for re, im in parts]))


@example((X.matrix, Z.matrix, KET0))
@given(switch_inputs())
@settings(max_examples=200, deadline=None)
def test_unitarity_defect_matches_reference(inputs):
    """OperatorSpec's in-place defect gives the bits of the defect with
    np.eye (oracles.unitarity_defect), on unitaries and on matrices off them."""
    A, B, _ = inputs
    for m in (A, B, A + 1e-7 * B, A[:, ::-1]):
        m = np.asarray(m, dtype=complex)
        assert np.float64(_unitarity_defect(m)).tobytes() == np.float64(oracles.unitarity_defect(m)).tobytes()


@example(JointState(np.array([complex(0.0, -0.0), 0j])))
@example(JointState(np.array([0j, 0j])))
@example(JointState(np.array([1e-170 + 0j, 0j])))  # nonzero, and its squares underflow
@given(joint_states())
@settings(max_examples=300, deadline=None)
def test_measurement_matches_reference(joint):
    """measure_control_diagonal's shared slices give the bits of its
    reference (oracles.measure_control_diagonal), signed zeros included:
    tobytes compares bit patterns, where == takes -0.0 for 0.0.  A joint
    vector whose squared norm is 0 or underflows to 0 raises
    ZeroDivisionError in the reference and InputError in the program."""

    def program(joint, sign):
        result = measure_control_diagonal(joint, sign)
        return result.target, result.probability

    def bits(measure, sign, zero_norm_error):
        try:
            target, probability = measure(joint, sign)
        except zero_norm_error:
            return "zero norm"
        return target.tobytes(), probability.hex()

    for sign in (1, -1):
        want = bits(oracles.measure_control_diagonal, sign, ZeroDivisionError)
        assert bits(program, sign, InputError) == want
