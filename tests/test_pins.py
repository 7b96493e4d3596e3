"""Bits recorded at commit 667e01a, before the period walk moved onto floats,
except where a table says otherwise.

Every value is a float.hex string and is compared with ==: a refactor of the
period, search or sampling paths keeps these outputs to the last bit.  A
string in place of the two periods names the exception that stack raises.
"""

import gc
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shellswitch import (
    PatchSpec,
    SearchConfig,
    build_spacetime,
    find_meeting_radius,
    oscillation_period,
    solve_switch_configuration,
    trajectory,
)
from shellswitch import geodesic
from shellswitch.geodesic import proper_time
from shellswitch.search import one_shell_spacetime, two_shell_spacetime

from conftest import REFERENCE
from oracles import invert_leg, mp_invert_leg

# (masses center-out, shells, r_i, (dt.hex(), dtau.hex()) or exception name):
# both reference branches, shells 1e-6 and 2e-9 above a horizon, a flat
# middle patch that touches the core, a negative surface density, a release
# 1e-12 above the shell, two stacks each of 3 to 6 shells, and the stack of
# configs/flat_middle_spacetime.json, a flat patch between two shells
# (recorded at commit 74261a8)
PERIODS = [
    ((0.0, 3.0), (6.000569857819382,), 12.0,
     ('0x1.5e31bd877b462p+11', '0x1.5e5551d8cd2e6p+6')),
    ((0.0, 1.9999, 3.0), (4.0, 10.07219031346676), 12.0,
     ('0x1.851ad29687d4ap+11', '0x1.85425af0e8e83p+6')),
    ((0.0, 3.0), (7.0,), 12.0,
     ('0x1.dc4be4b4a7f44p+7', '0x1.8b39ba5a87910p+6')),
    ((0.0, 3.0749440709202327), (7.0,), 11.977602456133065,
     ('0x1.ed99ec8e1f9d2p+7', '0x1.7fc3fa75730f9p+6')),
    ((0.0, 3.0), (6.000000011999999,), 12.0,
     ('0x1.0654a2eccf51ap+19', '0x1.5d07698ce4fcdp+6')),
    ((0.0, 3.0), (6.000005999999999,), 6.5,
     ('0x1.7bddeb542c0edp+14', '0x1.dce3e746e0a49p+3')),
    ((0.0, 1.9999, 3.0), (4.0, 9.0), 12.0,
     ('0x1.9a6ef954690abp+11', '0x1.7bc613cb7984bp+6')),
    ((0.0, 1.9999, 3.0), (4.0, 6.000000011999999), 12.0,
     'UnboundGeodesicError'),
    ((0.0, 1.9999, 3.0), (3.9998000079995997, 11.5), 12.0,
     ('0x1.9880a89f9407fp+18', '0x1.a16395007cff4p+6')),
    ((0.0, 0.0, 3.0), (4.0, 8.0), 12.0,
     ('0x1.ad0ee22877476p+7', '0x1.a71edf226f84cp+6')),
    ((0.0, 2.0, 1.0), (5.0, 8.0), 10.0,
     ('0x1.78ae5eb5684b5p+7', '0x1.fc4a06e91ec59p+6')),
    ((0.0, 1.0), (2.5,), 2.5000000000025002,
     ('0x1.552e85e7165dfp+23', '0x1.3129870db4bb5p+22')),
    ((0.0, 0.575, 0.626, 0.952), (1.346, 1.663, 1.998), 2.035,
     ('0x1.99afd677a74e6p+6', '0x1.48279c34e5636p+3')),
    ((0.0, 0.416, 0.469, 0.598), (1.04, 1.417, 1.624), 1.964,
     ('0x1.58fea76f6b480p+5', '0x1.d1a82d98ae094p+3')),
    ((0.0, 1.544, 1.626, 1.661, 1.874), (3.486, 4.116, 4.769, 6.477), 8.339,
     ('0x1.6f1d3483435c4p+7', '0x1.230f58d76469ap+6')),
    ((0.0, 2.397, 2.433, 2.533, 2.962), (6.248, 6.921, 8.431, 9.749), 9.835,
     ('0x1.892f16caad5f4p+7', '0x1.454e705dba734p+6')),
    ((0.0, 1.23, 1.27, 1.29, 1.428, 2.029), (3.156, 3.484, 4.447, 5.32, 6.978), 7.191,
     ('0x1.2d9e13a1c14a8p+7', '0x1.f4948925d7c24p+5')),
    ((0.0, 2.385, 2.416, 2.511, 2.7, 2.953), (4.972, 6.059, 8.396, 11.555, 12.891), 14.525,
     ('0x1.7107850e8ef4dp+8', '0x1.0dfe62f12ef63p+7')),
    ((0.0, 0.332, 0.354, 0.367, 0.429, 0.613, 0.773), (0.937, 1.293, 1.78, 2.323, 2.998, 3.229), 3.264,
     ('0x1.02dc725c94424p+6', '0x1.10a08f3c00437p+5')),
    ((0.0, 0.728, 0.742, 0.883, 1.005, 1.042, 1.722), (1.764, 2.374, 3.239, 4.034, 5.287, 6.01), 6.305,
     ('0x1.13d019adae02ap+7', '0x1.c84ebd4aff39cp+5')),
    ((0.0, 0.5, 1.5, 3.0), (2.0, 4.0, 8.0), 12.0,
     'UnboundGeodesicError'),
    ((0.0, 5.0), (10.0,), 1000.0,
     'HorizonViolation'),
    ((0.0, 0.001), (0.5,), 0.75,
     ('0x1.d83b591d8e74cp+6', '0x1.d7382fa6a9fe4p+6')),
    ((0.0, 1.9999, 3.0), (4.0, 11.999999), 12.0,
     ('0x1.73f7063667b14p+11', '0x1.dae9b340b819cp+6')),
    ((0.0, 1.9, 0.0, 3.0), (4.0, 6.0, 9.0), 12.0,
     ('0x1.13df0d582e6bep+8', '0x1.96293deafb677p+6')),
]

# the grid-24 reference solve, its meeting and its trajectory rows, recorded
# with each contour f solved by safeguarded Newton from the rate table's
# Hermite seed (R1 1.9e-12 off the 50-digit root)
SOLUTION = {
    'R1': '0x1.424f620f623aap+3',
    'f': '0x1.515f1617908cap-2',
    'R': '0x1.800956282ca59p+2',
    'dt1': '0x1.5e31bd877e6c8p+11',
    'dtau1': '0x1.5e5551d8cd2b3p+6',
    'dt2': '0x1.851ad2968d2d7p+11',
    'dtau2': '0x1.85425af0e4e06p+6',
    'achieved_ratio': '0x1.cccccccccbf69p-1',
    'clock_residual': '-0x1.1380000000000p-48',
    'ratio_residual': '-0x1.ac80000000000p-42',
}
MEETING = {
    'r_t': '0x1.7e060e53ce0c2p+3',
    'tau_A': '0x1.71cbd664d905dp+5',
    't_A1': '0x1.5f0e518698c7dp+10',
    't_A2': '0x1.843e3e9772d22p+10',
}
# (branch, row, (t_global, r, tau)) of 64-sample trajectories over q * dt1
TRAJECTORY = [
    ('gamma1', 5, ('0x1.15ee966b88e86p+11', '0x1.310ddc51107a8p+0', '0x1.06d0ced9d48e8p+6')),
    ('gamma1', 37, ('0x1.01164b23783d6p+14', '0x1.add9595af450fp+1', '0x1.f7a67f0d1be8cp+8')),
    ('gamma2', 50, ('0x1.5b6a3c066b228p+14', '0x1.ee624b190976cp+0', '0x1.60c21c2f436ebp+9')),
]


# (PERIODS row, t_max.hex(), {row: (t_global, r, tau)}) of 64-sample
# trajectories: the outer leg of the 6.000000011999999 shell, which ends 2e-9
# above its horizon, and 1.5 periods of a 4- and a 6-shell stack.  Recorded
# from the sweep that seeds each Newton solve from the previous root in its
# leg, which puts every r and tau here within 2e-15 relative of the 50-digit
# inversion of its leg (oracles.mp_invert_leg).  Four rows moved from the
# linear-guess sampler; relative distance from the 50-digit value, old -> new:
# row 4/10 tau 1.4e-17 -> 1.0e-16; row 14/3 tau 7.1e-17 -> 1.2e-16; row 14/6
# r 3.1e-16 -> 3.0e-16, tau 3.4e-16 -> 1.1e-16; row 18/2 r 6.4e-17 -> 8.0e-17,
# tau 2.7e-17 -> 1.8e-16.
STACK_TRAJECTORIES = [
    (4, '0x1.2a60d870cd14bp+7', {
        10: ('0x1.7ae4a111456fap+4', '0x1.2c2c0665226bap+3', '0x1.e857d69dee4f1p+3'),
        40: ('0x1.7ae4a111456fap+6', '0x1.8001b8c16d509p+2', '0x1.5d053fd45e968p+4'),
        60: ('0x1.1c2b78ccf413bp+7', '0x1.8000002a1a218p+2', '0x1.5d05db9a79646p+4'),
        62: ('0x1.25a4633a2f69bp+7', '0x1.800000131eba4p+2', '0x1.5d05dba2997d5p+4'),
    }),
    (14, '0x1.1355e76272853p+8', {
        3: ('0x1.a38f1771718dfp+3', '0x1.c757aa8f2112fp+2', '0x1.2962ecae40fc4p+3'),
        6: ('0x1.a38f1771718dfp+4', '0x1.16dd1e136a2e8p+2', '0x1.f2ce422b2c5e8p+3'),
        16: ('0x1.17b4ba4ba1095p+6', '0x1.5059e575c9547p+2', '0x1.65a5095e2bbc3p+4'),
        44: ('0x1.80988027fd6cdp+7', '0x1.f1fecb39abcabp+2', '0x1.3c81ba52c970ep+6'),
    }),
    (18, '0x1.844aab8ade636p+6', {
        2: ('0x1.8a747d80e1eb1p+1', '0x1.8b4639931e4bep+1', '0x1.1a4030db308ecp+1'),
        5: ('0x1.ed119ce11a65dp+2', '0x1.27153693ff51ep+1', '0x1.4f68ac99acbf9p+2'),
        8: ('0x1.8a747d80e1eb1p+3', '0x1.2b61b85bc957ep+0', '0x1.e390a52510991p+2'),
        45: ('0x1.1559e83e9ed94p+6', '0x1.70eb4d95d0cc8p+1', '0x1.2ab77aca384bfp+5'),
    }),
]


def stack(masses, shells):
    bounds = (0.0, *shells, None)
    return build_spacetime([PatchSpec(m, bounds[k], bounds[k + 1]) for k, m in enumerate(masses)])


def outcome(period):
    """The periods' hex strings, or the name of the exception raised."""
    try:
        dt, dtau = period()[:2]
    except Exception as exc:
        return type(exc).__name__
    return dt.hex(), dtau.hex()


@pytest.mark.parametrize("masses, shells, r_i, recorded", PERIODS)
def test_oscillation_period(masses, shells, r_i, recorded):
    assert outcome(lambda: oscillation_period(stack(masses, shells), r_i)) == recorded


@pytest.mark.parametrize("masses, shells, r_i, recorded", PERIODS)
def test_period_spans(masses, shells, r_i, recorded):
    # the inbound quarter legs, which trajectory samples, carry the period's spans
    def leg_sums():
        legs = oscillation_period(stack(masses, shells), r_i)[2]
        return 4.0 * sum(leg.dt_global for leg in legs), 4.0 * sum(leg.dtau for leg in legs)

    assert outcome(leg_sums) == recorded


@pytest.fixture(scope="module")
def solved():
    config = SearchConfig(grid=24, **REFERENCE)
    solution = solve_switch_configuration(config)
    return config, solution, find_meeting_radius(solution, config)


def test_solution(solved):
    _, solution, _ = solved
    assert {k: v.hex() for k, v in solution.as_dict().items()} == SOLUTION


def test_meeting(solved):
    _, _, meeting = solved
    assert {k: getattr(meeting, k).hex() for k in MEETING} == MEETING


def test_trajectory_rows(solved):
    config, solution, _ = solved
    branches = {
        "gamma1": one_shell_spacetime(config, solution.R),
        "gamma2": two_shell_spacetime(config, solution.R1),
    }
    t_max = config.q * solution.dt1
    for branch, row, recorded in TRAJECTORY:
        samples = trajectory(branches[branch], config.r_i, t_max, 64)
        assert tuple(x.hex() for x in samples[row]) == recorded


@pytest.mark.parametrize("index, t_max, rows", STACK_TRAJECTORIES)
def test_stack_trajectory_rows(index, t_max, rows):
    masses, shells, r_i, _ = PERIODS[index]
    samples = trajectory(stack(masses, shells), r_i, float.fromhex(t_max), 64)
    assert {row: tuple(x.hex() for x in samples[row]) for row in rows} == rows


# the PERIODS stacks of 1 to 4 shells that give a period
SAMPLED_STACKS = [
    (masses, shells, r_i) for masses, shells, r_i, recorded in PERIODS
    if isinstance(recorded, tuple) and len(shells) <= 4
]


def quarter_offsets(spacetime, r_i, t_max, sample_count):
    """(n_half, inbound, offset) of each sample, reduced as trajectory does."""
    dt = oscillation_period(spacetime, r_i)[0]
    t_quarter, t_half = dt / 4.0, dt / 2.0
    reduced = []
    for i in range(sample_count):
        n_half, rem = divmod(t_max * i / (sample_count - 1), t_half)
        reduced.append((n_half, rem <= t_quarter, rem if rem <= t_quarter else t_half - rem))
    return reduced


def quarter_leg(legs, offset):
    """(leg, t_in_leg) of a quarter offset: the first leg that ends at or
    after it, else the last."""
    t0 = 0.0
    for leg in legs:
        if offset <= t0 + leg.dt_global or leg is legs[-1]:
            return leg, offset - t0
        t0 += leg.dt_global


@st.composite
def sample_grids(draw):
    """(spacetime, r_i, t_max, sample_count): k whole periods over
    k * step + 1 samples, where quarter offsets repeat, or any t_max within
    six periods either side of 0 over 2 to 600 samples."""
    masses, shells, r_i = draw(st.sampled_from(SAMPLED_STACKS))
    spacetime = stack(masses, shells)
    period = oscillation_period(spacetime, r_i)[0]
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        return spacetime, r_i, k * period, k * draw(st.integers(1, 599 // k)) + 1
    return spacetime, r_i, period * draw(st.floats(-6.0, 6.0)), draw(st.integers(2, 600))


# the outer leg of PERIODS row 4, which ends 2e-9 above its horizon, at the
# STACK_TRAJECTORIES grid
NEAR_HORIZON_GRID = (stack(*PERIODS[4][:2]), PERIODS[4][2], float.fromhex(STACK_TRAJECTORIES[0][1]), 64)
# the reference two-shell branch of PERIODS and its pinned period
REFERENCE_STACK = stack(*PERIODS[1][:2]), PERIODS[1][2]
REFERENCE_PERIOD = float.fromhex(PERIODS[1][3][0])
# three whole periods of the flat-middle stack over 240 intervals: mirrored
# and period-apart offsets repeat, in a flat leg between two Schwarzschild legs
FLAT_MIDDLE_GRID = (stack(*PERIODS[-1][:2]), PERIODS[-1][2], 3.0 * float.fromhex(PERIODS[-1][3][0]), 241)


@given(sample_grids(), st.randoms(use_true_random=False))
@example(NEAR_HORIZON_GRID, random.Random(4))
@settings(max_examples=100, deadline=None)
def test_rows_within_fifty_digit_bounds(grid, rng):
    """Up to 4 random rows per grid that fall inside a Schwarzschild leg: r
    within 1e-13 relative of the 50-digit inversion of that leg
    (oracles.mp_invert_leg), and tau within 1e-14 of the proper time since
    the cycloid's rest plus 2M/E, plus the few ulps of composing the row's
    tau from the half periods."""
    spacetime, r_i, t_max, sample_count = grid
    rows = trajectory(spacetime, r_i, t_max, sample_count)
    _, dtau, legs = oscillation_period(spacetime, r_i)
    tau_half = dtau / 2.0
    inside = []
    for row, (n_half, inbound, offset) in zip(rows, quarter_offsets(*grid)):
        leg, t = quarter_leg(legs, offset)
        if leg.cycloid is not None and 0.0 < t < leg.dt_global:
            inside.append((row, n_half, inbound, leg, t))
    for (_, r, tau), n_half, inbound, leg, t in rng.sample(inside, min(4, len(inside))):
        r_mp, dtau_mp = mp_invert_leg(leg, t)
        tau_q = leg.tau + float(dtau_mp)
        expected = n_half * tau_half + tau_q if inbound else (n_half + 1.0) * tau_half - tau_q
        params = leg.cycloid
        scale = float(dtau_mp) + proper_time(params, leg.eta_entry) + 2.0 * params.mass / params.energy
        assert abs(r - r_mp) <= 1e-13 * r_mp
        assert abs(tau - expected) <= 1e-14 * scale + 4.0 * math.ulp(max(abs(tau), abs(expected), tau_half))


@given(st.lists(sample_grids(), min_size=2, max_size=2))
@example([FLAT_MIDDLE_GRID, (*REFERENCE_STACK, 0.0, 5)])
@settings(max_examples=150, deadline=None)
def test_equal_offsets_share_bits(grids):
    """trajectory solves each distinct quarter offset once: the sweeps get
    exactly the offsets that fall in Schwarzschild legs, ascending, in one
    sweep per such leg that holds offsets, the legs outermost first, and
    every row with an offset is formed from the one (r, tau_q) it gave, or,
    in a flat leg, the per-offset solve's (oracles.invert_leg).  A repeated
    call, after a call on another grid, gives the same rows to the last bit."""
    solve_leg, first = geodesic._solve_leg, []
    for spacetime, r_i, t_max, sample_count in grids:
        swept, solved = [], []  # (leg, t_in_legs) per sweep; (tau_q, r) per solve

        def recorded(leg, t_in_legs):
            rs, dtaus, evals = solve_leg(leg, t_in_legs)
            swept.append((leg, t_in_legs))
            solved.extend((leg.tau + dtau, r) for r, dtau in zip(rs, dtaus, strict=True))
            return rs, dtaus, evals

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geodesic, "_solve_leg", recorded)
            rows = trajectory(spacetime, r_i, t_max, sample_count)
        reduced = quarter_offsets(spacetime, r_i, t_max, sample_count)
        offsets = sorted({offset for _, _, offset in reduced})
        _, dtau_period, legs = oscillation_period(spacetime, r_i)
        wanted, by_offset = [], {}  # the sweeps trajectory should make; (tau_q, r) per offset
        for offset in offsets:
            leg, t = quarter_leg(legs, offset)
            if leg.cycloid is None:
                r, dtau, _ = invert_leg(leg, t)
                by_offset[offset] = leg.tau + dtau, r
            elif wanted and wanted[-1][0] is leg:
                wanted[-1][1].append(t)
            else:
                wanted.append((leg, [t]))
        assert [(leg.patch_index, [t.hex() for t in ts]) for leg, ts in swept] == [
            (leg.patch_index, [t.hex() for t in ts]) for leg, ts in wanted
        ]
        schwarzschild = [offset for offset in offsets if offset not in by_offset]
        by_offset.update(zip(schwarzschild, solved, strict=True))
        tau_half = dtau_period / 2.0
        for (t, r, tau), (n_half, inbound, offset) in zip(rows, reduced, strict=True):
            tau_q, r_q = by_offset[offset]
            tau_row = n_half * tau_half + tau_q if inbound else (n_half + 1.0) * tau_half - tau_q
            assert (r.hex(), tau.hex()) == (r_q.hex(), tau_row.hex())
        first.append(rows)
    for (spacetime, r_i, t_max, sample_count), rows in zip(grids, first):
        again = trajectory(spacetime, r_i, t_max, sample_count)
        assert [tuple(x.hex() for x in row) for row in again] == [
            tuple(x.hex() for x in row) for row in rows
        ]


def two_loop_trajectory(spacetime, r_i, t_global_max, sample_count):
    """trajectory's rows as two per-sample Python loops formed them before
    the reduction and the assembly moved onto numpy arrays, each offset
    solved by the per-offset solve (oracles.invert_leg) before the per-leg
    sweep: the reference the array operations and the sweeps must match to
    the last bit."""
    dt_period, dtau_period, legs = oscillation_period(spacetime, r_i)
    t_quarter, t_half, tau_half = dt_period / 4.0, dt_period / 2.0, dtau_period / 2.0
    rows, solved = [], {}  # rows hold (t, n_half, inbound, offset) until solved
    for i in range(sample_count):
        t = t_global_max * i / (sample_count - 1) if sample_count > 1 else 0.0
        n_half, rem = divmod(t, t_half)
        inbound = rem <= t_quarter
        offset = rem if inbound else t_half - rem
        solved[offset] = None
        rows.append((t, n_half, inbound, offset))
    k, t0, seed = 0, 0.0, None
    for offset in sorted(solved):
        while offset > t0 + legs[k].dt_global and k < len(legs) - 1:
            t0 += legs[k].dt_global
            k, seed = k + 1, None
        # each solve measures from its leg's origin, the (t, tau) at entry
        r, dtau, seed = invert_leg(legs[k], offset - t0, seed)
        solved[offset] = r, legs[k].tau + dtau
    for i, (t, n_half, inbound, offset) in enumerate(rows):
        r, tau_q = solved[offset]
        rows[i] = t, r, n_half * tau_half + tau_q if inbound else (n_half + 1.0) * tau_half - tau_q
    return rows


@given(sample_grids())
@example(FLAT_MIDDLE_GRID)
@example((*REFERENCE_STACK, -100.0, 1))  # one sample, at t = +0.0 for any t_max
@example((*REFERENCE_STACK, 0.0, 5))  # t_max = 0: every offset is 0.0
@example((*REFERENCE_STACK, -2.5 * REFERENCE_PERIOD, 64))  # a negative t_max
# t_max = -0.0: every sample time and n_half is -0.0, and the offset +0.0
@example((*REFERENCE_STACK, -0.0, 3))
# a negative t_max aligned to the half period: the offset 0.0 comes from
# t = -0.0 and from whole half periods, mirrored offsets repeat
@example((*REFERENCE_STACK, -2.0 * REFERENCE_PERIOD, 9))
@settings(max_examples=100, deadline=None)
def test_rows_match_two_loop_reference(grid):
    """The array reduction, the per-leg sweeps and the assembly give the two
    loops' rows bit for bit, as one C-contiguous (n, 3) float64 array."""
    rows = trajectory(*grid)
    assert type(rows) is np.ndarray and rows.dtype == np.float64
    assert rows.shape == (grid[3], 3) and rows.flags.c_contiguous
    assert [tuple(x.hex() for x in row) for row in rows] == [
        tuple(x.hex() for x in row) for row in two_loop_trajectory(*grid)
    ]


def test_rows_leave_no_tracked_objects():
    """Work guard: the rows are one array, which the garbage collector does
    not track, and a 2,000-sample call on the reference two-shell branch
    leaves at most 50 more tracked objects allocated than it frees (a tuple
    per row would leave 2,000).  The collector is off while it is measured,
    so that no collection resets the count, and 2,500 3-tuples are held,
    which empties CPython's free list of them: a tuple taken from that list
    is not counted as an allocation."""
    spacetime, r_i = REFERENCE_STACK
    args = spacetime, r_i, 3.0 * REFERENCE_PERIOD, 2000
    trajectory(*args)  # numpy's import and first-call caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        held = [(i, i, i) for i in range(2500)]  # noqa: F841
        before = gc.get_count()[0]
        rows = trajectory(*args)
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert not gc.is_tracked(rows)
    assert grown <= 50
