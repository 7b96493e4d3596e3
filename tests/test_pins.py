"""Bits recorded at commit 667e01a, before the period walk moved onto floats,
except where a table says otherwise.

Every value is a float.hex string and is compared with ==: a refactor of the
period, search or sampling paths keeps these outputs to the last bit.  A
string in place of the two periods names the exception that stack raises.
"""

import pytest
from hypothesis import given, settings
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
from shellswitch.geodesic import _leg_origin, _quarter_sample
from shellswitch.search import one_shell_spacetime, two_shell_spacetime

from conftest import REFERENCE

# (masses center-out, shells, r_i, (dt.hex(), dtau.hex()) or exception name):
# both reference branches, shells 1e-6 and 2e-9 above a horizon, a flat
# middle patch, a negative surface density, a release 1e-12 above the shell,
# and two stacks each of 3 to 6 shells
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
# from the safeguarded Newton sampler, which put every r and tau here within
# 2e-15 relative of the 50-digit inversion of its leg (oracles.mp_invert_leg).
STACK_TRAJECTORIES = [
    (4, '0x1.2a60d870cd14bp+7', {
        10: ('0x1.7ae4a111456fap+4', '0x1.2c2c0665226bap+3', '0x1.e857d69dee4f0p+3'),
        40: ('0x1.7ae4a111456fap+6', '0x1.8001b8c16d509p+2', '0x1.5d053fd45e968p+4'),
        60: ('0x1.1c2b78ccf413bp+7', '0x1.8000002a1a218p+2', '0x1.5d05db9a79646p+4'),
        62: ('0x1.25a4633a2f69bp+7', '0x1.800000131eba4p+2', '0x1.5d05dba2997d5p+4'),
    }),
    (14, '0x1.1355e76272853p+8', {
        3: ('0x1.a38f1771718dfp+3', '0x1.c757aa8f2112fp+2', '0x1.2962ecae40fc3p+3'),
        6: ('0x1.a38f1771718dfp+4', '0x1.16dd1e136a2e5p+2', '0x1.f2ce422b2c5eap+3'),
        16: ('0x1.17b4ba4ba1095p+6', '0x1.5059e575c9547p+2', '0x1.65a5095e2bbc3p+4'),
        44: ('0x1.80988027fd6cdp+7', '0x1.f1fecb39abcabp+2', '0x1.3c81ba52c970ep+6'),
    }),
    (18, '0x1.844aab8ade636p+6', {
        2: ('0x1.8a747d80e1eb1p+1', '0x1.8b4639931e4bfp+1', '0x1.1a4030db308ebp+1'),
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


def solve_per_sample(spacetime, r_i, t_max, sample_count):
    """trajectory's rows with one _quarter_sample call per sample."""
    dt, dtau, legs = oscillation_period(spacetime, r_i)
    origins = [_leg_origin(leg) for leg in legs]
    t_quarter, t_half, tau_half = dt / 4.0, dt / 2.0, dtau / 2.0
    rows = []
    for i in range(sample_count):
        t = t_max * i / (sample_count - 1)
        n_half, rem = divmod(t, t_half)
        if rem <= t_quarter:
            r, tau_q = _quarter_sample(legs, origins, rem)
            rows.append((t, r, n_half * tau_half + tau_q))
        else:
            r, tau_q = _quarter_sample(legs, origins, t_half - rem)
            rows.append((t, r, (n_half + 1.0) * tau_half - tau_q))
    return rows


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


@given(st.lists(sample_grids(), min_size=2, max_size=2))
@settings(max_examples=150, deadline=None)
def test_offset_reuse_keeps_every_bit(grids):
    """trajectory solves each distinct quarter offset once per call; its rows
    are those of a solve per sample, to the last bit.  Two calls per example,
    so that reuse across calls shows too: offset 0.0 recurs in every call."""
    for spacetime, r_i, t_max, sample_count in grids:
        got = trajectory(spacetime, r_i, t_max, sample_count)
        expected = solve_per_sample(spacetime, r_i, t_max, sample_count)
        assert [tuple(x.hex() for x in row) for row in got] == [
            tuple(x.hex() for x in row) for row in expected
        ]
