"""The search's root finder, shellswitch._brent.brentq, is a port of scipy's
brentq.c: on the same function, brackets and tolerances it must evaluate the
same abscissae in the same order and end the same way, with the root's bits,
or the exception's class and message.  CI reruns the property under five
seeds."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from shellswitch._brent import brentq

RTOL = 8.9e-16  # both call sites' relative tolerance


def _families(c: float, w: float):
    """Smooth functions rising through a zero at c, where each is exactly 0."""
    k = c + math.sin(c)
    return {
        "cubic": lambda x: w * (x - c) ** 3,
        "atan": lambda x: math.atan(w * (x - c)) + 0.1 * (x - c),
        "expm1": lambda x: math.expm1(math.atan(w * (x - c))),
        "kepler": lambda x: x + math.sin(x) - k,  # the meeting's eta + sin(eta) - x
        "linear_sine": lambda x: w * (x - c) + 1e-3 * math.sin(7.0 * (x - c)),
    }


def run(solver, f, a, b, xtol, rtol, maxiter, nan_at):
    """(abscissae evaluated, outcome): the root's float.hex, or the raised
    exception's class and message; the nan_at-th evaluation returns NaN."""
    xs = []

    def counted(x):
        xs.append(x.hex())
        return math.nan if len(xs) == nan_at else f(x)

    try:
        outcome = solver(counted, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter).hex()
    except (ValueError, RuntimeError) as exc:
        outcome = (type(exc), str(exc))
    return xs, outcome


@st.composite
def brackets(draw):
    """(f, a, b, xtol, maxiter, nan_at): a family's zero c with a bracket
    around it, or both ends on one side (same-sign ends), or an end on c (a
    zero at the end), in either order; xtol the R1 root's (root_tol, 1e-10 by
    default) or the meeting's (1e-300), or any in between; maxiter 100 or too
    few; and, now and then, a NaN at one evaluation."""
    c = draw(st.floats(-1e3, 1e3))
    w = 10.0 ** draw(st.floats(-3.0, 3.0))
    f = _families(c, w)[draw(st.sampled_from(["cubic", "atan", "expm1", "kepler", "linear_sine"]))]
    below, above = (draw(st.floats(1e-12, 4.0)) * max(1.0, abs(c)) for _ in range(2))
    a, b = draw(st.sampled_from([
        (c - below, c + above), (c - below, c + above), (c - below, c + above),
        (c + below, c + below + above), (c - below - above, c - below),  # one sign
        (c, c + above), (c - below, c),  # a zero at an end
    ]))
    if draw(st.booleans()):
        a, b = b, a
    xtol = draw(st.one_of(st.just(1e-10), st.just(1e-300), st.floats(1e-300, 1e-3)))
    maxiter = draw(st.sampled_from([100, 100, 100, 0, 1, 3, 6]))
    nan_at = draw(st.one_of(st.just(0), st.just(0), st.integers(1, 12)))
    return f, a, b, xtol, maxiter, nan_at


@given(brackets())
@settings(max_examples=500, deadline=None)
def test_matches_scipy_bit_for_bit(inputs):
    f, a, b, xtol, maxiter, nan_at = inputs
    want = run(scipy_brentq, f, a, b, xtol, RTOL, maxiter, nan_at)
    assert run(brentq, f, a, b, xtol, RTOL, maxiter, nan_at) == want


@pytest.mark.parametrize("xtol, rtol", [(0.0, RTOL), (-1e-10, RTOL), (1e-10, 8.8e-16), (1e-10, 0.0)])
def test_refuses_scipys_tolerances(xtol, rtol):
    f = _families(0.5, 1.0)["atan"]
    want = run(scipy_brentq, f, 0.0, 1.0, xtol, rtol, 100, 0)
    assert run(brentq, f, 0.0, 1.0, xtol, rtol, 100, 0) == want
    assert want[0] == [] and want[1][0] is ValueError


@example(math.nan)
@example(-0.0)
@example(0.0)
@given(st.floats(allow_nan=True))
def test_first_value_alone_decides_an_end(value):
    """A zero (of either sign) at a is returned before b's sign is read, and a
    NaN there raises; any other value of one sign bit with b's raises."""
    f = lambda x: value if x == 1.0 else 2.0  # noqa: E731
    assert run(brentq, f, 1.0, 2.0, 1e-10, RTOL, 100, 0) == run(scipy_brentq, f, 1.0, 2.0, 1e-10, RTOL, 100, 0)
