"""Brent's bracketing root finder (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4), ported from scipy's brentq.c with the same float
operations in the same order: for the same f, brackets and tolerances it
evaluates the same abscissae and returns the same root, bit for bit, as
scipy.optimize.brentq, and raises where that raises.  tests/test_search.py
holds it to scipy on random brackets."""

from __future__ import annotations

import math

RTOL_FLOOR = 4.0 * 2.0**-52  # scipy's smallest rtol, 4 machine epsilons


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign bit: the
    returned x has f(x) == 0 or lies within xtol + rtol |x| of a sign change.
    ValueError for xtol <= 0, rtol below RTOL_FLOOR, ends of one sign bit, or
    a NaN value of f; RuntimeError after maxiter iterations."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_FLOOR:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_FLOOR:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    copysign, fabs = math.copysign, abs
    if copysign(1.0, fpre) == copysign(1.0, fcur):  # brentq.c's signbit test
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if fabs(fblk) < fabs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * fabs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or fabs(sbis) < delta:
            return xcur
        if fabs(spre) > delta and fabs(fcur) < fabs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * fabs(sbis) - delta
            if 2 * fabs(stry) < (fabs(spre) if fabs(spre) < bound else bound):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if fabs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _value(f, x: float) -> float:
    fx = f(x)
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx
