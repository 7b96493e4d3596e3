"""Reference computations that share no code with shellswitch.

Periods come from direct quadrature of the radial geodesic equations in each
patch, with lapses and local energies derived here from the first junction
condition.  The quadrature is a double-exponential (tanh-sinh) rule evaluated
with numpy: its nodes cluster at both ends of an interval, which resolves the
inverse-square-root apoapsis endpoint and the 1/(r - 2m) peak of a shell that
sits next to its horizon.  Distances to the ends of an interval are formed
directly from the node parameter, never as differences of nearby radii.

Stacks are described as `masses` (center-out, one per patch; masses[0] is the
flat core) and `shells` (len(masses) - 1 radii, increasing).
"""

from __future__ import annotations

import math

import numpy as np

# tanh-sinh nodes on t in [-4, 4], step 1/32: u = (pi/2) sinh t, x = tanh u.
_T = np.arange(-128, 129) / 32.0
_U = 0.5 * math.pi * np.sinh(_T)
_W = (1.0 / 32.0) * 0.5 * math.pi * np.cosh(_T) / np.cosh(_U) ** 2
# fractions of the interval to the left and to the right end: (1 + x)/2, (1 - x)/2
_FRAC_A = 1.0 / (1.0 + np.exp(-2.0 * _U))
_FRAC_B = 1.0 / (1.0 + np.exp(2.0 * _U))


def _nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(r, r - a, b - r, weight) for integrating over [a, b]."""
    width = b - a
    da = width * _FRAC_A
    db = width * _FRAC_B
    r = np.where(_FRAC_A < 0.5, a + da, b - db)
    return r, da, db, 0.5 * width * _W


def metric(mass: float, r: float) -> float:
    return (r - 2.0 * mass) / r


def lapses(masses, shells) -> list[float]:
    """Patch-to-global time factors from continuity of the induced metric.

    At shell R between patches k and k+1, f_k dt_k^2 = f_{k+1} dt_{k+1}^2 and
    t_global = L_k t_k, so L_k = L_{k+1} sqrt(f_k(R) / f_{k+1}(R)); L_outer = 1.
    """
    n = len(masses)
    out = [1.0] * n
    for k in range(n - 2, -1, -1):
        R = shells[k]
        out[k] = out[k + 1] * math.sqrt(metric(masses[k], R) / metric(masses[k + 1], R))
    return out


def energies(masses, shells, r_i: float) -> list[float]:
    """Local Killing energy E_k = f_k dt_k/dtau of a body released from rest at r_i.

    The 4-velocity is continuous across a shell, so its orthonormal time
    component sqrt(f) dt/dtau is too; hence E_k / E_{k+1} = sqrt(f_k / f_{k+1})
    at the shell, the same factor as the lapses: E_k = E_outer * L_k.
    """
    E = math.sqrt(metric(masses[-1], r_i))
    return [E * L for L in lapses(masses, shells)]


def _patch_spans(mass: float, E: float, a: float, b: float, release: bool) -> tuple[float, float]:
    """(local dt, dtau) for radial infall across [a, b] in one patch.

    With release=True the body is at rest at b (E^2 = f(b)), and
    E^2 - f(r) = 2 m (b - r) / (r b) is formed from the distance b - r.
    """
    if mass == 0.0:
        dtau = (b - a) / math.sqrt(E * E - 1.0)
        return E * dtau, dtau
    r, da, db, w = _nodes(a, b)
    if release:
        g = 2.0 * mass * db / (r * b)
    else:
        g = (E * E - 1.0) + 2.0 * mass / r
    root = np.sqrt(g)
    near = (a - 2.0 * mass) + da  # r - 2m, exact near the inner end
    dtau = float(np.sum(w / root))
    dt = float(np.sum(w * E * r / (near * root)))
    return dt, dtau


def period(masses, shells, r_i: float) -> tuple[float, float]:
    """(Dt_global, Dtau) of one full oscillation through the flat core."""
    if masses[0] != 0.0:
        raise ValueError("oscillation needs a flat core")
    L = lapses(masses, shells)
    E = energies(masses, shells, r_i)
    bounds = [0.0, *shells, r_i]
    dt = dtau = 0.0
    n = len(masses)
    for k in range(n):
        t_k, tau_k = _patch_spans(masses[k], E[k], bounds[k], bounds[k + 1], k == n - 1)
        dt += L[k] * t_k
        dtau += tau_k
    return 4.0 * dt, 4.0 * dtau


def exterior_spans(M: float, r_i: float, r: float) -> tuple[float, float]:
    """(dt, dtau) from rest at r_i down to r in a Schwarzschild patch of mass M."""
    return _patch_spans(M, math.sqrt(metric(M, r_i)), r, r_i, True)


def null_time(masses, shells, r_a: float, r_b: float) -> float:
    """Global time of a radial light ray between r_a and r_b (closed form)."""
    L = lapses(masses, shells)
    lo, hi = min(r_a, r_b), max(r_a, r_b)
    bounds = [0.0, *shells, math.inf]
    total = 0.0
    for k, mass in enumerate(masses):
        p_lo, p_hi = max(lo, bounds[k]), min(hi, bounds[k + 1])
        if p_hi <= p_lo:
            continue
        dt = p_hi - p_lo
        if mass > 0.0:
            dt += 2.0 * mass * math.log1p((p_hi - p_lo) / (p_lo - 2.0 * mass))
        total += L[k] * dt
    return total


def shell_density(m_in: float, m_out: float, R: float) -> float:
    """Thin-shell surface energy density (sqrt f_in - sqrt f_out) / (4 pi R)."""
    return (math.sqrt(metric(m_in, R)) - math.sqrt(metric(m_out, R))) / (4.0 * math.pi * R)


def switch_probabilities(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> tuple[float, float]:
    """(P+, P-) = (|{A,B} psi|^2 / 4, |[A,B] psi|^2 / 4)."""
    ab, ba = A @ (B @ psi), B @ (A @ psi)
    plus, minus = ab + ba, ab - ba
    return float(np.vdot(plus, plus).real) / 4.0, float(np.vdot(minus, minus).real) / 4.0


def broken_switch_joint(B: np.ndarray, C: np.ndarray, D: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(C B psi (+) B D psi) / sqrt(2), control-major."""
    return np.concatenate([C @ (B @ psi), B @ (D @ psi)]) / math.sqrt(2.0)
