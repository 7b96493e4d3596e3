"""Glued spherically symmetric spacetimes built from concentric static patches.

A spacetime is an ordered stack of Schwarzschild/Minkowski patches joined at
thin mass shells.  Matching the induced metric across each shell fixes a
per-patch "lapse" constant that converts local patch coordinate time to the
global (exterior) coordinate time.  The mismatch of extrinsic curvature at a
shell fixes the surface stress-energy carried by the shell.

Conventions: geometric units G = c = 1; all stress quantities are reported as
the coefficient multiplying the transverse delta distribution; angular
evaluations are at the equatorial plane.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import GeometryError, HorizonViolation, InputError
from .fields import real, required

DEFAULT_HORIZON_MARGIN = 1e-9


def metric_factor(mass: float, r: float) -> float:
    """1 - 2*mass/r, evaluated as (r - 2*mass)/r to keep precision near r = 2*mass."""
    return (r - 2.0 * mass) / r


@dataclass(frozen=True)
class PatchSpec:
    """One static spherically symmetric patch: Schwarzschild of the given mass
    (Minkowski when mass = 0) on the radial domain [r_min, r_max]."""

    mass: float
    r_min: float
    r_max: float | None  # None = unbounded (outermost patch)

    def __post_init__(self):
        mass, r_min, r_max = self.mass, self.r_min, self.r_max
        if mass < 0:
            raise GeometryError(f"patch mass must be >= 0, got {mass}")
        if r_min < 0:
            raise GeometryError(f"patch r_min must be >= 0, got {r_min}")
        if r_max is not None and r_min >= r_max:
            raise GeometryError(f"patch needs r_min < r_max, got [{r_min}, {r_max}]")
        if r_min > 0 and r_min <= 2.0 * mass:
            raise HorizonViolation(
                f"patch domain starts at r_min={r_min} inside the horizon 2*mass={2.0 * mass}"
            )

    @property
    def bounded(self) -> bool:
        return self.r_max is not None


@dataclass(frozen=True)
class ShellSpacetime:
    """Validated stack of patches.  shells[j] separates patches[j] (inner) from
    patches[j+1] (outer).  lapses[k] converts patch-k local coordinate time to
    global time: t_global = lapses[k] * t_local.  The outermost lapse is 1."""

    patches: tuple[PatchSpec, ...]
    shells: tuple[float, ...]
    lapses: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        count = len(self.patches)
        if len(self.shells) != count - 1:
            raise GeometryError(
                f"shells must hold {count - 1} radii for {count} patches, got {len(self.shells)}")
        if len(self.lapses) != count:
            raise GeometryError(
                f"lapses must hold {count} values, one per patch, got {len(self.lapses)}")
        for k, lapse in enumerate(self.lapses):
            if not 0.0 < lapse < math.inf:
                raise GeometryError(f"lapses[{k}] must be finite and > 0, got {lapse!r}")

    def shell(self, shell_index: int) -> tuple[float, float, float]:
        """(R, inner mass, outer mass) of shell shell_index.  The junction gap
        and the stress hold R * R, and the stress divides by it: a subnormal
        R * R loses bits, and 0 or inf keeps none."""
        R = self.shells[shell_index]
        if not sys.float_info.min <= R * R < math.inf:
            raise GeometryError(
                f"shell {shell_index} at R={R!r}: R*R={R * R!r} is not a normal float")
        return R, self.patches[shell_index].mass, self.patches[shell_index + 1].mass


@dataclass(frozen=True)
class SurfaceStress:
    """Surface stress-energy of one shell, as delta-coefficient values.

    Diagonal components are ordered (t, theta, phi), in the time coordinate of
    the patch just outside the shell, evaluated at the equatorial plane."""

    shell_radius: float
    K_jump: tuple[float, float, float]
    S: tuple[float, float, float]
    rho: float
    P_tangential: float
    P_radial: float = 0.0


def build_spacetime(
    patches: list[PatchSpec] | tuple[PatchSpec, ...],
    horizon_margin: float = DEFAULT_HORIZON_MARGIN,
) -> ShellSpacetime:
    """Validate a center-out patch list and assemble the glued spacetime.

    Checks adjacency (no gaps/overlaps), shell-horizon clearance with the given
    relative margin, and the flat-core requirement for multi-patch stacks.
    Lapses are cumulative products of the per-shell time-identification factors.
    Configs are always checked at DEFAULT_HORIZON_MARGIN; a smaller margin is
    for library callers that study a shell closer to its horizon, such as the
    pressure's growth 1e-10 above 2M in acceptance criterion 5.
    """
    patches = tuple(patches)
    if not patches:
        raise GeometryError("at least one patch is required")
    if patches[0].r_min != 0.0:
        raise GeometryError("innermost patch must start at r = 0")
    if patches[-1].bounded:
        raise GeometryError("outermost patch must be unbounded")
    for k, p in enumerate(patches[:-1]):
        if not p.bounded:
            raise GeometryError(f"only the outermost patch may be unbounded (patch {k})")
    if len(patches) > 1 and patches[0].mass != 0.0:
        raise GeometryError("innermost patch must be a flat (mass 0) core when shells are present")
    for k, (inner, outer) in enumerate(zip(patches, patches[1:])):
        R = inner.r_max
        if R != outer.r_min:
            raise GeometryError(
                f"gap or overlap between patches {k} and {k + 1}: {R} != {outer.r_min}"
            )
        if metric_factor(outer.mass, R) < horizon_margin:
            raise HorizonViolation(
                f"shell at R={R} at or inside the outer-patch horizon "
                f"2*mass={2.0 * outer.mass} (relative margin {horizon_margin})"
            )

    # Per-shell factor sqrt(f_in/f_out) relates local times across shell j;
    # a patch's lapse is the product over all shells outside it.
    lapses = [1.0] * len(patches)
    for k in range(len(patches) - 2, -1, -1):
        R = patches[k].r_max
        f_in = metric_factor(patches[k].mass, R)
        f_out = metric_factor(patches[k + 1].mass, R)
        lapses[k] = lapses[k + 1] * math.sqrt(f_in / f_out)
    warnings = [
        f"shell at R={inner.r_max}: outer mass {outer.mass} < inner mass "
        f"{inner.mass}, negative surface energy density"
        for inner, outer in zip(patches, patches[1:]) if outer.mass < inner.mass
    ]
    return ShellSpacetime(
        patches=patches,
        shells=tuple(p.r_max for p in patches[:-1]),
        lapses=tuple(lapses),
        warnings=tuple(warnings),
    )


def induced_metric_gap(spacetime: ShellSpacetime, shell_index: int) -> float:
    """Max absolute mismatch of the induced 3-metric across a shell.

    Both sides are expressed in the time coordinate of the outer patch (scaled
    by the spacetime's actual lapse ratio, so a tampered time identification
    shows up as a nonzero gap).  Components (t, theta, phi) at the equator.
    """
    R, mu_in, mu_out = spacetime.shell(shell_index)
    f_in = metric_factor(mu_in, R)
    f_out = metric_factor(mu_out, R)
    # t_in_local = (lapse_out / lapse_in) * t_out_local
    scale = spacetime.lapses[shell_index + 1] / spacetime.lapses[shell_index]
    h_out = (-f_out, R * R, R * R)
    h_in = (-f_in * scale * scale, R * R, R * R)
    return max(abs(a - b) for a, b in zip(h_out, h_in))


def shell_stress(spacetime: ShellSpacetime, shell_index: int) -> SurfaceStress:
    """Extrinsic-curvature jump and surface stress-energy of one shell.

    The jump is contracted with the static-observer 4-velocity for the energy
    density and with the tangential unit vectors for the pressure.  The radial
    pressure vanishes identically for these shells.
    """
    R, mu_in, mu_out = spacetime.shell(shell_index)
    f_in = metric_factor(mu_in, R)
    f_out = metric_factor(mu_out, R)
    if f_out <= 0.0:
        raise HorizonViolation(f"shell at R={R} inside outer horizon")

    s_in, s_out = math.sqrt(f_in), math.sqrt(f_out)
    # Diagonal extrinsic curvature on each side, components (t, theta, phi) in
    # the outer patch's local time coordinate, at the equator.
    K_out = (-(mu_out / R**2) * s_out, R * s_out, R * s_out)
    K_in = (-(mu_in / R**2) * (f_out / s_in), R * s_in, R * s_in)
    K_jump = tuple(a - b for a, b in zip(K_out, K_in))

    h = (-f_out, R * R, R * R)
    trace = sum(kj / hc for kj, hc in zip(K_jump, h))
    S = tuple(
        -(kj - trace * hc) / (8.0 * math.pi) for kj, hc in zip(K_jump, h)
    )

    rho = S[0] / f_out  # S_tt u^t u^t with u^t = f_out^{-1/2}
    P = S[1] / (R * R)
    return SurfaceStress(
        shell_radius=R, K_jump=K_jump, S=S, rho=rho, P_tangential=P
    )


# ---------------------------------------------------------------------------
# JSON interface

def patches_from_config(doc: dict) -> list[PatchSpec]:
    """Parse the {"patches": [{"mass", "r_min", "r_max"}]} document."""
    entries = required(doc, "patches")
    if not isinstance(entries, list):
        raise InputError(f"patches must be a list of objects, got {entries!r}")
    specs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InputError(f"patches[{i}] must be an object, got {entry!r}")
        specs.append(PatchSpec(
            mass=real(entry, "mass"),
            r_min=real(entry, "r_min"),
            r_max=None if entry.get("r_max") is None else real(entry, "r_max"),
        ))
    return specs


def spacetime_from_config(doc: dict) -> ShellSpacetime:
    return build_spacetime(patches_from_config(doc))


def stress_report(spacetime: ShellSpacetime) -> dict:
    """JSON-ready stress records keyed by shell radius."""
    records = {}
    for j, R in enumerate(spacetime.shells):
        st = shell_stress(spacetime, j)
        records[repr(R)] = {
            "shell_radius": st.shell_radius,
            "K_jump": list(st.K_jump),
            "S": list(st.S),
            "rho": st.rho,
            "P_tangential": st.P_tangential,
            "P_radial": st.P_radial,
        }
    return records
