"""Glued spherical-shell spacetimes, radial geodesics, and the gravitational
quantum switch parameter search.  Import each name from its defining module."""

__version__ = "0.1.0"


def __getattr__(name: str):
    # bench/calibration_check.py imports these three from the package
    if name in ("PatchSpec", "build_spacetime", "trajectory"):
        from . import geodesic, spacetime
        return getattr(geodesic if name == "trajectory" else spacetime, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
