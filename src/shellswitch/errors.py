"""Exception hierarchy shared across the package."""


class ShellSwitchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ShellSwitchError, ValueError):
    """Malformed input: an unreadable file, a wrong type or a non-finite number."""


class GeometryError(ShellSwitchError, ValueError):
    """Invalid spacetime geometry (bad patches, shells, or radii)."""


class HorizonViolation(GeometryError):
    """A shell or release radius sits at or inside the relevant horizon."""


class GeodesicError(ShellSwitchError, ValueError):
    """Invalid geodesic configuration or propagation request."""


class UnboundGeodesicError(GeodesicError):
    """Local energy >= 1: only bound (drop-from-rest) motion is supported."""


class UnreachableRadiusError(GeodesicError):
    """Requested exit radius lies beyond the (fictitious) apoapsis."""


class NoRestoringForceError(GeodesicError):
    """Oscillation requested in an all-flat spacetime."""


class SearchError(ShellSwitchError, ValueError):
    """Parameter search failed."""


class NoSolutionAtRadius(SearchError):
    """No contour root in the admissible interval at this outer-shell radius."""


class UnattainableRatioError(SearchError):
    """Requested period ratio lies outside the range spanned by the contour."""

    def __init__(self, ratio, lo, hi):
        self.ratio = ratio
        self.attainable = (lo, hi)
        super().__init__(
            f"period ratio {ratio} outside attainable interval "
            f"[{lo:.6f}, {hi:.6f}]"
        )


class MultipleCrossingsError(SearchError):
    """The period ratio crosses its target more than once along the contour."""

    def __init__(self, ratio, brackets):
        self.ratio = ratio
        self.brackets = tuple(brackets)
        super().__init__(
            f"period ratio {ratio} crossed {len(self.brackets)} times along the contour, "
            "in the R1 brackets " + ", ".join(f"[{a!r}, {b!r}]" for a, b in self.brackets)
        )


class NoMeetingError(SearchError):
    """No transversal crossing of the two branch proper-time curves."""


class ScheduleError(ShellSwitchError, ValueError):
    """Event schedule violates the strict ordering t_A1 < t_B < t_A2."""


class DimensionMismatchError(ShellSwitchError, ValueError):
    """Operator/state dimensions are inconsistent."""
