"""Exception hierarchy shared by all solver modules."""


class PointBarrierError(Exception):
    """Base class for all package errors."""


class ProfileFormatError(PointBarrierError, ValueError):
    """Malformed profile definition (segments do not partition [-1, 1], etc.)."""


class PreconditionError(PointBarrierError, ValueError):
    """An operation was called outside its documented domain of validity."""


class NotInResonanceSetError(PreconditionError):
    """A coupling constant was treated as resonant but the Neumann miss
    function does not vanish within tolerance."""


class NumericsError(PointBarrierError, RuntimeError):
    """Base class for runtime numerical failures."""


class StepSizeUnderflowError(NumericsError):
    """The adaptive integrator had to shrink the step, or the mesh builder
    an interval, below 1e-14 times its span.

    Carries the location where the integration stalled.
    """

    def __init__(self, location: float, message: str | None = None):
        self.location = location
        super().__init__(
            message or f"step size underflow near x = {location!r} (stiff or singular coefficient)"
        )


class BracketShortfallError(NumericsError):
    """An exact root index counts more roots in an interval than show a
    sign change at the halving floor.

    Carries both numbers, so a caller can name the interval in its own
    coordinate.
    """

    def __init__(self, counted: int, found: int, message: str):
        self.counted, self.found = counted, found
        super().__init__(message)


class TruncationDomainError(NumericsError):
    """The truncated computational box is too small: a requested eigenvalue
    comes within the safety margin of the wall potential."""


class SpectralWindowError(NumericsError):
    """No start below the lowest level of a limit problem was found: its
    Sturm index still counts levels at the lowest start tried."""


class AlignmentError(NumericsError):
    """A perturbed eigenvalue could not be matched to a limit eigenvalue
    within the trust window of a convergence study."""
