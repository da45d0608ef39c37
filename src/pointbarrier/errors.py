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


class TruncationDomainError(NumericsError):
    """The truncated computational box is too small: a requested eigenvalue
    comes within the safety margin of the wall potential."""


class SpectralWindowError(NumericsError):
    """An eigenvalue search window was exhausted before the requested number
    of levels was found."""


class AlignmentError(NumericsError):
    """A perturbed eigenvalue could not be matched to a limit eigenvalue
    within the trust window of a convergence study."""
