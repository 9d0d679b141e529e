"""Exception hierarchy shared across the package."""


class MeanrevError(Exception):
    """Base class for all package errors."""


class ValidationError(MeanrevError):
    """An input (model parameters, a state or a time) violates one of its invariants."""


class NotSymmetric(ValidationError):
    pass


class NotUnitDiagonal(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class AllKappaZero(ValidationError):
    pass


class NonPositiveSigma(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    """An array has the wrong length or shape for the model's size."""


class NonFinite(ValidationError):
    """A parameter holds NaN or an infinity."""


class OutOfDomain(ValidationError):
    """A finite parameter lies outside its admissible range."""


class FactorizationFailure(MeanrevError):
    """A covariance matrix could not be factorized (numerically not PSD)."""


class BlowUpDetected(MeanrevError):
    """A Riccati solution diverged in finite time.

    Attributes
    ----------
    tau_star : float
        The pole.  From ``riccati.solve``, the root of det P, P the solve's
        shifted inverse of S, or for a failed integration the last time it
        reached.  From ``riccati.embedding_pass``, the first zero of det U,
        located inside the step that counted it.
    switch_tau : float or None
        Inverse time at which the solve switched from S to P, the end of its
        first step at which max|S| reached the switch level; None if none did.
    """

    def __init__(self, tau_star, message=None, switch_tau=None):
        self.tau_star = float(tau_star)
        self.switch_tau = switch_tau
        super().__init__(message or f"Riccati solution blew up near tau = {tau_star:.6g}")

    def __reduce__(self):
        # Exception's own reduce rebuilds from ``args``, the message alone.
        return type(self), (self.tau_star, str(self), self.switch_tau)


class TrigSingularity(BlowUpDetected):
    """The risk-seeking closed-form branch hit its trigonometric pole."""


class ValueOverflow(MeanrevError):
    """A value is past the largest double, though its logarithm is finite."""


class ValueUnderflow(MeanrevError):
    """A value is below the smallest normal double, though its logarithm is finite."""


class OutOfHorizon(ValidationError):
    """A time query lies outside the horizon covered by a solution."""


class OutOfRange(MeanrevError):
    """A grid or path query lies outside the stored span."""


class TooFewPaths(MeanrevError):
    """Fewer than two retained paths leave a Monte-Carlo estimate without a standard error."""


class NonPositiveVariance(MeanrevError):
    """Terminal-wealth variance estimate is not positive; Sharpe undefined."""
