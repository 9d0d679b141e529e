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
        Inverse time at which divergence was detected.
    """

    def __init__(self, tau_star, message=None):
        self.tau_star = float(tau_star)
        super().__init__(message or f"Riccati solution blew up near tau = {tau_star:.6g}")


class TrigSingularity(BlowUpDetected):
    """The risk-seeking closed-form branch hit its trigonometric pole."""


class OutOfHorizon(ValidationError):
    """A time query lies outside the horizon covered by a solution."""


class OutOfRange(MeanrevError):
    """A grid or path query lies outside the stored span."""


class NonPositiveVariance(MeanrevError):
    """Terminal-wealth variance estimate is not positive; Sharpe undefined."""
