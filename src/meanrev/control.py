"""Position rule and value function evaluation from Riccati solutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import OutOfHorizon
from .model import NormalizationRecord, OUParams, Preferences, normalize, step_covariance
from .riccati import RiccatiSolution, solve_A, solve_D


@dataclass(frozen=True)
class StrategySpec:
    """A position rule (w, x, t) -> alpha.

    The feedback matrix lives in the unit-noise coordinates of the true
    model: ``frame`` o ``d_solution``(tau), where ``d_solution`` solves the
    feedback equation of the model the trader believes and ``frame`` = r r'
    with r = sigma / sigma-hat maps it into the true coordinates (all ones
    for the optimal rule).  The position is alpha = -w feedback(T - t) x
    there, mapped back to original coordinates through ``normalization``,
    the true model's record.
    """

    d_solution: RiccatiSolution
    normalization: NormalizationRecord
    frame: np.ndarray
    horizon: float

    def feedback(self, tau: float) -> np.ndarray:
        return self.frame * self.d_solution.interpolate(tau)

    def feedback_many(self, taus) -> np.ndarray:
        """Feedback matrices at several tau values, shape (len(taus), n, n)."""
        return self.d_solution.at_many(taus) * self.frame

    def position(self, w: float, x, t: float) -> np.ndarray:
        """Position vector at wealth w > 0, state x, time t."""
        if not w > 0:
            raise ValueError("wealth must be positive")
        if not 0.0 <= t <= self.horizon:
            raise OutOfHorizon(f"t={t} outside [0, {self.horizon}]")
        x_norm = self.normalization.state_to_unit_noise(x)
        alpha_norm = -w * self.feedback(self.horizon - t) @ x_norm
        return self.normalization.position_from_unit_noise(alpha_norm)


def optimal_strategy(params: OUParams, prefs: Preferences, horizon: float) -> StrategySpec:
    """Build the optimal StrategySpec by solving the feedback-matrix ODE."""
    norm_params, record = normalize(params)
    return StrategySpec(
        d_solution=solve_D(norm_params, prefs, horizon), normalization=record,
        frame=np.ones((params.n, params.n)), horizon=horizon,
    )


@dataclass(frozen=True)
class ValueReport:
    """Value function split into its three multiplicative factors.

    The time-value and intrinsic factors are stored as logs to survive long
    horizons; `total` recombines them on demand.
    """

    wealth_utility: float
    log_time_value: float
    log_intrinsic_value: float

    @property
    def time_value(self) -> float:
        return float(np.exp(self.log_time_value))

    @property
    def intrinsic_value(self) -> float:
        return float(np.exp(self.log_intrinsic_value))

    @property
    def total(self) -> float:
        return self.wealth_utility * float(np.exp(self.log_time_value + self.log_intrinsic_value))


@dataclass(frozen=True)
class LogValueReport:
    """Expected log wealth for the log-utility trader: log w + correction."""

    log_wealth: float
    correction: float

    @property
    def total(self) -> float:
        return self.log_wealth + self.correction


def value_function(
    w: float,
    x,
    t: float,
    a_solution: RiccatiSolution,
    prefs: Preferences,
    params: OUParams,
) -> ValueReport:
    """Value of the optimally traded portfolio at (w, x, t).

    J = (w^g / g) * exp{ (1/d) int_0^tau Tr(A Theta) } * exp{ x'A(tau)x / d }
    in unit-noise coordinates, tau = T - t.  For the log-utility trader use
    ``log_utility_value`` instead.
    """
    if not w > 0:
        raise ValueError("wealth must be positive")
    if prefs.is_log_utility:
        raise ValueError("gamma = 0 is served by log_utility_value")
    if not 0.0 <= t <= a_solution.horizon:
        raise OutOfHorizon(f"t={t} outside [0, {a_solution.horizon}]")
    tau = a_solution.horizon - t
    delta = prefs.delta
    x_norm = NormalizationRecord(params.sigma, params.theta).state_to_unit_noise(x)
    a = a_solution.interpolate(tau)
    return ValueReport(
        wealth_utility=w**prefs.gamma / prefs.gamma,
        log_time_value=a_solution.trace_integral_at(tau) / delta,
        log_intrinsic_value=float(x_norm @ a @ x_norm) / delta,
    )


def value_at_mean(w: float, t: float, a_solution: RiccatiSolution, prefs: Preferences) -> float:
    """Value at the long-term mean (x = 0); the intrinsic factor is 1."""
    if not 0.0 <= t <= a_solution.horizon:
        raise OutOfHorizon(f"t={t} outside [0, {a_solution.horizon}]")
    tau = a_solution.horizon - t
    wealth_utility = w**prefs.gamma / prefs.gamma
    return wealth_utility * float(np.exp(a_solution.trace_integral_at(tau) / prefs.delta))


def log_utility_value(w: float, x, t: float, params: OUParams, horizon: float) -> LogValueReport:
    """Expected terminal log wealth under the (static) log-utility strategy.

    With delta = 1 the feedback matrix is the constant Theta^{-1} kappa and
    d E[log W] = E[X' K Theta^{-1} K X] / 2 dt along the state process, which
    integrates in closed form up to a scalar quadrature.
    """
    if not w > 0:
        raise ValueError("wealth must be positive")
    if not 0.0 <= t <= horizon:
        raise OutOfHorizon(f"t={t} outside [0, {horizon}]")
    norm_params, record = normalize(params)
    x0 = record.state_to_unit_noise(x)
    kappa = norm_params.kappa
    m = kappa[:, None] * norm_params.corr_inv * kappa[None, :]

    def integrand(s: float) -> float:
        decayed = np.exp(-kappa * s) * x0
        cov = step_covariance(norm_params, s) if s > 0 else np.zeros_like(m)
        return float(decayed @ m @ decayed + np.sum(m * cov.T))

    correction, _ = quad(integrand, 0.0, horizon - t, limit=200)
    return LogValueReport(log_wealth=float(np.log(w)), correction=0.5 * correction)


def solve_value(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """A-solution in unit-noise coordinates, ready for value queries."""
    norm_params, _ = normalize(params)
    return solve_A(norm_params, prefs, horizon)
