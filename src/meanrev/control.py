"""Position rule and value function evaluation from Riccati solutions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfHorizon
from .model import NormalizationRecord, OUParams, Preferences, normalize, validate
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

    @property
    def horizon(self) -> float:
        return self.d_solution.horizon

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


def misspecified_strategy(true_params: OUParams, est: OUParams, prefs: Preferences,
                          horizon: float) -> StrategySpec:
    """Position rule of a trader who takes the estimates ``est`` for the truth.

    The feedback ODE is solved with the estimates (it reads only the
    reversion rates and the correlation); the frame r r', r = s / sh, carries
    that solution into the true model's unit-noise coordinates, so positions
    come out exactly as the estimate-believing trader computes them.  The
    estimated means ``est.theta`` are never read: positions use the true
    means (their estimation is out of scope).
    """
    _, record = normalize(true_params)
    r = true_params.sigma / est.sigma
    return StrategySpec(
        d_solution=solve_D(validate(est), prefs, horizon), normalization=record,
        frame=np.outer(r, r),
    )


def optimal_strategy(params: OUParams, prefs: Preferences, horizon: float) -> StrategySpec:
    """The optimal rule: the rule of a trader whose estimates are exact."""
    return misspecified_strategy(params, params, prefs, horizon)


@dataclass(frozen=True)
class ValueReport:
    """(w^eps / eps) exp{(T(tau) + x'M(tau)x) / divisor}, split into its factors.

    The value function is the eps = gamma case with M = A, T its trace
    integral and divisor delta; the wealth moment P_eps is the case M = Q,
    divisor 1.  The trace and quadratic factors are kept as logs to survive
    long horizons; ``total`` recombines them.
    """

    epsilon: float
    wealth_factor: float
    log_trace_factor: float
    log_quadratic_factor: float

    @property
    def total(self) -> float:
        return self.wealth_factor * float(np.exp(self.log_trace_factor + self.log_quadratic_factor))


@dataclass(frozen=True)
class LogValueReport:
    """Expected log wealth for the log-utility trader: log w + correction."""

    log_wealth: float
    correction: float

    @property
    def total(self) -> float:
        return self.log_wealth + self.correction


def _exp_quadratic(w: float, x, t: float, epsilon: float, solution: RiccatiSolution,
                   params: OUParams, divisor: float) -> ValueReport:
    """``ValueReport`` of ``solution`` (M and its trace integral T) at (w, x, t),
    tau = T - t, with x mapped to the unit-noise coordinates of ``params``."""
    if not w > 0:
        raise ValueError("wealth must be positive")
    if epsilon == 0.0:
        raise ValueError("exponent 0 (log utility) is served by log_utility_value")
    if not 0.0 <= t <= solution.horizon:
        raise OutOfHorizon(f"t={t} outside [0, {solution.horizon}]")
    tau = solution.horizon - t
    x_norm = NormalizationRecord(params.sigma, params.theta).state_to_unit_noise(x)
    return ValueReport(
        epsilon=epsilon,
        wealth_factor=w**epsilon / epsilon,
        log_trace_factor=solution.trace_integral_at(tau) / divisor,
        log_quadratic_factor=float(x_norm @ solution.interpolate(tau) @ x_norm) / divisor,
    )


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
    in unit-noise coordinates, tau = T - t.  At the mean (x = theta) the
    quadratic factor is exactly 0.0.  For the log-utility trader use
    ``log_utility_value`` instead.
    """
    return _exp_quadratic(w, x, t, prefs.gamma, a_solution, params, prefs.delta)


def log_utility_value(w: float, x, t: float, params: OUParams, horizon: float) -> LogValueReport:
    """Expected terminal log wealth under the (static) log-utility strategy.

    With delta = 1 the feedback is the constant Theta^{-1} K, and d E[log W] / dt =
    E[X' M X] / 2, M = K Theta^{-1} K, integrates to sum_ij M_ij [x_i x_j g_ij + Theta_ij
    (tau - g_ij) / k_ij] / 2, k_ij = kappa_i + kappa_j, g_ij = (1 - exp(-k_ij tau)) / k_ij.
    M_ij = 0 wherever k_ij = 0.
    """
    if not w > 0:
        raise ValueError("wealth must be positive")
    if not 0.0 <= t <= horizon:
        raise OutOfHorizon(f"t={t} outside [0, {horizon}]")
    norm_params, record = normalize(params)
    x0 = record.state_to_unit_noise(x)
    kappa, tau = norm_params.kappa, horizon - t
    m = kappa[:, None] * norm_params.corr_inv * kappa[None, :]
    k = kappa[:, None] + kappa[None, :]
    safe = np.where(k > 0.0, k, 1.0)
    g = np.where(k > 0.0, -np.expm1(-k * tau) / safe, tau)
    correction = np.sum(m * (np.outer(x0, x0) * g + norm_params.corr * (tau - g) / safe))
    return LogValueReport(log_wealth=float(np.log(w)), correction=0.5 * float(correction))


def solve_value(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """A-solution in unit-noise coordinates, ready for value queries."""
    norm_params, _ = normalize(params)
    return solve_A(norm_params, prefs, horizon)
