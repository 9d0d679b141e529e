"""Position rules and the one evaluator of values and wealth moments.

Every value the package reports is formed here: the value function and the
wealth moments P_eps from their Riccati solutions, and the value at the mean
from log det U(T) of ``riccati.embedding_pass``, with the one rule that turns
log|gamma J| into J (or refuses it) and the one refusal of exponent 0.  The
model checks a query's wealth (``check_positive``) and its state; only
0 <= t <= horizon is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain, OutOfHorizon, ValueOverflow, ValueUnderflow
from .model import OUParams, Preferences, check_positive
from .riccati import RiccatiSolution, embedding_pass, s_view, solve_A, solve_D


def _time_to_go(w, t: float, horizon: float) -> float:
    """horizon - t, after refusing a bad wealth and a t outside [0, horizon] (``OutOfHorizon``)."""
    check_positive(w, "wealth")
    if not 0.0 <= t <= horizon:
        raise OutOfHorizon(f"t={t} outside [0, {horizon}]")
    return horizon - t


@dataclass(frozen=True)
class StrategySpec:
    """A position rule (w, x, t) -> alpha.

    The feedback matrix lives in the unit-noise coordinates of the true
    model: ``frame`` o ``d_solution``(tau), where ``d_solution`` solves the
    feedback equation of the model the trader believes and ``frame`` = r r'
    with r = sigma / sigma-hat maps it into the true coordinates (all ones
    for the optimal rule).  The position is alpha = -w feedback(T - t) x
    there, mapped back to original coordinates by ``params``, the true
    model.
    """

    d_solution: RiccatiSolution
    params: OUParams
    frame: np.ndarray

    @property
    def horizon(self) -> float:
        return self.d_solution.horizon

    def feedback(self, tau) -> np.ndarray:
        """The feedback matrix at tau, shape (n, n), or one per tau of an array, shape (m, n, n)."""
        return self.frame * self.d_solution.interpolate(tau)

    def position(self, w: float, x, t: float) -> np.ndarray:
        """Position at wealth w > 0 and time t: a vector for a state x of shape (n,),
        one row per state for a stack x of shape (m, n), from one feedback read."""
        tau = _time_to_go(w, t, self.horizon)
        x_norm = self.params.state_to_unit_noise(x)
        # A stack of matrix-vector products, so each row equals D @ x to the last bit.
        alpha_norm = (-w * self.feedback(tau) @ x_norm[..., None])[..., 0]
        return self.params.position_from_unit_noise(alpha_norm)


def misspecified_strategy(true_params: OUParams, est: OUParams, prefs: Preferences,
                          horizon: float, s_solution: RiccatiSolution | None = None) -> StrategySpec:
    """Position rule of a trader who takes the estimates ``est`` for the truth.

    The feedback ODE is solved with the estimates (it reads only the
    reversion rates and the correlation), or read from ``s_solution``, a
    solve of the estimates' S-equation over the horizon; the frame r r',
    r = s / sh, carries that solution into the true model's unit-noise
    coordinates, so positions come out exactly as the estimate-believing
    trader computes them.  The estimated means ``est.theta`` are never read:
    positions use the true means (their estimation is out of scope).
    """
    r = true_params.sigma / est.sigma
    d_solution = solve_D(est, prefs, horizon) if s_solution is None else s_view(s_solution, "D", est, prefs)
    return StrategySpec(d_solution=d_solution, params=true_params, frame=np.outer(r, r))


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


def _refuse_log_utility(epsilon: float) -> None:
    if epsilon == 0.0:
        raise OutOfDomain("exponent 0 (log utility) is served by log_utility_value")


def _exp_quadratic(w: float, x, t: float, epsilon: float, solution: RiccatiSolution,
                   params: OUParams, divisor: float) -> ValueReport:
    """``ValueReport`` of ``solution`` (M and its trace integral T) at (w, x, t),
    tau = T - t, with x mapped to the unit-noise coordinates of ``params``."""
    tau = _time_to_go(w, t, solution.horizon)
    _refuse_log_utility(epsilon)
    x_norm = params.state_to_unit_noise(x, stack=False)
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


def p_epsilon(
    w: float,
    x,
    t: float,
    epsilon: float,
    q_solution: RiccatiSolution,
    true_params: OUParams,
) -> ValueReport:
    """P_eps = E[W_T^eps / eps] under the rule behind ``q_solution`` (from
    ``misspec.solve_Q``) at (w, x, t): (w^eps / eps) exp{int Tr(Q Theta) + x'Q x}."""
    return _exp_quadratic(w, x, t, epsilon, q_solution, true_params, 1.0)


def mean_value_pass(params: OUParams, prefs: Preferences, horizon: float, dh=(), d2h=()):
    """(J, log|gamma J|, d1, d2) at (1, theta, 0) from one ``riccati.embedding_pass``:
    log|gamma J| = (delta T tr K - log det U(T)) / (2 delta), and the lists d1 of
    d log|J| / drho_a and d2 of d2 log|J| / drho_0 drho_a along the pass's generator
    stacks ``dh`` and ``d2h``.  ``ValueOverflow`` where J is past the largest double."""
    _refuse_log_utility(prefs.gamma)
    log_det, d1, d2 = embedding_pass(params, prefs, horizon, dh, d2h)
    log_value = float(horizon * np.sum(prefs.delta * params.kappa) - log_det) / (2.0 * prefs.delta)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value)) / prefs.gamma
    if not np.isfinite(value):
        raise ValueOverflow(f"J overflows a double: log|gamma J| = {log_value:.6g}")
    return value, log_value, (-d1 / (2.0 * prefs.delta)).tolist(), (-d2 / (2.0 * prefs.delta)).tolist()


def value_at_mean(params: OUParams, prefs: Preferences, horizon: float) -> float:
    """J(1, theta, 0), the value at the mean: ``mean_value_pass`` with no generators;
    ``ValueUnderflow`` where J is below the smallest normal double."""
    value, log_value, _, _ = mean_value_pass(params, prefs, horizon)
    if abs(value) < np.finfo(float).tiny:
        raise ValueUnderflow(f"J underflows a double: log|gamma J| = {log_value:.6g}")
    return value


def log_utility_value(w: float, x, t: float, params: OUParams, horizon: float) -> LogValueReport:
    """Expected terminal log wealth under the (static) log-utility strategy.

    With delta = 1 the feedback is the constant Theta^{-1} K, and d E[log W] / dt =
    E[X' M X] / 2, M = K Theta^{-1} K, integrates to sum_ij M_ij [x_i x_j g_ij + Theta_ij
    (tau - g_ij) / k_ij] / 2, k_ij = kappa_i + kappa_j, g_ij = (1 - exp(-k_ij tau)) / k_ij.
    M_ij = 0 wherever k_ij = 0.
    """
    tau = _time_to_go(w, t, check_positive(horizon, "horizon"))
    x0 = params.state_to_unit_noise(x, stack=False)
    kappa = params.kappa
    m = kappa[:, None] * params.corr_inv * kappa[None, :]
    k = kappa[:, None] + kappa[None, :]
    safe = np.where(k > 0.0, k, 1.0)
    g = np.where(k > 0.0, -np.expm1(-k * tau) / safe, tau)
    correction = np.sum(m * (np.outer(x0, x0) * g + params.corr * (tau - g) / safe))
    return LogValueReport(log_wealth=float(np.log(w)), correction=0.5 * float(correction))


def solve_value(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """A-solution in unit-noise coordinates, ready for value queries."""
    return solve_A(params, prefs, horizon)
