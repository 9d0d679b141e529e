"""Moment framework for strategies built from estimated parameters.

A trader who believes the estimates trades the rule that would be optimal
if they were true.  Under the actual dynamics, every power moment of the
resulting terminal wealth solves another matrix Riccati ODE, which makes
expected utility, first and second moments, Sharpe ratios, and whole
misspecification sweeps cheap to evaluate without Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import StrategySpec, solve_value, value_function
from .errors import BlowUpDetected, NonPositiveVariance, OutOfHorizon
from .grids import SensitivityGrid
from .model import NormalizationRecord, OUParams, Preferences, normalize, validate
from .riccati import QuadraticOperator, RiccatiSolution, solve, solve_D


@dataclass(frozen=True)
class EstimatedParams:
    """Estimated reversion rates, volatilities, and correlation."""

    kappa_hat: np.ndarray
    sigma_hat: np.ndarray
    corr_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa_hat", np.asarray(self.kappa_hat, dtype=float))
        object.__setattr__(self, "sigma_hat", np.asarray(self.sigma_hat, dtype=float))
        object.__setattr__(self, "corr_hat", np.asarray(self.corr_hat, dtype=float))

    def as_params(self) -> OUParams:
        n = self.kappa_hat.size
        return OUParams(
            n=n,
            kappa=self.kappa_hat,
            sigma=self.sigma_hat,
            theta=np.zeros(n),
            corr=self.corr_hat,
        )

    @classmethod
    def from_params(cls, params: OUParams) -> "EstimatedParams":
        return cls(kappa_hat=params.kappa, sigma_hat=params.sigma, corr_hat=params.corr)


def misspecified_strategy(
    true_params: OUParams,
    est: EstimatedParams,
    prefs: Preferences,
    horizon: float,
) -> StrategySpec:
    """Position rule a trader with the given estimates would follow.

    The feedback ODE is solved with the estimated parameters (it reads only
    the reversion rates and the correlation); the frame r r', r = s / sh,
    carries that solution into the true model's unit-noise coordinates, so
    positions come out exactly as the estimate-believing trader computes
    them, with the true long-term means (their estimation is out of scope).
    """
    _, record = normalize(true_params)
    r = true_params.sigma / est.sigma_hat
    return StrategySpec(
        d_solution=solve_D(validate(est.as_params()), prefs, horizon), normalization=record,
        frame=np.outer(r, r), horizon=horizon,
    )


def beta_matrix(spec: StrategySpec, tau: float) -> np.ndarray:
    """Effective feedback of a position rule in true unit-noise coordinates.

    beta = -(r r') o Dh(tau), the negated ``spec.feedback``, so the position
    is alpha = w beta x there.  Reduces to -D(tau) when the estimates are
    exact.
    """
    return -spec.feedback(tau)


def make_Q_operator(
    epsilon: float,
    true_params: OUParams,
    spec: StrategySpec,
) -> QuadraticOperator:
    """Moment-generating Riccati operator; time-dependent through beta(tau)."""
    corr = true_params.corr
    kappa = true_params.kappa

    def rhs(tau, q):
        beta = beta_matrix(spec, tau)
        s = q + q.T
        bt_corr = beta.T @ corr
        return (
            0.5 * s @ corr @ s
            + (epsilon * bt_corr - np.diag(kappa)) @ s
            + 0.5 * epsilon * (epsilon - 1.0) * bt_corr @ beta
            - epsilon * (beta.T * kappa[None, :])
        )

    return QuadraticOperator(
        rhs=rhs, n=true_params.n, initial=np.zeros((true_params.n, true_params.n)),
        trace_weight=corr,
    )


def solve_Q(epsilon: float, true_params: OUParams, spec: StrategySpec) -> RiccatiSolution:
    """Solve the moment Riccati system for wealth exponent epsilon under the
    rule ``spec`` (e.g. ``misspecified_strategy(...)``) over its horizon."""
    return solve(make_Q_operator(epsilon, true_params, spec), spec.horizon)


@dataclass(frozen=True)
class MomentReport:
    """P_eps = E[W_T^eps / eps] under the misspecified rule, factored.

    The trace-integral and quadratic factors are kept as logs.
    """

    epsilon: float
    wealth_factor: float
    log_trace_factor: float
    log_quadratic_factor: float

    @property
    def p_value(self) -> float:
        return self.wealth_factor * float(np.exp(self.log_trace_factor + self.log_quadratic_factor))


def p_epsilon(
    w: float,
    x,
    t: float,
    epsilon: float,
    q_solution: RiccatiSolution,
    true_params: OUParams,
) -> MomentReport:
    """Evaluate the moment functional at (w, x, t)."""
    if not w > 0:
        raise ValueError("wealth must be positive")
    if epsilon == 0.0:
        raise ValueError("epsilon = 0 is served by the log-utility path")
    if not 0.0 <= t <= q_solution.horizon:
        raise OutOfHorizon(f"t={t} outside [0, {q_solution.horizon}]")
    tau = q_solution.horizon - t
    q = q_solution.interpolate(tau)
    x_norm = NormalizationRecord(true_params.sigma, true_params.theta).state_to_unit_noise(x)
    return MomentReport(
        epsilon=epsilon,
        wealth_factor=w**epsilon / epsilon,
        log_trace_factor=q_solution.trace_integral_at(tau),
        log_quadratic_factor=float(x_norm @ q @ x_norm),
    )


def sharpe(p1: MomentReport, p2: MomentReport) -> float:
    """Terminal-wealth Sharpe ratio from the first two moments.

    P_2 carries the 1/2 of its definition, hence the factor 2 under the root.
    """
    if p1.epsilon != 1.0 or p2.epsilon != 2.0:
        raise ValueError("sharpe needs the epsilon = 1 and epsilon = 2 moments")
    mean = p1.p_value
    variance = 2.0 * p2.p_value - mean**2
    if variance <= 0:
        raise NonPositiveVariance(f"2 P_2 - P_1^2 = {variance:.3e} is not positive")
    return mean / float(np.sqrt(variance))


def misspec_sweep(
    true_params: OUParams,
    prefs: Preferences,
    horizon: float,
    multipliers1,
    multipliers2,
    w: float = 1.0,
    with_sharpe: bool = False,
) -> SensitivityGrid:
    """Value lost to reversion-rate misspecification over a multiplier grid.

    Each cell holds P_gamma(w, 0, 0; kappa-hat) - J(w, 0, 0) for the
    estimate kappa-hat = (m1 k1, m2 k2, ...) with all other estimates exact.
    The true point (1, 1) anchors the grid at zero; blow-ups become NaN
    cells with a recorded reason.
    """
    if true_params.n < 2:
        raise ValueError("the sweep varies two per-asset multipliers; need n >= 2")
    m1 = np.asarray(multipliers1, dtype=float)
    m2 = np.asarray(multipliers2, dtype=float)
    if np.any(m1 <= 0) or np.any(m2 <= 0):
        raise ValueError("multipliers must be positive")
    a_true = solve_value(true_params, prefs, horizon)
    j_true = value_function(w, true_params.theta, 0.0, a_true, prefs, true_params).total

    cells = np.empty((m1.size, m2.size))
    sharpes = np.full((m1.size, m2.size), np.nan)
    failures: dict = {}
    for i, a in enumerate(m1):
        for j, b in enumerate(m2):
            kappa_hat = true_params.kappa.copy()
            kappa_hat[0] *= a
            kappa_hat[1] *= b
            est = EstimatedParams(
                kappa_hat=kappa_hat, sigma_hat=true_params.sigma, corr_hat=true_params.corr
            )
            try:
                spec = misspecified_strategy(true_params, est, prefs, horizon)
                q_g = solve_Q(prefs.gamma, true_params, spec)
                p_g = p_epsilon(w, true_params.theta, 0.0, prefs.gamma, q_g, true_params)
                cells[i, j] = p_g.p_value - j_true
                if with_sharpe:
                    q1 = solve_Q(1.0, true_params, spec)
                    q2 = solve_Q(2.0, true_params, spec)
                    sharpes[i, j] = sharpe(
                        p_epsilon(w, true_params.theta, 0.0, 1.0, q1, true_params),
                        p_epsilon(w, true_params.theta, 0.0, 2.0, q2, true_params),
                    )
            except BlowUpDetected as exc:
                cells[i, j] = np.nan
                failures[(i, j)] = str(exc)

    grid = SensitivityGrid(
        axis1_name="kappa1_multiplier",
        axis1=m1,
        axis2_name="kappa2_multiplier",
        axis2=m2,
        cells=cells,
        metadata={
            "quantity": "p_gamma_minus_j_true",
            "j_true": j_true,
            "gamma": prefs.gamma,
            "horizon": horizon,
            "wealth": w,
        },
        failures=failures,
    )
    if with_sharpe:
        grid.metadata["sharpe"] = sharpes
    return grid
