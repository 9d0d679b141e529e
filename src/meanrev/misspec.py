"""Moment framework for strategies built from estimated parameters.

A trader who believes the estimates trades the rule that would be optimal
if they were true.  Under the actual dynamics, every power moment of the
resulting terminal wealth solves another matrix Riccati ODE, which makes
expected utility, first and second moments, Sharpe ratios, and whole
misspecification sweeps cheap to evaluate without Monte Carlo.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .control import (StrategySpec, ValueReport, _exp_quadratic, misspecified_strategy,
                      solve_value, value_function)
from .errors import BlowUpDetected, NonPositiveVariance
from .grids import SensitivityGrid
from .model import OUParams, Preferences
from .riccati import QuadraticOperator, RiccatiSolution, solve, symmetric_operator


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
    """Moment-generating operator for S_Q = Q + Q': M = eps beta' Theta - K and
    C = eps (eps - 1) beta' Theta beta - eps (beta' K + K beta), through beta(tau)."""
    corr, kappa = true_params.corr, true_params.kappa
    kmat = np.diag(kappa)

    def coefficients(tau):
        beta = beta_matrix(spec, tau)
        bt_corr, bk = beta.T @ corr, beta.T * kappa
        return (epsilon * bt_corr - kmat,
                epsilon * (epsilon - 1.0) * bt_corr @ beta - epsilon * (bk + bk.T))

    return symmetric_operator(corr, coefficients)


def solve_Q(epsilon: float, true_params: OUParams, spec: StrategySpec) -> RiccatiSolution:
    """Solve the moment system at wealth exponent epsilon under the rule ``spec``
    (e.g. ``misspecified_strategy(...)``) over its horizon.  The solution presents
    Q = S_Q / 2, the symmetric part of the moment matrix, and the trace integral
    of Q Theta."""
    s_q = solve(make_Q_operator(epsilon, true_params, spec), spec.horizon)
    return RiccatiSolution(s_q.dense, s_q.n, s_q.tau_grid, s_q.horizon, scale=0.5)


def p_epsilon(
    w: float,
    x,
    t: float,
    epsilon: float,
    q_solution: RiccatiSolution,
    true_params: OUParams,
) -> ValueReport:
    """P_eps = E[W_T^eps / eps] under the rule behind ``q_solution`` (from
    ``solve_Q``) at (w, x, t): (w^eps / eps) exp{int Tr(Q Theta) + x'Q x}."""
    return _exp_quadratic(w, x, t, epsilon, q_solution, true_params, 1.0)


def sharpe(p1: ValueReport, p2: ValueReport) -> float:
    """Terminal-wealth Sharpe ratio from the first two moments.

    P_2 carries the 1/2 of its definition, hence the factor 2 under the root.
    """
    if p1.epsilon != 1.0 or p2.epsilon != 2.0:
        raise ValueError("sharpe needs the epsilon = 1 and epsilon = 2 moments")
    mean = p1.total
    variance = 2.0 * p2.total - mean**2
    if variance <= 0:
        raise NonPositiveVariance(f"2 P_2 - P_1^2 = {variance:.3e} is not positive")
    return mean / float(np.sqrt(variance))


def misspec_sweep(
    true_params: OUParams,
    prefs: Preferences,
    horizon: float,
    multipliers1,
    multipliers2,
    with_sharpe: bool = False,
) -> SensitivityGrid:
    """Value lost to reversion-rate misspecification over a multiplier grid.

    Each cell holds P_gamma(1, theta, 0; kappa-hat) - J(1, theta, 0) for the
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
    j_true = value_function(1.0, true_params.theta, 0.0, a_true, prefs, true_params).total

    cells = np.empty((m1.size, m2.size))
    sharpes = np.full((m1.size, m2.size), np.nan)
    failures: dict = {}
    for i, a in enumerate(m1):
        for j, b in enumerate(m2):
            kappa_hat = true_params.kappa.copy()
            kappa_hat[0] *= a
            kappa_hat[1] *= b
            est = replace(true_params, kappa=kappa_hat)
            try:
                spec = misspecified_strategy(true_params, est, prefs, horizon)
                q_g = solve_Q(prefs.gamma, true_params, spec)
                p_g = p_epsilon(1.0, true_params.theta, 0.0, prefs.gamma, q_g, true_params)
                cells[i, j] = p_g.total - j_true
                if with_sharpe:
                    q1 = solve_Q(1.0, true_params, spec)
                    q2 = solve_Q(2.0, true_params, spec)
                    sharpes[i, j] = sharpe(
                        p_epsilon(1.0, true_params.theta, 0.0, 1.0, q1, true_params),
                        p_epsilon(1.0, true_params.theta, 0.0, 2.0, q2, true_params),
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
        },
        failures=failures,
    )
    if with_sharpe:
        grid.metadata["sharpe"] = sharpes
    return grid
