"""Moment framework for strategies built from estimated parameters.

A trader who believes the estimates trades the rule that would be optimal
if they were true.  Under the actual dynamics, every power moment of the
resulting terminal wealth solves another matrix Riccati ODE, which makes
expected utility, first and second moments, Sharpe ratios, and whole
misspecification sweeps cheap to evaluate without Monte Carlo.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ._fork import fork_map, worker_count
from .analysis import value_at_mean
from .control import StrategySpec, ValueReport, _exp_quadratic, misspecified_strategy
from .errors import BlowUpDetected, NonPositiveVariance, OutOfDomain
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
    return s_q.view(scale=0.5)


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
    cells with a recorded reason.  With ``with_sharpe``, every finite cell
    also gets the Sharpe ratio of its terminal wealth in
    ``metadata["sharpe"]``; a Q_1 or Q_2 blow-up leaves the cell's value
    standing, sets only its Sharpe ratio to NaN and records the reason in
    ``metadata["sharpe_failures"]``.

    The cells are independent and run through ``fork_map``, spread over
    forked workers like ``simulate``'s chunks; each worker is handed the
    next cell as soon as it is free.  Any other error of a cell reaches the
    caller as the sequential loop would raise it.
    ``metadata["diagnostics"]`` holds the ``workers`` used and, summed over
    the Riccati solves of every cell that returned a solution, ``solves``,
    ``s_evals``, ``p_evals`` and ``switched`` (solves that reached the
    switch level).
    """
    if true_params.n < 2:
        raise OutOfDomain("the sweep varies two per-asset multipliers; need n >= 2")
    m1 = np.asarray(multipliers1, dtype=float)
    m2 = np.asarray(multipliers2, dtype=float)
    if np.any(m1 <= 0) or np.any(m2 <= 0):
        raise OutOfDomain("multipliers must be positive")
    j_true = value_at_mean(true_params, prefs, horizon)

    def cell(k):
        kappa_hat = true_params.kappa.copy()
        kappa_hat[0] *= m1[k // m2.size]
        kappa_hat[1] *= m2[k % m2.size]
        return _sweep_cell(true_params, replace(true_params, kappa=kappa_hat), prefs, horizon, j_true,
                           with_sharpe)

    count = m1.size * m2.size
    results = fork_map(cell, count)
    cells = np.array([r.value for r in results]).reshape(m1.size, m2.size)
    sharpes = np.array([r.sharpe for r in results]).reshape(m1.size, m2.size)
    failures = {divmod(k, m2.size): r.failure for k, r in enumerate(results)
                if r.failure is not None}
    sharpe_failures = {divmod(k, m2.size): r.sharpe_failure for k, r in enumerate(results)
                       if r.sharpe_failure is not None}
    solved = [d for r in results for d in r.solved]
    diagnostics = {
        "workers": worker_count(count),
        "solves": len(solved),
        "s_evals": sum(d["s_evals"] for d in solved),
        "p_evals": sum(d["p_evals"] for d in solved),
        "switched": sum(d["switch_tau"] is not None for d in solved),
    }

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
            "diagnostics": diagnostics,
        },
        failures=failures,
    )
    if with_sharpe:
        grid.metadata["sharpe"] = sharpes
        grid.metadata["sharpe_failures"] = sharpe_failures
    return grid


class _Cell(NamedTuple):
    """One ``misspec_sweep`` cell as a worker sends it back: the value shortfall
    and the Sharpe ratio (NaN where they failed), each failure's reason or
    None, and the diagnostics of every solve that returned."""

    value: float
    failure: str | None
    sharpe: float
    sharpe_failure: str | None
    solved: list


def _sweep_cell(true_params: OUParams, est: OUParams, prefs: Preferences, horizon: float,
                j_true: float, with_sharpe: bool) -> _Cell:
    solved = []
    try:
        spec = misspecified_strategy(true_params, est, prefs, horizon)
        solved.append(spec.d_solution.diagnostics)
        q_g = solve_Q(prefs.gamma, true_params, spec)
        solved.append(q_g.diagnostics)
        p_g = p_epsilon(1.0, true_params.theta, 0.0, prefs.gamma, q_g, true_params)
    except BlowUpDetected as exc:
        return _Cell(np.nan, str(exc), np.nan, None, solved)
    ratio, sharpe_failure = np.nan, None
    if with_sharpe:
        try:
            q1 = solve_Q(1.0, true_params, spec)
            solved.append(q1.diagnostics)
            q2 = solve_Q(2.0, true_params, spec)
            solved.append(q2.diagnostics)
            ratio = sharpe(
                p_epsilon(1.0, true_params.theta, 0.0, 1.0, q1, true_params),
                p_epsilon(1.0, true_params.theta, 0.0, 2.0, q2, true_params),
            )
        except BlowUpDetected as exc:
            sharpe_failure = str(exc)
    return _Cell(p_g.total - j_true, None, ratio, sharpe_failure, solved)
