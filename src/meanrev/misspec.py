"""Moment framework for strategies built from estimated parameters.

A trader who believes the estimates trades the rule that would be optimal
if they were true.  Under the actual dynamics, every power moment of the
resulting terminal wealth solves another matrix Riccati ODE, which makes
expected utility, first and second moments, Sharpe ratios, and whole
misspecification sweeps cheap to evaluate without Monte Carlo.  A rule
holds its true model, so the moment solvers take no second one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analysis import value_at_mean
from .control import StrategySpec, ValueReport, _exp_quadratic, misspecified_strategy
from .errors import BlowUpDetected, NonPositiveVariance, OutOfDomain
from .grids import SensitivityGrid
from .model import OUParams, Preferences
from .riccati import (QuadraticOperator, RiccatiSolution, make_S_operator, solve, solve_stack,
                      stacked_reader, symmetric_operator)


def beta_matrix(spec: StrategySpec, tau: float) -> np.ndarray:
    """Effective feedback of a position rule in true unit-noise coordinates.

    beta = -(r r') o Dh(tau), the negated ``spec.feedback``, so the position
    is alpha = w beta x there.  Reduces to -D(tau) when the estimates are
    exact.
    """
    return -spec.feedback(tau)


def make_Q_operator(epsilon, spec) -> QuadraticOperator:
    """Moment operator for S_Q = Q + Q' under ``spec.params``: M = eps beta' Theta - K and
    C = eps (eps - 1) beta' Theta beta - eps (beta' K + K beta), through beta(tau).

    ``epsilon`` and ``spec`` may instead be an array of exponents and a list of
    rules with one true model, for the operator of their stack: one stacked
    read of the rules' feedback solutions gives every system's beta.  One rule
    is the stack of one, without the stack axis, as the stepper drops it."""
    specs = [spec] if isinstance(spec, StrategySpec) else spec
    eps, frame = np.reshape(epsilon, (-1, 1, 1)), np.stack([s.frame for s in specs])
    if len(specs) == 1:
        eps, frame = float(eps[0, 0, 0]), frame[0]
    read, params = stacked_reader([s.d_solution for s in specs]), specs[0].params
    corr, kappa = params.corr, params.kappa
    kmat = np.diag(kappa)

    def coefficients(tau):
        beta = -(frame * read(tau))
        beta_t = beta.swapaxes(-1, -2)
        bt_corr, bk = beta_t @ corr, beta_t * kappa
        return (eps * bt_corr - kmat,
                eps * (eps - 1.0) * bt_corr @ beta - eps * (bk + bk.swapaxes(-1, -2)))

    return symmetric_operator(corr, coefficients)


def solve_Q(epsilon: float, spec: StrategySpec) -> RiccatiSolution:
    """Solve the moment system at wealth exponent epsilon under the rule ``spec``
    (e.g. ``misspecified_strategy(...)``) and its true model over its horizon.  The
    solution presents Q = S_Q / 2, the symmetric part of the moment matrix, and the
    trace integral of Q Theta."""
    s_q = solve(make_Q_operator(epsilon, spec), spec.horizon)
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
        raise OutOfDomain("sharpe needs the epsilon = 1 and epsilon = 2 moments")
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
    ``metadata["sharpe_failures"]``.  An empty multiplier axis raises
    ``OutOfDomain``.

    The cells run in this process as stacked solves (``riccati.solve_stack``):
    every cell's Dh, then Q_gamma of the cells whose Dh converged, then Q_1
    and Q_2 of the cells whose Q_gamma converged.  Each cell's numbers are
    bit for bit those of the loop ``misspecified_strategy`` -> ``solve_Q`` ->
    ``p_epsilon`` -> ``sharpe``, and the moments are read cell by cell, so an
    error other than a blow-up is the lowest cell's, as the loop raises it.
    ``metadata["diagnostics"]`` sums, over the Riccati solves that returned
    a solution, ``solves``, ``s_evals``, ``p_evals``, ``switched`` (solves
    that reached the switch level), ``accepted`` and ``rejected`` steps, and
    holds the shortest accepted step, ``min_step``.
    """
    if true_params.n < 2:
        raise OutOfDomain("the sweep varies two per-asset multipliers; need n >= 2")
    m1 = np.asarray(multipliers1, dtype=float)
    m2 = np.asarray(multipliers2, dtype=float)
    if m1.size == 0 or m2.size == 0:
        raise OutOfDomain("each multiplier axis needs at least one value")
    if np.any(m1 <= 0) or np.any(m2 <= 0):
        raise OutOfDomain("multipliers must be positive")
    j_true = value_at_mean(true_params, prefs, horizon)

    ests = []
    for k in range(m1.size * m2.size):
        kappa_hat = true_params.kappa.copy()
        kappa_hat[0] *= m1[k // m2.size]
        kappa_hat[1] *= m2[k % m2.size]
        ests.append(replace(true_params, kappa=kappa_hat))
    d_hats = solve_stack(lambda rows: make_S_operator([ests[k] for k in rows], prefs), len(ests), horizon)
    rules = {k: misspecified_strategy(true_params, ests[k], prefs, horizon, s_solution=d)
             for k, d in enumerate(d_hats) if not isinstance(d, BlowUpDetected)}
    q_g = dict(zip(rules, _moments([prefs.gamma] * len(rules), list(rules.values()), horizon)))
    failures = {k: d for k, d in enumerate(d_hats) if isinstance(d, BlowUpDetected)}
    failures.update((k, q) for k, q in q_g.items() if isinstance(q, BlowUpDetected))
    converged = [k for k in rules if k not in failures]
    moments = {}
    if with_sharpe:
        both = _moments([1.0] * len(converged) + [2.0] * len(converged),
                        [rules[k] for k in converged] * 2, horizon)
        moments = {k: (q1, q2) for k, q1, q2 in zip(converged, both, both[len(converged):])}
    solved = [s for s in (*d_hats, *q_g.values(), *(q for pair in moments.values() for q in pair))
              if not isinstance(s, BlowUpDetected)]

    cells = np.full(len(ests), np.nan)
    sharpes = np.full(len(ests), np.nan)
    sharpe_failures = {}
    theta = true_params.theta
    for k in converged:
        cells[k] = p_epsilon(1.0, theta, 0.0, prefs.gamma, q_g[k], true_params).total - j_true
        if with_sharpe:
            lost = next((q for q in moments[k] if isinstance(q, BlowUpDetected)), None)
            if lost is not None:
                sharpe_failures[divmod(k, m2.size)] = str(lost)
                continue
            q1, q2 = moments[k]
            sharpes[k] = sharpe(p_epsilon(1.0, theta, 0.0, 1.0, q1, true_params),
                                p_epsilon(1.0, theta, 0.0, 2.0, q2, true_params))
    diagnostics = {
        "solves": len(solved),
        **{key: sum(d.diagnostics[key] for d in solved)
           for key in ("s_evals", "p_evals", "accepted", "rejected")},
        "switched": sum(d.diagnostics["switch_tau"] is not None for d in solved),
        "min_step": min(d.diagnostics["min_step"] for d in solved) if solved else None,
    }

    grid = SensitivityGrid(
        axis1_name="kappa1_multiplier",
        axis1=m1,
        axis2_name="kappa2_multiplier",
        axis2=m2,
        cells=cells.reshape(m1.size, m2.size),
        metadata={
            "quantity": "p_gamma_minus_j_true",
            "j_true": j_true,
            "gamma": prefs.gamma,
            "horizon": horizon,
            "diagnostics": diagnostics,
        },
        failures={divmod(k, m2.size): str(exc) for k, exc in sorted(failures.items())},
    )
    if with_sharpe:
        grid.metadata["sharpe"] = sharpes.reshape(m1.size, m2.size)
        grid.metadata["sharpe_failures"] = sharpe_failures
    return grid


def _moments(epsilons: list, specs: list, horizon: float) -> list:
    """[solve_Q(epsilons[i], specs[i])] as one stacked solve, with the
    ``BlowUpDetected`` of a solve that blew up in its place."""
    eps = np.asarray(epsilons, dtype=float)
    solved = solve_stack(lambda rows: make_Q_operator(eps[rows], [specs[i] for i in rows]),
                         len(specs), horizon) if specs else []
    return [q if isinstance(q, BlowUpDetected) else q.view(scale=0.5) for q in solved]
