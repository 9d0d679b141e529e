import numpy as np
import pytest

from meanrev.control import optimal_strategy, solve_value, value_function
from meanrev.errors import NonPositiveVariance
from meanrev.misspec import (
    EstimatedParams,
    misspec_sweep,
    misspecified_strategy,
    p_epsilon,
    sharpe,
    solve_Q,
)
from meanrev.model import Preferences
from meanrev.wealth import simulate

from conftest import two_asset


def correlated_pair():
    return two_asset(rho=0.4, kappa=(1.0, 2.0), sigma=(0.3, 0.5), theta=(0.1, -0.2))


def test_true_estimates_reproduce_optimal_positions(rng):
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    est = EstimatedParams.from_params(params)
    s_opt = optimal_strategy(params, prefs, 1.5)
    s_mis = misspecified_strategy(params, est, prefs, 1.5)
    for t in (0.0, 0.7, 1.4):
        x = params.theta + rng.standard_normal(2) * 0.2
        assert np.allclose(s_opt.position(2.0, x, t), s_mis.position(2.0, x, t), atol=1e-10)


def test_p_gamma_equals_value_at_truth():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    est = EstimatedParams.from_params(params)
    horizon = 1.5
    q = solve_Q(prefs.gamma, params, est, prefs, horizon)
    a = solve_value(params, prefs, horizon)
    for t, x in ((0.0, params.theta), (0.0, params.theta + 0.25), (0.8, params.theta - 0.1)):
        p = p_epsilon(1.7, x, t, prefs.gamma, q, params).p_value
        j = value_function(1.7, x, t, a, prefs, params).total
        assert abs(p - j) < 1e-8 * abs(j)


def test_zeroth_moment_is_trivial():
    params = correlated_pair()
    est = EstimatedParams(kappa_hat=params.kappa * 1.3, sigma_hat=params.sigma,
                          corr_hat=params.corr)
    q0 = solve_Q(0.0, params, est, Preferences(gamma=-1.0), 1.0)
    assert np.max(np.abs(q0.values)) == 0.0
    assert q0.trace_integral_at(1.0) == 0.0
    with pytest.raises(ValueError):
        p_epsilon(1.0, params.theta, 0.0, 0.0, q0, params)


def test_moments_match_monte_carlo():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    horizon = 1.0
    est = EstimatedParams(
        kappa_hat=np.array([1.4, 1.5]),
        sigma_hat=np.array([0.36, 0.44]),
        corr_hat=np.array([[1.0, 0.25], [0.25, 1.0]]),
    )
    spec = misspecified_strategy(params, est, prefs, horizon)
    x0 = params.theta + np.array([0.15, -0.1])
    ens = simulate(params, prefs, spec, horizon, 512, 8000, 42, x0=x0, store_paths=False)
    assert ens.n_excluded == 0
    for eps in (prefs.gamma, 1.0, 2.0):
        q = solve_Q(eps, params, est, prefs, horizon)
        analytic = p_epsilon(1.0, x0, 0.0, eps, q, params).p_value
        mc, se = ens.utility_estimate(eps)
        assert abs(mc - analytic) < 3.0 * se


def test_sharpe_positive_at_truth():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    est = EstimatedParams.from_params(params)
    q1 = solve_Q(1.0, params, est, prefs, 1.5)
    q2 = solve_Q(2.0, params, est, prefs, 1.5)
    sr = sharpe(
        p_epsilon(1.0, params.theta, 0.0, 1.0, q1, params),
        p_epsilon(1.0, params.theta, 0.0, 2.0, q2, params),
    )
    assert sr > 0.0


def test_sharpe_rejects_wrong_exponents():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    est = EstimatedParams.from_params(params)
    q1 = solve_Q(1.0, params, est, prefs, 1.0)
    p1 = p_epsilon(1.0, params.theta, 0.0, 1.0, q1, params)
    with pytest.raises(ValueError):
        sharpe(p1, p1)


def test_sharpe_variance_guard():
    with pytest.raises(NonPositiveVariance):
        from meanrev.misspec import MomentReport

        p1 = MomentReport(epsilon=1.0, wealth_factor=1.0,
                          log_trace_factor=0.0, log_quadratic_factor=0.0)
        p2 = MomentReport(epsilon=2.0, wealth_factor=0.5,
                          log_trace_factor=0.0, log_quadratic_factor=0.0)
        # 2 P_2 - P_1^2 = 2*0.5 - 1 = 0, not positive.
        sharpe(p1, p2)


def test_sweep_properties():
    params = two_asset(rho=0.7)
    prefs = Preferences(gamma=-4.0)
    grid = misspec_sweep(params, prefs, 0.5, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert not grid.failures
    # Zero at the true point, all cells non-positive.
    assert abs(grid.cells[1, 1]) < 1e-8
    assert np.nanmax(grid.cells) <= 1e-8
    # Overestimation costs more than underestimation.
    assert grid.cells[2, 2] < grid.cells[0, 0]


def test_sweep_records_blowups():
    # Long horizon with 2x overestimation diverges the fourth negative moment.
    params = two_asset(rho=0.7)
    prefs = Preferences(gamma=-4.0)
    grid = misspec_sweep(params, prefs, 3.0, [1.0, 2.0], [1.0, 2.0])
    assert grid.failures
    for (i, j) in grid.failures:
        assert np.isnan(grid.cells[i, j])


def test_sweep_requires_two_assets():
    import meanrev.model as mm

    solo = mm.OUParams(n=1, kappa=[1.0], sigma=[1.0], theta=[0.0], corr=np.eye(1))
    with pytest.raises(ValueError):
        misspec_sweep(solo, Preferences(gamma=-1.0), 1.0, [1.0], [1.0])
