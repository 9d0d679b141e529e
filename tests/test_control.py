import numpy as np
import pytest

from meanrev.control import (
    log_utility_value,
    optimal_strategy,
    solve_value,
    value_at_mean,
    value_function,
)
from meanrev.errors import OutOfHorizon
from meanrev.model import Preferences
from meanrev.oracles import d_equation, reference_solve

from conftest import random_params, two_asset


def test_position_routes_agree(rng):
    # The rule alpha = -w D(T - t) s^-1 (x - theta) / s, with D from the
    # D-equation integrated independently of the package's solve.
    for _ in range(5):
        params = random_params(rng, 3)
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))
        spec = optimal_strategy(params, prefs, 2.0)
        x = params.theta + rng.standard_normal(3) * 0.3
        ts = (0.0, 0.9, 2.0)
        d_ref = reference_solve(*d_equation(params, prefs), 2.0, [2.0 - t for t in ts])
        for t, d in zip(ts, d_ref):
            expected = -1.5 * d @ ((x - params.theta) / params.sigma) / params.sigma
            assert np.allclose(spec.position(1.5, x, t), expected, atol=1e-8)


@pytest.mark.parametrize("wealth", [0.0, -1.0])
def test_position_rejects_non_positive_wealth(wealth):
    spec = optimal_strategy(two_asset(), Preferences(gamma=-4.0), 1.0)
    with pytest.raises(ValueError):
        spec.position(wealth, np.zeros(2), 0.0)


def test_position_zero_at_mean():
    params = two_asset(theta=(0.2, -0.1))
    spec = optimal_strategy(params, Preferences(gamma=-4.0), 1.0)
    assert np.allclose(spec.position(1.0, params.theta, 0.3), 0.0)


def test_position_scales_with_wealth():
    params = two_asset()
    spec = optimal_strategy(params, Preferences(gamma=-4.0), 1.0)
    x = np.array([0.4, -0.2])
    assert np.allclose(spec.position(2.0, x, 0.0), 2.0 * spec.position(1.0, x, 0.0))


def test_position_out_of_horizon():
    spec = optimal_strategy(two_asset(), Preferences(gamma=-1.0), 1.0)
    with pytest.raises(OutOfHorizon):
        spec.position(1.0, np.zeros(2), 1.5)


def test_log_utility_position_is_static():
    params = two_asset(rho=0.4, sigma=(0.5, 2.0), theta=(0.1, 0.0))
    spec = optimal_strategy(params, Preferences(gamma=0.0), 2.0)
    x = np.array([0.6, -0.3])
    p0 = spec.position(1.0, x, 0.0)
    for t in (0.5, 1.3, 2.0):
        assert np.allclose(spec.position(1.0, x, t), p0, atol=1e-10)


def test_value_function_terminal_condition():
    params = two_asset()
    prefs = Preferences(gamma=-4.0)
    a = solve_value(params, prefs, 1.0)
    x = np.array([0.5, 0.2])
    rep = value_function(2.0, x, 1.0, a, prefs, params)
    assert rep.total == pytest.approx(2.0**-4.0 / -4.0)


def test_value_function_factors():
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    a = solve_value(params, prefs, 2.0)
    rep = value_function(1.0, params.theta, 0.0, a, prefs, params)
    # At the mean the intrinsic factor is 1.
    assert rep.intrinsic_value == pytest.approx(1.0)
    assert rep.total == pytest.approx(value_at_mean(1.0, 0.0, a, prefs))


def test_value_function_rejects_log_utility():
    params = two_asset()
    a = solve_value(params, Preferences(gamma=-1.0), 1.0)
    with pytest.raises(ValueError):
        value_function(1.0, np.zeros(2), 0.0, a, Preferences(gamma=0.0), params)


def test_value_monotone_in_horizon():
    # More trading time cannot hurt: |J| shrinks toward 0 for gamma < 0.
    params = two_asset()
    prefs = Preferences(gamma=-4.0)
    a = solve_value(params, prefs, 3.0)
    values = [value_at_mean(1.0, t, a, prefs) for t in (0.0, 1.0, 2.0, 3.0)]
    assert all(values[k] > values[k + 1] - 1e-12 for k in range(3))
    assert all(v < 0 for v in values)


def test_log_utility_value_matches_small_gamma_limit():
    # E[log W] should be the gamma -> 0 limit of the power-utility problem's
    # certainty equivalent growth; compare against a tiny-gamma A-solution.
    params = two_asset(rho=0.5, sigma=(0.7, 1.2), theta=(0.2, -0.1))
    horizon = 1.5
    x = np.array([0.5, 0.1])
    rep = log_utility_value(1.0, x, 0.0, params, horizon)
    eps = 1e-5
    prefs = Preferences(gamma=eps)
    a = solve_value(params, prefs, horizon)
    j = value_function(1.0, x, 0.0, a, prefs, params)
    approx = (np.log(eps * j.total)) / eps
    assert rep.total == pytest.approx(approx, abs=1e-3)


def test_log_utility_value_time_consistency():
    params = two_asset()
    rep_full = log_utility_value(1.0, params.theta, 0.0, params, 2.0)
    rep_late = log_utility_value(1.0, params.theta, 1.5, params, 2.0)
    assert rep_full.correction > rep_late.correction > 0.0
