import numpy as np
import pytest
from scipy.integrate import quad

from meanrev.control import log_utility_value, optimal_strategy, solve_value, value_function
from meanrev.errors import NonFinite, OutOfDomain, OutOfHorizon
from meanrev.model import OUParams, Preferences, normalize, step_covariance
from meanrev.oracles import d_equation, reference_solve

from conftest import random_corr, random_params, two_asset


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


@pytest.mark.parametrize("n", [2, 5, 20])
def test_position_of_a_stack_of_states_is_each_state_to_the_last_bit(rng, n):
    params = random_params(rng, n)
    spec = optimal_strategy(params, Preferences(gamma=-4.0), 2.0)
    states = params.theta + rng.standard_normal((7, n))
    for t in (0.0, 0.7, 2.0):
        stacked = spec.position(1.3, states, t)
        assert stacked.shape == (7, n)
        assert np.array_equal(stacked, [spec.position(1.3, x, t) for x in states])


@pytest.mark.parametrize("wealth", [0.0, -1.0])
def test_position_rejects_non_positive_wealth(wealth):
    spec = optimal_strategy(two_asset(), Preferences(gamma=-4.0), 1.0)
    with pytest.raises(OutOfDomain):
        spec.position(wealth, np.zeros(2), 0.0)


@pytest.mark.parametrize("wealth, error", [
    (0.0, OutOfDomain), (-1.0, OutOfDomain), (np.nan, NonFinite), (np.inf, NonFinite),
], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", ["position", "value_function", "log_utility_value"])
def test_every_wealth_entry_refuses_bad_wealth(entry, wealth, error):
    params, prefs = two_asset(), Preferences(gamma=-4.0)
    calls = {
        "position": lambda: optimal_strategy(params, prefs, 1.0).position(wealth, np.zeros(2), 0.0),
        "value_function": lambda: value_function(wealth, np.zeros(2), 0.0,
                                                 solve_value(params, prefs, 1.0), prefs, params),
        "log_utility_value": lambda: log_utility_value(wealth, np.zeros(2), 0.0, params, 1.0),
    }
    with pytest.raises(error, match="wealth must be"):
        calls[entry]()


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
    # At the mean the quadratic factor vanishes exactly, leaving the wealth
    # utility times the trace factor exp(int Tr(A Theta) / delta).
    assert rep.log_quadratic_factor == 0.0
    assert rep.total == (1.0 / prefs.gamma) * float(np.exp(a.trace_integral_at(2.0) / prefs.delta))


def test_value_function_rejects_log_utility():
    params = two_asset()
    a = solve_value(params, Preferences(gamma=-1.0), 1.0)
    with pytest.raises(OutOfDomain, match="exponent 0"):
        value_function(1.0, np.zeros(2), 0.0, a, Preferences(gamma=0.0), params)


def test_value_monotone_in_horizon():
    # More trading time cannot hurt: |J| shrinks toward 0 for gamma < 0.
    params = two_asset()
    prefs = Preferences(gamma=-4.0)
    a = solve_value(params, prefs, 3.0)
    values = [value_function(1.0, params.theta, t, a, prefs, params).total
              for t in (0.0, 1.0, 2.0, 3.0)]
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


def log_utility_quadrature(w, x, t, params, horizon):
    """E[log W_T] by adaptive quadrature of E[X' K Theta^{-1} K X] / 2 over
    the remaining horizon."""
    norm_params, record = normalize(params)
    x0 = record.state_to_unit_noise(x)
    kappa = norm_params.kappa
    m = kappa[:, None] * norm_params.corr_inv * kappa[None, :]

    def integrand(s: float) -> float:
        decayed = np.exp(-kappa * s) * x0
        cov = step_covariance(norm_params, s) if s > 0 else np.zeros_like(m)
        return float(decayed @ m @ decayed + np.sum(m * cov.T))

    correction, _ = quad(integrand, 0.0, horizon - t, limit=200)
    return np.log(w) + 0.5 * correction


def test_log_utility_value_matches_quadrature(rng):
    # Reversion rates include exact zeros and 1e-7, where k_ij vanishes or
    # nearly does; one rate is always of order one.
    for _ in range(60):
        n = int(rng.integers(1, 4))
        kappa = rng.uniform(0.3, 2.0, n)
        kappa[1:] = rng.choice(np.array([0.0, 1e-7, kappa[-1]]), n - 1)
        kappa = rng.permutation(kappa)
        params = OUParams(n=n, kappa=kappa, sigma=rng.uniform(0.2, 1.5, n),
                          theta=rng.uniform(-0.5, 0.5, n), corr=random_corr(rng, n))
        x = params.theta + rng.standard_normal(n) * 0.5
        horizon = float(rng.uniform(0.1, 5.0))
        t = float(rng.uniform(0.0, horizon))
        w = float(rng.uniform(0.5, 2.0))
        got = log_utility_value(w, x, t, params, horizon).total
        ref = log_utility_quadrature(w, x, t, params, horizon)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)
