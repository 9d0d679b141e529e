from dataclasses import replace

import numpy as np
import pytest

import meanrev.wealth as wealth_mod
from meanrev.control import misspecified_strategy, optimal_strategy, solve_value, value_function
from meanrev.errors import OutOfRange
from meanrev.model import OUParams, Preferences
from meanrev.wealth import decompose, default_steps, path_rng, simulate

from conftest import two_asset


def test_path_rng_substreams_distinct():
    a = path_rng(1, 0).standard_normal(4)
    b = path_rng(1, 1).standard_normal(4)
    c = path_rng(1, 0).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_default_steps():
    assert default_steps(1.0) == 512
    assert default_steps(0.001) == 1


def test_simulation_deterministic_and_chunk_independent(monkeypatch):
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 0.5)
    kw = dict(horizon=0.5, n_steps=32, n_paths=50, seed=9, store_paths=False)
    a = simulate(params, prefs, spec, **kw)
    b = simulate(params, prefs, spec, **kw)
    assert np.array_equal(a.terminal_log_wealth, b.terminal_log_wealth)
    # Chunk size must not influence the draws; batched linear algebra may
    # reassociate sums, so agreement is to roundoff rather than bitwise.
    monkeypatch.setattr(wealth_mod, "_CHUNK", 7)
    c = simulate(params, prefs, spec, **kw)
    assert np.allclose(a.terminal_log_wealth, c.terminal_log_wealth,
                       rtol=0.0, atol=1e-13)


def test_simulated_states_have_exact_moments():
    params = two_asset(rho=0.5, sigma=(0.7, 1.3), theta=(0.2, -0.1))
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    x0 = params.theta + np.array([0.3, -0.2])
    ens = simulate(params, prefs, spec, 1.0, 16, 40000, 3, x0=x0, store_paths=True)
    from meanrev.model import normalize, step_covariance

    norm_params, record = normalize(params)
    x0n = record.state_to_unit_noise(x0)
    t = ens.times[-1]
    expected_mean = np.exp(-params.kappa * t) * x0n
    xs = ens.states[:, -1, :]
    assert np.allclose(xs.mean(axis=0), expected_mean, atol=0.02)
    assert np.allclose(np.cov(xs.T), step_covariance(norm_params, t), atol=0.02)


def test_mc_matches_analytic_value_small():
    params = two_asset(rho=0.5)
    prefs = Preferences(gamma=-1.0)
    horizon = 1.0
    spec = optimal_strategy(params, prefs, horizon)
    x0 = np.array([0.3, -0.2])
    ens = simulate(params, prefs, spec, horizon, 256, 8000, 17, x0=x0, store_paths=False)
    mean, se = ens.utility_estimate(prefs.gamma)
    a = solve_value(params, prefs, horizon)
    j = value_function(1.0, x0, 0.0, a, prefs, params).total
    assert abs(mean - j) < 3.0 * se
    assert ens.n_excluded == 0


def test_decomposition_subinterval():
    params = two_asset(rho=0.4)
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 256, 2, 5,
                   x0=np.array([0.4, 0.1]), store_paths=True)
    s, t = ens.times[64], ens.times[192]
    dec = decompose(ens, 0, s, t)
    assert abs(dec.residual) < 5e-3
    assert dec.total == pytest.approx(
        ens.log_wealth[0, 192] - ens.log_wealth[0, 64])


@pytest.mark.parametrize("params, gamma, zero", [
    (two_asset(rho=0.5, kappa=(1.0, 1.0 + 1e-11)), -4.0, False),
    (OUParams(n=3, kappa=[0.8, 0.8, 0.8], sigma=np.ones(3), theta=np.zeros(3),
              corr=[[1.0, 0.6, 0.3], [0.6, 1.0, 0.2], [0.3, 0.2, 1.0]]), -4.0, True),
    (two_asset(rho=0.7, kappa=(0.8, 0.8)), -1.0, True),
], ids=["nearly-common-kappa", "common-kappa-3-assets", "common-kappa-2-assets"])
def test_term_c_is_zero_exactly_when_corr_commutes_with_kappa(params, gamma, zero):
    # A common kappa makes term_c exactly 0.0, although the computed inverse
    # of a correlated Theta leaves roundoff in D - D'; kappa apart by 1e-11
    # keeps the (tiny) sum.
    prefs = Preferences(gamma=gamma)
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 64, 3, 7,
                   x0=np.linspace(0.5, -0.3, params.n), store_paths=True)
    d = spec.feedback_many(1.0 - ens.times[:-1])
    for p in range(3):
        term_c = decompose(ens, p, 0.0, 1.0).term_c
        if zero:
            assert term_c == 0.0
        else:
            xs = ens.states[p]
            direct = 0.5 * sum(x @ (dk - dk.T) @ dx
                               for x, dk, dx in zip(xs[:-1], d, np.diff(xs, axis=0)))
            assert term_c != 0.0
            assert term_c == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_decompose_requires_grid_times():
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 64, 1, 1, store_paths=True)
    with pytest.raises(OutOfRange):
        decompose(ens, 0, 0.0, 0.5 + 1e-4)


def test_decompose_needs_stored_paths():
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 8, 1, 1, store_paths=False)
    with pytest.raises(ValueError):
        decompose(ens, 0, 0.0, 1.0)


@pytest.mark.parametrize("estimate", [{"kappa": np.array([2.0, 0.4])},
                                      {"sigma": np.array([1.0, 1.3])}], ids=["kappa", "sigma"])
def test_decompose_rejects_a_misspecified_rule(estimate):
    # term_a is the optimal rule's running term; on the rule of a trader who
    # believes kappa-hat_1 = 2 the residuals reach 0.04-0.11 (against 1e-5 for
    # the optimal rule), so such an ensemble is refused, as is a rule whose
    # frame is not all ones.
    params = two_asset(rho=0.6, kappa=(1.0, 0.4))
    prefs = Preferences(gamma=-4.0)
    spec = misspecified_strategy(params, replace(params, **estimate), prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 512, 4, 23, store_paths=True)
    with pytest.raises(ValueError, match="optimal rule"):
        decompose(ens, 0, 0.0, 1.0)
