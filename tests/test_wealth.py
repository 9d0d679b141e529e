import multiprocessing
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import meanrev.wealth as wealth_mod
from meanrev.control import misspecified_strategy, optimal_strategy, solve_value, value_function
from meanrev.errors import NonFinite, OutOfDomain, OutOfHorizon, OutOfRange, TooFewPaths
from meanrev.model import (OUParams, Preferences, covariance_factor, normalize,
                           step_covariance)
from meanrev.wealth import decompose, default_steps, path_rng, simulate

from conftest import needs_fork, set_cpus, two_asset


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
    # decompose slices the feedback the paths traded with.
    assert np.array_equal(ens.feedback, spec.feedback(spec.horizon - ens.times[:-1]))
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
    d = spec.feedback(1.0 - ens.times[:-1])
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
    with pytest.raises(OutOfDomain, match="need s < t"):
        decompose(ens, 0, 0.5, 0.5)


def test_simulate_needs_a_strategy_covering_the_span():
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    with pytest.raises(OutOfHorizon, match="does not cover"):
        simulate(params, prefs, spec, 1.5, 8, 1, 1)


@pytest.mark.parametrize("n_steps, n_paths, seed, name", [
    (0, 2, 0, "n_steps"), (4.0, 2, 0, "n_steps"), (4, 0, 0, "n_paths"), (4, True, 0, "n_paths"),
    (4, 2, -3, "seed"), (4, 2, 1.5, "seed"),
], ids=["zero-steps", "float-steps", "zero-paths", "bool-paths", "negative-seed", "float-seed"])
def test_simulate_refuses_a_bad_count_or_seed(monkeypatch, n_steps, n_paths, seed, name):
    # The model's one integer rule, before any chunk runs: a negative seed
    # never reaches a worker's generator.
    def no_fork(*args):
        raise AssertionError("simulate started its chunks")

    monkeypatch.setattr(wealth_mod, "fork_map", no_fork)
    params, prefs = two_asset(), Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    with pytest.raises(OutOfDomain, match=f"^{name} must be an integer >= "):
        simulate(params, prefs, spec, 1.0, n_steps, n_paths, seed)


def test_a_utility_estimate_needs_two_retained_paths():
    # One path, or five that all overflowed, leave no standard error: a typed
    # error, not a NaN and numpy's RuntimeWarnings.
    params, prefs = two_asset(), Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    for n_paths, x0 in ((1, None), (5, np.array([1e160, 0.0]))):
        ens = simulate(params, prefs, spec, 1.0, 8, n_paths, 1, x0=x0, store_paths=False)
        with pytest.raises(TooFewPaths, match=f"^[01] of {n_paths} paths retained"):
            ens.utility_estimate(prefs.gamma)
    mean, se = simulate(params, prefs, spec, 1.0, 8, 2, 1, store_paths=False).utility_estimate(prefs.gamma)
    assert np.isfinite(mean) and se > 0.0


def test_decompose_needs_stored_paths():
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 8, 1, 1, store_paths=False)
    with pytest.raises(OutOfRange, match="without stored paths"):
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
    with pytest.raises(OutOfDomain, match="optimal rule"):
        decompose(ens, 0, 0.0, 1.0)


# Forked workers need fork and a CPU-affinity query; elsewhere simulate
# runs every chunk in-process.
def _reference_simulate(params, spec, horizon, n_steps, n_paths, seed, x0):
    """The path-major loop simulate replaced: one-shot normals per path,
    batch-major states, einsum drift and stochastic terms."""
    norm_params, record = normalize(params)
    dt = horizon / n_steps
    decay = np.exp(-norm_params.kappa * dt)
    factor = covariance_factor(step_covariance(norm_params, dt))
    times = np.linspace(0.0, horizon, n_steps + 1)
    d_left = spec.feedback(spec.horizon - times[:-1])
    quad_left = np.einsum("kji,jl,klm->kim", d_left, norm_params.corr, d_left)
    z = np.stack([path_rng(seed, i).standard_normal((n_steps, params.n)) for i in range(n_paths)])
    x = np.broadcast_to(record.state_to_unit_noise(x0), (n_paths, params.n)).copy()
    logw = np.zeros(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    states, logws = [x], [logw]
    for k in range(n_steps):
        x_next = decay * x + z[:, k, :] @ factor.T
        dx = x_next - x
        drift = -0.5 * np.einsum("pi,ij,pj->p", x, quad_left[k], x) * dt
        stoch = -np.einsum("pi,ij,pj->p", x, d_left[k].T, dx)
        logw = np.where(alive, logw + drift + stoch, logw)
        alive &= np.abs(logw) <= wealth_mod.LOG_WEALTH_GUARD
        alive &= np.isfinite(logw)
        x = x_next
        states.append(x)
        logws.append(logw)
    return np.stack(states, axis=1), np.stack(logws, axis=1), ~alive


THREE = OUParams(n=3, kappa=[1.2, 0.5, 0.8], sigma=[0.7, 1.3, 1.1], theta=[0.2, -0.1, 0.4],
                 corr=[[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]])
THREE_X0 = np.array([0.5, -0.4, 0.9])


@needs_fork
def test_simulation_matches_the_path_major_reference(monkeypatch):
    # Several chunks on two forked workers, each chunk in several slabs and
    # step blocks with a short last one; a misspecified rule (D is not
    # symmetric) and an unnormalized correlated 3-asset model.
    prefs = Preferences(gamma=-2.0)
    est = replace(THREE, kappa=np.array([1.5, 0.4, 0.8]))
    spec = misspecified_strategy(THREE, est, prefs, 1.0)
    monkeypatch.setattr(wealth_mod, "_CHUNK", 9)
    monkeypatch.setattr(wealth_mod, "_SLAB", 4)
    monkeypatch.setattr(wealth_mod, "_BLOCK", 128)
    set_cpus(monkeypatch, 2)
    ens = simulate(THREE, prefs, spec, 1.0, 300, 40, 11, x0=THREE_X0, store_paths=True)
    assert ens.diagnostics["chunks"] == 5 and ens.diagnostics["workers"] == 2
    states, logw, excluded = _reference_simulate(THREE, spec, 1.0, 300, 40, 11, THREE_X0)
    assert np.allclose(ens.states, states, rtol=0.0, atol=1e-12)
    assert np.allclose(ens.log_wealth, logw, rtol=0.0, atol=1e-12)
    assert np.allclose(ens.terminal_log_wealth, logw[:, -1], rtol=0.0, atol=1e-12)
    assert np.array_equal(ens.excluded, excluded)


def test_block_draws_repeat_the_one_shot_stream():
    # Sequential draws of step blocks continue one path's stream exactly.
    for i in range(50):
        whole = path_rng(3, i).standard_normal((700, 2))
        gen, parts = path_rng(3, i), np.empty((700, 2))
        for k0 in range(0, 700, 256):
            gen.standard_normal(out=parts[k0:k0 + 256])
        assert np.array_equal(parts, whole)


@needs_fork
@pytest.mark.parametrize("guard", [wealth_mod.LOG_WEALTH_GUARD, 0.35], ids=["default", "low-guard"])
def test_results_do_not_depend_on_the_worker_count(monkeypatch, guard):
    monkeypatch.setattr(wealth_mod, "LOG_WEALTH_GUARD", guard)
    monkeypatch.setattr(wealth_mod, "_CHUNK", 16)
    prefs = Preferences(gamma=-4.0)
    spec = optimal_strategy(THREE, prefs, 1.0)
    runs = []
    for cpus in (1, 2, 4):  # in-process, two workers, and more workers than most CPUs
        set_cpus(monkeypatch, cpus)
        runs.append(simulate(THREE, prefs, spec, 1.0, 64, 60, 5, x0=THREE_X0, store_paths=False))
    one, two, four = runs
    assert [r.diagnostics["workers"] for r in runs] == [1, 2, 4]
    for other in (two, four):
        assert np.array_equal(one.terminal_log_wealth, other.terminal_log_wealth)
        assert np.array_equal(one.excluded, other.excluded)
    if guard < 1.0:
        assert 0 < two.n_excluded < two.n_paths
        assert two.diagnostics["guard_hits"] == two.n_excluded
        assert two.diagnostics["non_finite"] == 0
        # An excluded path keeps the log-wealth that crossed the guard.
        assert np.all(np.abs(two.terminal_log_wealth[two.excluded]) > guard)
    else:
        assert two.n_excluded == 0


def test_overflowing_paths_count_as_non_finite():
    # x0 = 1e160 overflows x'D'ThetaDx on the first step; the guards catch it
    # without a floating-point warning.
    prefs = Preferences(gamma=-1.0)
    params = two_asset()
    spec = optimal_strategy(params, prefs, 1.0)
    ens = simulate(params, prefs, spec, 1.0, 8, 5, 2, x0=np.array([1e160, 0.0]),
                   store_paths=False)
    assert ens.n_excluded == 5
    assert ens.diagnostics == {"guard_hits": 0, "non_finite": 5, "chunks": 1, "workers": 1}


@needs_fork
def test_forked_workers_start_without_warnings(monkeypatch):
    monkeypatch.setattr(wealth_mod, "_CHUNK", 8)
    set_cpus(monkeypatch, 2)
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ens = simulate(params, prefs, spec, 0.5, 16, 20, 3, store_paths=False)
    assert ens.diagnostics["workers"] == 2
    assert caught == []
    assert multiprocessing.active_children() == []


class _DaemonProcess:
    daemon = True


@pytest.mark.parametrize("attr, value", [
    ("get_all_start_methods", lambda: ["spawn"]),
    ("current_process", _DaemonProcess),  # a daemonic process may not start children
], ids=["no-fork", "daemonic-caller"])
def test_without_fork_the_chunks_run_in_process(monkeypatch, attr, value):
    monkeypatch.setattr(wealth_mod, "_CHUNK", 8)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, attr, value)
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 0.5)
    ens = simulate(params, prefs, spec, 0.5, 16, 20, 3, store_paths=False)
    assert ens.diagnostics["workers"] == 1 and ens.diagnostics["chunks"] == 3


def _failing_rng(fail):
    real = wealth_mod.path_rng

    def path_rng(seed, index):
        if index == 8:  # the first path of chunk 1, the second chunk handed out
            fail()
        return real(seed, index)
    return path_rng


def _raise_non_finite():
    raise NonFinite("seeded failure")


@needs_fork
@pytest.mark.parametrize("fail, error, match", [
    (_raise_non_finite, NonFinite, "seeded failure"),
    (lambda: os._exit(3), RuntimeError, "exited with code 3"),
], ids=["typed-error", "worker-dies"])
def test_a_failing_worker_reaches_the_caller(monkeypatch, fail, error, match):
    monkeypatch.setattr(wealth_mod, "_CHUNK", 8)
    monkeypatch.setattr(wealth_mod, "path_rng", _failing_rng(fail))
    set_cpus(monkeypatch, 2)
    params = two_asset()
    prefs = Preferences(gamma=-1.0)
    spec = optimal_strategy(params, prefs, 0.5)
    with pytest.raises(error, match=match):
        simulate(params, prefs, spec, 0.5, 16, 20, 3, store_paths=False)
    assert multiprocessing.active_children() == []
