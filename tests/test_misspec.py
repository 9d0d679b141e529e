import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meanrev.control import (
    ValueReport,
    misspecified_strategy,
    optimal_strategy,
    solve_value,
    value_function,
)
from meanrev import misspec
from meanrev.errors import BlowUpDetected, NonPositiveVariance, OutOfDomain
from meanrev.misspec import misspec_sweep, p_epsilon, sharpe, solve_Q
from meanrev.model import OUParams, Preferences
from meanrev.oracles import d_equation, q_equation, reference_solve
from meanrev.wealth import simulate

from conftest import needs_fork, random_corr, random_params, set_cpus, two_asset


def correlated_pair():
    return two_asset(rho=0.4, kappa=(1.0, 2.0), sigma=(0.3, 0.5), theta=(0.1, -0.2))


def test_true_estimates_reproduce_optimal_positions(rng):
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    # Estimates equal to the truth, rebuilt from plain lists: the rules agree
    # to the last bit.
    est = OUParams.from_dict({"n": 2, "kappa": [1.0, 2.0], "sigma": [0.3, 0.5],
                              "theta": [0.1, -0.2], "corr": [[1.0, 0.4], [0.4, 1.0]]})
    s_opt = optimal_strategy(params, prefs, 1.5)
    s_mis = misspecified_strategy(params, est, prefs, 1.5)
    for t in (0.0, 0.7, 1.4):
        x = params.theta + rng.standard_normal(2) * 0.2
        assert np.array_equal(s_opt.position(2.0, x, t), s_mis.position(2.0, x, t))


ratios = st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3).map(np.array)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kappa_ratio=ratios, sigma_ratio=ratios,
       gamma=st.sampled_from([-4.0, -1.0, 0.0]))
def test_misspecified_positions_follow_the_estimates(seed, kappa_ratio, sigma_ratio, gamma):
    # The estimate-believer trades -w sh^-1 Dh(T - t) sh^-1 (x - theta), with
    # Dh from the estimated model's D-equation integrated independently.
    rng = np.random.default_rng(seed)
    params = random_params(rng, 3)
    # The estimated means are never read: positions use the true ones.
    est = OUParams(n=3, kappa=params.kappa * kappa_ratio, sigma=params.sigma * sigma_ratio,
                   theta=rng.uniform(-1.0, 1.0, 3), corr=random_corr(rng, 3))
    prefs = Preferences(gamma=gamma)
    spec = misspecified_strategy(params, est, prefs, 1.0)
    x = params.theta + rng.standard_normal(3) * 0.3
    ts = (0.0, 0.4, 1.0)
    d_hat = reference_solve(*d_equation(est, prefs), 1.0, [1.0 - t for t in ts])
    for t, d in zip(ts, d_hat):
        expected = -1.5 * d @ ((x - params.theta) / est.sigma) / est.sigma
        got = spec.position(1.5, x, t)
        assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_moment_solve_matches_non_symmetric_q_equation():
    # solve_Q presents S_Q / 2, the symmetric part of the non-symmetric Q,
    # with the trace integral of Q Theta; Q and Dh are integrated together
    # by the reference solver, independently of the package's solves.
    rng = np.random.default_rng(7)
    taus = np.linspace(0.0, 1.0, 11)
    solved = 0
    for gamma in (-4.0, -1.0, 0.5):
        prefs = Preferences(gamma=gamma)
        for _ in range(3):
            n = int(rng.integers(2, 4))
            params = random_params(rng, n)
            est = replace(params, kappa=params.kappa * rng.uniform(0.5, 2.0, n),
                          sigma=params.sigma * rng.uniform(0.7, 1.4, n),
                          corr=random_corr(rng, n))
            spec = misspecified_strategy(params, est, prefs, taus[-1])
            for eps in (gamma, 1.0, 2.0):
                try:
                    sol = solve_Q(eps, params, spec)
                except BlowUpDetected:
                    continue
                solved += 1
                q_sym = sol.at_many(sol.tau_grid)
                assert np.array_equal(q_sym, q_sym.transpose(0, 2, 1))
                ref = reference_solve(*q_equation(params, est, prefs, eps), taus[-1], taus)
                q_ref, trace_ref = ref[:, :n, :n], ref[:, 2 * n, 2 * n]
                scale = max(1.0, float(np.max(np.abs(q_ref))))
                for tau, q, trace in zip(taus, q_ref, trace_ref):
                    assert np.max(np.abs(sol.interpolate(tau) - 0.5 * (q + q.T))) <= 1e-8 * scale
                    assert abs(sol.trace_integral_at(tau) - trace) <= 1e-8 * scale
    assert solved >= 20


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
       gamma=st.sampled_from([-4.0, -1.0, 0.5]), horizon=st.floats(0.2, 2.0))
def test_p_gamma_equals_value_at_truth(seed, n, gamma, horizon):
    # The value J is the gamma-th wealth moment of the rule with exact
    # estimates; the two come from different Riccati solves.
    rng = np.random.default_rng(seed)
    params = random_params(rng, n)
    prefs = Preferences(gamma=gamma)
    try:
        q = solve_Q(gamma, params, optimal_strategy(params, prefs, horizon))
        a = solve_value(params, prefs, horizon)
    except BlowUpDetected:
        assume(False)
    for t in (0.0, *rng.uniform(0.0, horizon, 2)):
        x = params.theta + rng.standard_normal(n) * 0.3
        p = p_epsilon(1.7, x, t, gamma, q, params).total
        j = value_function(1.7, x, t, a, prefs, params).total
        assert abs(p - j) <= 1e-8 * abs(j)


def test_zeroth_moment_is_trivial():
    params = correlated_pair()
    est = replace(params, kappa=params.kappa * 1.3)
    q0 = solve_Q(0.0, params, misspecified_strategy(params, est, Preferences(gamma=-1.0), 1.0))
    assert np.max(np.abs(q0.at_many(q0.tau_grid))) == 0.0
    assert q0.trace_integral_at(1.0) == 0.0
    with pytest.raises(ValueError):
        p_epsilon(1.0, params.theta, 0.0, 0.0, q0, params)


def test_moments_match_monte_carlo():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    horizon = 1.0
    est = replace(params, kappa=[1.4, 1.5], sigma=[0.36, 0.44],
                  corr=np.array([[1.0, 0.25], [0.25, 1.0]]))
    spec = misspecified_strategy(params, est, prefs, horizon)
    x0 = params.theta + np.array([0.15, -0.1])
    ens = simulate(params, prefs, spec, horizon, 512, 8000, 42, x0=x0, store_paths=False)
    assert ens.n_excluded == 0
    for eps in (prefs.gamma, 1.0, 2.0):
        q = solve_Q(eps, params, spec)
        analytic = p_epsilon(1.0, x0, 0.0, eps, q, params).total
        mc, se = ens.utility_estimate(eps)
        assert abs(mc - analytic) < 3.0 * se


def test_sharpe_positive_at_truth():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    spec = misspecified_strategy(params, params, prefs, 1.5)
    q1 = solve_Q(1.0, params, spec)
    q2 = solve_Q(2.0, params, spec)
    sr = sharpe(
        p_epsilon(1.0, params.theta, 0.0, 1.0, q1, params),
        p_epsilon(1.0, params.theta, 0.0, 2.0, q2, params),
    )
    assert sr > 0.0


def test_sharpe_rejects_wrong_exponents():
    params = correlated_pair()
    prefs = Preferences(gamma=-1.0)
    q1 = solve_Q(1.0, params, misspecified_strategy(params, params, prefs, 1.0))
    p1 = p_epsilon(1.0, params.theta, 0.0, 1.0, q1, params)
    with pytest.raises(ValueError):
        sharpe(p1, p1)


def test_sharpe_variance_guard():
    with pytest.raises(NonPositiveVariance):
        p1 = ValueReport(epsilon=1.0, wealth_factor=1.0,
                         log_trace_factor=0.0, log_quadratic_factor=0.0)
        p2 = ValueReport(epsilon=2.0, wealth_factor=0.5,
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


def test_sharpe_failures_leave_the_value_cells():
    # At gamma = 0.5 and rho = 0.9 the Q_1 or Q_2 solve blows up on cells
    # whose Q_gamma converges, the true point (1, 1) among them.
    params = two_asset(rho=0.9)
    prefs = Preferences(gamma=0.5)
    mult = [0.5, 0.75, 1.0, 1.5, 2.0]
    plain = misspec_sweep(params, prefs, 3.0, mult, mult)
    grid = misspec_sweep(params, prefs, 3.0, mult, mult, with_sharpe=True)
    np.testing.assert_array_equal(grid.cells, plain.cells)
    assert grid.failures == plain.failures
    lost = grid.metadata["sharpe_failures"]
    assert (2, 2) in lost and all("blew up" in reason for reason in lost.values())
    finite = np.isfinite(grid.cells)
    sharpes = grid.metadata["sharpe"]
    assert all(finite[c] for c in lost)
    for (i, j), ok in np.ndenumerate(finite):
        assert np.isfinite(sharpes[i, j]) == (ok and (i, j) not in lost)


def test_sweep_requires_two_assets():
    import meanrev.model as mm

    solo = mm.OUParams(n=1, kappa=[1.0], sigma=[1.0], theta=[0.0], corr=np.eye(1))
    with pytest.raises(OutOfDomain):
        misspec_sweep(solo, Preferences(gamma=-1.0), 1.0, [1.0], [1.0])


@pytest.mark.parametrize("m1, m2", [([0.0, 1.0], [1.0]), ([1.0], [-0.5])])
def test_sweep_rejects_non_positive_multipliers(m1, m2):
    with pytest.raises(OutOfDomain):
        misspec_sweep(two_asset(), Preferences(gamma=-1.0), 1.0, m1, m2)


@needs_fork
def test_sweep_cells_do_not_depend_on_the_worker_count(monkeypatch):
    # gamma = -4, T = 3: converging cells, value blow-ups and Sharpe ratios.
    params, prefs, mult = two_asset(rho=0.6), Preferences(gamma=-4.0), [0.5, 1.0, 2.0]
    grids = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        grids.append(misspec_sweep(params, prefs, 3.0, mult, mult, with_sharpe=True))
    assert multiprocessing.active_children() == []
    one, two = grids
    assert one.metadata["diagnostics"]["workers"] == 1
    assert two.metadata["diagnostics"]["workers"] == 2
    assert one.failures and list(one.failures.items()) == list(two.failures.items())
    np.testing.assert_array_equal(one.cells, two.cells)
    np.testing.assert_array_equal(one.metadata["sharpe"], two.metadata["sharpe"])
    assert one.metadata["sharpe_failures"] == two.metadata["sharpe_failures"]
    for key in ("solves", "s_evals", "p_evals", "switched"):
        assert one.metadata["diagnostics"][key] == two.metadata["diagnostics"][key]


@needs_fork
def test_a_failing_cell_reaches_the_caller_as_the_loop_raises_it(monkeypatch):
    # sharpe raises in cells 1 and 2.  On two workers cell 1 is the second
    # cell handed out, and cell 2 is handed out only if cell 0 is done first;
    # either way the caller sees cell 1's error.
    params, prefs, horizon = two_asset(rho=0.7), Preferences(gamma=-4.0), 0.5
    m1, m2 = [0.5, 1.0], [0.5, 1.0, 2.0]

    def mean_of_cell(a, b):
        est = replace(params, kappa=params.kappa * np.array([a, b]))
        q1 = solve_Q(1.0, params, misspecified_strategy(params, est, prefs, horizon))
        return p_epsilon(1.0, params.theta, 0.0, 1.0, q1, params).total

    seeded = {mean_of_cell(0.5, 1.0): "cell 1", mean_of_cell(0.5, 2.0): "cell 2"}
    assert len(seeded) == 2
    real = misspec.sharpe

    def failing(p1, p2):
        if p1.total in seeded:
            raise NonPositiveVariance(f"seeded failure in {seeded[p1.total]}")
        return real(p1, p2)

    monkeypatch.setattr(misspec, "sharpe", failing)
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        with pytest.raises(NonPositiveVariance, match="^seeded failure in cell 1$"):
            misspec_sweep(params, prefs, horizon, m1, m2, with_sharpe=True)
        assert multiprocessing.active_children() == []
    monkeypatch.setattr(misspec, "sharpe", real)
    grid = misspec_sweep(params, prefs, horizon, m1, m2, with_sharpe=True)
    assert grid.metadata["diagnostics"]["workers"] == 1
    assert np.all(np.isfinite(grid.metadata["sharpe"]))
