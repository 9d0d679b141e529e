import numpy as np
import pytest

from meanrev import oracles
from meanrev.errors import OutOfRange
from meanrev.model import Preferences, normalize
from meanrev.riccati import d_scalar_closed_form, d_single_mr, single_mr_blowup_tau, solve_A, solve_D

from conftest import assert_passes, random_params, two_asset


def test_scalar_closed_form_initial_value():
    for delta in (0.2, 1.0, 2.0):
        assert d_scalar_closed_form(0.8, delta, 0.0) == pytest.approx(0.8 * delta)


def test_uncorrelated_oracle():
    assert_passes(oracles.uncorrelated_oracle([((0.4, 1.0, 1.6), d) for d in (0.2, 2.0)]))


def test_common_kappa_oracle():
    assert_passes(oracles.common_kappa_oracle(deltas=(0.2, 2.0)))


def test_single_mr_oracle_tanh_branch():
    # delta = 0.2 keeps gamma negative; no pole anywhere.
    for rho in oracles.RHOS:
        assert single_mr_blowup_tau(1.0, oracles.pair_corr(rho), -4.0) is None
    assert_passes(oracles.single_mr_oracle(deltas=(0.2,)))


def test_single_mr_constant_hedge_row():
    # Off-diagonal D_j1 stays at its initial value delta (Theta^{-1})_{j1} kappa.
    params = two_asset(rho=0.6, kappa=(1.0, 0.0))
    prefs = Preferences.from_delta(0.2)
    expected = prefs.delta * params.corr_inv[1, 0] * 1.0
    for tau in (0.0, 1.0, 3.0):
        assert d_single_mr(1.0, params.corr, prefs.gamma, tau)[1, 0] == pytest.approx(expected)


def test_single_mr_trig_branch_pole():
    # rho = 0.9, gamma = 0.5: the closed form has a pole inside the horizon,
    # and the solver must report blow-up there to 1e-9 relative.
    pole = single_mr_blowup_tau(1.0, oracles.pair_corr(0.9), 0.5)
    assert pole is not None and 0.0 < pole < 3.0
    check = oracles.single_mr_pole(rhos=(0.9,), deltas=(2.0,))
    assert_passes(check)
    assert check.tol == 1e-9
    assert_passes(oracles.single_mr_oracle(rhos=(0.9,), deltas=(2.0,)))


def test_log_utility_fixed_point():
    assert_passes(oracles.log_utility_fixed_point(rhos=(0.6,)))


def test_a_d_consistency(rng):
    # A and D are views of one S solve; both are held against the D-equation
    # on 20 general models reduced to unit noise, log utility included.
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        params, _ = normalize(random_params(rng, n))
        cases.append((params, Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.0, 0.5])))))
    assert_passes(oracles.a_d_consistency(cases, taus=np.linspace(0.0, 2.0, 11)))


def test_dij_dji_offset_time_independent(rng):
    # D_ij - D_ji = delta (Theta^{-1})_ij (kappa_j - kappa_i) at every time;
    # the offset is pinned by the initial condition D(0) = delta Theta^{-1} kappa
    # and never moves.
    for _ in range(5):
        params, _ = normalize(random_params(rng, 3))
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))
        sol = solve_D(params, prefs, 3.0)
        ci = params.corr_inv
        for tau in sol.tau_grid:
            d = sol.interpolate(tau)
            for i in range(3):
                for j in range(3):
                    expected = prefs.delta * ci[i, j] * (params.kappa[j] - params.kappa[i])
                    assert d[i, j] - d[j, i] == pytest.approx(expected, abs=1e-8)


def test_initial_conditions():
    params = two_asset(rho=0.3)
    prefs = Preferences(gamma=-4.0)
    a = solve_A(params, prefs, 1.0)
    d = solve_D(params, prefs, 1.0)
    assert np.allclose(a.interpolate(0.0), 0.0)
    assert np.allclose(d.interpolate(0.0),
                       prefs.delta * params.corr_inv @ np.diag(params.kappa))
    assert a.trace_integral_at(0.0) == 0.0


def test_at_many_matches_pointwise(rng):
    # Both lookups read the same dense output, at both ends, on a solve-grid
    # point and between grid points alike.
    for _ in range(5):
        params, _ = normalize(random_params(rng, int(rng.integers(1, 5))))
        sol = solve_D(params, Preferences(gamma=-4.0), 2.0)
        taus = np.array([0.0, 0.37, sol.tau_grid[len(sol.tau_grid) // 2], 1.11, 2.0])
        stacked = sol.at_many(taus)
        for k, tau in enumerate(taus):
            single = sol.interpolate(tau)
            assert np.max(np.abs(stacked[k] - single)) <= 1e-14 * np.max(np.abs(single))


@pytest.mark.parametrize("lookup", ["interpolate", "trace_integral_at", "at_many"])
@pytest.mark.parametrize("tau", [np.nan, -0.1, 2.1])
def test_lookups_reject_tau_outside_span(lookup, tau):
    sol = solve_D(two_asset(), Preferences(gamma=-4.0), 2.0)
    arg = np.array([0.5, tau]) if lookup == "at_many" else tau
    with pytest.raises(OutOfRange):
        getattr(sol, lookup)(arg)


@pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
def test_solve_rejects_bad_horizon(horizon):
    with pytest.raises(ValueError):
        solve_D(two_asset(), Preferences(gamma=-4.0), horizon)
