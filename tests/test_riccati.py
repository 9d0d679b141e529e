import numpy as np
import pytest
from scipy.integrate import solve_ivp

from meanrev.errors import BlowUpDetected, TrigSingularity
from meanrev.model import OUParams, Preferences, normalize
from meanrev.riccati import (
    StepControl,
    d_common_kappa,
    d_scalar_closed_form,
    d_single_mr,
    d_uncorrelated,
    single_mr_blowup_tau,
    solve_A,
    solve_D,
)

from conftest import random_params, two_asset

TAUS = np.linspace(0.0, 3.0, 61)


def scalar_params(kappa=0.8):
    return OUParams(n=1, kappa=[kappa], sigma=[1.0], theta=[0.0], corr=np.eye(1))


def test_scalar_closed_form_initial_value():
    for delta in (0.2, 1.0, 2.0):
        assert d_scalar_closed_form(0.8, delta, 0.0) == pytest.approx(0.8 * delta)


def test_scalar_oracle_against_solver():
    for delta in (0.2, 1.0, 2.0):
        prefs = Preferences.from_delta(delta)
        sol = solve_D(scalar_params(), prefs, 3.0)
        for tau in TAUS:
            num = sol.interpolate(tau)[0, 0]
            assert num == pytest.approx(d_scalar_closed_form(0.8, delta, tau), abs=1e-8)


def test_uncorrelated_oracle():
    params = OUParams(n=3, kappa=[0.4, 1.0, 1.6], sigma=np.ones(3), theta=np.zeros(3),
                      corr=np.eye(3))
    for delta in (0.2, 2.0):
        prefs = Preferences.from_delta(delta)
        sol = solve_D(params, prefs, 3.0)
        for tau in TAUS:
            assert np.max(np.abs(sol.interpolate(tau)
                                 - d_uncorrelated(params.kappa, delta, tau))) < 1e-8


def test_common_kappa_oracle():
    for rho in (-0.8, 0.0, 0.5, 0.9):
        params = two_asset(rho=rho, kappa=(0.7, 0.7))
        for delta in (0.2, 2.0):
            prefs = Preferences.from_delta(delta)
            sol = solve_D(params, prefs, 3.0)
            for tau in TAUS:
                assert np.max(np.abs(sol.interpolate(tau)
                                     - d_common_kappa(0.7, params.corr, delta, tau))) < 1e-8


def test_single_mr_oracle_tanh_branch():
    # delta = 0.2 keeps gamma negative; no pole anywhere.
    for rho in (-0.8, 0.0, 0.5, 0.9):
        params = two_asset(rho=rho, kappa=(1.0, 0.0))
        prefs = Preferences.from_delta(0.2)
        assert single_mr_blowup_tau(1.0, params.corr, prefs.gamma) is None
        sol = solve_D(params, prefs, 3.0)
        for tau in TAUS:
            assert np.max(np.abs(sol.interpolate(tau)
                                 - d_single_mr(1.0, params.corr, prefs.gamma, tau))) < 1e-8


def test_single_mr_constant_hedge_row():
    # Off-diagonal D_j1 stays at its initial value delta (Theta^{-1})_{j1} kappa.
    params = two_asset(rho=0.6, kappa=(1.0, 0.0))
    prefs = Preferences.from_delta(0.2)
    expected = prefs.delta * params.corr_inv[1, 0] * 1.0
    for tau in (0.0, 1.0, 3.0):
        assert d_single_mr(1.0, params.corr, prefs.gamma, tau)[1, 0] == pytest.approx(expected)


def test_single_mr_trig_branch_pole():
    params = two_asset(rho=0.9, kappa=(1.0, 0.0))
    gamma = 0.5
    pole = single_mr_blowup_tau(1.0, params.corr, gamma)
    assert pole is not None and 0.0 < pole < 3.0
    with pytest.raises(TrigSingularity):
        d_single_mr(1.0, params.corr, gamma, pole + 0.1)
    # Numerical solver detects the same pole.
    with pytest.raises(BlowUpDetected) as exc:
        solve_D(params, Preferences(gamma=gamma), 3.0)
    assert exc.value.tau_star == pytest.approx(pole, rel=0.05)
    # Before the pole the closed form and the solver agree.
    sol = solve_D(params, Preferences(gamma=gamma), 0.9 * pole)
    for tau in np.linspace(0.0, 0.85 * pole, 30):
        assert np.max(np.abs(sol.interpolate(tau)
                             - d_single_mr(1.0, params.corr, gamma, tau))) < 1e-7


def test_log_utility_fixed_point():
    params = two_asset(rho=0.6)
    sol = solve_D(params, Preferences(gamma=0.0), 3.0)
    fixed = params.corr_inv @ np.diag(params.kappa)
    for tau in TAUS:
        assert np.max(np.abs(sol.interpolate(tau) - fixed)) < 1e-10


def d_equation_reference(params, prefs, horizon, taus):
    """D' = -D'Theta D + delta K Theta^{-1} K, D(0) = delta Theta^{-1} K,
    integrated on its own by a different method at tight tolerance."""
    n, corr, delta = params.n, params.corr, prefs.delta
    kmat = np.diag(params.kappa)
    const = delta * kmat @ params.corr_inv @ kmat

    def rhs(tau, y):
        d = y.reshape(n, n)
        return (-d.T @ corr @ d + const).ravel()

    d0 = delta * params.corr_inv @ kmat
    res = solve_ivp(rhs, (0.0, horizon), d0.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return np.moveaxis(res.sol(taus).reshape(n, n, -1), 2, 0)


def test_a_d_consistency(rng):
    # A and D are views of one S solve; both are held against the D-equation.
    taus = np.linspace(0.0, 2.0, 11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        params, _ = normalize(random_params(rng, n))
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.0, 0.5])))
        a = solve_A(params, prefs, 2.0)
        d = solve_D(params, prefs, 2.0)
        base = prefs.delta * params.corr_inv @ np.diag(params.kappa)
        for tau, d_ref in zip(taus, d_equation_reference(params, prefs, 2.0, taus)):
            am = a.interpolate(tau)
            assert np.max(np.abs(d.interpolate(tau) - d_ref)) < 1e-8
            assert np.max(np.abs(base - (am + am.T) - d_ref)) < 1e-8


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


def test_interpolation_exact_on_grid(rng):
    params, _ = normalize(random_params(rng, 2))
    sol = solve_D(params, Preferences(gamma=-1.0), 2.0)
    k = len(sol.tau_grid) // 2
    assert np.array_equal(sol.interpolate(sol.tau_grid[k]), sol.values[k])


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
    params, _ = normalize(random_params(rng, 2))
    sol = solve_D(params, Preferences(gamma=-4.0), 2.0)
    taus = np.array([0.0, 0.37, 1.11, 2.0])
    stacked = sol.at_many(taus)
    for k, tau in enumerate(taus):
        assert np.allclose(stacked[k], sol.interpolate(tau))


@pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
def test_solve_rejects_bad_horizon(horizon):
    with pytest.raises(ValueError):
        solve_D(two_asset(), Preferences(gamma=-4.0), horizon)


def test_step_control_tightening_changes_little():
    params = two_asset(rho=0.5)
    prefs = Preferences(gamma=-4.0)
    loose = solve_D(params, prefs, 3.0, StepControl(tol=1e-8))
    tight = solve_D(params, prefs, 3.0, StepControl(tol=1e-12))
    for tau in (0.5, 1.5, 3.0):
        assert np.max(np.abs(loose.interpolate(tau) - tight.interpolate(tau))) < 1e-7
