import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from meanrev.analysis import (
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    matrix_calculus_checks,
    phi_diagonal,
    psi_closed_form,
    psi_integral,
    psi_property,
    solve_F,
    value_vs_kappa2_rho,
)
from meanrev.control import solve_value
from meanrev.model import OUParams, Preferences

from conftest import random_params, two_asset


def f_equation_reference(params, prefs, horizon, taus):
    """F' = 2F^2 - delta(K F + F Gamma) + delta(delta-1)/2 K Gamma, F(0) = 0,
    Gamma = Theta^{-1} K Theta, integrated on its own at tight tolerance."""
    n, delta = params.n, prefs.delta
    kmat = np.diag(params.kappa)
    gam = params.corr_inv @ kmat @ params.corr

    def rhs(tau, y):
        f = y.reshape(n, n)
        return (2.0 * f @ f - delta * (kmat @ f + f @ gam)
                + 0.5 * delta * (delta - 1.0) * kmat @ gam).ravel()

    res = solve_ivp(rhs, (0.0, horizon), np.zeros(n * n), method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return np.moveaxis(res.sol(taus).reshape(n, n, -1), 2, 0)


def test_f_consistency_with_a_solution(rng):
    # F and A are views of one S solve; both are held against the F-equation.
    taus = np.linspace(0.0, 2.0, 9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        params = random_params(rng, n, normalized=True)
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))
        f = solve_F(params, prefs, 2.0)
        a = solve_value(params, prefs, 2.0)
        for tau, f_ref in zip(taus, f_equation_reference(params, prefs, 2.0, taus)):
            am = a.interpolate(tau)
            assert np.max(np.abs(f.interpolate(tau) - f_ref)) < 1e-8
            assert np.max(np.abs(0.5 * (am + am.T) @ params.corr - f_ref)) < 1e-8


def test_f_diagonal_is_psi_at_zero_correlation():
    params = two_asset(rho=0.0, kappa=(1.0, 0.5))
    prefs = Preferences(gamma=-4.0)
    f = solve_F(params, prefs, 3.0)
    for tau in np.linspace(0.0, 3.0, 13):
        m = f.interpolate(tau)
        assert m[0, 0] == pytest.approx(psi_closed_form(1.0, prefs.delta, tau), abs=1e-8)
        assert m[1, 1] == pytest.approx(psi_closed_form(0.5, prefs.delta, tau), abs=1e-8)
        assert abs(m[0, 1]) < 1e-10 and abs(m[1, 0]) < 1e-10


def test_psi_trivial_cases():
    assert psi_closed_form(1.0, 1.0, 2.0) == 0.0
    assert psi_closed_form(1.0, 4.0, 0.0) == 0.0
    assert psi_integral(1.0, 4.0, 0.0) == 0.0
    assert psi_integral(1.0, 1.0, 5.0) == pytest.approx(0.0, abs=1e-14)


def test_psi_ode_residual():
    h = 1e-5
    for delta in (0.2, 2.0, 4.0):
        for kappa in (0.5, 1.0):
            taus = np.linspace(h, 3.0, 200)
            psi = psi_closed_form(kappa, delta, taus)
            dnum = (psi_closed_form(kappa, delta, taus + h)
                    - psi_closed_form(kappa, delta, taus - h)) / (2.0 * h)
            resid = dnum - (2.0 * psi**2 - 2.0 * delta * kappa * psi
                            + 0.5 * delta * (delta - 1.0) * kappa**2)
            assert np.max(np.abs(resid)) < 1e-8


def test_psi_property_identity():
    for delta in (0.2, 1.0, 2.0, 4.0):
        taus = np.linspace(0.0, 3.0, 100)
        lhs = psi_closed_form(1.3, delta, taus) + 0.5 * (1.0 - delta) * 1.3
        assert np.max(np.abs(lhs - psi_property(1.3, delta, taus))) < 1e-12


def test_psi_integral_quadrature():
    for delta in (0.2, 4.0):
        q, _ = quad(lambda s: psi_closed_form(1.0, delta, s), 0.0, 2.0, limit=200)
        assert psi_integral(1.0, delta, 2.0) == pytest.approx(q, abs=1e-10)


def test_psi_long_horizon_stability():
    # No overflow at extreme horizons; Psi saturates.
    v = psi_closed_form(2.0, 4.0, 1e6)
    assert np.isfinite(v)
    assert v == pytest.approx(2.0 * 2.0 * (2.0 - 1.0) / 2.0)
    assert np.isfinite(psi_integral(2.0, 4.0, 1e6))


def test_lambda_trivial_cases():
    assert lambda_closed_form(1.0, 1.0, 4.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert lambda_closed_form(1.0, 0.5, 1.0, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert lambda_closed_form(1.0, 0.5, 4.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_lambda_against_ode():
    for ki in (0.5, 1.0, 2.0):
        for kj in (0.4, 1.0, 1.7):
            for delta in (0.2, 2.0, 4.0):
                def rhs(tau, y):
                    return [
                        y[0] * (2.0 * psi_closed_form(ki, delta, tau)
                                + 2.0 * psi_closed_form(kj, delta, tau)
                                - delta * (ki + kj))
                        - delta * (ki - kj) * psi_property(ki, delta, tau)
                    ]
                res = solve_ivp(rhs, (0.0, 3.0), [0.0], rtol=1e-12, atol=1e-14,
                                dense_output=True)
                for tau in np.linspace(0.0, 3.0, 16):
                    assert abs(res.sol(tau)[0]
                               - lambda_closed_form(ki, kj, delta, tau)) < 1e-8


def test_phi_sign_cases():
    _, _, pos = phi_diagonal(1.0, 0.5, 4.0, 3.0)
    assert pos > 0.0
    _, _, neg = phi_diagonal(1.0, 0.5, 0.2, 3.0)
    assert neg < 0.0
    _, _, zero_delta = phi_diagonal(1.0, 0.5, 1.0, 3.0)
    assert abs(zero_delta) < 1e-10
    _, _, zero_kappa = phi_diagonal(0.8, 0.8, 4.0, 3.0)
    assert abs(zero_kappa) < 1e-10


def test_phi_sign_grid():
    for (ki, kj) in ((1.0, 0.3), (2.0, 0.5), (0.6, 1.4)):
        for delta, sign in ((1.5, 1.0), (3.0, 1.0), (0.5, -1.0), (0.8, -1.0)):
            _, _, integral = phi_diagonal(ki, kj, delta, 2.0)
            assert np.sign(integral) == sign


def test_matrix_calculus_identities():
    rep = matrix_calculus_checks(np.array([1.0, 0.5, 2.0]), (0, 1), (1, 2))
    assert rep.all_passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["gamma_mixed_second_zero_diagonal"].max_error < 1e-6


def test_matrix_calculus_hand_values():
    # n=2, kappa=(1, 0.5): the commutator limit is [[0, 0.5], [-0.5, 0]] and
    # the pure second derivative diagonal is (1, -1).
    kappa = np.array([1.0, 0.5])
    kmat = np.diag(kappa)
    i12 = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = kmat @ i12 - i12 @ kmat
    assert np.allclose(expected, [[0.0, 0.5], [-0.5, 0.0]])
    rep = matrix_calculus_checks(kappa, (0, 1), (0, 1))
    assert rep.checks[1].passed and rep.checks[3].passed


def test_corr_sensitivity_trio():
    for gamma in (-4.0, 0.5):
        for kpair in ((1.0, 0.5), (1.0, 1.0)):
            params = OUParams(n=2, kappa=np.array(kpair), sigma=np.ones(2),
                              theta=np.zeros(2), corr=np.eye(2))
            r = corr_sensitivity(params, Preferences(gamma=gamma), 2.0, (0, 1))
            assert abs(r.first_derivative) <= max(5.0 * r.first_error, 1e-9)
            if kpair[0] == kpair[1]:
                assert abs(r.log_second_derivative) <= max(5.0 * r.log_second_error, 1e-9)
            else:
                # J is locally minimized at zero correlation; the curvature of
                # log|J| carries the sign of gamma.
                assert r.second_derivative > 0.0
                assert np.sign(r.log_second_derivative) == np.sign(gamma)


def test_corr_sensitivity_mixed_partials_vanish():
    params = OUParams(n=3, kappa=np.array([1.0, 0.5, 2.0]), sigma=np.ones(3),
                      theta=np.zeros(3), corr=np.eye(3))
    r = corr_sensitivity(params, Preferences(gamma=-4.0), 1.5, (0, 1))
    assert r.mixed_derivatives
    for key, val in r.mixed_derivatives.items():
        assert abs(val) <= max(5.0 * r.mixed_errors[key], 1e-8)


def test_corr_sensitivity_requires_identity():
    with pytest.raises(ValueError):
        corr_sensitivity(two_asset(rho=0.5), Preferences(gamma=-4.0), 1.0, (0, 1))


def test_value_surface_shapes():
    grid = value_vs_kappa2_rho(np.linspace(0.2, 3.0, 8), np.array([0.0, 0.5, 0.9]))
    # gamma < 0: J negative everywhere, improving in kappa2 at rho = 0.
    col0 = grid.cells[:, 0]
    assert np.all(np.diff(col0) > 0.0) and np.all(col0 < 0.0)
    # High correlation: interior desirability minimum in kappa2.
    hi = grid.cells[:, 2]
    assert np.any((hi[1:-1] < hi[:-2]) & (hi[1:-1] < hi[2:]))


def test_value_surface_common_kappa_rho_independent():
    grid = value_vs_kappa2_rho(np.array([1.0]), np.array([0.0, 0.3, 0.6, 0.9]))
    assert np.ptp(grid.cells) < 1e-10


def test_d_curve_orderings():
    times = np.linspace(0.0, 3.0, 31)
    grid = d_curve_1d(1.0, [-4.0, 0.0, 0.5], 3.0, times)
    assert np.all(np.diff(grid.cells[0]) < 0.0)   # gamma < 0: winds down
    assert np.ptp(grid.cells[1]) == 0.0           # log utility: static
    assert grid.cells[1][0] == pytest.approx(1.0)
    assert np.all(np.diff(grid.cells[2]) > 0.0)   # risk seeking: ramps up
