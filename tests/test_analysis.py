import numpy as np
import pytest

from meanrev import oracles
from meanrev.analysis import (
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    matrix_calculus_checks,
    phi_diagonal,
    psi_closed_form,
    psi_integral,
    solve_F,
    value_vs_kappa2_rho,
)
from meanrev.model import OUParams, Preferences

from conftest import assert_passes, two_asset


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
    assert_passes(oracles.psi_ode_residual(taus=np.linspace(oracles.FD_STEP, 3.0, 200)))


def test_psi_property_identity():
    assert_passes(oracles.psi_property_identity(
        deltas=(0.2, 1.0, 2.0, 4.0), kappas=(1.3,), taus=np.linspace(0.0, 3.0, 100)))


def test_psi_integral_quadrature():
    assert_passes(oracles.psi_integral_quadrature(deltas=(0.2, 4.0)))


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
    assert_passes(oracles.lambda_oracle())


def test_phi_sign_cases():
    # A second rate pair; the default pair runs in criterion 9 and verify.
    assert_passes(oracles.phi_integral_signs(kappas=(2.0, 0.5), horizon=2.0))


def test_phi_sign_grid():
    for (ki, kj) in ((1.0, 0.3), (2.0, 0.5), (0.6, 1.4)):
        for delta, sign in ((1.5, 1.0), (3.0, 1.0), (0.5, -1.0), (0.8, -1.0)):
            _, _, integral = phi_diagonal(ki, kj, delta, 2.0)
            assert np.sign(integral) == sign


def test_matrix_calculus_identities():
    # Four assets and disjoint pairs; the default case runs in criterion 10.
    assert_passes(oracles.matrix_calculus_identities(
        kappa=(0.3, 1.2, 2.5, 0.8), pair_mn=(0, 3), pair_pq=(1, 2)))


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
