import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meanrev import oracles
from meanrev.analysis import (
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    phi_diagonal,
    psi_closed_form,
    psi_integral,
    value_vs_kappa2_rho,
)
from meanrev.control import solve_value, value_function
from meanrev.errors import BlowUpDetected
from meanrev.model import OUParams, Preferences

from conftest import assert_passes, random_corr, two_asset


def test_f_diagonal_is_psi_at_zero_correlation():
    params = two_asset(rho=0.0, kappa=(1.0, 0.5))
    prefs = Preferences(gamma=-4.0)
    a = solve_value(params, prefs, 3.0)
    for tau in np.linspace(0.0, 3.0, 13):
        m = a.interpolate(tau) @ params.corr  # F = A Theta
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
            assert np.sign(phi_diagonal(ki, kj, delta, 2.0)) == sign


def test_matrix_calculus_identities():
    # Four assets and disjoint pairs; the default case runs in criterion 10.
    assert_passes(oracles.matrix_calculus_identities(
        kappa=(0.3, 1.2, 2.5, 0.8), pair_mn=(0, 3), pair_pq=(1, 2)))


def test_matrix_calculus_hand_values():
    # kappa = (1, 0.5, 0.7): the commutator limit of the (0, 1) pair is
    # [[0, 0.5], [-0.5, 0]] on that pair and the pure second derivative
    # diagonal is (1, -1, 0).
    kmat = np.diag([1.0, 0.5, 0.7])
    i01 = np.zeros((3, 3))
    i01[0, 1] = i01[1, 0] = 1.0
    expected = kmat @ i01 - i01 @ kmat
    assert np.allclose(expected, [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert_passes(oracles.matrix_calculus_identities(
        kappa=(1.0, 0.5, 0.7), pair_mn=(0, 1), pair_pq=(1, 2)))


def test_corr_sensitivity_mixed_partials_vanish():
    params = OUParams(n=3, kappa=np.array([1.0, 0.5, 2.0]), sigma=np.ones(3),
                      theta=np.zeros(3), corr=np.eye(3))
    r = corr_sensitivity(params, Preferences(gamma=-4.0), 1.5, (0, 1))
    assert r.first_derivative == 0.0
    assert r.mixed_derivatives
    assert all(val == 0.0 for val in r.mixed_derivatives.values())


def test_corr_sensitivity_raises_at_pole():
    # One mean-reverting asset hedged by a Brownian one: the value equation
    # blows up before T = 3 (the single_mr_pole model).
    params = two_asset(rho=0.9, kappa=(1.0, 0.0))
    with pytest.raises(BlowUpDetected):
        corr_sensitivity(params, Preferences(gamma=0.5), 3.0, (0, 1))


def log_value_fd(params, prefs, horizon, a, b, h=2e-3):
    """d/drho_a, d2/drho_a^2 and d2/drho_a drho_b of log|J| at the model's
    correlation, by central differences of steps h and h/2 and Richardson
    extrapolation."""
    def log_j(da, db):
        corr = params.corr.copy()
        corr[a] = corr[a[::-1]] = params.corr[a] + da
        corr[b] = corr[b[::-1]] = params.corr[b] + db
        moved = OUParams(n=params.n, kappa=params.kappa, sigma=params.sigma,
                         theta=params.theta, corr=corr)
        sol = solve_value(moved, prefs, horizon)
        return np.log(abs(value_function(1.0, moved.theta, 0.0, sol, prefs, moved).total))

    def stencil(s):
        l0 = log_j(0.0, 0.0)
        first_a = (log_j(s, 0.0) - log_j(-s, 0.0)) / (2.0 * s)
        first_b = (log_j(0.0, s) - log_j(0.0, -s)) / (2.0 * s)
        second = (log_j(s, 0.0) - 2.0 * l0 + log_j(-s, 0.0)) / s**2
        mixed = (log_j(s, s) - log_j(s, -s) - log_j(-s, s) + log_j(-s, -s)) / (4.0 * s**2)
        return np.array([first_a, first_b, second, mixed])

    return (4.0 * stencil(h / 2) - stencil(h)) / 3.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([-4.0, -1.0, 0.5]))
def test_corr_sensitivity_matches_finite_differences(seed, gamma):
    # Away from Theta = I nothing vanishes, so every term of the tangent
    # equations is exercised.  Near-singular Theta is skipped: its large
    # higher derivatives put the reference's truncation error near the bound.
    rng = np.random.default_rng(seed)
    corr = random_corr(rng, 3)
    assume(np.linalg.eigvalsh(corr).min() > 0.2)
    params = OUParams(n=3, kappa=rng.uniform(0.3, 2.0, 3), sigma=np.ones(3),
                      theta=np.zeros(3), corr=corr)
    prefs = Preferences(gamma=gamma)
    r = corr_sensitivity(params, prefs, 1.5, (0, 1))
    l_a, l_b, l_aa, l_ab = log_value_fd(params, prefs, 1.5, (0, 1), (1, 2))
    got = [r.first_derivative / r.value, r.log_second_derivative,
           r.mixed_derivatives[(1, 2)] / r.value]
    expected = [l_a, l_aa, l_ab + l_a * l_b]
    # 1e-6 relative to max(|x|, 1): the solver's tolerance over h^2 leaves
    # the reference about 1e-7 of absolute noise on small derivatives.
    assert got == pytest.approx(expected, rel=1e-6, abs=1e-6)


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
