from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag

from meanrev import analysis, oracles, riccati
from meanrev.analysis import (
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    psi_closed_form,
    psi_integral,
    value_vs_kappa2_rho,
)
from meanrev.control import solve_value, value_at_mean, value_function
from meanrev.errors import (
    AllKappaZero,
    BlowUpDetected,
    NonFinite,
    NotPositiveDefinite,
    OutOfDomain,
    ValueOverflow,
    ValueUnderflow,
)
from meanrev.misspec import misspec_sweep
from meanrev.model import OUParams, Preferences
from meanrev.oracles import phi_diagonal
from meanrev.riccati import single_mr_blowup_tau

from conftest import assert_passes, random_corr, random_params, two_asset


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


def two_pole_model():
    # Two independent single-mean-reverting pairs with poles at 0.8749 and
    # 0.8757, both inside one of the embedding's eight 0.375-long steps at T = 3.
    block = np.array([[1.0, 0.9], [0.9, 1.0]])
    return OUParams(n=4, kappa=np.array([1.0, 0.0, 1.0 / 1.001, 0.0]), sigma=np.ones(4),
                    theta=np.zeros(4), corr=block_diag(block, block))


def test_corr_sensitivity_finds_the_first_of_two_poles_in_one_step():
    # det G is positive at both ends of the step that holds both poles, so a
    # sign check at step ends misses them; the step's count of positive
    # eigenvalues of G^{-1} Phi_12 reads 2, and the search inside the step,
    # on the largest eigenvalue of P^{-1}, locates the first.
    with pytest.raises(BlowUpDetected) as info:
        corr_sensitivity(two_pole_model(), Preferences(gamma=0.5), 3.0, (0, 1))
    block = two_pole_model().corr[:2, :2]
    assert info.value.tau_star == pytest.approx(single_mr_blowup_tau(1.0, block, 0.5), rel=1e-14)


def test_corr_sensitivity_solves_s_only_where_a_pole_can_exist(monkeypatch):
    # The embedding's own steps count the poles of S and locate the first
    # one, so neither the value nor its derivatives ever call the RK45
    # riccati.solve: not without a pole, and not to locate one.
    def failing(op, horizon, **kwargs):
        raise AssertionError("riccati.solve called")

    monkeypatch.setattr(riccati, "solve", failing)
    assert not hasattr(analysis, "solve")
    for gamma in (-4.0, -1.0, 0.5):
        assert np.isfinite(value_at_mean(two_asset(), Preferences(gamma=gamma), 3.0))
        assert np.isfinite(corr_sensitivity(two_asset(), Preferences(gamma=gamma), 3.0, (0, 1)).log_value)
    for params in (two_asset(rho=0.9, kappa=(1.0, 0.0)), two_pole_model()):
        tau_star = single_mr_blowup_tau(1.0, params.corr[:2, :2], 0.5)
        for call in (value_at_mean, lambda *a: corr_sensitivity(*a, (0, 1))):
            with pytest.raises(BlowUpDetected) as info:
                call(params, Preferences(gamma=0.5), 3.0)
            assert info.value.tau_star == pytest.approx(tau_star, rel=1e-14)


def blow_up_time(call):
    """tau* of the ``BlowUpDetected`` that ``call`` raises, None if it returns."""
    try:
        call()
    except BlowUpDetected as exc:
        return exc.tau_star
    return None


def test_embedding_pole_count_agrees_with_the_s_solve():
    # The pass raises exactly when riccati.solve of S does, with its tau* to
    # POLE_TOL, and to 1e-14 where the model has one mean-reverting asset and
    # a closed form: random models with zero rates, risk-seeking exponents and
    # several horizons, then horizons just short of and just past each pole.
    rng = np.random.default_rng(20261020)
    cases, poles = [], []
    for _ in range(24):
        n = int(rng.integers(2, 5))
        kappa = rng.uniform(0.3, 2.0, n)
        kappa[1:][rng.random(n - 1) < 0.4] = 0.0
        gamma = float(rng.choice([-4.0, -1.0, 0.2, 0.5, 0.8, 0.95]))
        params = OUParams(n=n, kappa=kappa, sigma=np.ones(n), theta=np.zeros(n),
                          corr=random_corr(rng, n))
        closed = single_mr_blowup_tau(kappa[0], params.corr, gamma) if not kappa[1:].any() else None
        cases.append((params, gamma, float(rng.choice([0.5, 1.0, 3.0])), closed))
    cases.append((two_pole_model(), 0.5, 3.0, single_mr_blowup_tau(1.0, two_pole_model().corr[:2, :2], 0.5)))
    for params, gamma, horizon, closed in cases:
        prefs = Preferences(gamma=gamma)
        expected = blow_up_time(lambda: riccati.solve(riccati.make_S_operator(params, prefs), horizon))
        tau_star = blow_up_time(lambda: value_at_mean(params, prefs, horizon))
        assert (tau_star is None) == (expected is None)
        if expected is not None:
            assert tau_star == pytest.approx(expected, rel=oracles.POLE_TOL)
            if closed is not None:
                assert tau_star == pytest.approx(closed, rel=1e-14)
            poles.append((params, prefs, tau_star, closed))
    assert 4 <= len(poles) < len(cases)
    assert sum(closed is not None for *_, closed in poles) >= 3
    assert any(np.any(params.kappa == 0.0) for params, *_ in poles)
    for params, prefs, tau_star, _ in poles:
        op = riccati.make_S_operator(params, prefs)
        assert blow_up_time(lambda: riccati.solve(op, 0.999 * tau_star)) is None
        assert np.isfinite(value_at_mean(params, prefs, 0.999 * tau_star))
        assert np.isfinite(corr_sensitivity(params, prefs, 0.999 * tau_star, (0, 1)).log_value)
        assert blow_up_time(lambda: value_at_mean(params, prefs, 1.001 * tau_star)) \
            == pytest.approx(tau_star, rel=1e-14)
        assert blow_up_time(lambda: corr_sensitivity(params, prefs, 1.001 * tau_star, (0, 1))) \
            == pytest.approx(tau_star, rel=1e-14)


@pytest.mark.parametrize("excess", [1e-12, 4e-12, 1e-11])
def test_a_counted_pole_never_returns_a_value(excess):
    # Just past the pole, inside the 2e-11 relative by which the RK45 solve
    # of S places it late, the step's count sees it; the pass raises instead
    # of returning log det of a singular U.
    params, prefs = two_asset(rho=0.9, kappa=(1.0, 0.0)), Preferences(gamma=0.5)
    tau_star = single_mr_blowup_tau(1.0, params.corr, 0.5)
    horizon = tau_star * (1.0 + excess)
    with pytest.raises(BlowUpDetected) as info:
        value_at_mean(params, prefs, horizon)
    assert info.value.tau_star <= horizon
    assert info.value.tau_star == pytest.approx(tau_star, rel=1e-9)


@pytest.mark.parametrize("rho, gamma", [(0.9, 0.5), (0.9, 0.8), (-0.8, 0.5), (-0.8, 0.8), (0.6, 0.8)])
def test_pole_is_exact_across_the_rk45_gap(rho, gamma):
    # Horizons T = tau* (1 + k 1e-12) scan the gap of 1e-11 relative by which
    # the RK45 solve of S places its pole late.  Short of the pole the value
    # is finite; past it the pass raises with tau* exact to 1e-14 relative
    # (at k = 0 either outcome is right).
    params, prefs = two_asset(rho=rho, kappa=(1.0, 0.0)), Preferences(gamma=gamma)
    exact = single_mr_blowup_tau(1.0, params.corr, gamma)
    for k in range(-2, 17):
        horizon = exact * (1.0 + k * 1e-12)
        try:
            value = value_at_mean(params, prefs, horizon)
            assert k <= 0 and np.isfinite(value)
        except BlowUpDetected as exc:
            assert k >= 0 and exc.tau_star <= horizon
            assert exc.tau_star == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("model, gamma, error", [
    (dict(kappa=(0.0, 0.0)), -4.0, AllKappaZero),
    (dict(rho=1.0), -4.0, NotPositiveDefinite),
    (dict(kappa=(np.nan, 0.5)), -4.0, NonFinite),
    ({}, 0.0, OutOfDomain),
], ids=["all-kappa-zero", "singular-corr", "nan-kappa", "log-utility"])
def test_corr_sensitivity_rejects_invalid_models(model, gamma, error):
    # An invalid model is refused where it is made, before any pass runs.
    with pytest.raises(error) as info:
        corr_sensitivity(two_asset(**model), Preferences(gamma=gamma), 3.0, (0, 1))
    if error is OutOfDomain:
        assert str(info.value) == "exponent 0 (log utility) is served by log_utility_value"


def test_a_zero_reversion_asset_never_lowers_the_value():
    # The paper's question: is an asset that does not mean-revert worth
    # adding?  Never to a loss: J(1, theta, 0) with a kappa = 0 asset added
    # is at least J without it, and the same when the asset is uncorrelated
    # with the rest.  Held through the embedding pass (value_at_mean) and,
    # as a second code path, through solve_A's trace integral.
    kept = []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           gamma=st.sampled_from([-4.0, -1.0, -0.3, 0.3, 0.6]), horizon=st.floats(0.2, 3.0),
           correlated=st.booleans())
    def check(seed, n, gamma, horizon, correlated):
        rng = np.random.default_rng(seed)
        corr = random_corr(rng, n + 1)
        if not correlated:
            corr[n, :n] = corr[:n, n] = 0.0
        added = OUParams(n=n + 1, kappa=np.append(rng.uniform(0.3, 2.0, n), 0.0),
                         sigma=rng.uniform(0.2, 1.5, n + 1), theta=rng.uniform(-0.5, 0.5, n + 1),
                         corr=corr)
        base = OUParams(n=n, kappa=added.kappa[:n], sigma=added.sigma[:n],
                        theta=added.theta[:n], corr=corr[:n, :n])
        prefs = Preferences(gamma=gamma)
        try:
            j0, j1 = (value_at_mean(p, prefs, horizon) for p in (base, added))
            v0, v1 = (value_function(1.0, p.theta, 0.0, solve_value(p, prefs, horizon), prefs,
                                     p).total for p in (base, added))
        except BlowUpDetected:
            assume(False)
        change = (j1 - j0) / abs(j0)
        assert change >= -1e-12
        if not correlated:
            assert abs(change) <= 1e-12
        assert (v1 - v0) / abs(v0) >= -1e-8
        kept.append(change)

    check()
    assert len(kept) >= 30


def test_an_overflowing_value_is_refused_by_name():
    # At T = 2000 and gamma = 0.5, log|gamma J| passes log(max double) = 709.78
    # between kappa2 = 1.4 (J = 3.5e305) and 1.6; a sweep records the refusal
    # as a failed cell (test_cli holds that).
    prefs = Preferences(gamma=0.5)
    assert np.isfinite(value_at_mean(two_asset(rho=0.0, kappa=(1.0, 1.4)), prefs, 2000.0))
    with pytest.raises(ValueOverflow, match=r"^J overflows a double: log\|gamma J\| = 761\.4"):
        value_at_mean(two_asset(rho=0.0, kappa=(1.0, 1.6)), prefs, 2000.0)


def test_an_underflowing_value_is_refused_by_name():
    # At T = 1000 and gamma = -4, log|gamma J| = -950.07 is below the log of
    # the smallest normal double (-708.4): value_at_mean refuses J, where it
    # returned -0.0, and a sweep records the refusal (test_cli holds that).
    # corr_sensitivity keeps J and its derivatives at 0 and the log fields finite.
    prefs = Preferences(gamma=-4.0)
    with pytest.raises(ValueUnderflow, match=r"^J underflows a double: log\|gamma J\| = -950\.07"):
        value_at_mean(two_asset(), prefs, 1000.0)
    report = corr_sensitivity(two_asset(), prefs, 1000.0, (0, 1))
    assert report.value == 0.0 and report.second_derivative == 0.0
    assert np.isfinite([report.log_value, report.log_first_derivative,
                        report.log_second_derivative]).all()


MODEL, PREFS = two_asset(), Preferences(gamma=-4.0)
HORIZON_ENTRIES = {
    "value_at_mean": lambda t: value_at_mean(MODEL, PREFS, t),
    "corr_sensitivity": lambda t: corr_sensitivity(MODEL, PREFS, t, (0, 1)),
    "value_vs_kappa2_rho": lambda t: value_vs_kappa2_rho(MODEL, PREFS, t, [0.5], [0.2]),
    # Every cell's model is singular, so only the horizon check can refuse.
    "value_vs_kappa2_rho-singular": lambda t: value_vs_kappa2_rho(MODEL, PREFS, t, [0.5], [1.0]),
    "misspec_sweep": lambda t: misspec_sweep(MODEL, PREFS, t, [1.0], [1.0]),
}


@pytest.mark.parametrize("horizon, error", [(-1.0, OutOfDomain), (0.0, OutOfDomain), (np.nan, NonFinite),
                                            (np.inf, NonFinite)])
@pytest.mark.parametrize("entry", HORIZON_ENTRIES)
def test_every_entry_rejects_a_bad_horizon(entry, horizon, error):
    # One rule at every entry (riccati.solve's is held in test_riccati): a
    # typed error, never an overflow, a root finder's complaint or a value
    # at T = 0.
    with pytest.raises(error, match="^horizon must be"):
        HORIZON_ENTRIES[entry](horizon)


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
        # log|J| less the constant log|1/gamma|; J itself underflows at long horizons.
        return value_function(1.0, moved.theta, 0.0, sol, prefs, moved).log_trace_factor

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
    # Away from Theta = I nothing vanishes, so every block of the
    # propagator's correlation derivatives is exercised.  Near-singular Theta is skipped: its large
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), gamma=st.sampled_from([-4.0, -1.0, 0.5]))
def test_the_uncorrelated_point_is_stationary_with_curvature_of_the_sign_of_gamma(seed, n, gamma):
    # The paper's correlation claim over random models: at Theta = I, which
    # has no pole for any gamma < 1, J is stationary in every pairwise
    # correlation, and the curvature of log|J| in the correlation of two
    # distinct rates has the sign of gamma.  Held through the embedding pass
    # (corr_sensitivity) and, as a second code path, through central
    # differences of solve_A's trace integral, which agree to their O(h^2).
    rng = np.random.default_rng(seed)
    kappa = rng.permutation(0.3 + np.cumsum(rng.uniform(0.2, 0.6, n)))  # distinct rates
    params = OUParams(n=n, kappa=kappa, sigma=rng.uniform(0.2, 1.5, n),
                      theta=rng.uniform(-0.5, 0.5, n), corr=np.eye(n))
    prefs, horizon, h = Preferences(gamma=gamma), float(rng.uniform(0.5, 2.0)), 1e-2
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]

    def log_j(pair, rho):  # log|J| less the constant log|1/gamma|
        corr = np.eye(n)
        corr[pair] = corr[pair[::-1]] = rho
        solution = riccati.solve_A(replace(params, corr=corr), prefs, horizon)
        return solution.trace_integral_at(horizon) / prefs.delta

    center = log_j(pairs[0], 0.0)
    for pair in pairs:
        report = corr_sensitivity(params, prefs, horizon, pair)
        up, down = log_j(pair, h), log_j(pair, -h)
        assert abs(report.log_first_derivative) <= 1e-12  # first_derivative is J times it
        assert abs(up - down) / (2 * h) <= 1e-8
        curvature = (up - 2.0 * center + down) / h**2
        assert np.sign(report.log_second_derivative) == np.sign(curvature) == np.sign(gamma)
        assert curvature == pytest.approx(report.log_second_derivative, rel=5e-4)


@pytest.mark.parametrize("kappa, rho, gamma, horizon", [
    ((20.0, 5.0, 1.0), 0.3, -4.0, 50.0),
    ((2.0, 0.5, 1.0), 0.4, -1.0, 200.0),
])
def test_corr_curvature_at_long_horizons(kappa, rho, gamma, horizon):
    # At these horizons one exponential over [0, T] loses the derivatives to
    # cancellation, and derivatives of U carried from step to step grow like
    # e^{(lambda_i - lambda_j) T} in H's eigenvalues: only derivatives that
    # restart from the S chart at every step stay accurate.
    corr = np.full((3, 3), rho)
    np.fill_diagonal(corr, 1.0)
    params = OUParams(n=3, kappa=np.array(kappa), sigma=np.ones(3), theta=np.zeros(3), corr=corr)
    prefs = Preferences(gamma=gamma)
    r = corr_sensitivity(params, prefs, horizon, (0, 1))
    l_a, _, l_aa, l_ab = log_value_fd(params, prefs, horizon, (0, 1), (1, 2))
    assert r.log_second_derivative == pytest.approx(l_aa, rel=1e-5)
    # J and its own derivatives underflow here; the log-space ones do not.
    assert r.log_first_derivative == pytest.approx(l_a, rel=1e-5)
    assert r.log_mixed_derivatives[(1, 2)] == pytest.approx(l_ab, rel=1e-5)
    log_trace = value_function(1.0, params.theta, 0.0, solve_value(params, prefs, horizon), prefs,
                               params).log_trace_factor
    assert r.log_value == pytest.approx(-np.log(abs(gamma)) + log_trace, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_value_at_mean_is_the_pass_without_pairs(n):
    # The value at the mean is corr_sensitivity's embedding pass without its
    # tangent pairs, so the two agree to the last bit; the RK45 value solve is
    # the reference, and a pole stops both.
    rng = np.random.default_rng(20261019 + n)
    finite = 0
    for gamma in (-4.0, -1.0, 0.5):
        for _ in range(3):
            params, prefs = random_params(rng, n), Preferences(gamma=gamma)
            try:
                a = solve_value(params, prefs, 1.5)
            except BlowUpDetected:
                with pytest.raises(BlowUpDetected):
                    value_at_mean(params, prefs, 1.5)
                continue
            j = value_at_mean(params, prefs, 1.5)
            assert j == corr_sensitivity(params, prefs, 1.5, (0, 1)).value
            assert j == pytest.approx(value_function(1.0, params.theta, 0.0, a, prefs, params).total,
                                      rel=1e-8)
            finite += 1
    assert finite >= 7


def test_value_surface_shapes():
    grid = value_vs_kappa2_rho(two_asset(), Preferences(gamma=-4.0), 3.0, np.linspace(0.2, 3.0, 8),
                               np.array([0.0, 0.5, 0.9]))
    # gamma < 0: J negative everywhere, improving in kappa2 at rho = 0.
    col0 = grid.cells[:, 0]
    assert np.all(np.diff(col0) > 0.0) and np.all(col0 < 0.0)
    # High correlation: interior desirability minimum in kappa2.
    hi = grid.cells[:, 2]
    assert np.any((hi[1:-1] < hi[:-2]) & (hi[1:-1] < hi[2:]))


def test_value_surface_rejects_all_kappa_zero():
    # kappa1 = 0 is a valid model until the kappa2 = 0 cell.
    with pytest.raises(AllKappaZero):
        value_vs_kappa2_rho(two_asset(kappa=(0.0, 0.5)), Preferences(gamma=-4.0), 3.0,
                            np.array([0.5, 0.0]), np.array([0.0]))


def test_value_surface_common_kappa_rho_independent():
    grid = value_vs_kappa2_rho(two_asset(), Preferences(gamma=-4.0), 3.0, np.array([1.0]),
                               np.array([0.0, 0.3, 0.6, 0.9]))
    assert np.ptp(grid.cells) < 1e-10


def test_d_curve_orderings():
    times = np.linspace(0.0, 3.0, 31)
    grid = d_curve_1d(1.0, [-4.0, 0.0, 0.5], 3.0, times)
    assert np.all(np.diff(grid.cells[0]) < 0.0)   # gamma < 0: winds down
    assert np.ptp(grid.cells[1]) == 0.0           # log utility: static
    assert grid.cells[1][0] == pytest.approx(1.0)
    assert np.all(np.diff(grid.cells[2]) > 0.0)   # risk seeking: ramps up
