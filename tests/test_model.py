import numpy as np
import pytest

from meanrev.errors import (
    AllKappaZero,
    NonFinite,
    NonPositiveSigma,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitDiagonal,
    OutOfDomain,
)
from meanrev.model import (
    ExactStepper,
    OUParams,
    Preferences,
    covariance_factor,
    normalize,
    step_covariance,
    validate,
)

from conftest import random_params, two_asset


def test_validate_accepts_good_params(rng):
    for n in (1, 2, 3):
        validate(random_params(rng, n))


def test_validate_rejects_asymmetric_corr():
    p = two_asset()
    corr = p.corr.copy()
    corr[0, 1] = 0.3
    bad = OUParams(n=2, kappa=p.kappa, sigma=p.sigma, theta=p.theta, corr=corr)
    with pytest.raises(NotSymmetric):
        validate(bad)


def test_validate_rejects_bad_diagonal():
    corr = np.array([[1.0, 0.2], [0.2, 0.9]])
    bad = OUParams(n=2, kappa=[1.0, 1.0], sigma=[1.0, 1.0], theta=[0.0, 0.0], corr=corr)
    with pytest.raises(NotUnitDiagonal):
        validate(bad)


def test_validate_rejects_rank_deficient_corr():
    corr = np.array([[1.0, 1.0], [1.0, 1.0]])
    bad = OUParams(n=2, kappa=[1.0, 1.0], sigma=[1.0, 1.0], theta=[0.0, 0.0], corr=corr)
    with pytest.raises(NotPositiveDefinite):
        validate(bad)


def test_validate_rejects_all_zero_kappa():
    bad = two_asset(kappa=(0.0, 0.0))
    with pytest.raises(AllKappaZero):
        validate(bad)


def test_single_zero_kappa_is_allowed():
    validate(two_asset(kappa=(1.0, 0.0)))


def test_validate_rejects_nonpositive_sigma():
    bad = two_asset(sigma=(1.0, 0.0))
    with pytest.raises(NonPositiveSigma):
        validate(bad)


def test_negative_kappa_rejected():
    with pytest.raises(OutOfDomain):
        validate(two_asset(kappa=(1.0, -0.5)))


@pytest.mark.parametrize("field", ["kappa", "sigma", "theta", "corr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_entries(field, bad):
    good = two_asset(rho=0.3)
    values = {name: np.array(getattr(good, name)) for name in ("kappa", "sigma", "theta", "corr")}
    if field == "corr":
        values["corr"][0, 1] = values["corr"][1, 0] = bad
    else:
        values[field][0] = bad
    with pytest.raises(NonFinite):
        validate(OUParams(n=2, **values))


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
def test_preferences_reject_non_finite_gamma(gamma):
    with pytest.raises(NonFinite):
        Preferences(gamma=gamma)


def test_preferences_delta():
    assert Preferences(gamma=-4.0).delta == pytest.approx(0.2)
    assert Preferences(gamma=0.0).delta == 1.0
    assert Preferences(gamma=0.5).delta == 2.0
    with pytest.raises(OutOfDomain):
        Preferences(gamma=1.0)


def test_preferences_from_delta_round_trip():
    for delta in (0.2, 1.0, 2.0, 5.0):
        assert Preferences.from_delta(delta).delta == pytest.approx(delta)


def test_normalize_round_trip(rng):
    params = random_params(rng, 3)
    norm, record = normalize(params)
    assert np.all(norm.sigma == 1.0)
    assert np.all(norm.theta == 0.0)
    assert np.allclose(norm.kappa, params.kappa)
    assert np.allclose(norm.corr, params.corr)
    x = rng.standard_normal(3)
    assert np.allclose(record.state_to_unit_noise(x) * params.sigma + params.theta, x)
    a = rng.standard_normal(3)
    assert np.allclose(record.position_from_unit_noise(a * params.sigma), a)


def test_serialization_round_trip(rng):
    params = random_params(rng, 2)
    fields = ("kappa", "sigma", "theta", "corr")
    again = OUParams.from_dict({"n": params.n, **{k: getattr(params, k).tolist() for k in fields}})
    for k in fields:
        assert np.array_equal(getattr(again, k), getattr(params, k))


def test_step_covariance_small_dt_limit():
    params, _ = normalize(two_asset(rho=0.6))
    dt = 1e-8
    cov = step_covariance(params, dt)
    assert np.allclose(cov, params.corr * dt, rtol=1e-6)


def test_step_covariance_zero_kappa_pair():
    # kappa_i + kappa_j = 0 entries use the Theta dt limit exactly.
    params, _ = normalize(two_asset(rho=0.4, kappa=(1.0, 0.0)))
    dt = 0.5
    cov = step_covariance(params, dt)
    assert cov[1, 1] == pytest.approx(dt)
    expected01 = 0.4 * (1.0 - np.exp(-1.0 * dt)) / 1.0
    assert cov[0, 1] == pytest.approx(expected01, abs=1e-14)


def test_step_covariance_matches_integral(rng):
    from scipy.integrate import quad

    params, _ = normalize(random_params(rng, 2))
    dt = 0.7
    cov = step_covariance(params, dt)
    for i in range(2):
        for j in range(2):
            ks = params.kappa[i] + params.kappa[j]
            val, _ = quad(lambda s: params.corr[i, j] * np.exp(-ks * s), 0.0, dt)
            assert cov[i, j] == pytest.approx(val, abs=1e-12)


def test_covariance_factor_reconstructs(rng):
    params, _ = normalize(random_params(rng, 3))
    cov = step_covariance(params, 0.3)
    L = covariance_factor(cov)
    assert np.allclose(L @ L.T, cov, atol=1e-12)


def test_exact_stepper_moments():
    params, _ = normalize(two_asset(rho=0.5, kappa=(1.0, 0.3)))
    dt = 0.25
    stepper = ExactStepper(params=params, dt=dt)
    rng = np.random.default_rng(5)
    x0 = np.array([1.0, -0.5])
    z = rng.standard_normal((2, 200000))
    xs = stepper.step(np.repeat(x0[:, None], 200000, axis=1), z)
    mean = xs.mean(axis=1)
    assert np.allclose(mean, np.exp(-params.kappa * dt) * x0, atol=5e-3)
    cov = np.cov(xs)
    assert np.allclose(cov, step_covariance(params, dt), atol=5e-3)
