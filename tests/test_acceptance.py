"""End-to-end acceptance suite.

Twelve property-based criteria, one test each, run at stated tolerances.
Each test is independent and prints a single pass/fail line under -v.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from meanrev.analysis import corr_sensitivity
from meanrev.cli import main
from meanrev.control import misspecified_strategy, optimal_strategy, solve_value, value_function
from meanrev.misspec import misspec_sweep, p_epsilon, solve_Q
from meanrev.model import Preferences
from meanrev.oracles import CHECKS, pair_corr, unit_noise
from meanrev.riccati import solve_D
from meanrev.wealth import decompose, simulate

from conftest import assert_passes, random_params, two_asset


def test_criterion_01_closed_form_oracle_suite():
    start = time.perf_counter()
    deltas = (0.2, 1.0, 2.0)
    assert_passes(CHECKS["scalar_oracle"](deltas=deltas))
    assert_passes(CHECKS["structured_oracles"](
        deltas=deltas, uncorrelated=[((1.0, 0.5, 2.0), d) for d in deltas]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f} s"


def test_criterion_02_log_utility_static():
    assert_passes(CHECKS["log_utility_fixed_point"](rhos=(0.5,), taus=np.linspace(0.0, 3.0, 31)))


def test_criterion_03_a_d_consistency(rng):
    # A, D and F against their own equations integrated independently.
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        params = random_params(rng, n, normalized=True)
        cases.append((params, Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))))
    taus = np.linspace(0.0, 2.0, 9)
    assert_passes(CHECKS["a_d_consistency"](cases, taus=taus))
    assert_passes(CHECKS["f_consistency"](cases, taus=taus))


def test_criterion_04_antisymmetry_time_independent():
    for rho in (-0.6, 0.3, 0.8):
        params = two_asset(rho=rho, kappa=(1.0, 0.4))
        for gamma in (-4.0, -1.0, 0.5):
            prefs = Preferences(gamma=gamma)
            sol = solve_D(params, prefs, 3.0)
            corr_inv = np.linalg.inv(params.corr)
            expected = prefs.delta * corr_inv[0, 1] * (params.kappa[1] - params.kappa[0])
            for tau in sol.tau_grid:
                m = sol.interpolate(tau)
                assert abs((m[0, 1] - m[1, 0]) - expected) < 1e-8


@pytest.mark.parametrize("gamma,n", [(-4.0, 1), (-4.0, 2), (-1.0, 2)])
def test_criterion_05_mc_value(gamma, n):
    start = time.perf_counter()
    kappa = [1.0] if n == 1 else [1.0, 0.5]
    corr = np.eye(1) if n == 1 else pair_corr(0.5)
    params = unit_noise(kappa, corr)
    prefs = Preferences(gamma=gamma)
    horizon = 3.0
    spec = optimal_strategy(params, prefs, horizon)
    ens = simulate(params, prefs, spec, horizon, 1536, 100_000, 7,
                   x0=np.zeros(n), store_paths=False)
    assert ens.n_excluded == 0
    mean, se = ens.utility_estimate(gamma)
    a = solve_value(params, prefs, horizon)
    j = value_function(1.0, np.zeros(n), 0.0, a, prefs, params).total
    elapsed = time.perf_counter() - start
    assert abs(mean - j) < 3.0 * se, f"MC {mean:.5g} +- {se:.2g} vs analytic {j:.5g}"
    assert elapsed < 60.0, f"case took {elapsed:.1f} s"


def test_criterion_06_wealth_decomposition():
    prefs = Preferences(gamma=-4.0)
    params = two_asset(rho=0.6, kappa=(1.0, 0.4))
    spec = optimal_strategy(params, prefs, 1.0)
    residuals = []
    for n_steps in (128, 256, 512):
        ens = simulate(params, prefs, spec, 1.0, n_steps, 4, 23,
                       x0=np.array([0.5, -0.3]), store_paths=True)
        residuals.append(max(
            abs(decompose(ens, p, 0.0, 1.0).residual)
            for p in range(4)))
    assert residuals[1] < 0.7 * residuals[0]
    assert residuals[2] < 0.7 * residuals[1]

    for special in (two_asset(rho=0.0, kappa=(1.0, 0.4)),
                    two_asset(rho=0.7, kappa=(0.8, 0.8))):
        spec = optimal_strategy(special, prefs, 1.0)
        ens = simulate(special, prefs, spec, 1.0, 64, 3, 7,
                       x0=np.array([0.5, -0.3]), store_paths=True)
        for p in range(3):
            assert decompose(ens, p, 0.0, 1.0).term_c == 0.0


def test_criterion_07_misspecification_framework():
    params = two_asset(rho=0.4, kappa=(1.0, 2.0), sigma=(0.3, 0.5), theta=(0.1, -0.2))
    prefs = Preferences(gamma=-1.0)
    horizon = 1.0

    # Truth reproduces the value function.
    truth = misspecified_strategy(params, params, prefs, horizon)
    q = solve_Q(prefs.gamma, truth)
    a = solve_value(params, prefs, horizon)
    for t, x in ((0.0, params.theta), (0.4, params.theta + 0.2)):
        p = p_epsilon(1.5, x, t, prefs.gamma, q, params).total
        j = value_function(1.5, x, t, a, prefs, params).total
        assert abs(p - j) < 1e-8 * abs(j)

    # First and second moments against Monte Carlo under three wrong estimates.
    estimates = (
        replace(params, kappa=params.kappa * 1.5),
        replace(params, sigma=params.sigma * 1.2),
        replace(params, corr=pair_corr(-0.2)),
    )
    x0 = params.theta + np.array([0.15, -0.1])
    for k, est in enumerate(estimates):
        spec = misspecified_strategy(params, est, prefs, horizon)
        ens = simulate(params, prefs, spec, horizon, 512, 8000, 100 + k,
                       x0=x0, store_paths=False)
        for eps in (1.0, 2.0):
            qe = solve_Q(eps, spec)
            analytic = p_epsilon(1.0, x0, 0.0, eps, qe, params).total
            mc, se = ens.utility_estimate(eps)
            assert abs(mc - analytic) < 3.0 * se

    # Sweep: zero at the truth, non-positive everywhere, and overestimating
    # the reversion rates costs more than underestimating them.
    sweep_params = two_asset(rho=0.7)
    grid = misspec_sweep(sweep_params, Preferences(gamma=-4.0), 0.5,
                         [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert not grid.failures
    assert abs(grid.cells[1, 1]) < 1e-8
    assert np.nanmax(grid.cells) <= 1e-8
    assert grid.cells[2, 2] < grid.cells[0, 0]


def test_criterion_08_correlation_sensitivity_signs():
    assert_passes(CHECKS["correlation_minimum_trio"]())
    # Mixed second partials across distinct pairs vanish.
    params3 = unit_noise([1.0, 0.5, 2.0], np.eye(3))
    for gamma in (-4.0, 0.5):
        r = corr_sensitivity(params3, Preferences(gamma=gamma), 1.5, (0, 1))
        assert r.mixed_derivatives
        assert all(val == 0.0 for val in r.mixed_derivatives.values())


def test_criterion_09_auxiliary_closed_forms():
    assert_passes(CHECKS["psi_ode_residual"](taus=np.linspace(1e-5, 3.0, 150)))
    assert_passes(CHECKS["psi_property_identity"](
        deltas=(0.2, 1.0, 2.0, 4.0), kappas=(1.3,), taus=np.linspace(0.0, 3.0, 100)))
    for kappas_i, kappas_j in (((1.0,), (0.4,)), ((0.5,), (1.7,))):
        assert_passes(CHECKS["lambda_oracle"](kappas_i=kappas_i, kappas_j=kappas_j, deltas=(0.2, 4.0),
                                              taus=np.linspace(0.0, 3.0, 31)))
    assert_passes(CHECKS["phi_integral_signs"]())


def test_criterion_10_matrix_calculus_identities():
    assert_passes(CHECKS["matrix_calculus_identities"]())


def test_criterion_11_figure_qualitative_via_cli(tmp_path):
    cfg = {
        "model": {
            "n": 2,
            "kappa": [1.0, 0.5],
            "sigma": [1.0, 1.0],
            "theta": [0.0, 0.0],
            "corr": [[1.0, 0.0], [0.0, 1.0]],
        },
        "gamma": -4.0,
        "horizon": 3.0,
        "seed": 0,
        "kappa_sweep": {
            "kappa2_grid": sorted(np.linspace(0.2, 3.0, 10).tolist() + [1.0]),
            "rho_grid": [0.0, 0.5, 0.9],
            "gammas": [-4.0, 0.0, 0.5],
            "times": np.linspace(0.0, 3.0, 31).tolist(),
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--output-dir", str(out),
                 "--plot", "kappa-sweep"]) == 0
    assert (out / "value_surface.svg").exists()
    assert (out / "d_curves.svg").exists()

    body = [ln for ln in (out / "value_surface.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    surface = {}
    for ln in body[1:]:
        k2, rho, val = (float(v) for v in ln.split(","))
        surface[(k2, rho)] = val
    kappa2_grid = sorted({k for k, _ in surface})
    # rho = 0: desirability improves monotonically with the second rate.
    col0 = [surface[(k, 0.0)] for k in kappa2_grid]
    assert all(b > a for a, b in zip(col0, col0[1:]))
    # High correlation: interior desirability minimum in kappa2.
    hi = [surface[(k, 0.9)] for k in kappa2_grid]
    assert any(hi[i] < hi[i - 1] and hi[i] < hi[i + 1] for i in range(1, len(hi) - 1))
    # Common reversion rates: value does not depend on correlation.
    k1 = min(kappa2_grid, key=lambda k: abs(k - 1.0))
    common_vals = [surface[(k1, r)] for r in (0.0, 0.9)]
    assert abs(common_vals[0] - common_vals[1]) < 1e-8 * abs(common_vals[0])

    body = [ln for ln in (out / "d_curves.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    curves = {}
    for ln in body[1:]:
        g, t, d = (float(v) for v in ln.split(","))
        curves.setdefault(g, []).append((t, d))
    neg = [d for _, d in sorted(curves[-4.0])]
    log_curve = [d for _, d in sorted(curves[0.0])]
    pos = [d for _, d in sorted(curves[0.5])]
    assert all(b < a for a, b in zip(neg, neg[1:]))
    assert max(log_curve) == min(log_curve)
    assert all(b > a for a, b in zip(pos, pos[1:]))


def test_criterion_12_csv_determinism(tmp_path):
    cfg = {
        "model": {
            "n": 2,
            "kappa": [1.0, 0.5],
            "sigma": [1.0, 1.0],
            "theta": [0.0, 0.0],
            "corr": [[1.0, 0.5], [0.5, 1.0]],
        },
        "gamma": -4.0,
        "horizon": 1.0,
        "seed": 11,
        "simulate": {"n_paths": 50, "n_steps": 32},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for d in ("run1", "run2"):
        assert main(["--config", str(cfg_path),
                     "--output-dir", str(tmp_path / d), "simulate"]) == 0
        assert main(["--config", str(cfg_path),
                     "--output-dir", str(tmp_path / d), "solve"]) == 0
    for name in ("terminal_wealth.csv", "d_solution.csv", "a_solution.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
