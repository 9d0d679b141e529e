import multiprocessing
import os

import numpy as np
import pytest

from meanrev.model import OUParams


def random_corr(rng, n):
    w = rng.standard_normal((n, n + 2))
    c = w @ w.T
    d = np.sqrt(np.diag(c))
    corr = c / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr


def random_params(rng, n, normalized=False):
    return OUParams(
        n=n,
        kappa=rng.uniform(0.3, 2.0, n),
        sigma=np.ones(n) if normalized else rng.uniform(0.2, 1.5, n),
        theta=np.zeros(n) if normalized else rng.uniform(-0.5, 0.5, n),
        corr=random_corr(rng, n),
    )


def assert_passes(check):
    """Assert that a ``meanrev.oracles.Check`` is within its bound."""
    assert check.passed, f"{check.detail} (error {check.error:.2e}, tol {check.tol:.0e})"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def two_asset(rho=0.5, kappa=(1.0, 0.5), sigma=(1.0, 1.0), theta=(0.0, 0.0)):
    return OUParams(
        n=2,
        kappa=np.asarray(kappa, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
        theta=np.asarray(theta, dtype=float),
        corr=np.array([[1.0, rho], [rho, 1.0]]),
    )


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="needs the fork start method and os.sched_getaffinity")


def set_cpus(monkeypatch, count):
    """Make ``count`` CPUs look available, so forked work uses that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
