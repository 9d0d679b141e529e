"""Monte-Carlo simulation of state and wealth paths under a position rule.

The state is advanced exactly in distribution; only the log-wealth
integrand carries discretization error.  Wealth is simulated in log space
(it is a stochastic exponential for every linear-feedback rule in scope),
so positivity holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import StrategySpec
from .errors import OutOfRange
from .model import ExactStepper, OUParams, Preferences, normalize

# |log W| beyond this is treated as a diverged path and excluded.
LOG_WEALTH_GUARD = 700.0

# Default temporal resolution: steps per unit time.
STEPS_PER_UNIT_TIME = 512

_CHUNK = 4096


@dataclass
class SimulationEnsemble:
    """Correlated state paths plus log-wealth, with RNG provenance.

    States and log-wealth are kept in unit-noise coordinates of the true
    model.  Full per-step storage is optional; terminal log-wealth and the
    excluded-path count are always present.
    """

    params: OUParams
    spec: StrategySpec
    seed: int
    n_steps: int
    n_paths: int
    horizon: float
    times: np.ndarray
    terminal_log_wealth: np.ndarray
    excluded: np.ndarray
    x0: np.ndarray
    states: np.ndarray | None = None       # (n_paths, n_steps + 1, n)
    log_wealth: np.ndarray | None = None   # (n_paths, n_steps + 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())

    @property
    def retained_terminal_log_wealth(self) -> np.ndarray:
        return self.terminal_log_wealth[~self.excluded]

    def utility_estimate(self, gamma: float) -> tuple[float, float]:
        """Sample mean and standard error of W_T^gamma / gamma (or log W_T).

        Any exponent is accepted, so this also estimates the moment
        E[W_T^eps / eps] of the misspecification framework.
        """
        logw = self.retained_terminal_log_wealth
        if gamma == 0.0:
            sample = logw
        else:
            sample = np.exp(gamma * logw) / gamma
        mean = float(sample.mean())
        se = float(sample.std(ddof=1) / np.sqrt(sample.size))
        return mean, se


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Deterministic per-path substream; independent of scheduling."""
    return np.random.default_rng([int(seed), int(path_index)])


def default_steps(horizon: float) -> int:
    return max(1, int(np.ceil(STEPS_PER_UNIT_TIME * horizon)))


def simulate(
    params: OUParams,
    prefs: Preferences,
    spec: StrategySpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    x0=None,
    store_paths: bool = True,
) -> SimulationEnsemble:
    """Simulate state and log-wealth paths under the given position rule.

    The state steps are exact in distribution; log-wealth is advanced by the
    Ito (left-point) discretization of d log W = -x'D' dX - x'D'ThetaD x dt/2
    using the exact state increment.
    """
    if n_steps < 1 or n_paths < 1:
        raise ValueError("need n_steps >= 1 and n_paths >= 1")
    if spec.horizon < horizon:
        raise ValueError("strategy horizon does not cover the simulation span")
    norm_params, record = normalize(params)
    n = params.n
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    x0_norm = record.state_to_unit_noise(x0)
    dt = horizon / n_steps
    stepper = ExactStepper(params=norm_params, dt=dt)
    times = np.linspace(0.0, horizon, n_steps + 1)

    # Feedback matrices at left points, shared by every path, expressed in
    # the true model's unit-noise coordinates.
    taus_left = spec.horizon - times[:-1]
    d_left = spec.d_solution.at_many(taus_left) * spec.feedback_scale(record)
    corr = norm_params.corr
    quad_left = np.einsum("kji,jl,klm->kim", d_left, corr, d_left)  # D'ThetaD per step

    terminal = np.empty(n_paths)
    excluded = np.zeros(n_paths, dtype=bool)
    states = np.empty((n_paths, n_steps + 1, n)) if store_paths else None
    logw_store = np.empty((n_paths, n_steps + 1)) if store_paths else None

    for start in range(0, n_paths, _CHUNK):
        stop = min(start + _CHUNK, n_paths)
        c = stop - start
        z = np.empty((c, n_steps, n))
        for i in range(c):
            z[i] = path_rng(seed, start + i).standard_normal((n_steps, n))

        x = np.broadcast_to(x0_norm, (c, n)).copy()
        logw = np.zeros(c)
        alive = np.ones(c, dtype=bool)
        if store_paths:
            states[start:stop, 0] = x
            logw_store[start:stop, 0] = logw
        for k in range(n_steps):
            x_next = stepper.step(x, z[:, k, :])
            dx = x_next - x
            dk = d_left[k]
            drift = -0.5 * np.einsum("pi,ij,pj->p", x, quad_left[k], x) * dt
            stoch = -np.einsum("pi,ij,pj->p", x, dk.T, dx)
            logw = np.where(alive, logw + drift + stoch, logw)
            alive &= np.abs(logw) <= LOG_WEALTH_GUARD
            alive &= np.isfinite(logw)
            x = x_next
            if store_paths:
                states[start:stop, k + 1] = x
                logw_store[start:stop, k + 1] = logw
        terminal[start:stop] = logw
        excluded[start:stop] = ~alive

    return SimulationEnsemble(
        params=params,
        spec=spec,
        seed=seed,
        n_steps=n_steps,
        n_paths=n_paths,
        horizon=horizon,
        times=times,
        terminal_log_wealth=terminal,
        excluded=excluded,
        x0=x0,
        states=states,
        log_wealth=logw_store,
    )


@dataclass(frozen=True)
class WealthDecomposition:
    """Log-wealth over [s, t] split into its three structural pieces.

    term_a: running time-integral (trace gain minus quadratic cost);
    term_b: profit on the positions open at the endpoints;
    term_c: hedging-efficiency stochastic integral (zero when the feedback
    matrix is symmetric at all times).
    """

    term_a: float
    term_b: float
    term_c: float
    total: float

    @property
    def residual(self) -> float:
        return self.total - (self.term_a + self.term_b + self.term_c)


def _time_index(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, times[-1]):
        raise OutOfRange(f"time {t} is not on the simulation grid")
    return idx


def decompose(
    ensemble: SimulationEnsemble,
    path: int,
    s: float,
    t: float,
    delta: float | None = None,
) -> WealthDecomposition:
    """Decompose one stored path's log return between grid times s < t.

    Terms follow the stochastic-exponential solution of the wealth SDE,
    discretized with the same left-point convention as the simulation;
    ``total`` is read from the stored log-wealth and is exact.
    """
    if ensemble.states is None or ensemble.log_wealth is None:
        raise ValueError("ensemble was simulated without stored paths")
    if not s < t:
        raise ValueError("need s < t")
    i0 = _time_index(ensemble.times, s)
    i1 = _time_index(ensemble.times, t)
    sol = ensemble.spec.d_solution
    norm_params, record = normalize(ensemble.params)
    corr = norm_params.corr
    kappa = norm_params.kappa
    scale = ensemble.spec.feedback_scale(record)

    xs = ensemble.states[path]  # (n_steps + 1, n)
    dt = ensemble.dt
    horizon = ensemble.spec.horizon
    taus_left = horizon - ensemble.times[i0:i1]
    d_k = sol.at_many(taus_left) * scale

    if delta is None:
        delta = _strategy_delta(ensemble)
    m = delta * (kappa[:, None] * np.linalg.inv(corr) * kappa[None, :])

    x_left = xs[i0:i1]
    dx = xs[i0 + 1 : i1 + 1] - x_left

    # The trace integral is quadratured by the realized covariation
    # dx' D dx -> Tr(Theta D) du, the same stochastic sum the simulated
    # log-wealth accrues; this keeps the per-path residual at order dt.
    trace_part = np.einsum("pi,pij,pj->p", dx, d_k, dx)
    quad_part = np.einsum("pi,ij,pj->p", x_left, m, x_left)
    term_a = float(0.5 * (np.sum(trace_part) - np.sum(quad_part) * dt))

    d_s = sol.interpolate(horizon - ensemble.times[i0]) * scale
    d_t = sol.interpolate(horizon - ensemble.times[i1]) * scale
    term_b = float(0.5 * (xs[i0] @ d_s @ xs[i0] - xs[i1] @ d_t @ xs[i1]))

    asym = d_k - np.swapaxes(d_k, 1, 2)
    # Symmetric feedback (uncorrelated or common-kappa models) makes this
    # term vanish structurally; roundoff-level asymmetry from the ODE solve
    # must not leak into it.
    if np.max(np.abs(asym)) <= 1e-10 * max(1.0, np.max(np.abs(d_k))):
        term_c = 0.0
    else:
        term_c = float(0.5 * np.einsum("pi,pij,pj->", x_left, asym, dx))

    total = float(ensemble.log_wealth[path, i1] - ensemble.log_wealth[path, i0])
    return WealthDecomposition(term_a=term_a, term_b=term_b, term_c=term_c, total=total)


def _strategy_delta(ensemble: SimulationEnsemble) -> float:
    """Distortion rate implied by the feedback matrix's initial condition.

    D(0) = delta Theta^{-1} kappa for the optimal rule; recovering delta here
    keeps decompose free of a separate preferences argument.
    """
    norm_params, _ = normalize(ensemble.params)
    d0 = ensemble.spec.d_solution.interpolate(0.0)
    base = np.linalg.inv(norm_params.corr) @ np.diag(norm_params.kappa)
    num = float(np.sum(d0 * base))
    den = float(np.sum(base * base))
    return num / den if den > 0 else 1.0
