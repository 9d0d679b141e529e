"""Monte-Carlo simulation of state and wealth paths under a position rule.

The state is advanced exactly in distribution; only the log-wealth
integrand carries discretization error.  Wealth is simulated in log space
(it is a stochastic exponential for every linear-feedback rule in scope),
so positivity holds by construction.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from ._fork import fork_map, worker_count
from .control import StrategySpec
from .errors import OutOfDomain, OutOfHorizon, OutOfRange, TooFewPaths
from .model import ExactStepper, OUParams, Preferences, _check_size, check_positive

# |log W| beyond this is treated as a diverged path and excluded.
LOG_WEALTH_GUARD = 700.0

# Default temporal resolution: steps per unit time.
STEPS_PER_UNIT_TIME = 512

# Paths per chunk, the unit handed to a worker process.
_CHUNK = 4096

# Steps whose normals are drawn per path in one call, and paths whose
# block of normals is transposed together (about 1 MB at n = 2).
_BLOCK = 256
_SLAB = 256


@dataclass
class SimulationEnsemble:
    """Correlated state paths plus log-wealth, with RNG provenance.

    States and log-wealth are kept in unit-noise coordinates of the true
    model.  Full per-step storage is optional; terminal log-wealth and the
    excluded-path count are always present.  ``delta`` is the distortion
    rate of the preferences the simulation was run with, and ``feedback``
    the rule's feedback matrices at the left points ``times[:-1]``, as traded,
    shape (n_steps, n, n).  ``diagnostics``
    splits the excluded paths into ``guard_hits`` (finite |log W| past
    ``LOG_WEALTH_GUARD``) and ``non_finite``, and records the ``chunks`` and
    ``workers`` the run used.
    """

    spec: StrategySpec
    delta: float
    seed: int
    n_steps: int
    n_paths: int
    horizon: float
    times: np.ndarray
    feedback: np.ndarray
    terminal_log_wealth: np.ndarray
    excluded: np.ndarray
    x0: np.ndarray
    states: np.ndarray | None = None       # (n_paths, n_steps + 1, n)
    log_wealth: np.ndarray | None = None   # (n_paths, n_steps + 1)
    diagnostics: dict = field(default_factory=dict)

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
        E[W_T^eps / eps] of the misspecification framework.  Fewer than two
        retained paths raise ``TooFewPaths``.
        """
        logw = self.retained_terminal_log_wealth
        if logw.size < 2:
            raise TooFewPaths(f"{logw.size} of {self.n_paths} paths retained; a standard error needs 2")
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
    using the exact state increment.  ``prefs.delta`` is recorded on the
    ensemble for ``decompose``.  ``params`` must equal ``spec.params``
    (``OutOfDomain``); the model checks the horizon, ``x0``, flattened, and the
    counts and seed, before any worker starts.

    Paths run in chunks of ``_CHUNK``.  A chunk holds its states
    asset-major, as (n, paths) arrays, so a step is a few small matrix
    products and sums over the asset axis.  Path i draws its normals from
    its own ``path_rng(seed, i)`` in blocks of ``_BLOCK`` steps, the same
    stream as one draw, so results do not depend on chunking or scheduling.
    A chunk's working memory is its block of normals, _CHUNK * _BLOCK * n
    doubles (16 MB at n = 2), plus its generators (about 16 MB).  With more
    than one chunk, the chunks are spread over up to one forked worker
    process per available CPU, which write into output arrays shared with
    this process; a run of one chunk, or on one CPU or without fork, runs
    here.  Either way each chunk runs ``_simulate_chunk``.
    """
    horizon = check_positive(horizon, "horizon")
    if params != spec.params:
        raise OutOfDomain("simulate's model is not the true model of its rule, spec.params")
    n_steps, n_paths = _check_size(n_steps, "n_steps", 1), _check_size(n_paths, "n_paths", 1)
    seed = _check_size(seed, "seed", 0)
    if spec.horizon < horizon:
        raise OutOfHorizon("strategy horizon does not cover the simulation span")
    n = params.n
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(-1)
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)

    # Feedback matrices at left points, shared by every path: D'ThetaD of
    # the drift stacked over D of the stochastic term, one product per step.
    d_left = spec.feedback(spec.horizon - times[:-1])
    quad_left = np.einsum("kji,jl,klm->kim", d_left, params.corr, d_left)

    n_chunks = -(-n_paths // _CHUNK)
    workers = worker_count(n_chunks)
    empty = np.empty if workers == 1 else _shared_empty
    run = _Run(
        stepper=ExactStepper(params=params, dt=dt),
        x0=params.state_to_unit_noise(x0),
        feedback=np.concatenate([quad_left, d_left], axis=1),
        seed=seed,
        terminal=empty((n_paths,), float),
        excluded=empty((n_paths,), bool),
        states=empty((n_paths, n_steps + 1, n), float) if store_paths else None,
        log_wealth=empty((n_paths, n_steps + 1), float) if store_paths else None,
    )
    fork_map(lambda chunk: _simulate_chunk(run, chunk), n_chunks)

    finite = np.isfinite(run.terminal)
    return SimulationEnsemble(
        spec=spec,
        delta=prefs.delta,
        seed=seed,
        n_steps=n_steps,
        n_paths=n_paths,
        horizon=horizon,
        times=times,
        feedback=d_left,
        terminal_log_wealth=run.terminal,
        excluded=run.excluded,
        x0=x0,
        states=run.states,
        log_wealth=run.log_wealth,
        diagnostics={
            "guard_hits": int(np.sum(run.excluded & finite)),
            "non_finite": int(np.sum(run.excluded & ~finite)),
            "chunks": n_chunks,
            "workers": workers,
        },
    )


@dataclass(frozen=True)
class _Run:
    """One simulation's inputs and output arrays; chunks fill the outputs."""

    stepper: ExactStepper
    x0: np.ndarray            # unit-noise start, (n,)
    feedback: np.ndarray      # (n_steps, 2n, n): D'ThetaD over D per left point
    seed: int
    terminal: np.ndarray
    excluded: np.ndarray
    states: np.ndarray | None
    log_wealth: np.ndarray | None


def _simulate_chunk(run: _Run, chunk: int) -> None:
    """Simulate paths [chunk * _CHUNK, ...) and write their rows of the outputs."""
    start = chunk * _CHUNK
    stop = min(start + _CHUNK, run.terminal.size)
    c = stop - start
    n = run.x0.size
    n_steps = run.feedback.shape[0]
    dt = run.stepper.dt
    store = run.states is not None

    gens = [path_rng(run.seed, i) for i in range(start, stop)]
    raw = np.empty((min(_SLAB, c), min(_BLOCK, n_steps), n))
    z = np.empty((min(_BLOCK, n_steps), n, c))
    x = np.repeat(run.x0[:, None], c, axis=1)
    logw = np.zeros(c)
    alive = np.ones(c, dtype=bool)
    if store:
        run.states[start:stop, 0] = x.T
        run.log_wealth[start:stop, 0] = logw
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the guards
        for k0 in range(0, n_steps, _BLOCK):
            nb = min(_BLOCK, n_steps - k0)
            # Each path's next nb steps of normals, transposed a cache-sized
            # slab of paths at a time into z: z[j] holds step k0 + j.
            for p0 in range(0, c, _SLAB):
                p1 = min(p0 + _SLAB, c)
                for i in range(p0, p1):
                    gens[i].standard_normal(out=raw[i - p0, :nb])
                z[:nb, :, p0:p1] = raw[:p1 - p0, :nb].transpose(1, 2, 0)
            if store:
                x_block = np.empty((nb, n, c))
                logw_block = np.empty((nb, c))
            for j in range(nb):
                x_next = run.stepper.step(x, z[j])
                qd = run.feedback[k0 + j] @ x
                qd[:n] *= x                 # x o (D'ThetaD x): the drift
                qd[n:] *= x_next - x        # dx o (D x): the stochastic term
                drift, stoch = np.add.reduce(qd.reshape(2, n, c), axis=1)
                np.copyto(logw, logw - 0.5 * dt * drift - stoch, where=alive)
                alive &= np.abs(logw) <= LOG_WEALTH_GUARD
                alive &= np.isfinite(logw)
                x = x_next
                if store:
                    x_block[j] = x
                    logw_block[j] = logw
            if store:
                run.states[start:stop, k0 + 1:k0 + nb + 1] = x_block.transpose(2, 0, 1)
                run.log_wealth[start:stop, k0 + 1:k0 + nb + 1] = logw_block.T
    run.terminal[start:stop] = logw
    run.excluded[start:stop] = ~alive


def _shared_empty(shape: tuple, dtype) -> np.ndarray:
    """Uninitialized array in anonymous shared memory, visible to forked children."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, size * dtype.itemsize), dtype, size).reshape(shape)


@dataclass(frozen=True)
class WealthDecomposition:
    """Log-wealth over [s, t] split into its three structural pieces.

    term_a: running time-integral (trace gain minus quadratic cost);
    term_b: profit on the positions open at the endpoints;
    term_c: hedging-efficiency stochastic integral (exactly zero when the
    correlation commutes with the reversion rates).
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
) -> WealthDecomposition:
    """Decompose one stored path's log return between grid times s < t.

    The split is that of the optimal rule's log wealth: ``term_a`` uses the
    true model's delta K Theta^{-1} K, so an ensemble of any other rule is
    rejected with ``OutOfDomain``.  The rule is the optimal one when its
    frame is all ones and its feedback starts at the true delta Theta^{-1} K.
    An ensemble without stored paths raises ``OutOfRange``.  Terms
    follow the stochastic-exponential solution of the wealth SDE, discretized
    with the same left-point convention as the simulation and the ensemble's
    ``delta``; ``total`` is read from the stored log-wealth and is exact.
    """
    if ensemble.states is None or ensemble.log_wealth is None:
        raise OutOfRange("ensemble was simulated without stored paths")
    if not s < t:
        raise OutOfDomain("need s < t")
    i0 = _time_index(ensemble.times, s)
    i1 = _time_index(ensemble.times, t)
    spec, params = ensemble.spec, ensemble.spec.params
    kappa = params.kappa
    # Both sides come from the same corr_inv, so the optimal rule matches exactly.
    if not (np.all(spec.frame == 1.0) and np.array_equal(
            spec.feedback(0.0), ensemble.delta * params.corr_inv * kappa[None, :])):
        raise OutOfDomain("decompose splits the log wealth of the true model's optimal rule; "
                          "the ensemble traded another rule")

    xs = ensemble.states[path]  # (n_steps + 1, n)
    dt = ensemble.dt
    d_k = ensemble.feedback[i0:i1]

    m = ensemble.delta * (kappa[:, None] * params.corr_inv * kappa[None, :])

    x_left = xs[i0:i1]
    dx = xs[i0 + 1 : i1 + 1] - x_left

    # The trace integral is quadratured by the realized covariation
    # dx' D dx -> Tr(Theta D) du, the same stochastic sum the simulated
    # log-wealth accrues; this keeps the per-path residual at order dt.
    trace_part = np.einsum("pi,pij,pj->p", dx, d_k, dx)
    quad_part = np.einsum("pi,ij,pj->p", x_left, m, x_left)
    term_a = float(0.5 * (np.sum(trace_part) - np.sum(quad_part) * dt))

    d_t = spec.feedback(spec.horizon - ensemble.times[i1])  # t may be the terminal time
    term_b = float(0.5 * (xs[i0] @ d_k[0] @ xs[i0] - xs[i1] @ d_t @ xs[i1]))

    # D - D' = delta (Theta^{-1} K - K Theta^{-1}) is constant in tau and
    # vanishes exactly when Theta commutes with K, where the sum would still
    # carry the roundoff of the computed inverse.
    if np.all(params.corr * (kappa[:, None] - kappa[None, :]) == 0.0):
        term_c = 0.0
    else:
        asym = d_k - np.swapaxes(d_k, 1, 2)
        term_c = float(0.5 * np.einsum("pi,pij,pj->", x_left, asym, dx))

    total = float(ensemble.log_wealth[path, i1] - ensemble.log_wealth[path, i0])
    return WealthDecomposition(term_a=term_a, term_b=term_b, term_c=term_c, total=total)
