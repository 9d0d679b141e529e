"""Market model: correlated Ornstein-Uhlenbeck assets.

Holds the parameter containers, their validation, the reduction to unit
volatilities and zero long-term means, and exact-in-distribution stepping
of the state process for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllKappaZero,
    FactorizationFailure,
    NonFinite,
    NonPositiveSigma,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitDiagonal,
    OutOfDomain,
)

# Smallest admissible eigenvalue of the correlation matrix.  Near-singular
# correlation makes Theta^{-1} kappa explode downstream.
PD_TOL = 1e-10

# Eigenvalues of a step covariance above this (negative) bar are treated as
# rounding noise and clipped to zero during factorization.
CLIP_TOL = -1e-12


def _as_vector(v, n: int, name: str) -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(-1)
    if out.size != n:
        raise ValueError(f"{name} must have length {n}, got {out.size}")
    return out


@dataclass(frozen=True)
class OUParams:
    """Full parameterization of the n-asset mean-reverting market.

    kappa and sigma are per-asset (diagonal) reversion rates and
    volatilities; corr is the correlation matrix of the driving noise.
    """

    n: int
    kappa: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray
    corr: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", _as_vector(self.kappa, self.n, "kappa"))
        object.__setattr__(self, "sigma", _as_vector(self.sigma, self.n, "sigma"))
        object.__setattr__(self, "theta", _as_vector(self.theta, self.n, "theta"))
        corr = np.asarray(self.corr, dtype=float)
        if corr.shape != (self.n, self.n):
            raise ValueError(f"corr must be {self.n}x{self.n}, got {corr.shape}")
        object.__setattr__(self, "corr", corr)
        for arr in (self.kappa, self.sigma, self.theta, self.corr):
            arr.setflags(write=False)

    @property
    def corr_inv(self) -> np.ndarray:
        return np.linalg.inv(self.corr)

    @classmethod
    def from_dict(cls, doc: dict) -> "OUParams":
        n = int(doc["n"])
        return cls(
            n=n,
            kappa=doc["kappa"],
            sigma=doc["sigma"],
            theta=doc.get("theta", np.zeros(n)),
            corr=doc["corr"],
        )


@dataclass(frozen=True)
class Preferences:
    """Risk preferences of the power-utility trader.

    gamma < 1 is the utility exponent; delta = 1/(1 - gamma) is the
    distortion rate used throughout the ODE machinery.
    """

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise NonFinite(f"gamma must be finite, got {self.gamma}")
        if not self.gamma < 1:
            raise OutOfDomain(f"gamma must be < 1, got {self.gamma}")

    @property
    def delta(self) -> float:
        return 1.0 / (1.0 - self.gamma)

    @classmethod
    def from_delta(cls, delta: float) -> "Preferences":
        if not 0 < delta < np.inf:
            raise ValueError(f"delta must be in (0, inf), got {delta}")
        return cls(gamma=1.0 - 1.0 / delta)


@dataclass(frozen=True)
class NormalizationRecord:
    """Maps states into, and positions out of, unit-noise coordinates.

    The normalized state is sigma^{-1}(x - theta); a normalized position
    sigma * alpha maps back to alpha.
    """

    original_sigma: np.ndarray
    original_theta: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.original_sigma, dtype=float).reshape(-1)
        theta = np.asarray(self.original_theta, dtype=float).reshape(-1)
        object.__setattr__(self, "original_sigma", sigma)
        object.__setattr__(self, "original_theta", theta)
        sigma.setflags(write=False)
        theta.setflags(write=False)

    def state_to_unit_noise(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.original_theta) / self.original_sigma

    def position_from_unit_noise(self, alpha) -> np.ndarray:
        return np.asarray(alpha, dtype=float) / self.original_sigma


def validate(params: OUParams) -> OUParams:
    """Check all model invariants, returning the parameters unchanged.

    Raises the exception naming the first violated invariant.
    """
    for name in ("kappa", "sigma", "theta", "corr"):
        if not np.all(np.isfinite(getattr(params, name))):
            raise NonFinite(f"{name} has a non-finite entry")
    corr = params.corr
    if not np.allclose(corr, corr.T, rtol=0.0, atol=1e-12):
        raise NotSymmetric("correlation matrix is not symmetric")
    if not np.allclose(np.diag(corr), 1.0, rtol=0.0, atol=1e-12):
        raise NotUnitDiagonal("correlation matrix diagonal is not all ones")
    min_eig = float(np.linalg.eigvalsh(corr).min())
    if min_eig <= PD_TOL:
        raise NotPositiveDefinite(
            f"smallest correlation eigenvalue {min_eig:.3e} <= {PD_TOL:.0e}"
        )
    if np.any(params.kappa < 0):
        raise OutOfDomain("reversion rates must be nonnegative")
    if not np.any(params.kappa > 0):
        raise AllKappaZero("at least one reversion rate must be positive")
    if np.any(params.sigma <= 0):
        raise NonPositiveSigma("all volatilities must be positive")
    return params


def normalize(params: OUParams) -> tuple[OUParams, NormalizationRecord]:
    """Reduce to unit volatilities and zero long-term means.

    The state substitution x -> sigma^{-1}(x - theta) leaves kappa and the
    correlation matrix unchanged; the record maps states and positions back.
    """
    validate(params)
    record = NormalizationRecord(original_sigma=params.sigma, original_theta=params.theta)
    normalized = OUParams(
        n=params.n,
        kappa=params.kappa,
        sigma=np.ones(params.n),
        theta=np.zeros(params.n),
        corr=params.corr,
    )
    return normalized, record


def step_covariance(params: OUParams, dt: float) -> np.ndarray:
    """Exact covariance of the state increment over a step of length dt.

    C_ij = Theta_ij * (1 - exp(-(k_i + k_j) dt)) / (k_i + k_j), with the
    analytic limit Theta_ij * dt when k_i + k_j = 0 (pure Brownian pairs).
    """
    k = params.kappa
    ksum = k[:, None] + k[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(ksum > 0.0, -np.expm1(-ksum * dt) / np.where(ksum > 0, ksum, 1.0), dt)
    return params.corr * factor


def covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L of a covariance matrix with cov = L L^T.

    Symmetric eigendecomposition; eigenvalues in [CLIP_TOL, 0) are clipped
    to zero, anything below CLIP_TOL signals pathological inputs.
    """
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() < CLIP_TOL * max(1.0, abs(eigvals.max())):
        raise FactorizationFailure(
            f"step covariance has eigenvalue {eigvals.min():.3e}; not positive semidefinite"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@dataclass(frozen=True)
class ExactStepper:
    """Precomputed exact one-step transition for a fixed step size.

    The step is exact in distribution: x' = decay * x + L z with decay the
    componentwise exp(-kappa dt) and L L^T the exact step covariance.  It
    reads only kappa and the correlation, so it steps unit-noise states.
    States and normals are asset-major, (n, c) with one column per path, so
    a step is one small matrix product; ``decay`` is held as an (n, 1)
    column.
    """

    params: OUParams
    dt: float
    decay: np.ndarray = field(init=False)
    noise_factor: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        decay = np.exp(-self.params.kappa * self.dt)[:, None]
        factor = covariance_factor(step_covariance(self.params, self.dt))
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "noise_factor", factor)
        decay.setflags(write=False)
        factor.setflags(write=False)

    def step(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Advance (n, c) states one step with (n, c) standard normals."""
        return self.decay * x + self.noise_factor @ z
