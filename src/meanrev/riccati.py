"""Matrix Riccati ODEs on an inverse-time grid, with closed-form oracles.

One equation drives everything downstream.  Only the symmetric matrix
S = A + A' enters the value function, the position rule and the
correlation sensitivities, and it solves

    S' = S Theta S + M S + S M' + C,  S(0) = 0,

with K = diag(kappa), M = -delta K and C = delta (delta - 1) K Theta^{-1} K,
a form ``symmetric_operator`` builds for any M(tau), C(tau).  Each matrix
the rest of the package reads is an affine view of one S solution (``s_view``):

* A = S/2, the symmetric value matrix;
* D = delta Theta^{-1} K - S, the feedback matrix of the optimal position
  rule alpha = -w D(tau) x.

The correlation-sensitivity matrix F = S Theta / 2 is A Theta.

The explicitly solvable special cases (scalar, uncorrelated, common
reversion rate, single mean-reverting asset hedged by Brownian motions)
are provided as independent closed forms so the integrator can always be
cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BlowUpDetected, OutOfRange, TrigSingularity
from .model import OUParams, Preferences

# Settings of every solve: relative and absolute tolerance, first step as a
# fraction of the horizon, the entry size taken as blow-up, and the number of
# uniform points added to the solution grid.
RTOL = 1e-10
ATOL = 1e-10
FIRST_STEP_FRACTION = 1e-3
BLOWUP_THRESHOLD = 1e12
DENSE_POINTS = 1024


@dataclass(frozen=True)
class QuadraticOperator:
    """Right-hand side S -> S' of a symmetric Riccati ODE with S(0) = 0; ``corr``
    (Theta) weights its quadratic term and the running trace integral of Tr(S Theta)."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    corr: np.ndarray


class RiccatiSolution:
    """A matrix function of tau in [0, T], read only through the integrator's
    dense output.

    ``dense(tau)`` is the integrated state X, flattened, followed by its running
    trace integral T.  The solution presents the affine view

        M = offset + scale * X,  trace integral scale * T + trace_rate * tau,

    which is X itself with the default arguments.  ``tau_grid`` lists uniform
    points and every adaptive accept point of the solve, for callers that want
    to sample it.
    """

    def __init__(self, dense, n, tau_grid, horizon, scale=1.0, offset=0.0, trace_rate=0.0):
        self.dense, self.n, self.tau_grid, self.horizon = dense, n, tau_grid, horizon
        self.scale, self.offset, self.trace_rate = scale, offset, trace_rate

    def _matrix(self, x: np.ndarray) -> np.ndarray:
        return self.offset + self.scale * x

    def _check(self, tau: float) -> None:
        if not 0.0 <= tau <= self.horizon:
            raise OutOfRange(f"tau={tau} outside [0, {self.horizon}]")

    def interpolate(self, tau: float) -> np.ndarray:
        self._check(tau)
        return self._matrix(self.dense(tau)[: self.n * self.n].reshape(self.n, self.n))

    def trace_integral_at(self, tau: float) -> float:
        self._check(tau)
        return float(self.scale * self.dense(tau)[-1] + self.trace_rate * tau)

    def at_many(self, taus: np.ndarray) -> np.ndarray:
        """Matrices at several tau values, shape (len(taus), n, n)."""
        taus = np.asarray(taus, dtype=float)
        if taus.size == 0:
            return np.empty((0, self.n, self.n))
        if not np.all((taus >= 0.0) & (taus <= self.horizon)):
            raise OutOfRange("tau values outside solution span")
        flat = self.dense(taus)[: self.n * self.n]
        return self._matrix(np.moveaxis(flat.reshape(self.n, self.n, -1), 2, 0))


def symmetric_operator(corr: np.ndarray, coefficients: Callable) -> QuadraticOperator:
    """Operator of S' = S Theta S + M S + S M' + C, (M, C) = coefficients(tau), with an
    exactly symmetric right-hand side, so S stays symmetric to the last bit."""

    def rhs(tau, s):
        m, c = coefficients(tau)
        q, ms = s @ corr @ s + c, m @ s
        return 0.5 * (q + q.T) + (ms + ms.T)

    return QuadraticOperator(rhs=rhs, corr=corr)


def make_S_operator(params: OUParams, prefs: Preferences) -> QuadraticOperator:
    """Operator of the S-equation: M = -delta K, C = delta (delta - 1) K Theta^{-1} K."""
    kappa, delta = params.kappa, prefs.delta
    m = -delta * np.diag(kappa)
    c = delta * (delta - 1.0) * (kappa[:, None] * params.corr_inv * kappa[None, :])
    return symmetric_operator(params.corr, lambda tau: (m, c))


def s_view(s: RiccatiSolution, which: str, params: OUParams, prefs: Preferences) -> RiccatiSolution:
    """A or D (``which``) as an affine view of a solution of the S-equation.

    With T(tau) the trace integral of S Theta:

    * A = S/2, trace integral of A Theta: T/2;
    * D = delta Theta^{-1} K - S, trace integral of D Theta: delta tr(K) tau - T.
    """
    delta, kappa = prefs.delta, params.kappa
    view = {
        "A": {"scale": 0.5},
        "D": {"scale": -1.0, "offset": delta * params.corr_inv * kappa[None, :],
              "trace_rate": delta * float(kappa.sum())},
    }[which]
    return RiccatiSolution(s.dense, s.n, s.tau_grid, s.horizon, **view)


def solve(op: QuadraticOperator, horizon: float) -> RiccatiSolution:
    """Integrate a matrix Riccati ODE from S(0) = 0 over tau in [0, horizon].

    The running trace integral is carried as an extra state component so it
    shares the stepper's quadrature order.  Divergence raises BlowUpDetected
    with the inverse time at which it was observed.
    """
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    corr = op.corr
    n = corr.shape[0]

    def rhs_flat(tau, y):
        s = y[: n * n].reshape(n, n)
        dtrace = float(np.sum(s * corr.T))  # Tr(S @ Theta)
        return np.append(op.rhs(tau, s).ravel(), dtrace)

    def blowup_event(tau, y):
        return BLOWUP_THRESHOLD - np.abs(y[: n * n]).max()

    blowup_event.terminal = True
    blowup_event.direction = -1

    result = solve_ivp(
        rhs_flat,
        (0.0, horizon),
        np.zeros(n * n + 1),
        method="RK45",
        dense_output=True,
        rtol=RTOL,
        atol=ATOL,
        first_step=FIRST_STEP_FRACTION * horizon,
        events=blowup_event,
    )
    if result.status == 1:
        raise BlowUpDetected(result.t[-1])
    if result.status < 0:
        raise BlowUpDetected(result.t[-1], f"integrator failed near tau = {result.t[-1]:.6g}: {result.message}")

    tau_grid = np.union1d(np.linspace(0.0, horizon, DENSE_POINTS), result.t)
    return RiccatiSolution(result.sol, n, tau_grid, float(horizon))


def solve_A(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """Value matrix A = S/2 (the symmetric representative)."""
    return s_view(solve(make_S_operator(params, prefs), horizon), "A", params, prefs)


def solve_D(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """Feedback matrix D = delta Theta^{-1} K - S."""
    return s_view(solve(make_S_operator(params, prefs), horizon), "D", params, prefs)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def d_scalar_closed_form(kappa: float, delta: float, tau) -> np.ndarray | float:
    """Scalar feedback multiplier: a shifted and scaled sigmoid in tau.

    D(tau) = k sqrt(d) (sqrt(d) cosh u + sinh u) / (sqrt(d) sinh u + cosh u)
    with u = k sqrt(d) tau; evaluated via tanh for overflow safety.
    Returns 0 identically at kappa = 0.
    """
    if kappa < 0 or delta <= 0:
        raise ValueError("need kappa >= 0 and delta > 0")
    tau = np.asarray(tau, dtype=float)
    if kappa == 0.0:
        return np.zeros_like(tau) if tau.ndim else 0.0
    sd = np.sqrt(delta)
    t = np.tanh(kappa * sd * tau)
    out = kappa * sd * (sd + t) / (sd * t + 1.0)
    return out if tau.ndim else float(out)


def d_uncorrelated(kappas, delta: float, tau: float) -> np.ndarray:
    """Feedback matrix for independent assets: diagonal of scalar solutions."""
    kappas = np.asarray(kappas, dtype=float)
    return np.diag([d_scalar_closed_form(float(k), delta, tau) for k in kappas])


def d_common_kappa(kappa: float, corr: np.ndarray, delta: float, tau: float) -> np.ndarray:
    """Feedback matrix when all assets share one reversion rate.

    The Cholesky factor-portfolio transform reduces this case to independent
    assets, giving D(tau) = D_scalar(tau) * Theta^{-1}.
    """
    return d_scalar_closed_form(kappa, delta, tau) * np.linalg.inv(corr)


def single_mr_blowup_tau(kappa: float, corr: np.ndarray, gamma: float) -> float | None:
    """Pole location of the risk-seeking branch, or None if no pole exists."""
    prefs = Preferences(gamma=gamma)
    delta = prefs.delta
    zeta = float(np.linalg.inv(corr)[0, 0])
    if not gamma * zeta > 1.0:
        return None
    lam = np.sqrt(abs(delta * (delta - 1.0) * zeta - delta**2))
    # denominator d sin(l k t) + l cos(l k t) first crosses zero at
    # l k t = pi - arctan(l / d)
    return float((np.pi - np.arctan2(lam, delta)) / (lam * kappa))


def d_single_mr(kappa: float, corr: np.ndarray, gamma: float, tau: float) -> np.ndarray:
    """Feedback matrix for one mean-reverting asset plus Brownian hedges.

    Reversion-rate matrix diag(kappa, 0, ..., 0).  Only the first column is
    nonzero: rows below the first hold the constant hedge coefficients
    delta*kappa*(Theta^{-1})_{j1}; the (1,1) entry follows one of three
    branches selected by the sign of gamma - 1/zeta, zeta = (Theta^{-1})_11.
    """
    if not gamma < 1:
        raise ValueError("gamma must be < 1")
    delta = Preferences(gamma=gamma).delta
    corr_inv = np.linalg.inv(corr)
    n = corr.shape[0]
    zeta = float(corr_inv[0, 0])
    lam = np.sqrt(abs(delta * (delta - 1.0) * zeta - delta**2))
    shift = delta * kappa * (zeta - 1.0)

    if abs(gamma * zeta - 1.0) < 1e-12:
        d11 = kappa * delta / (1.0 + delta * kappa * tau) + shift
    elif gamma * zeta < 1.0:
        t = np.tanh(lam * kappa * tau)
        d11 = kappa * lam * (delta + lam * t) / (delta * t + lam) + shift
    else:
        tau_star = single_mr_blowup_tau(kappa, corr, gamma)
        if tau_star is not None and tau >= tau_star:
            raise TrigSingularity(tau_star)
        u = lam * kappa * tau
        d11 = kappa * lam * (delta * np.cos(u) - lam * np.sin(u)) / (delta * np.sin(u) + lam * np.cos(u)) + shift

    out = np.zeros((n, n))
    out[0, 0] = d11
    out[1:, 0] = delta * kappa * corr_inv[1:, 0]
    return out

