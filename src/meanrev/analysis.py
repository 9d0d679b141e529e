"""Correlation-sensitivity machinery and zero-correlation closed forms.

The value function, viewed through F = (A + A')Theta/2 = A Theta, is
stationary in every pairwise correlation at Theta = I, and the curvature
there carries the sign of the risk-aversion exponent.  This module
implements the diagonal-limit closed forms (Psi, lambda, phi) used to
establish those facts, and takes the exact correlation derivatives of the
value from the tangent equations of the S-equation.  It also produces the
sweep data behind the position-multiplier and value-surface figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .control import solve_value, value_function
from .errors import BlowUpDetected
from .grids import SensitivityGrid
from .model import OUParams, Preferences
from .riccati import (
    ATOL,
    FIRST_STEP_FRACTION,
    RTOL,
    d_scalar_closed_form,
    make_S_operator,
)


def _omega(delta: float) -> float:
    rd = np.sqrt(delta)
    return (1.0 - rd) / (1.0 + rd)


def psi_closed_form(kappa: float, delta: float, tau) -> np.ndarray | float:
    """Diagonal entry of F at zero correlation.

    Psi = kappa sqrt(d)(sqrt(d)-1)/2 * (e^{2u}-1)/(e^{2u}+omega), u = kappa
    sqrt(d) tau; evaluated with e^{-2u} so large horizons cannot overflow.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    rd = np.sqrt(delta)
    omega = _omega(delta)
    e = np.exp(-2.0 * kappa * rd * np.asarray(tau, dtype=float))
    out = 0.5 * kappa * rd * (rd - 1.0) * (1.0 - e) / (1.0 + omega * e)
    return float(out) if np.isscalar(tau) else out


def psi_property(kappa: float, delta: float, tau) -> np.ndarray | float:
    """Psi + (1-delta) kappa / 2, in its product closed form.

    Equals kappa(1-sqrt(d))/2 * (e^{2u}+1)/(e^{2u}+omega); this combination
    is the source term of the lambda and phi equations.
    """
    rd = np.sqrt(delta)
    omega = _omega(delta)
    e = np.exp(-2.0 * kappa * rd * np.asarray(tau, dtype=float))
    out = 0.5 * kappa * (1.0 - rd) * (1.0 + e) / (1.0 + omega * e)
    return float(out) if np.isscalar(tau) else out


def psi_integral(kappa: float, delta: float, tau: float) -> float:
    """Definite integral of Psi over [0, tau].

    Antiderivative (d + sqrt(d))/2 kappa t - ln(e^{2u}+omega)/2, written
    through log1p of e^{-2u} terms for stability.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    rd = np.sqrt(delta)
    omega = _omega(delta)
    u = kappa * rd * tau
    return float(
        0.5 * (delta + rd) * kappa * tau
        - u
        - 0.5 * np.log1p(omega * np.exp(-2.0 * u))
        + 0.5 * np.log1p(omega)
    )


def lambda_closed_form(kappa_i: float, kappa_j: float, delta: float, tau) -> np.ndarray | float:
    """First correlation derivative of F_ij in the zero-correlation limit.

    Every exponential is arranged with a non-positive exponent, so the
    expression survives arbitrarily long horizons.  Identically zero when
    kappa_i = kappa_j or delta = 1.
    """
    rd = np.sqrt(delta)
    omega = _omega(delta)
    t = np.asarray(tau, dtype=float)
    ui = kappa_i * rd * t
    uj = kappa_j * rd * t
    den = (1.0 + omega * np.exp(-2.0 * ui)) * (1.0 + omega * np.exp(-2.0 * uj))
    # Bracket terms scaled by e^{-2(ui+uj)}.
    r = (kappa_j - kappa_i) / (kappa_j + kappa_i)
    es = np.exp(-(ui + uj))
    term1 = r * (1.0 - es) * (1.0 + omega * es)
    term2 = (
        np.exp(-2.0 * ui) + (omega - 1.0) * es - omega * np.exp(-2.0 * uj)
    )
    out = 0.5 * kappa_i * rd * (1.0 - rd) * (term1 + term2) / den
    return float(out) if np.isscalar(tau) else out


def phi_diagonal(kappa_i: float, kappa_j: float, delta: float, horizon: float):
    """Integral over [0, T] of the diagonal pure-second-derivative limits phi_ii + phi_jj.

    Each solves the linear ODE
      phi' = phi [4 Psi(kappa, .) - 2 delta kappa] + 4 lambda_ij lambda_ji
             + 2 delta (kappa - kappa_other) [lambda - (Psi + (1-delta) kappa / 2)],
      phi(0) = 0,
    with (kappa, kappa_other) = (kappa_i, kappa_j) for the ii entry and
    swapped for jj; lambda is lambda(kappa, kappa_other) and
    lambda_ij lambda_ji is the diagonal of the squared first derivative of F
    that the 2F^2 term contributes.
    """
    if min(kappa_i, kappa_j, delta, horizon) <= 0:
        raise ValueError("kappa_i, kappa_j, delta, horizon must be positive")

    def rhs(tau, y):
        lam_ij = lambda_closed_form(kappa_i, kappa_j, delta, tau)
        lam_ji = lambda_closed_form(kappa_j, kappa_i, delta, tau)
        square = 4.0 * lam_ij * lam_ji
        src_i = lam_ij - psi_property(kappa_i, delta, tau)
        src_j = lam_ji - psi_property(kappa_j, delta, tau)
        dp_i = y[0] * (4.0 * psi_closed_form(kappa_i, delta, tau) - 2.0 * delta * kappa_i) \
            + square + 2.0 * delta * (kappa_i - kappa_j) * src_i
        dp_j = y[1] * (4.0 * psi_closed_form(kappa_j, delta, tau) - 2.0 * delta * kappa_j) \
            + square + 2.0 * delta * (kappa_j - kappa_i) * src_j
        return [dp_i, dp_j, y[0] + y[1]]

    res = solve_ivp(
        rhs, (0.0, horizon), [0.0, 0.0, 0.0], method="RK45",
        rtol=1e-10, atol=1e-12, dense_output=True,
    )
    if not res.success:
        raise RuntimeError(f"phi integration failed: {res.message}")
    return float(res.sol(horizon)[2])


@dataclass(frozen=True)
class CorrSensitivityReport:
    """Correlation derivatives of the value at the mean, J = J(1, theta, 0).

    ``first_derivative`` and ``second_derivative`` are derivatives of J in
    the correlation of ``pair``, ``log_second_derivative`` is the curvature
    of log|J| there, and ``mixed_derivatives`` maps every other index pair
    (p, q), p < q, to the mixed second partial of J.
    """

    pair: tuple[int, int]
    value: float
    first_derivative: float
    second_derivative: float
    log_second_derivative: float
    mixed_derivatives: dict = field(default_factory=dict)  # (p, q) -> value


def pair_matrix(n: int, pair: tuple[int, int]) -> np.ndarray:
    """I^{pq}: the derivative of the correlation matrix in its (p, q) entry."""
    m = np.zeros((n, n))
    i, j = pair
    m[i, j] = m[j, i] = 1.0
    return m


def corr_sensitivity(
    params: OUParams,
    prefs: Preferences,
    horizon: float,
    pair: tuple[int, int],
) -> CorrSensitivityReport:
    """Correlation derivatives of J(1, theta, 0) at the model's correlation matrix.

    J comes from the value solve, which raises ``BlowUpDetected`` at a pole.
    Its derivatives come from one solve of the S-equation together with its
    tangents.  With E_a = I^{pq} for every index pair a, the requested pair
    first (a = 0), and c = delta(delta - 1):

      S_a'  = S_a Theta S + S Theta S_a + S E_a S - delta(K S_a + S_a K)
              - c K Theta^{-1} E_a Theta^{-1} K,
      S_0a' = S_0a Theta S + S Theta S_0a + S_0 Theta S_a + S_a Theta S_0
              + S_0 E_a S + S E_a S_0 + S_a E_0 S + S E_0 S_a
              - delta(K S_0a + S_0a K)
              + c K (Theta^{-1} E_0 Theta^{-1} E_a Theta^{-1}
                     + Theta^{-1} E_a Theta^{-1} E_0 Theta^{-1}) K,

    all zero at tau = 0.  With L = log|J| = -log|gamma| + int Tr(S Theta)/(2 delta),

      dL/drho_a          = int Tr(S_a Theta + S E_a) / (2 delta),
      d2L/drho_0 drho_a  = int Tr(S_0a Theta + S_0 E_a + S_a E_0) / (2 delta).

    S is finite on [0, T] once the value solve has returned, so the linear
    tangent equations cannot blow up.

    Two curvatures are reported.  ``second_derivative`` is the curvature of
    J itself, positive on both sides of gamma = 0 at Theta = I (the
    uncorrelated point minimizes J).  ``log_second_derivative`` is the
    curvature of log|J|; at Theta = I it is the integral of the pure second
    derivative of F's diagonal over delta, its sign equals sign(gamma) when
    the reversion rates of the pair differ, and it vanishes when they
    coincide.
    """
    n = params.n
    i, j = pair
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"invalid pair {pair}")
    value = value_function(1.0, params.theta, 0.0, solve_value(params, prefs, horizon), prefs,
                           params).total

    key = (min(i, j), max(i, j))
    others = [(p, q) for p in range(n) for q in range(p + 1, n) if (p, q) != key]
    e = np.array([pair_matrix(n, a) for a in [key, *others]])  # (m, n, n)
    m, size = len(e), n * n
    corr, ci, delta = params.corr, params.corr_inv, prefs.delta
    kd, kr = params.kappa[:, None], params.kappa[None, :]
    c = delta * (delta - 1.0)
    # Each tangent right-hand side is G + G' with G below; the S E_a S and
    # constant terms are halved in G because they are symmetric already.
    src1 = -0.5 * c * (kd * (ci @ e @ ci) * kr)
    src2 = c * (kd * (ci @ e[0] @ ci @ e @ ci) * kr)
    s_rhs = make_S_operator(params, prefs).rhs

    def rhs(tau, y):
        s = y[:size].reshape(n, n)
        s1 = y[size:(1 + m) * size].reshape(m, n, n)
        s2 = y[(1 + m) * size:(1 + 2 * m) * size].reshape(m, n, n)
        cs = corr @ s
        g1 = s1 @ cs + 0.5 * (s @ e @ s) - delta * kd * s1 + src1
        g2 = (s2 @ cs + s1[0] @ corr @ s1 + s1[0] @ e @ s + s1 @ e[0] @ s
              - delta * kd * s2 + src2)
        t1 = np.einsum("aij,ij->a", s1, corr) + np.einsum("ij,aij->a", s, e)
        t2 = (np.einsum("aij,ij->a", s2, corr) + np.einsum("ij,aij->a", s1[0], e)
              + np.einsum("aij,ij->a", s1, e[0]))
        return np.concatenate([
            s_rhs(tau, s).ravel(), (g1 + g1.transpose(0, 2, 1)).ravel(),
            (g2 + g2.transpose(0, 2, 1)).ravel(), t1, t2,
        ])

    res = solve_ivp(rhs, (0.0, horizon), np.zeros((1 + 2 * m) * size + 2 * m), method="RK45",
                    rtol=RTOL, atol=ATOL, first_step=FIRST_STEP_FRACTION * horizon)
    if not res.success:
        raise RuntimeError(f"tangent integration failed: {res.message}")
    traces = (res.y[-2 * m:, -1] / (2.0 * delta)).tolist()
    l1, l2 = traces[:m], traces[m:]
    return CorrSensitivityReport(
        pair=pair, value=value,
        # + 0.0 turns the signed zero of a vanishing derivative into 0.0.
        first_derivative=value * l1[0] + 0.0,
        second_derivative=value * (l2[0] + l1[0] ** 2),
        log_second_derivative=l2[0],
        mixed_derivatives={a: value * (l2[k] + l1[0] * l1[k]) for k, a in enumerate(others, 1)},
    )


def value_vs_kappa2_rho(
    kappa2_grid,
    rho_grid,
    gamma: float = -4.0,
    kappa1: float = 1.0,
    horizon: float = 3.0,
) -> SensitivityGrid:
    """Value surface J(1, 0, 0) of a two-asset model over (kappa_2, rho)."""
    k2 = np.asarray(kappa2_grid, dtype=float)
    rho = np.asarray(rho_grid, dtype=float)
    if np.any(np.abs(rho) >= 1.0):
        raise ValueError("correlations must lie strictly inside (-1, 1)")
    prefs = Preferences(gamma=gamma)
    cells = np.empty((k2.size, rho.size))
    failures: dict = {}
    for i, k in enumerate(k2):
        for j, r in enumerate(rho):
            params = OUParams(
                n=2, kappa=np.array([kappa1, k]), sigma=np.ones(2), theta=np.zeros(2),
                corr=np.array([[1.0, r], [r, 1.0]]),
            )
            try:
                a = solve_value(params, prefs, horizon)
                cells[i, j] = value_function(1.0, params.theta, 0.0, a, prefs, params).total
            except BlowUpDetected as exc:
                cells[i, j] = np.nan
                failures[(i, j)] = str(exc)
    return SensitivityGrid(
        axis1_name="kappa2", axis1=k2, axis2_name="rho", axis2=rho, cells=cells,
        metadata={"quantity": "value_at_mean", "gamma": gamma, "kappa1": kappa1,
                  "horizon": horizon},
        failures=failures,
    )


def d_curve_1d(kappa: float, gammas, horizon: float, times) -> SensitivityGrid:
    """Scalar position multiplier D(T - t) per risk aversion over a time grid.

    Flat at kappa for the log-utility trader, decreasing toward the terminal
    time for gamma < 0, increasing for 0 < gamma < 1.
    """
    g = np.asarray(gammas, dtype=float)
    t = np.asarray(times, dtype=float)
    if np.any(g >= 1.0):
        raise ValueError("risk-aversion exponents must be below 1")
    if np.any(t < 0) or np.any(t > horizon):
        raise ValueError("times must lie in [0, horizon]")
    cells = np.empty((g.size, t.size))
    for i, gamma in enumerate(g):
        delta = Preferences(gamma=gamma).delta
        cells[i] = np.array([d_scalar_closed_form(kappa, delta, horizon - tt) for tt in t])
    return SensitivityGrid(
        axis1_name="gamma", axis1=g, axis2_name="t", axis2=t, cells=cells,
        metadata={"quantity": "scalar_position_multiplier", "kappa": kappa, "horizon": horizon},
    )
