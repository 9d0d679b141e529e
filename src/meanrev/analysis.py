"""Correlation-sensitivity machinery and zero-correlation closed forms.

The value function, viewed through F = (A + A')Theta/2, is stationary in
every pairwise correlation at Theta = I, and the curvature there carries
the sign of the risk-aversion exponent.  This module reads F off the
symmetric Riccati solution, implements the diagonal-limit closed forms (Psi, lambda, phi) used to
establish those facts, and verifies the limits by finite differences.  It
also produces the sweep data behind the position-multiplier and
value-surface figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .control import solve_value, value_at_mean
from .errors import BlowUpDetected, NotPositiveDefinite
from .grids import SensitivityGrid
from .model import OUParams, Preferences, validate
from .riccati import (
    RiccatiSolution,
    d_scalar_closed_form,
    make_S_operator,
    s_view,
    solve,
)


def solve_F(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """F = S Theta / 2 with trace integral of Tr(F), S = A + A'.

    F solves F' = 2F^2 - delta(kappa F + F Gamma) + delta(delta-1)/2 kappa Gamma
    with Gamma = Theta^{-1} kappa Theta and F(0) = 0.
    """
    params = validate(params)
    return s_view(solve(make_S_operator(params, prefs), horizon), "F", params, prefs)


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
    """Diagonal pure-second-derivative limits phi_ii, phi_jj and their sum's integral.

    Each solves the linear ODE
      phi' = phi [4 Psi(kappa, .) - 2 delta kappa]
             + 2 delta (kappa - kappa_other) [lambda - (Psi + (1-delta) kappa / 2)],
      phi(0) = 0,
    with (kappa, kappa_other) = (kappa_i, kappa_j) for the ii entry and
    swapped for jj.  Returns (phi_ii, phi_jj, int_0^T (phi_ii + phi_jj)),
    the first two as callables of tau.
    """
    if min(kappa_i, kappa_j, delta, horizon) <= 0:
        raise ValueError("kappa_i, kappa_j, delta, horizon must be positive")

    def rhs(tau, y):
        src_i = lambda_closed_form(kappa_i, kappa_j, delta, tau) - psi_property(kappa_i, delta, tau)
        src_j = lambda_closed_form(kappa_j, kappa_i, delta, tau) - psi_property(kappa_j, delta, tau)
        dp_i = y[0] * (4.0 * psi_closed_form(kappa_i, delta, tau) - 2.0 * delta * kappa_i) \
            + 2.0 * delta * (kappa_i - kappa_j) * src_i
        dp_j = y[1] * (4.0 * psi_closed_form(kappa_j, delta, tau) - 2.0 * delta * kappa_j) \
            + 2.0 * delta * (kappa_j - kappa_i) * src_j
        return [dp_i, dp_j, y[0] + y[1]]

    res = solve_ivp(
        rhs, (0.0, horizon), [0.0, 0.0, 0.0], method="RK45",
        rtol=1e-10, atol=1e-12, dense_output=True,
    )
    if not res.success:
        raise RuntimeError(f"phi integration failed: {res.message}")
    sol = res.sol

    def phi_ii(tau: float) -> float:
        return float(sol(tau)[0])

    def phi_jj(tau: float) -> float:
        return float(sol(tau)[1])

    return phi_ii, phi_jj, float(sol(horizon)[2])


@dataclass(frozen=True)
class CorrSensitivityReport:
    """Finite-difference correlation derivatives of the value at the mean.

    Taken at the uncorrelated point; ``first_error`` and ``second_error``
    are Richardson step-halving estimates of the FD truncation error.
    """

    pair: tuple[int, int]
    h: float
    value: float
    first_derivative: float
    first_error: float
    second_derivative: float
    second_error: float
    log_second_derivative: float
    log_second_error: float
    mixed_derivatives: dict = field(default_factory=dict)  # (p, q) -> value
    mixed_errors: dict = field(default_factory=dict)


def _pair_matrix(n: int, pair: tuple[int, int]) -> np.ndarray:
    m = np.zeros((n, n))
    i, j = pair
    m[i, j] = m[j, i] = 1.0
    return m


def corr_sensitivity(
    params: OUParams,
    prefs: Preferences,
    horizon: float,
    pair: tuple[int, int],
    h: float = 1e-3,
) -> CorrSensitivityReport:
    """Correlation derivatives of J(1, theta, 0) around Theta = I.

    Central differences with steps h and h/2; the halved-step values feed
    Richardson extrapolation and the attached error estimates.  Mixed second
    partials are computed against every other index pair.

    Two curvatures are reported.  ``second_derivative`` is the curvature of
    J itself, positive on both sides of gamma = 0 (the uncorrelated point
    minimizes J).  ``log_second_derivative`` is the curvature of log|J|,
    proportional to the running trace of the pure second derivative of F;
    its sign equals sign(gamma) when the reversion rates of the pair differ
    and it vanishes when they coincide.
    """
    if not np.allclose(params.corr, np.eye(params.n)):
        raise ValueError("correlation sensitivities are taken at the uncorrelated point")
    i, j = pair
    if not (0 <= i < params.n and 0 <= j < params.n and i != j):
        raise ValueError(f"invalid pair {pair}")

    def value_at(offsets: dict) -> float:
        corr = np.eye(params.n)
        for (p, q), rho in offsets.items():
            corr[p, q] = corr[q, p] = rho
        perturbed = OUParams(
            n=params.n, kappa=params.kappa, sigma=params.sigma, theta=params.theta, corr=corr
        )
        validate(perturbed)
        a = solve_value(perturbed, prefs, horizon)
        return value_at_mean(1.0, 0.0, a, prefs)

    # Shrink until every perturbed matrix in the stencil stays valid.
    while True:
        try:
            validate(OUParams(
                n=params.n, kappa=params.kappa, sigma=params.sigma, theta=params.theta,
                corr=np.eye(params.n) + 2.0 * h * _pair_matrix(params.n, pair),
            ))
            break
        except NotPositiveDefinite:
            h *= 0.5
            if h < 1e-8:
                raise

    j0 = value_at({})
    jp, jm = value_at({pair: h}), value_at({pair: -h})
    jp2, jm2 = value_at({pair: h / 2}), value_at({pair: -h / 2})

    d1_h = (jp - jm) / (2.0 * h)
    d1_h2 = (jp2 - jm2) / h
    first = (4.0 * d1_h2 - d1_h) / 3.0
    first_err = abs(d1_h2 - d1_h) / 3.0

    d2_h = (jp - 2.0 * j0 + jm) / h**2
    d2_h2 = (jp2 - 2.0 * j0 + jm2) / (h / 2) ** 2
    second = (4.0 * d2_h2 - d2_h) / 3.0
    second_err = abs(d2_h2 - d2_h) / 3.0

    # Curvature of log|J|; |J| > 0 everywhere on the stencil.
    lj0, ljp, ljm = np.log(abs(j0)), np.log(abs(jp)), np.log(abs(jm))
    ljp2, ljm2 = np.log(abs(jp2)), np.log(abs(jm2))
    l2_h = (ljp - 2.0 * lj0 + ljm) / h**2
    l2_h2 = (ljp2 - 2.0 * lj0 + ljm2) / (h / 2) ** 2
    log_second = (4.0 * l2_h2 - l2_h) / 3.0
    log_second_err = abs(l2_h2 - l2_h) / 3.0

    mixed, mixed_err = {}, {}
    key = (min(i, j), max(i, j))
    for p in range(params.n):
        for q in range(p + 1, params.n):
            if (p, q) == key:
                continue

            def cross(step: float) -> float:
                return (
                    value_at({pair: step, (p, q): step})
                    - value_at({pair: step, (p, q): -step})
                    - value_at({pair: -step, (p, q): step})
                    + value_at({pair: -step, (p, q): -step})
                ) / (4.0 * step**2)

            m_h, m_h2 = cross(h), cross(h / 2)
            mixed[(p, q)] = (4.0 * m_h2 - m_h) / 3.0
            mixed_err[(p, q)] = abs(m_h2 - m_h) / 3.0

    return CorrSensitivityReport(
        pair=pair, h=h, value=j0,
        first_derivative=first, first_error=first_err,
        second_derivative=second, second_error=second_err,
        log_second_derivative=log_second, log_second_error=log_second_err,
        mixed_derivatives=mixed, mixed_errors=mixed_err,
    )


@dataclass(frozen=True)
class FactCheck:
    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tol


@dataclass(frozen=True)
class MatrixCalculusReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def matrix_calculus_checks(
    kappa,
    pair_mn: tuple[int, int],
    pair_pq: tuple[int, int],
    h: float = 1e-4,
    tol: float = 1e-6,
) -> MatrixCalculusReport:
    """Verify the correlation-derivative identities of Gamma = Theta^{-1} kappa Theta.

    Four facts, each checked by finite differences around the identity
    matrix: the inverse-derivative rule, the commutator limit of dGamma/drho,
    the zero diagonal of the mixed second derivative, and the diagonal of
    the pure second derivative.  Failures are reported, not raised.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    kmat = np.diag(kappa)
    i_mn = _pair_matrix(n, pair_mn)
    i_pq = _pair_matrix(n, pair_pq)

    def gamma_of(corr: np.ndarray) -> np.ndarray:
        return np.linalg.inv(corr) @ kmat @ corr

    eye = np.eye(n)

    # Fact 1: d(Theta^{-1})/drho = -Theta^{-1} dTheta/drho Theta^{-1}; at the
    # identity the right side is -I^{mn}.
    fd_inv = (np.linalg.inv(eye + h * i_mn) - np.linalg.inv(eye - h * i_mn)) / (2.0 * h)
    err1 = float(np.max(np.abs(fd_inv + i_mn)))

    # Fact 2: dGamma/drho -> kappa I^{mn} - I^{mn} kappa.
    fd_g = (gamma_of(eye + h * i_mn) - gamma_of(eye - h * i_mn)) / (2.0 * h)
    err2 = float(np.max(np.abs(fd_g - (kmat @ i_mn - i_mn @ kmat))))

    # Fact 3: the mixed second derivative has zero diagonal.
    fd_mixed = (
        gamma_of(eye + h * i_mn + h * i_pq)
        - gamma_of(eye + h * i_mn - h * i_pq)
        - gamma_of(eye - h * i_mn + h * i_pq)
        + gamma_of(eye - h * i_mn - h * i_pq)
    ) / (4.0 * h**2)
    err3 = float(np.max(np.abs(np.diag(fd_mixed))))

    # Fact 4: pure second derivative diagonal P_ii = 2 [kappa_i - kappa_j]
    # on the pair's indices, zero elsewhere.
    fd_pure = (gamma_of(eye + h * i_mn) - 2.0 * gamma_of(eye) + gamma_of(eye - h * i_mn)) / h**2
    m, nn = pair_mn
    p_diag = np.zeros(n)
    p_diag[m] = 2.0 * (kappa[m] - kappa[nn])
    p_diag[nn] = 2.0 * (kappa[nn] - kappa[m])
    err4 = float(np.max(np.abs(np.diag(fd_pure) - p_diag)))

    return MatrixCalculusReport(checks=(
        FactCheck("inverse_derivative_rule", err1, tol),
        FactCheck("gamma_first_derivative_commutator", err2, tol),
        FactCheck("gamma_mixed_second_zero_diagonal", err3, tol),
        FactCheck("gamma_pure_second_diagonal", err4, tol),
    ))


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
                cells[i, j] = value_at_mean(1.0, 0.0, a, prefs)
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
