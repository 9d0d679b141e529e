"""Closed-form oracles and identities: the one table behind ``meanrev verify``.

``CHECKS`` maps each check name ``meanrev verify`` reports to its check
function.  A check takes its case grid as keyword arguments, whose defaults
are the cases ``verify`` runs, and returns a ``Check``: the worst error it
measured, the bound it may not exceed, and a one-line detail.  The
acceptance criteria and the unit tests call the same functions with their
own grids, so each oracle is written once.

A check that combines bounds of different scales (a matrix error and a
relative blow-up time) reports its worst error as a multiple of each bound,
against a bound of 1.  A violated sign condition or a missed blow-up is an
infinite error.

Every reference is independent of the code path it checks: the D-, F-
and Q-equations and the lambda ODE are integrated by ``reference_solve``
(scipy's DOP853 at rtol = atol = 1e-12), not by the package's own
Dormand-Prince solve of the symmetric form; the matrix-exponential
propagator behind the correlation derivatives is held to ``phi_diagonal``,
which is built from the closed forms of Psi and lambda and integrated by
scipy's RK45.  This module alone imports scipy.

No config reaches an oracle directly, so its own argument checks raise a
plain ``ValueError`` and a failed reference integration a ``RuntimeError``,
not a ``ValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import block_diag

from .analysis import (
    corr_sensitivity,
    lambda_closed_form,
    pair_matrix,
    psi_closed_form,
    psi_integral,
    psi_property,
)
from ._fork import fork_map
from .errors import BlowUpDetected, TrigSingularity
from .model import OUParams, Preferences
from .riccati import (
    d_common_kappa,
    d_scalar_closed_form,
    d_single_mr,
    d_uncorrelated,
    make_S_operator,
    s_view,
    single_mr_blowup_tau,
    solve,
    solve_A,
    solve_D,
)

TAUS = np.linspace(0.0, 3.0, 61)
RHOS = (-0.8, 0.0, 0.5, 0.9)
FD_STEP = 1e-5  # central-difference step of the Psi-equation residual
PSI_TAUS = np.linspace(FD_STEP, 3.0, 121)
SOLVER_TOL = 1e-8  # solver against a closed form or a reference solve
POLE_TOL = 1e-9  # relative error of a located blow-up time

TRIO_NOTE = (
    "curvature of J is positive on both sides of gamma = 0 (uncorrelated "
    "point minimizes J); the gamma-signed curvature holds for log|J|"
)


@dataclass(frozen=True)
class Check:
    """Outcome of one check; it passes when ``error <= tol``."""

    error: float
    tol: float
    detail: str

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tol)


def unit_noise(kappa, corr) -> OUParams:
    """Model with unit volatilities and zero means."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.size
    return OUParams(n=n, kappa=kappa, sigma=np.ones(n), theta=np.zeros(n), corr=corr)


def pair_corr(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def _random_cases() -> tuple:
    """Five random unit-noise models of 1 to 3 assets with a risk exponent each."""
    rng = np.random.default_rng(12345)
    cases = []
    for _ in range(5):
        n = int(rng.integers(1, 4))
        w = rng.standard_normal((n, n + 2))
        c = w @ w.T
        d = np.sqrt(np.diag(c))
        corr = c / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        params = unit_noise(rng.uniform(0.3, 1.5, n), corr)
        cases.append((params, Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))))
    return tuple(cases)


RANDOM_CASES = _random_cases()


def _worst(sol, taus, closed) -> float:
    return max(float(np.max(np.abs(sol.interpolate(tau) - closed(tau)))) for tau in taus)


# ---------------------------------------------------------------------------
# Reference integration
# ---------------------------------------------------------------------------

def reference_solve(rhs, m0: np.ndarray, horizon: float, taus) -> np.ndarray:
    """M(tau) of M' = rhs(tau, M), M(0) = m0, at ``taus``; shape (len(taus), *m0.shape).

    DOP853 at rtol = atol = 1e-12: another method, at a tighter tolerance,
    than the package's own solve.
    """
    shape = m0.shape
    res = solve_ivp(lambda tau, y: rhs(tau, y.reshape(shape)).ravel(), (0.0, horizon),
                    m0.ravel(), method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True)
    return np.moveaxis(res.sol(np.asarray(taus, dtype=float)).reshape(*shape, -1), -1, 0)


def d_equation(params: OUParams, prefs: Preferences):
    """Right-hand side and initial value of the feedback equation
    D' = -D' Theta D + delta K Theta^{-1} K, D(0) = delta Theta^{-1} K."""
    corr, kmat, delta = params.corr, np.diag(params.kappa), prefs.delta
    const = delta * kmat @ params.corr_inv @ kmat
    return (lambda tau, d: -d.T @ corr @ d + const), delta * params.corr_inv @ kmat


def q_equation(true_params: OUParams, est, prefs: Preferences, epsilon: float):
    """Right-hand side and initial value of the non-symmetric moment equation
    Q' = S Theta S / 2 + (eps b' Theta - K) S + eps (eps - 1) b' Theta b / 2 - eps b' K,
    S = Q + Q', on the state diag(Q, Dh, T): b = -(r r') o Dh, r = sigma / est.sigma,
    Dh solves the estimates' ``d_equation`` and T' = Tr(Q Theta)."""
    n, corr, kmat = true_params.n, true_params.corr, np.diag(true_params.kappa)
    d_rhs, d0 = d_equation(est, prefs)
    r = true_params.sigma / est.sigma

    def rhs(tau, y):
        q, d_hat, out = y[:n, :n], y[n:-1, n:-1], np.zeros_like(y)
        s, b = q + q.T, -np.outer(r, r) * d_hat
        out[:n, :n] = (0.5 * s @ corr @ s + (epsilon * b.T @ corr - kmat) @ s
                       + 0.5 * epsilon * (epsilon - 1.0) * b.T @ corr @ b - epsilon * b.T @ kmat)
        out[n:-1, n:-1] = d_rhs(tau, d_hat)
        out[-1, -1] = np.trace(q @ corr)
        return out

    return rhs, block_diag(np.zeros((n, n)), d0, 0.0)


def f_equation(params: OUParams, prefs: Preferences):
    """Right-hand side and initial value of the sensitivity equation
    F' = 2F^2 - delta(K F + F Gamma) + delta(delta-1)/2 K Gamma, F(0) = 0,
    with Gamma = Theta^{-1} K Theta."""
    kmat, delta = np.diag(params.kappa), prefs.delta
    gam = params.corr_inv @ kmat @ params.corr
    const = 0.5 * delta * (delta - 1.0) * kmat @ gam
    return ((lambda tau, f: 2.0 * f @ f - delta * (kmat @ f + f @ gam) + const),
            np.zeros((params.n, params.n)))


def lambda_reference(kappa_i, kappa_j, delta, horizon: float, taus) -> np.ndarray:
    """lambda(tau) at ``taus`` from its linear ODE
    lambda' = lambda (2 Psi_i + 2 Psi_j - delta (kappa_i + kappa_j))
              - delta (kappa_i - kappa_j) (Psi_i + (1 - delta) kappa_i / 2),
    lambda(0) = 0; shape (len(taus), cases).

    Entry c of the equal-length arrays ``kappa_i``, ``kappa_j`` and ``delta``
    is one case; all cases are integrated as one system.
    """
    kappa_i, kappa_j, delta = (np.asarray(x, dtype=float) for x in (kappa_i, kappa_j, delta))

    def rhs(tau, y):
        tau = np.asarray(tau)  # the closed forms then return one value per case
        rate = (2.0 * psi_closed_form(kappa_i, delta, tau) + 2.0 * psi_closed_form(kappa_j, delta, tau)
                - delta * (kappa_i + kappa_j))
        return y * rate - delta * (kappa_i - kappa_j) * psi_property(kappa_i, delta, tau)

    return reference_solve(rhs, np.zeros(kappa_i.size), horizon, taus)


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


# ---------------------------------------------------------------------------
# Feedback-matrix oracles
# ---------------------------------------------------------------------------

def scalar_oracle(kappa: float = 0.8, deltas=(0.2, 1.0, 2.0), taus=TAUS) -> Check:
    """One asset: the solver's D against the scalar closed form."""
    worst = 0.0
    for delta in deltas:
        sol = solve_D(unit_noise([kappa], np.eye(1)), Preferences.from_delta(delta), taus[-1])
        worst = max(worst, _worst(sol, taus, lambda tau: d_scalar_closed_form(kappa, delta, tau)))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


def uncorrelated_oracle(cases=(((0.4, 1.0, 1.6), 0.2),), taus=TAUS) -> Check:
    """Independent assets, one (kappas, delta) per case: D is diagonal."""
    worst = 0.0
    for kappas, delta in cases:
        sol = solve_D(unit_noise(kappas, np.eye(len(kappas))), Preferences.from_delta(delta), taus[-1])
        worst = max(worst, _worst(sol, taus, lambda tau: d_uncorrelated(kappas, delta, tau)))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


def common_kappa_oracle(kappa: float = 0.7, rhos=RHOS, deltas=(2.0,), taus=TAUS) -> Check:
    """Two assets sharing one reversion rate: D = D_scalar Theta^{-1}."""
    worst = 0.0
    for delta in deltas:
        for rho in rhos:
            corr = pair_corr(rho)
            sol = solve_D(unit_noise([kappa, kappa], corr), Preferences.from_delta(delta), taus[-1])
            worst = max(worst, _worst(sol, taus, lambda tau: d_common_kappa(kappa, corr, delta, tau)))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


def single_mr_oracle(rhos=RHOS, deltas=(2.0,), taus=TAUS) -> Check:
    """One mean-reverting asset hedged by a Brownian one (Kim-Omberg branches).

    Where the risk-seeking branch has a pole inside the horizon, the solve
    stops at 98 % of it and D is compared up to 90 % of it, on the grid
    points there plus as many evenly spaced ones.
    """
    taus = np.asarray(taus, dtype=float)
    horizon, worst = taus[-1], 0.0
    for delta in deltas:
        prefs = Preferences.from_delta(delta)
        for rho in rhos:
            corr = pair_corr(rho)
            pole = single_mr_blowup_tau(1.0, corr, prefs.gamma)
            span = horizon if pole is None else min(horizon, 0.9 * pole)
            stop = horizon if pole is None else min(horizon, 0.98 * pole)
            try:
                sol = solve_D(unit_noise([1.0, 0.0], corr), prefs, stop)
            except BlowUpDetected as exc:
                return Check(np.inf, SOLVER_TOL, f"blow-up at {exc.tau_star:.6g} before the pole")
            grid = np.union1d(taus[taus <= span], np.linspace(0.0, span, taus.size))
            worst = max(worst, _worst(sol, grid, lambda tau: d_single_mr(1.0, corr, prefs.gamma, tau)))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


def single_mr_pole(rhos=RHOS, deltas=(2.0,), horizon: float = 3.0) -> Check:
    """The solver's blow-up time against the closed-form pole, relative error.

    Every closed-form pole inside the horizon must also stop the closed form
    itself (``TrigSingularity``) and be where the solver reports blow-up.
    """
    worst, problems = 0.0, []
    for delta in deltas:
        prefs = Preferences.from_delta(delta)
        for rho in rhos:
            corr = pair_corr(rho)
            pole = single_mr_blowup_tau(1.0, corr, prefs.gamma)
            if pole is None or pole >= horizon:
                continue
            try:
                d_single_mr(1.0, corr, prefs.gamma, pole)
                problems.append(f"closed form evaluated at its pole {pole:.6g}")
            except TrigSingularity:
                pass
            try:
                solve_D(unit_noise([1.0, 0.0], corr), prefs, horizon)
                problems.append(f"missed finite-time pole at {pole:.6g}")
            except BlowUpDetected as exc:
                worst = max(worst, abs(exc.tau_star - pole) / pole)
    error = np.inf if problems else worst
    return Check(error, POLE_TOL, "; ".join(problems) or f"max rel err {worst:.2e}")


def structured_oracles(deltas=(2.0,), rhos=RHOS, uncorrelated=(((0.4, 1.0, 1.6), 0.2),),
                       taus=TAUS) -> Check:
    """Common-kappa, single-mean-reverting and uncorrelated D, and the pole.

    The error is the worst part's error as a multiple of that part's bound.
    """
    parts = {
        "common_kappa": common_kappa_oracle(rhos=rhos, deltas=deltas, taus=taus),
        "single_mr": single_mr_oracle(rhos=rhos, deltas=deltas, taus=taus),
        "pole": single_mr_pole(rhos=rhos, deltas=deltas, horizon=taus[-1]),
        "uncorrelated": uncorrelated_oracle(uncorrelated, taus=taus),
    }
    detail = "; ".join(f"{name} {c.detail} (tol {c.tol:.0e})" for name, c in parts.items())
    return Check(max(c.error / c.tol for c in parts.values()), 1.0, detail)


def log_utility_fixed_point(rhos=(0.6,), kappa=(1.0, 0.5), taus=TAUS) -> Check:
    """Log utility (gamma = 0): D stays at Theta^{-1} K."""
    worst = 0.0
    for rho in rhos:
        params = unit_noise(kappa, pair_corr(rho))
        fixed = params.corr_inv @ np.diag(params.kappa)
        sol = solve_D(params, Preferences(gamma=0.0), taus[-1])
        worst = max(worst, _worst(sol, taus, lambda tau: fixed))
    return Check(worst, 1e-10, f"max err {worst:.2e}")


def a_d_consistency(cases=RANDOM_CASES, taus=np.linspace(0.0, 2.0, 21)) -> Check:
    """D and delta Theta^{-1} K - (A + A') against the integrated D-equation.

    ``cases`` are (unit-noise params, prefs) pairs.
    """
    worst = 0.0
    for params, prefs in cases:
        s = solve(make_S_operator(params, prefs), taus[-1])
        a, d = (s_view(s, which, params, prefs) for which in "AD")
        base = prefs.delta * params.corr_inv @ np.diag(params.kappa)
        ref, am = reference_solve(*d_equation(params, prefs), taus[-1], taus), a.interpolate(taus)
        worst = max(worst, np.max(np.abs(d.interpolate(taus) - ref)),
                    np.max(np.abs(base - (am + am.swapaxes(1, 2)) - ref)))
    return Check(float(worst), SOLVER_TOL, f"max err {worst:.2e}")


def f_consistency(cases=RANDOM_CASES, taus=np.linspace(0.0, 2.0, 21)) -> Check:
    """F = A Theta against the integrated F-equation; ``cases`` as in
    ``a_d_consistency``."""
    worst = 0.0
    for params, prefs in cases:
        a = solve_A(params, prefs, taus[-1])
        ref = reference_solve(*f_equation(params, prefs), taus[-1], taus)
        worst = max(worst, np.max(np.abs(a.interpolate(taus) @ params.corr - ref)))
    return Check(float(worst), SOLVER_TOL, f"max err {worst:.2e}")


# ---------------------------------------------------------------------------
# Zero-correlation closed forms and correlation derivatives
# ---------------------------------------------------------------------------

def psi_ode_residual(deltas=(0.2, 2.0, 4.0), kappas=(0.5, 1.0), taus=PSI_TAUS) -> Check:
    """Psi solves Psi' = 2 Psi^2 - 2 delta kappa Psi + delta(delta-1) kappa^2 / 2,
    by central differences of step ``FD_STEP``."""
    worst = 0.0
    for delta in deltas:
        for kappa in kappas:
            psi = psi_closed_form(kappa, delta, taus)
            dnum = (psi_closed_form(kappa, delta, taus + FD_STEP)
                    - psi_closed_form(kappa, delta, taus - FD_STEP)) / (2.0 * FD_STEP)
            resid = dnum - (2.0 * psi**2 - 2.0 * delta * kappa * psi
                            + 0.5 * delta * (delta - 1.0) * kappa**2)
            worst = max(worst, float(np.max(np.abs(resid))))
    return Check(worst, SOLVER_TOL, f"max resid {worst:.2e}")


def psi_property_identity(deltas=(0.2, 2.0, 4.0), kappas=(0.5, 1.0), taus=PSI_TAUS) -> Check:
    """Psi + (1 - delta) kappa / 2 equals its product form."""
    worst = 0.0
    for delta in deltas:
        for kappa in kappas:
            lhs = psi_closed_form(kappa, delta, taus) + 0.5 * (1.0 - delta) * kappa
            worst = max(worst, float(np.max(np.abs(lhs - psi_property(kappa, delta, taus)))))
    return Check(worst, 1e-12, f"max err {worst:.2e}")


def psi_integral_quadrature(kappa: float = 1.0, deltas=(4.0,), horizon: float = 2.0) -> Check:
    """The antiderivative of Psi against adaptive quadrature."""
    worst = 0.0
    for delta in deltas:
        q, _ = quad(lambda s: psi_closed_form(kappa, delta, s), 0.0, horizon, limit=200)
        worst = max(worst, abs(q - psi_integral(kappa, delta, horizon)))
    return Check(worst, 1e-10, f"err {worst:.2e}")


def lambda_oracle(kappas_i=(0.5, 1.0, 2.0), kappas_j=(0.4, 1.0, 1.7), deltas=(0.2, 2.0, 4.0),
                  taus=np.linspace(0.0, 3.0, 16)) -> Check:
    """lambda's closed form against its integrated ODE, on every
    (kappa_i, kappa_j, delta) of the three grids."""
    ki, kj, delta = np.array(list(product(kappas_i, kappas_j, deltas))).T
    ref = lambda_reference(ki, kj, delta, taus[-1], taus)
    worst = float(np.max(np.abs(ref - lambda_closed_form(ki, kj, delta, np.asarray(taus)[:, None]))))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


def phi_integral_signs(kappas=(1.0, 0.5), horizon: float = 3.0) -> Check:
    """The integral of phi_ii + phi_jj is positive for delta > 1, negative for
    delta < 1, and zero at delta = 1 or equal reversion rates."""
    ki, kj = kappas
    pos = phi_diagonal(ki, kj, 4.0, horizon)
    neg = phi_diagonal(ki, kj, 0.2, horizon)
    zero_d = phi_diagonal(ki, kj, 1.0, horizon)
    zero_k = phi_diagonal(0.8, 0.8, 4.0, horizon)
    error = max(abs(zero_d), abs(zero_k)) if pos > 0 and neg < 0 else np.inf
    return Check(error, 1e-10, f"pos {pos:.3e}, neg {neg:.3e}, zeros {zero_d:.1e}/{zero_k:.1e}")


def matrix_calculus_identities(kappa=(1.0, 0.5, 2.0), pair_mn=(0, 1), pair_pq=(1, 2)) -> Check:
    """The correlation-derivative identities of Gamma = Theta^{-1} K Theta.

    Four facts, each checked by central differences of step 1e-4 around the
    identity matrix: the inverse-derivative rule, the commutator limit of
    dGamma/drho, the zero diagonal of the mixed second derivative (distinct
    pairs), and the diagonal of the pure second derivative.
    """
    kappa = np.asarray(kappa, dtype=float)
    n, h = kappa.size, 1e-4
    kmat, eye = np.diag(kappa), np.eye(n)
    i_mn, i_pq = pair_matrix(n, pair_mn), pair_matrix(n, pair_pq)

    def gamma_of(corr: np.ndarray) -> np.ndarray:
        return np.linalg.inv(corr) @ kmat @ corr

    # d(Theta^{-1})/drho = -Theta^{-1} dTheta/drho Theta^{-1}, which is -I^{mn}
    # at the identity.
    fd_inv = (np.linalg.inv(eye + h * i_mn) - np.linalg.inv(eye - h * i_mn)) / (2.0 * h)
    # dGamma/drho -> K I^{mn} - I^{mn} K.
    fd_g = (gamma_of(eye + h * i_mn) - gamma_of(eye - h * i_mn)) / (2.0 * h)
    fd_mixed = (
        gamma_of(eye + h * i_mn + h * i_pq)
        - gamma_of(eye + h * i_mn - h * i_pq)
        - gamma_of(eye - h * i_mn + h * i_pq)
        + gamma_of(eye - h * i_mn - h * i_pq)
    ) / (4.0 * h**2)
    # The pure second derivative has diagonal 2 (kappa_m - kappa_n) at m,
    # 2 (kappa_n - kappa_m) at n and zero elsewhere.
    fd_pure = (gamma_of(eye + h * i_mn) - 2.0 * gamma_of(eye) + gamma_of(eye - h * i_mn)) / h**2
    m, nn = pair_mn
    p_diag = np.zeros(n)
    p_diag[m] = 2.0 * (kappa[m] - kappa[nn])
    p_diag[nn] = 2.0 * (kappa[nn] - kappa[m])
    errors = {
        "inverse_derivative_rule": np.max(np.abs(fd_inv + i_mn)),
        "gamma_first_derivative_commutator": np.max(np.abs(fd_g - (kmat @ i_mn - i_mn @ kmat))),
        "gamma_mixed_second_zero_diagonal": np.max(np.abs(np.diag(fd_mixed))),
        "gamma_pure_second_diagonal": np.max(np.abs(np.diag(fd_pure) - p_diag)),
    }
    return Check(float(max(errors.values())), 1e-6,
                 "; ".join(f"{name} {err:.2e}" for name, err in errors.items()))


def correlation_minimum_trio(gammas=(-4.0, 0.5), kappa_pairs=((1.0, 0.5), (1.0, 1.0)),
                             horizon: float = 2.0) -> Check:
    """At the uncorrelated point the first correlation derivative of J vanishes,
    J is convex, and the curvature of log|J| has the sign of gamma (zero for
    equal reversion rates).

    The error is the largest first derivative of log|J| and equal-rate
    curvature of log|J|; both vanish exactly, so they are held to 1e-12.
    """
    worst, signs_ok, details = 0.0, True, []
    for gamma in gammas:
        for kpair in kappa_pairs:
            r = corr_sensitivity(unit_noise(kpair, np.eye(2)), Preferences(gamma=gamma), horizon, (0, 1))
            worst = max(worst, abs(r.first_derivative / r.value))
            if kpair[0] == kpair[1]:
                worst = max(worst, abs(r.log_second_derivative))
            else:
                signs_ok &= bool(np.sign(r.log_second_derivative) == np.sign(gamma)
                                 and r.second_derivative > 0)
            details.append(f"g={gamma:g} k={kpair}: d1={r.first_derivative:.1e} "
                           f"d2J={r.second_derivative:.3e} "
                           f"d2logJ={r.log_second_derivative:.3e}")
    return Check(worst if signs_ok else np.inf, 1e-12, "; ".join(details))


def corr_curvature_phi(gammas=(-4.0, 0.5), kappa_pairs=((1.0, 0.5), (2.0, 0.5)),
                       horizon: float = 2.0) -> Check:
    """At the uncorrelated point, delta times the curvature of log|J| that
    ``corr_sensitivity`` steps through matrix exponentials equals the integral
    of phi_ii + phi_jj, which ``phi_diagonal`` builds from the closed forms of
    Psi and lambda."""
    worst = 0.0
    for gamma in gammas:
        prefs = Preferences(gamma=gamma)
        for kpair in kappa_pairs:
            r = corr_sensitivity(unit_noise(kpair, np.eye(2)), prefs, horizon, (0, 1))
            worst = max(worst, abs(prefs.delta * r.log_second_derivative
                                   - phi_diagonal(*kpair, prefs.delta, horizon)))
    return Check(worst, SOLVER_TOL, f"max err {worst:.2e}")


CHECKS = {
    "scalar_oracle": scalar_oracle,
    "structured_oracles": structured_oracles,
    "log_utility_fixed_point": log_utility_fixed_point,
    "a_d_consistency": a_d_consistency,
    "f_consistency": f_consistency,
    "psi_ode_residual": psi_ode_residual,
    "psi_property_identity": psi_property_identity,
    "psi_integral_quadrature": psi_integral_quadrature,
    "lambda_oracle": lambda_oracle,
    "phi_integral_signs": phi_integral_signs,
    "matrix_calculus_identities": matrix_calculus_identities,
    "correlation_minimum_trio": correlation_minimum_trio,
    "corr_curvature_phi": corr_curvature_phi,
}


def run_verification() -> dict:
    """Every check of ``CHECKS`` on its default cases: name -> result record,
    in ``CHECKS`` order.  The checks run through ``fork_map`` on forked
    workers."""
    names = list(CHECKS)
    report = {}
    for name, c in zip(names, fork_map(lambda k: CHECKS[names[k]](), len(names))):
        report[name] = {"passed": c.passed, "detail": c.detail,
                        "error": float(c.error), "tol": float(c.tol)}
    report["correlation_minimum_trio"]["note"] = TRIO_NOTE
    return report
