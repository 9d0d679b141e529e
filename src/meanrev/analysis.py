"""Correlation-sensitivity machinery and zero-correlation closed forms.

The value function, viewed through F = (A + A')Theta/2 = A Theta, is
stationary in every pairwise correlation at Theta = I, and the curvature
there carries the sign of the risk-aversion exponent.  This module
implements the diagonal-limit closed forms (Psi, lambda) used to establish
those facts, and builds the correlation generators of each index pair, from
which ``control.mean_value_pass`` gives the value at the mean and its exact
correlation derivatives.  It also produces the sweep data behind the
position-multiplier and value-surface figures, from ``control.value_at_mean``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .control import mean_value_pass, value_at_mean
from .errors import (BlowUpDetected, NotPositiveDefinite, OutOfDomain, OutOfHorizon, ValueOverflow,
                     ValueUnderflow)
from .grids import SensitivityGrid
from .model import OUParams, Preferences, check_positive
from .riccati import d_scalar_closed_form


def _omega(delta: float) -> float:
    rd = np.sqrt(delta)
    return (1.0 - rd) / (1.0 + rd)


def psi_closed_form(kappa: float, delta: float, tau) -> np.ndarray | float:
    """Diagonal entry of F at zero correlation.

    Psi = kappa sqrt(d)(sqrt(d)-1)/2 * (e^{2u}-1)/(e^{2u}+omega), u = kappa
    sqrt(d) tau; evaluated with e^{-2u} so large horizons cannot overflow.
    A closed form that no config reaches, so delta <= 0 raises a plain
    ``ValueError``.
    """
    if np.any(np.asarray(delta) <= 0):
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
    through log1p of e^{-2u} terms for stability.  Like ``psi_closed_form``,
    delta <= 0 raises a plain ``ValueError``.
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


@dataclass(frozen=True)
class CorrSensitivityReport:
    """Correlation derivatives of the value at the mean, J = J(1, theta, 0).

    ``first_derivative`` and ``second_derivative`` are derivatives of J in
    the correlation of ``pair``, and ``mixed_derivatives`` maps every other
    index pair (p, q), p < q, to the mixed second partial of J.  The ``log_``
    fields are the same quantities for log|J|; they stay finite at horizons
    where J underflows and its own derivatives read 0.
    """

    pair: tuple[int, int]
    value: float
    log_value: float
    first_derivative: float
    log_first_derivative: float
    second_derivative: float
    log_second_derivative: float
    mixed_derivatives: dict = field(default_factory=dict)  # (p, q) -> value
    log_mixed_derivatives: dict = field(default_factory=dict)  # (p, q) -> value


def pair_matrix(n: int, pair: tuple[int, int]) -> np.ndarray:
    """I^{pq}: the derivative of the correlation matrix in its (p, q) entry."""
    m = np.zeros((n, n))
    i, j = pair
    m[i, j] = m[j, i] = 1.0
    return m


def check_pair(n: int, pair) -> tuple[int, int]:
    """``pair`` as two distinct asset indices in [0, n); ``OutOfDomain`` otherwise."""
    p = np.asarray(pair)
    if not (p.shape == (2,) and np.issubdtype(p.dtype, np.integer)
            and p.min() >= 0 and p.max() < n and p[0] != p[1]):
        raise OutOfDomain(f"pair {pair} is not two distinct asset indices in [0, {n})")
    return int(p[0]), int(p[1])


def corr_sensitivity(
    params: OUParams,
    prefs: Preferences,
    horizon: float,
    pair: tuple[int, int],
) -> CorrSensitivityReport:
    """Correlation derivatives of J(1, theta, 0) at the model's correlation matrix.

    J and its derivatives in every pair's correlation, ``pair`` first, come from
    one ``control.mean_value_pass`` along the generators of the pairs a: with
    E_a = I^{pq}, c = delta(delta - 1), dH/drho_a has -E_a top right and
    -c K Theta^{-1} E_a Theta^{-1} K bottom left, and d2H/drho_0 drho_a has
    c K Theta^{-1} (E_0 Theta^{-1} E_a + E_a Theta^{-1} E_0) Theta^{-1} K bottom
    left.  The pass raises ``BlowUpDetected`` with the tau* of the first pole
    of S before the horizon and ``ValueOverflow`` where J is past the largest
    double; where J underflows nothing is raised, and the ``log_`` fields stay
    finite.

    Two curvatures are reported.  ``second_derivative`` is the curvature of
    J itself, positive on both sides of gamma = 0 at Theta = I (the
    uncorrelated point minimizes J).  ``log_second_derivative`` is the
    curvature of log|J|; at Theta = I it is the integral of the pure second
    derivative of F's diagonal over delta, its sign equals sign(gamma) when
    the reversion rates of the pair differ, and it vanishes when they
    coincide.
    """
    n = params.n
    key = tuple(sorted(check_pair(n, pair)))
    others = [(p, q) for p in range(n) for q in range(p + 1, n) if (p, q) != key]
    e = np.array([pair_matrix(n, a) for a in [key, *others]])  # (m, n, n)
    ci, kk, c = params.corr_inv, np.outer(params.kappa, params.kappa), prefs.delta * (prefs.delta - 1.0)
    h1, h2 = np.zeros((2, len(e), 2 * n, 2 * n))
    h1[:, :n, n:] = -e
    h1[:, n:, :n] = -c * kk * (ci @ e @ ci)
    h2[:, n:, :n] = c * kk * (ci @ e[:1] @ ci @ e @ ci + ci @ e @ ci @ e[:1] @ ci)
    value, log_gamma_j, l1, l2 = mean_value_pass(params, prefs, horizon, h1, h2)
    return CorrSensitivityReport(
        pair=pair, value=value, log_value=log_gamma_j - float(np.log(abs(prefs.gamma))),
        # + 0.0 turns the signed zero of a vanishing derivative into 0.0.
        first_derivative=value * l1[0] + 0.0,
        log_first_derivative=l1[0] + 0.0,
        second_derivative=value * (l2[0] + l1[0] ** 2),
        log_second_derivative=l2[0],
        mixed_derivatives={a: value * (l2[k] + l1[0] * l1[k]) for k, a in enumerate(others, 1)},
        log_mixed_derivatives={a: l2[k] for k, a in enumerate(others, 1)},
    )


def value_vs_kappa2_rho(params: OUParams, prefs: Preferences, horizon: float, kappa2_grid,
                        rho_grid, pair: tuple[int, int] = (0, 1)) -> SensitivityGrid:
    """Cell (i, j) is ``value_at_mean`` of ``params`` with kappa[1] set to kappa2_grid[i]
    and the ``pair`` entry of Theta to rho_grid[j]; n >= 2 (``OutOfDomain``).

    A cell whose Theta is not positive definite, whose S has a pole before
    the horizon, or whose value overflows or underflows is NaN with its reason
    in ``failures``; an empty axis raises ``OutOfDomain``.  The horizon is
    checked first, so a grid of failing cells cannot hide a bad one.
    """
    check_positive(horizon, "horizon")
    if params.n < 2:
        raise OutOfDomain("the sweep sets a second reversion rate; need n >= 2")
    p, q = check_pair(params.n, pair)
    k2 = np.asarray(kappa2_grid, dtype=float)
    rho = np.asarray(rho_grid, dtype=float)
    if k2.size == 0 or rho.size == 0:
        raise OutOfDomain("the kappa2 and rho axes need at least one value each")
    cells = np.empty((k2.size, rho.size))
    failures: dict = {}
    for i, k in enumerate(k2):
        kappa = params.kappa.copy()
        kappa[1] = k
        for j, r in enumerate(rho):
            corr = params.corr.copy()
            corr[p, q] = corr[q, p] = r
            try:
                cells[i, j] = value_at_mean(replace(params, kappa=kappa, corr=corr), prefs, horizon)
            except (NotPositiveDefinite, BlowUpDetected, ValueOverflow, ValueUnderflow) as exc:
                cells[i, j] = np.nan
                failures[(i, j)] = str(exc)
    return SensitivityGrid(
        axis1_name="kappa2", axis1=k2, axis2_name="rho", axis2=rho, cells=cells,
        metadata={"quantity": "value_at_mean", "gamma": prefs.gamma, "horizon": horizon},
        failures=failures,
    )


def d_curve_1d(kappa: float, gammas, horizon: float, times) -> SensitivityGrid:
    """Scalar position multiplier D(T - t) per risk aversion over a time grid.

    Flat at kappa for the log-utility trader, decreasing toward the terminal
    time for gamma < 0, increasing for 0 < gamma < 1.
    """
    horizon = check_positive(horizon, "horizon")
    g = np.asarray(gammas, dtype=float)
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0.0) & (t <= horizon)):
        raise OutOfHorizon(f"times must lie in [0, {horizon}]")
    cells = np.empty((g.size, t.size))
    for i, gamma in enumerate(g):
        delta = Preferences(gamma=gamma).delta
        cells[i] = np.array([d_scalar_closed_form(kappa, delta, horizon - tt) for tt in t])
    return SensitivityGrid(
        axis1_name="gamma", axis1=g, axis2_name="t", axis2=t, cells=cells,
        metadata={"quantity": "scalar_position_multiplier", "kappa": kappa, "horizon": horizon},
    )
