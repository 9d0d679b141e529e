"""Correlation-sensitivity machinery and zero-correlation closed forms.

The value function, viewed through F = (A + A')Theta/2 = A Theta, is
stationary in every pairwise correlation at Theta = I, and the curvature
there carries the sign of the risk-aversion exponent.  This module
implements the diagonal-limit closed forms (Psi, lambda) used to establish
those facts, and takes the value at the mean and its exact correlation
derivatives from the linear embedding of the S-equation, stepped with
matrix exponentials (``_expm``: Higham's scaling-and-squaring [13/13] Pade
approximant, in numpy).  The same steps count the poles of S (the positive
eigenvalues of G^{-1} Phi_12 per step) and locate the first one inside the
step that counts it, so no Riccati solve of S runs here.  It also produces
the sweep data behind the position-multiplier and value-surface figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BlowUpDetected, NotPositiveDefinite, OutOfDomain, OutOfHorizon, ValueOverflow
from .grids import SensitivityGrid
from .model import OUParams, Preferences, check_positive
from .riccati import brent_root, d_scalar_closed_form, make_S_operator

# The [13/13] Pade approximant to exp (Higham, SIAM J. Matrix Anal. Appl.
# 26(4), 2005): its coefficients b_0 .. b_13 as the rows of U = a (a6 W_0 + W_1)
# and V = a6 W_2 + W_3, W_i = _PADE13 @ (I, a2, a4, a6); the bound on the norm
# of a that it takes unscaled; and 1 / |c_27|, c_27 the leading coefficient of
# its backward-error series (Al-Mohy and Higham, ibid. 31(3), 2009).
_PADE13 = np.array([
    [0.0, 40840800.0, 16380.0, 1.0],
    [32382376266240000.0, 1187353796428800.0, 10559470521600.0, 33522128640.0],
    [0.0, 1323241920.0, 960960.0, 182.0],
    [64764752532480000.0, 7771770303897600.0, 129060195264000.0, 670442572800.0],
])
_THETA13 = 4.25
_C27_RECIPROCAL = 113250775606021113483283660800000000.0


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by the [13/13] Pade approximant r = (V - U)^{-1} (V + U) of a / 2^k,
    squared k = ``_squarings`` times."""
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    k = _squarings(a, a4, a6)
    if k:
        a, a2, a4, a6 = a / 2.0**k, a2 / 4.0**k, a4 / 16.0**k, a6 / 64.0**k
    n = a.shape[0]
    w = (_PADE13 @ np.stack((np.eye(n), a2, a4, a6)).reshape(4, n * n)).reshape(4, n, n)
    u = a @ (a6 @ w[0] + w[1])
    v = a6 @ w[2] + w[3]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(k):
        r = r @ r
    return r


def _squarings(a: np.ndarray, a4: np.ndarray, a6: np.ndarray) -> int:
    """The k of ``_expm``, after Al-Mohy and Higham (2009), with d_j = |a^j|_1^(1/j).

    None while |a|_1 <= theta_13.  Else the least k with eta / 2^k <= theta_13,
    eta = min(max(d6, d8), max(d8, d10)) bounded above by d8 <= d4 and
    d10 <= (|a^4|_1 |a^6|_1)^(1/10); for a non-normal a, eta is far below
    |a|_1, which saves squarings that would amplify rounding.  Then the
    halvings that bring the backward-error bound |c_27| |m^27|_1 / |m|_1,
    m = |a / 2^k|, below the unit roundoff 2^-53; none are needed while
    |m|_1 <= theta_13, and where m^27 could overflow, k is the least with
    |a / 2^k|_1 <= theta_13 instead (Higham's 2005 rule).
    """
    norm, norm4, norm6 = np.abs(np.stack((a, a4, a6))).sum(axis=1).max(axis=1).tolist()
    if norm <= _THETA13:
        return 0
    d4, d6 = norm4 ** (1 / 4), norm6 ** (1 / 6)
    eta = min(max(d6, d4), max(d4, (norm4 * norm6) ** (1 / 10)))
    k = math.ceil(math.log2(eta / _THETA13)) if eta > _THETA13 else 0
    scaled = norm / 2.0**k
    if scaled <= _THETA13:
        return k
    if scaled >= 2.0**37:  # |m^27|_1 could pass the largest double
        return math.ceil(math.log2(norm / _THETA13))
    m = np.abs(a) / 2.0**k
    m3 = m @ m @ m
    m9 = m3 @ m3 @ m3
    power = float((m9 @ m9 @ m9).sum(axis=0).max())
    if power == 0.0:
        return k
    log_alpha = math.log2(power) - math.log2(scaled * _C27_RECIPROCAL)
    return k + max(math.ceil((log_alpha + 53) / 26), 0)


def _pole_in_step(h: np.ndarray, s: np.ndarray, step: float) -> float:
    """r* in (0, step]: the first pole of S restarted from S(0) = s in a step of
    ``_embedding_pass``, as the zero of f(r) = lambda_max(N(r) + s),
    N = Phi_12(r)^{-1} Phi_11(r), Phi(r) = expm(r h).

    N + s = P^{-1} is finite and increasing in a step, which holds no conjugate
    point, and ~ -Theta^{-1} / r as r -> 0+ (see ``_embedding_pass``); so f
    rises from -inf and crosses 0 first at the first pole, also when two
    poles share the step.  Halving r from ``step`` brackets that zero from
    below, and ``brent_root`` finds it to the spacing of doubles.
    f(step) <= 0, which only rounding can give after the step counted a pole,
    returns ``step``.
    """
    n = len(s)

    def f(r):
        phi = _expm(r * h)
        q = np.linalg.solve(phi[:n, n:], phi[:n, :n]) + s
        return np.linalg.eigvalsh(0.5 * (q + q.T))[-1]

    if f(step) <= 0.0:
        return step
    lo = 0.5 * step
    while f(lo) >= 0.0:
        lo *= 0.5
    return brent_root(f, lo, step, xtol=np.finfo(float).eps * step)


def _embedding_pass(params: OUParams, prefs: Preferences, horizon: float, pairs: list):
    """log|gamma J(1, theta, 0)| and, per index pair a in ``pairs``, d log|J| / drho_a
    and d2 log|J| / drho_0 drho_a, from the linear embedding [U; V]' = H [U; V],
    U(0) = I, V(0) = 0, H = [[-M', -Theta], [C, M]], of the S-equation: S = V U^{-1}
    and log|gamma J| = (delta T tr K - log det U(T)) / (2 delta), where only H
    depends on the correlations.

    With E_a = I^{pq} for pair a and c = delta(delta - 1),
    dH/drho_a has -E_a top right and -c K Theta^{-1} E_a Theta^{-1} K bottom left;
    d2H/drho_0 drho_a has c K Theta^{-1} (E_0 Theta^{-1} E_a + E_a Theta^{-1} E_0)
    Theta^{-1} K bottom left.  The propagator of a step h is Phi = expm(hH), and
    one block-triangular ``expm`` per pair (Van Loan, 1978) gives its derivatives
    Phi_a, Phi_0, Phi_0a.  A step maps S to (Phi_21 + Phi_22 S) G^{-1},
    G = Phi_11 + Phi_12 S, and carries S_a and S_0a by the derivatives of that
    map, restarting from the S chart; log det U gains log det G, d log det U
    gains tr(G^{-1} G_a) and d2 log det U gains
    tr(G^{-1} G_0a) - tr(G^{-1} G_0 G^{-1} G_a).  With no pairs only Phi is stepped.

    Each step counts the poles of S inside it as the positive eigenvalues of
    the symmetric P = G^{-1} Phi_12.  The first step that counts one locates
    the first pole inside itself (``_pole_in_step``: the zero of the largest
    eigenvalue of P^{-1}, which rises through 0 there) and raises
    ``BlowUpDetected`` with that tau*; a singular G raises with the step's
    end.  A pass that counted a pole never returns a value.  One rule serves
    every gamma (for gamma < 0, C is negative semidefinite, S only decreases
    from 0, and no step counts a pole).

    Why the count is exact.  Restarted from [I; S_k], a step is
    X(r) = Phi_11(r) + Phi_12(r) S_k, and P(r)^{-1} = N(r) + S_k with
    N = Phi_12^{-1} Phi_11, symmetric and increasing (N' = Phi_12^{-1} Theta
    Phi_12^{-T}) because Phi is symplectic.  P(r) ~ -r Theta is negative
    definite as r -> 0+, so an eigenvalue of P turns positive only through
    -inf -> +inf, where P^{-1} crosses 0 upwards at a zero of det X (a pole),
    or through 0 at a zero of det Phi_12, a conjugate point of the principal
    solution [Phi_12; Phi_22].  No conjugate point lies in
    (0, pi / (delta |Omega|)), Omega the skew part of K~ = L^{-1} K L,
    Theta = L L': in those coordinates x = X v solves
    x'' = 2 delta Omega x' + delta K~'K~ x, so y = expm(-delta Omega r) x solves
    y'' = delta^2 Omega^2 y + (positive semidefinite) y, and y(0) = y(r) = 0
    gives (pi / r)^2 |y|^2 <= |y'|^2 <= delta^2 |Omega|^2 |y|^2 in L2
    (Wirtinger).  Omega = L^{-1} B L^{-T} with B = (K Theta - Theta K) / 2 has
    the eigenvalues of Theta^{-1} B, in pairs +-i omega_j, so
    |Omega| <= omega = sqrt(-tr((Theta^{-1} B)^2) / 2), with equality for
    n <= 3.  The horizon is cut into ceil(T max(rho(H), delta omega / 3)) equal
    steps, so every step has h delta |Omega| <= 3 < pi.  The rho(H) term sets
    the step count except near a nilpotent H (one mean-reverting asset with
    gamma (Theta^{-1})_11 close to 1).
    """
    horizon = check_positive(horizon, "horizon")
    if prefs.gamma == 0.0:
        raise OutOfDomain("exponent 0 (log utility) is served by log_utility_value")
    n = params.n
    e = np.array([pair_matrix(n, a) for a in pairs]).reshape(-1, n, n)  # (m, n, n)
    ci, kk, c = params.corr_inv, np.outer(params.kappa, params.kappa), prefs.delta * (prefs.delta - 1.0)
    m_s, c_s = make_S_operator(params, prefs).coefficients(0.0)
    h = np.block([[-m_s.T, -params.corr], [c_s, m_s]])
    h1, h2 = np.zeros((2, len(e), 2 * n, 2 * n))
    h1[:, :n, n:] = -e
    h1[:, n:, :n] = -c * kk * (ci @ e @ ci)
    h2[:, n:, :n] = c * kk * (ci @ e[:1] @ ci @ e @ ci + ci @ e @ ci @ e[:1] @ ci)
    w = ci @ (0.5 * (params.kappa[:, None] - params.kappa[None, :]) * params.corr)  # Theta^{-1} B
    omega = np.sqrt(max(-np.trace(w @ w), 0.0) / 2.0)
    rate = max(np.abs(np.linalg.eigvals(h)).max(), prefs.delta * omega / 3.0)
    steps = max(1, int(np.ceil(horizon * rate)))
    phi = _expm(horizon / steps * h)
    z = np.zeros_like(h)
    # Top block row of each pair's exponential: Phi, Phi_a, Phi_0, Phi_0a.
    tops = np.array([
        _expm(horizon / steps * np.block([[h, ha, h1[0], h0a], [z, h, z, h1[0]],
                                          [z, z, h, ha], [z, z, z, h]]))[:2 * n]
        for ha, h0a in zip(h1, h2)
    ]).reshape(len(e), 2 * n, 4, 2 * n).swapaxes(1, 2)
    phi1, phi0, phi2 = tops[:, 1], tops[:1, 2], tops[:, 3]

    s, s1, s2 = np.zeros((n, n)), np.zeros_like(e), np.zeros_like(e)
    d0, d1, d2 = 0.0, np.zeros(len(e)), np.zeros(len(e))
    for k in range(steps):
        y = np.vstack([np.eye(n), s])
        p = phi @ y  # [G; Phi_21 + Phi_22 S]
        sign, log_det = np.linalg.slogdet(p[:n])
        g_inv = np.linalg.inv(p[:n]) if sign else None
        # P's largest eigenvalue, read from its upper triangle.
        if g_inv is None or np.linalg.eigvalsh(g_inv @ phi[:n, n:], UPLO="U")[-1] > 0.0:
            r = _pole_in_step(h, s, horizon / steps) if g_inv is not None else horizon / steps
            raise BlowUpDetected(min(k * horizon / steps + r, horizon))
        d0 += log_det
        s = p[n:] @ g_inv
        if pairs:
            p1 = phi1 @ y + phi[:, n:] @ s1
            p2 = phi2 @ y + phi0[..., n:] @ s1 + phi1[..., n:] @ s1[:1] + phi[:, n:] @ s2
            x1 = g_inv @ p1[:, :n]
            d1 += np.trace(x1, axis1=1, axis2=2)
            d2 += np.einsum("ij,aji->a", g_inv, p2[:, :n]) - np.einsum("bij,aji->a", x1[:1], x1)
            s1_next = (p1[:, n:] - s @ p1[:, :n]) @ g_inv
            s2 = (p2[:, n:] - s @ p2[:, :n] - s1_next @ p1[:1, :n] - s1_next[:1] @ p1[:, :n]) @ g_inv
            s1 = s1_next
    log_trace = float(-horizon * np.trace(m_s) - d0) / (2.0 * prefs.delta)
    return log_trace, (-d1 / (2.0 * prefs.delta)).tolist(), (-d2 / (2.0 * prefs.delta)).tolist()


def _value_from_log(log_value: float, gamma: float) -> float:
    """J from log|gamma J|; ``ValueOverflow`` where J is past the largest double."""
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value)) / gamma
    if not np.isfinite(value):
        raise ValueOverflow(f"J overflows a double: log|gamma J| = {log_value:.6g}")
    return value


def value_at_mean(params: OUParams, prefs: Preferences, horizon: float) -> float:
    """J(1, theta, 0), the value at the mean, from the embedding pass with no pairs;
    ``ValueOverflow`` where J is past the largest double."""
    return _value_from_log(_embedding_pass(params, prefs, horizon, [])[0], prefs.gamma)


def corr_sensitivity(
    params: OUParams,
    prefs: Preferences,
    horizon: float,
    pair: tuple[int, int],
) -> CorrSensitivityReport:
    """Correlation derivatives of J(1, theta, 0) at the model's correlation matrix.

    J and its derivatives in every pair's correlation, ``pair`` first, come from
    one ``_embedding_pass``.  Its steps count the poles of S as the positive
    eigenvalues of G^{-1} Phi_12, exactly while a step is shorter than
    pi / (delta |Omega|), and the step that counts one locates the first pole
    inside itself and raises ``BlowUpDetected`` with its tau*.  Where J is
    past the largest double it raises ``ValueOverflow``, as ``value_at_mean``
    does.

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
    log_trace, l1, l2 = _embedding_pass(params, prefs, horizon, [key, *others])  # log|gamma J|
    value = _value_from_log(log_trace, prefs.gamma)
    return CorrSensitivityReport(
        pair=pair, value=value, log_value=log_trace - float(np.log(abs(prefs.gamma))),
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
    the horizon, or whose value overflows is NaN with its reason in
    ``failures``; an empty axis raises ``OutOfDomain``.  The horizon is checked first, so a grid of failing cells
    cannot hide a bad one.
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
            except (NotPositiveDefinite, BlowUpDetected, ValueOverflow) as exc:
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
