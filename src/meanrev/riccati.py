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

``solve`` reads every solution in the S chart.  It follows S until max|S|
reaches a switch level L set by the coefficients' scale, and from there the
shifted inverse P = (S - Z)^{-1} with Z = -L I (Schiff and Shnider, SIAM J.
Numer. Anal. 36(5), 1999), which stays smooth where S has a pole.  U = S - Z
solves the same symmetric form with M + Z Theta in place of M and
C + M Z + Z M' + Z Theta Z, the S right-hand side at Z, in place of C, so P
solves it again with weight -C-tilde.  The smallest eigenvalue of S never
falls below minus twice that scale, so U stays positive definite and P
meets no pole of its own.  A pole of S is the first zero of det P, found as
a root, not as a threshold crossing.  When P reaches the horizon instead,
S is finite on the whole span, and the one S integration steps on to it.

Both charts run on the package's own Dormand-Prince 5(4) stepper
(``_dormand_prince``), which repeats scipy RK45's arithmetic step for step,
and a pole is located by ``brent_root``, Brent's method as scipy's
``brentq`` runs it; so a solve needs numpy alone and reads what the scipy
integrator gave, bit for bit.

The explicitly solvable special cases (scalar, uncorrelated, common
reversion rate, single mean-reverting asset hedged by Brownian motions)
are provided as independent closed forms so the integrator can always be
cross-checked.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BlowUpDetected, OutOfRange, TrigSingularity
from .model import OUParams, Preferences, check_positive

# Settings of every solve: relative and absolute tolerance, first step as a
# fraction of the horizon, the switch level to the inverse chart as a multiple
# of the coefficients' scale, and the number of uniform points added to the
# solution grid.
RTOL = 1e-10
ATOL = 1e-10
FIRST_STEP_FRACTION = 1e-3
SWITCH_SCALE = 10.0
DENSE_POINTS = 1024

# The Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6(1), 1980) with
# Shampine's quartic dense output (Math. Comp. 46(173), 1986), as scipy's RK45
# tabulates it, and RK45's step-size control: a safety factor, the bounds of one
# change of the step, and the error exponent -1 / (error order + 1).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Relative tolerance of ``brent_root``, scipy's smallest for ``brentq``; the
# pole search takes it as its absolute tolerance too, as ``solve_ivp``'s event
# search does.
ROOT_RTOL = 4 * np.finfo(float).eps


class _Step(NamedTuple):
    """One accepted step from t_old to t, y_old to y, with dense-output coefficients Q."""

    t_old: float
    t: float
    y_old: np.ndarray
    y: np.ndarray
    Q: np.ndarray


def _dense_read(t_old: float, t: float, y_old: np.ndarray, q: np.ndarray, tau: float) -> np.ndarray:
    """y(tau) on the step from t_old to t: its quartic interpolant, with the
    operations of scipy's ``RkDenseOutput`` for a scalar tau."""
    h = t - t_old
    x = (tau - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return h * np.dot(q, np.array((x, x2, x3, x3 * x))) + y_old


def _dormand_prince(fun, t, y, t_bound, h_abs):
    """The accepted steps, as ``_Step``, of the Dormand-Prince pair from (t, y)
    forward to t_bound, with first step ``h_abs``, RTOL and ATOL.

    Each step repeats scipy RK45's ``_step_impl`` and ``rk_step`` operation for
    operation, so every step, dense output and evaluation of ``fun`` (one at
    the start, six per attempted step) is scipy's.  A step size below ten
    spacings of doubles at t raises ``BlowUpDetected`` at t, with scipy's text.
    """
    f = fun(t, y)
    K = np.empty((_C.size + 1, y.size))
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise BlowUpDetected(t, f"integrator failed near tau = {t:.6g}: {TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, _C.size):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            x = np.dot(K.T, _E) * h / scale
            error_norm = np.linalg.norm(x) / x.size ** 0.5
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        yield _Step(t, t_new, y, y_new, K.T.dot(_P))
        t, y, f = t_new, y_new, f_new


def brent_root(f, a: float, b: float, xtol: float) -> float:
    """A zero of f between a and b, where f(a) and f(b) differ in sign, by Brent's
    method: scipy's ``brentq``, step for step, so it makes the same evaluations.

    It stops once half the bracket is below (xtol + ROOT_RTOL |x|) / 2, or after
    100 iterations; ends of one sign return b.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0 or (fpre < 0) == (fcur < 0):
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur


@dataclass(frozen=True)
class QuadraticOperator:
    """Right-hand side S -> S' of a symmetric Riccati ODE with S(0) = 0; ``corr``
    (Theta) weights its quadratic term and the running trace integral of Tr(S Theta),
    and ``coefficients(tau)`` returns the (M, C) that ``rhs`` is built from."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    corr: np.ndarray
    coefficients: Callable[[float], tuple]


class RiccatiSolution:
    """A matrix function of tau in [0, T], read from the integrator's dense output.

    The state y is S, flattened, followed by its running trace integral T.
    Over step k, of length h = ts[k + 1] - ts[k], the stepper's quartic interpolant is

        y(tau) = y_old[k] + h * Q[k] @ (x, x^2, x^3, x^4),  x = (tau - ts[k]) / h,

    evaluated with the same operations, in the same order, as scipy's
    ``OdeSolution``, so every read equals scipy's to the last bit; a time on
    a step boundary is read from the earlier step.  The solution presents the
    affine view

        M = offset + scale * S,  trace integral scale * T + trace_rate * tau,

    which is S itself with the default arguments.  ``tau_grid`` lists uniform
    points and every adaptive accept point of the S solve, for callers that
    want to sample it.  ``diagnostics`` holds the right-hand-side evaluations
    of the one S pass (``s_evals``) and of the inverse pass (``p_evals``),
    ``switch_tau``: the end of the first step at which max|S| reached the
    switch level, and ``w_min``: the smallest eigenvalue of the inverse chart
    W over its accepted steps, near 0 just short of a pole; both are None
    when the solve never switched.
    """

    def __init__(self, steps, n, horizon, diagnostics):
        self.ts = np.array([0.0, *(step.t for step in steps)])
        self.y_old = np.stack([step.y_old for step in steps])
        self.Q = np.stack([step.Q for step in steps])
        self._ts = self.ts.tolist()
        self.tau_grid = np.union1d(np.linspace(0.0, horizon, DENSE_POINTS), self.ts)
        self.n, self.horizon = n, horizon
        self.diagnostics = diagnostics
        self.scale, self.offset, self.trace_rate = 1.0, 0.0, 0.0

    def view(self, scale=1.0, offset=0.0, trace_rate=0.0) -> "RiccatiSolution":
        """offset + scale * S with trace integral scale * T + trace_rate * tau,
        over the same solve."""
        out = copy.copy(self)
        out.scale, out.offset, out.trace_rate = scale, offset, trace_rate
        return out

    def _matrix(self, x: np.ndarray) -> np.ndarray:
        return self.offset + self.scale * x

    def _state(self, tau: float) -> np.ndarray:
        """y(tau) on one step: ``OdeSolution``'s scalar read without its wrappers."""
        if not 0.0 <= tau <= self.horizon:
            raise OutOfRange(f"tau={tau} outside [0, {self.horizon}]")
        k = min(max(bisect_left(self._ts, tau) - 1, 0), len(self._ts) - 2)
        return _dense_read(self._ts[k], self._ts[k + 1], self.y_old[k], self.Q[k], tau)

    def interpolate(self, tau: float) -> np.ndarray:
        n = self.n
        return self._matrix(self._state(tau)[: n * n].reshape(n, n))

    def trace_integral_at(self, tau: float) -> float:
        return float(self.scale * self._state(tau)[-1] + self.trace_rate * tau)

    def at_many(self, taus: np.ndarray) -> np.ndarray:
        """Matrices at several tau values, shape (len(taus), n, n).

        The taus are sorted and each run of them on one step is read in one
        product, as ``OdeSolution`` reads an array."""
        taus = np.asarray(taus, dtype=float)
        n = self.n
        if taus.size == 0:
            return np.empty((0, n, n))
        if not np.all((taus >= 0.0) & (taus <= self.horizon)):
            raise OutOfRange("tau values outside solution span")
        order = np.argsort(taus)
        t_sorted = taus[order]
        steps = np.clip(np.searchsorted(self.ts, t_sorted, side="left") - 1, 0, self.ts.size - 2)
        bounds = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), taus.size]
        y = np.empty((self.y_old.shape[1], taus.size))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            k = steps[start]
            h = self.ts[k + 1] - self.ts[k]
            x = (t_sorted[start:stop] - self.ts[k]) / h
            p = np.cumprod(np.tile(x, (self.Q.shape[2], 1)), axis=0)
            block = h * np.dot(self.Q[k], p)
            block += self.y_old[k][:, None]
            y[:, order[start:stop]] = block
        return self._matrix(np.moveaxis(y[: n * n].reshape(n, n, -1), 2, 0))


def _symmetric_rhs(s: np.ndarray, weight: np.ndarray, m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(s W s + c) symmetrized plus m s + (m s)': exactly symmetric."""
    q, ms = s @ weight @ s + c, m @ s
    return 0.5 * (q + q.T) + (ms + ms.T)


def symmetric_operator(corr: np.ndarray, coefficients: Callable) -> QuadraticOperator:
    """Operator of S' = S Theta S + M S + S M' + C, (M, C) = coefficients(tau), with an
    exactly symmetric right-hand side, so S stays symmetric to the last bit."""

    def rhs(tau, s):
        return _symmetric_rhs(s, corr, *coefficients(tau))

    return QuadraticOperator(rhs=rhs, corr=corr, coefficients=coefficients)


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
    return s.view(**view)


def switch_level(op: QuadraticOperator, horizon: float) -> float:
    """The max|S| at which ``solve`` leaves the S chart: SWITCH_SCALE times the
    scale s = |M| / l + sqrt(|C| / l) (spectral norms, l the smallest eigenvalue
    of Theta), the larger at tau = 0 and at the horizon.

    Along an eigenvalue mu of S at either end of its spectrum,
    mu' >= l mu^2 - 2 |mu| |M| - |C|, which is positive once |mu| > 2 s.  So the
    smallest eigenvalue never falls below -2 s, and a largest one past 2 s
    grows into a pole: S reaches the level only on its way to one, and
    S + L I stays positive definite.
    """
    low = float(np.linalg.eigvalsh(op.corr)[0])
    scale = 0.0
    for tau in (0.0, horizon):
        m, c = op.coefficients(tau)
        scale = max(scale, np.linalg.norm(m, 2) / low + np.sqrt(np.linalg.norm(c, 2) / low))
    return SWITCH_SCALE * scale if scale > 0.0 else np.inf


def solve(op: QuadraticOperator, horizon: float) -> RiccatiSolution:
    """Integrate a matrix Riccati ODE from S(0) = 0 over tau in [0, horizon].

    The running trace integral is carried as an extra state component so it
    shares the stepper's quadrature order.  One Dormand-Prince pass
    (``_dormand_prince``) steps S from 0; from the end tau_s of its first step
    with max|S| >= L = ``switch_level``, ``_pole_search`` integrates the
    inverse chart W = L (S + L I)^{-1} on the same stepper.  W only looks for a
    pole: if it reaches the horizon, the S pass steps on to it, so every
    solution returned is the one a solve that never switches gives.  A pole,
    or a step size that underflows on either chart, raises ``BlowUpDetected``
    with tau_s.
    """
    horizon = check_positive(horizon, "horizon")
    corr = op.corr
    n = corr.shape[0]
    level = switch_level(op, horizon)
    corr_t = corr.T
    s_evals = 0

    def rhs_flat(tau, y):
        nonlocal s_evals
        s_evals += 1
        s = y[: n * n].reshape(n, n)
        out = np.empty(n * n + 1)
        out[:-1] = op.rhs(tau, s).ravel()
        out[-1] = np.add.reduce(s * corr_t, axis=None)  # Tr(S @ Theta), as np.sum adds it
        return out

    steps = []
    diagnostics = {"p_evals": 0, "switch_tau": None, "w_min": None}
    try:
        for step in _dormand_prince(rhs_flat, 0.0, np.zeros(n * n + 1), horizon,
                                    FIRST_STEP_FRACTION * horizon):
            steps.append(step)
            if diagnostics["switch_tau"] is None and np.abs(step.y[: n * n]).max() >= level:
                diagnostics["switch_tau"] = float(step.t)
                diagnostics.update(_pole_search(op, level, step, horizon))
    except BlowUpDetected as exc:
        exc.switch_tau = diagnostics["switch_tau"]
        raise
    return RiccatiSolution(steps, n, horizon, {"s_evals": s_evals, **diagnostics})


def _pole_search(op: QuadraticOperator, level: float, step: _Step, horizon: float) -> dict:
    """Follow W = L P, P = (S - Z)^{-1} the shifted inverse with Z = -L I, from the
    end tau_s of ``step`` to the horizon, so the tolerances act on entries of
    order one.  With Z substituted, W solves

        W' = -(W C~ W / L + L Theta + M~' W + W M~),
        M~ = M - L Theta,  C~ = op.rhs(tau, -L I) = C - L (M + M') + L^2 Theta.

    W starts positive definite.  A pole of S is where det W first vanishes,
    the root of W's smallest eigenvalue (a sign change even where eigenvalues
    vanish together): the first step that ends with it at or below 0 locates
    the root on its dense output with ``brent_root`` and raises
    ``BlowUpDetected`` there.  Otherwise returns ``p_evals`` and ``w_min``, the
    smallest eigenvalue of W at the ends of its accepted steps (at tau_s when
    tau_s is the horizon, so there are none).
    """
    corr = op.corr
    n = corr.shape[0]
    shift = -level * np.eye(n)
    p_evals = 0

    def inverse_flat(tau, y):
        nonlocal p_evals
        p_evals += 1
        m, c = op.coefficients(tau)
        c_shift = _symmetric_rhs(shift, corr, m, c)  # C~: the S right-hand side at Z
        dw = _symmetric_rhs(y.reshape(n, n), c_shift / level, (m - level * corr).T, level * corr)
        return -dw.ravel()

    def lowest(y):
        return np.linalg.eigvalsh(y.reshape(n, n))[0]

    w0 = level * np.linalg.inv(step.y[: n * n].reshape(n, n) - shift)
    lows = []
    for w_step in _dormand_prince(inverse_flat, step.t, w0.ravel(), horizon,
                                  FIRST_STEP_FRACTION * (horizon - step.t)):
        lows.append(lowest(w_step.y))
        if lows[-1] <= 0.0:
            def crossing(tau):
                return lowest(_dense_read(w_step.t_old, w_step.t, w_step.y_old, w_step.Q, tau))

            raise BlowUpDetected(brent_root(crossing, w_step.t_old, w_step.t, xtol=ROOT_RTOL))
    return {"p_evals": p_evals, "w_min": float(min(lows, default=lowest(w0)))}


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
    Returns 0 identically at kappa = 0.  A closed form that no config
    reaches, so bad arguments raise a plain ``ValueError``.
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
    A closed form that no config reaches, so gamma >= 1 raises a plain
    ``ValueError``.
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

