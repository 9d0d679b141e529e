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
integrator gave, bit for bit.  The stepper advances a stack of systems in
lock step: ``solve_stack`` solves many equations of one size and one Theta
with one stacked product per stage, each system keeping its own steps, and
``solve`` is the stack of one.  Every system's solution is bit for bit the
one its solve alone gives.  A solution is read one way, at a tau or at an
array of taus alike: scipy's scalar dense output.

``embedding_pass`` is the exact propagator of the same S-equation.  It
steps the linear embedding [U; V]' = H [U; V], S = V U^{-1}, with matrix
exponentials (``_expm``: Higham's scaling-and-squaring [13/13] Pade
approximant, in numpy) over equal steps short enough that each counts the
poles of S inside it exactly, and locates the first pole inside the step
that counts it.  It returns log det U(T), from which ``analysis`` reads the
value at the mean, and its derivatives along perturbations of H.

The explicitly solvable special cases (scalar, uncorrelated, common
reversion rate, single mean-reverting asset hedged by Brownian motions)
are provided as independent closed forms so the integrator can always be
cross-checked.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
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


class _Pass(NamedTuple):
    """The accepted steps of one system's pass and the number of steps it rejected."""

    steps: list
    rejected: int


def _dense_read(t_old: float, t: float, y_old: np.ndarray, q: np.ndarray, tau: float) -> np.ndarray:
    """y(tau) on the step from t_old to t: its quartic interpolant, with the
    operations of scipy's ``RkDenseOutput`` for a scalar tau."""
    h = t - t_old
    x = (tau - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return h * np.dot(q, np.array((x, x2, x3, x3 * x))) + y_old


# Stage s of a step reads the stage sum _A[s, :s] @ K[:s] at t + _C[s] h.
_STAGES = tuple((s, _A[s, :s]) for s in range(1, _C.size))
_C_LIST = _C.tolist()


def _dormand_prince(fun, t, y, t_bound, h_abs, check):
    """Step a stack of systems with the Dormand-Prince pair in lock step, each
    from its time t[b] and state y[b] forward to t_bound, with first step
    h_abs[b], RTOL and ATOL.

    Each round attempts one step of every live system.  The stage sums, the
    right-hand sides, the error estimates and the dense-output coefficients
    of all of them are each one stacked call; ``fun(rows, t, y, out)`` writes
    the derivatives of the live systems ``rows`` at times t, shape (k,), and
    states y, shape (k, d), into ``out``.  A stack of one system drops the
    stack axis, so its products are the cheaper two-dimensional ones: t is a
    scalar and y has shape (d,).  Each system keeps its own time, step size,
    accept or reject state and steps, and its step-size control is Python
    float arithmetic, so every step, dense output and evaluation of a system
    is the one scipy RK45's ``_step_impl`` and ``rk_step`` make for it alone:
    one evaluation at the start, six per attempted step.

    ``check(b, step)`` sees each accepted ``_Step`` of system b as it is
    taken; a ``BlowUpDetected`` it raises stops b.  So does a step size below
    ten spacings of doubles at t, with scipy's text, at t.  Returns, per
    system, its ``_Pass`` or the error that stopped it.
    """
    y = np.array(y, dtype=float)
    count, dim = y.shape
    single = count == 1
    if single:
        y = y[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (count,)).tolist()
    min_step = [10 * abs(math.nextafter(tb, math.inf) - tb) for tb in t]
    h = [max(hb, low) for hb, low in zip(np.broadcast_to(h_abs, (count,)).tolist(), min_step)]
    k = np.empty((*y.shape[:-1], _C.size + 1, dim))
    fun(np.arange(count), t[0] if single else np.array(t), y, k[..., -1, :])  # copied to stage 0 below
    steps = [[] for _ in range(count)]
    rejected = [0] * count
    results: list = [_Pass(steps[b], 0) for b in range(count)]
    retry = [False] * count
    root_dim = dim ** 0.5
    live = [tb < t_bound for tb in t]
    rows, moved, size = np.arange(count), True, -1
    abs_y = np.abs(y)
    while True:
        if not all(live):
            keep = np.flatnonzero(live)
            if not keep.size:
                return results
            rows, y, abs_y, k = rows[keep], y[keep], abs_y[keep], k[keep]
            t, h, retry, min_step = ([v[i] for i in keep.tolist()] for v in (t, h, retry, min_step))
            moved = moved if isinstance(moved, bool) else moved[keep]
        if size != rows.size:  # views of the stage array, made once per stack
            size = rows.size
            stages = [(a, k[..., :s, :], k[..., s, :]) for s, a in _STAGES]
            first, last, all_but_last = k[..., 0, :], k[..., -1, :], k[..., :-1, :]
        if moved is True:
            first[...] = last
        elif moved is not False:
            k[moved, 0] = k[moved, -1]
        t_new = [min(tb + hb, t_bound) for tb, hb in zip(t, h)]
        h = [te - tb for te, tb in zip(t_new, t)]
        if single:
            hc = h[0]
            t_stage = [t[0] + c * hc for c in _C_LIST]
        else:
            hc = np.array(h)[:, None]
            t_stage = hc.T * _C[:, None] + t
        for s, (a, done, out) in enumerate(stages, 1):
            fun(rows, t_stage[s], y + (a @ done) * hc, out)
        y_new = y + hc * (_B @ all_but_last)
        fun(rows, t_stage[-1], y_new, last)  # at t + h, as _C[-1] = 1
        abs_new = np.abs(y_new)
        x = (_E @ k) * hc / (ATOL + np.maximum(abs_y, abs_new) * RTOL)
        squares = (x[..., None, :] @ x[..., None]).ravel().tolist()
        q = k.swapaxes(-1, -2) @ _P
        y_rows, new_rows = y, y_new
        if single:
            y_rows, new_rows, q = [y], [y_new], [q]
        live = [True] * size
        taken = [False] * size
        for i, b in enumerate(rows.tolist()):
            error_norm = math.sqrt(squares[i]) / root_dim
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h[i] *= min(1, factor) if retry[i] else factor
                min_step[i] = 10 * abs(math.nextafter(t_new[i], math.inf) - t_new[i])
                h[i] = max(h[i], min_step[i])
                retry[i], taken[i] = False, True
                step = _Step(t[i], t_new[i], y_rows[i], new_rows[i], q[i])
                steps[b].append(step)
                try:
                    check(b, step)
                except BlowUpDetected as exc:  # kept without its frames, which hold every step
                    results[b], live[i] = exc.with_traceback(None), False
                    continue
                if t_new[i] >= t_bound:
                    results[b], live[i] = _Pass(steps[b], rejected[b]), False
            else:
                h[i] *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                retry[i] = True
                rejected[b] += 1
                if h[i] < min_step[i]:
                    live[i] = False
                    results[b] = BlowUpDetected(
                        t[i], f"integrator failed near tau = {t[i]:.6g}: {TOO_SMALL_STEP}")
        if all(taken):
            t, y, abs_y, moved = t_new, y_new, abs_new, True
        elif any(taken):
            moved = np.array(taken)
            t = [te if go else tb for te, tb, go in zip(t_new, t, taken)]
            y = np.where(moved[:, None], y_new, y)
            abs_y = np.where(moved[:, None], abs_new, abs_y)
        else:
            moved = False


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
    and ``coefficients(tau)`` returns the (M, C) that ``rhs`` is built from.

    The operator of a stack of k systems that share Theta takes tau of shape
    (k,) and S of shape (k, n, n), one system per row, and returns (M, C) and
    S' stacked alike."""

    rhs: Callable[[float, np.ndarray], np.ndarray]
    corr: np.ndarray
    coefficients: Callable[[float], tuple]


class RiccatiSolution:
    """A matrix function of tau in [0, T], read from the integrator's dense output.

    The state y is S, flattened, followed by its running trace integral T.
    Over step k, of length h = ts[k + 1] - ts[k], the stepper's quartic interpolant is

        y(tau) = y_old[k] + h * Q[k] @ (x, x^2, x^3, x^4),  x = (tau - ts[k]) / h,

    evaluated with the same operations, in the same order, as scipy's
    ``OdeSolution`` reads one tau, so every read equals scipy's scalar read to
    the last bit, of one tau or of each tau of an array (``_gather``); a time
    on a step boundary is read from the earlier step.  The solution presents
    the affine view

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

    @cached_property
    def _steps(self) -> np.ndarray:
        """One row per step: its start, its length and y_old, so one gather reads all three."""
        return np.column_stack([self.ts[:-1], np.diff(self.ts), self.y_old])

    def _read(self, tau) -> np.ndarray:
        """y(tau), shape (d,), or for an array of taus one ``_gather``, shape taus.shape + (d,)."""
        if not isinstance(tau, np.ndarray):  # the cheaper kernel of one read
            if not 0.0 <= tau <= self.horizon:
                raise OutOfRange(f"tau={tau} outside [0, {self.horizon}]")
            k = min(max(bisect_left(self._ts, tau) - 1, 0), len(self._ts) - 2)
            return _dense_read(self._ts[k], self._ts[k + 1], self.y_old[k], self.Q[k], tau)
        taus = np.ravel(tau).astype(float, copy=False)
        if not ((taus >= 0.0) & (taus <= self.horizon)).all():
            raise OutOfRange("tau values outside solution span")
        at = np.clip(np.searchsorted(self.ts, taus) - 1, 0, self.ts.size - 2)
        # Laid out tau-fastest, so a sum over the taus (``wealth.decompose``'s einsum) runs along memory.
        y = np.ascontiguousarray(_gather(self._steps, self.Q, at, taus).T).T
        return y.reshape(tau.shape + y.shape[-1:])

    def interpolate(self, tau) -> np.ndarray:
        """The matrix at a tau, shape (n, n), or one per tau of an array, shape taus.shape + (n, n)."""
        n = self.n
        y = self._read(tau)
        return self.offset + self.scale * y[..., : n * n].reshape(y.shape[:-1] + (n, n))

    def trace_integral_at(self, tau):
        """The trace integral at tau, a float, or one per tau of an array."""
        y = self._read(tau)
        if isinstance(tau, np.ndarray):
            return self.scale * y[..., -1] + self.trace_rate * tau
        return float(self.scale * y[-1] + self.trace_rate * tau)


def _gather(steps: np.ndarray, q: np.ndarray, at: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """y(taus[i]) on row at[i] of a table of ``_steps`` with dense-output coefficients
    q, shape (len(taus), d): the operations of ``_dense_read``, with one
    stacked product for every tau, so each row is its scalar read bit for bit."""
    step = steps[at]
    h = step[:, 1]
    powers = np.empty((at.size, 4, 1))
    x = powers[:, 0, 0] = (taus - step[:, 0]) / h
    np.multiply(x, x, out=powers[:, 1, 0])
    np.multiply(powers[:, 1, 0], x, out=powers[:, 2, 0])
    np.multiply(powers[:, 2, 0], x, out=powers[:, 3, 0])
    return h[:, None] * (q[at] @ powers)[..., 0] + step[:, 2:]


def stacked_reader(solutions: list) -> Callable[[np.ndarray], np.ndarray]:
    """A function of taus that returns [solutions[i].interpolate(taus[i])], shape
    (k, n, n), for solutions of one size: one ``_gather`` over a step table of
    them all, made once.  One solution, as a single solve and the pole search
    read it, is read at its one tau by the scalar kernel, shape (n, n)."""
    if len(solutions) == 1:
        solution, = solutions
        return lambda taus: solution.interpolate(np.asarray(taus).item())
    n = solutions[0].n
    ts = [sol._ts for sol in solutions]
    first = np.cumsum([0] + [len(t) - 1 for t in ts[:-1]]).tolist()
    steps = np.concatenate([sol._steps for sol in solutions])
    q = np.concatenate([sol.Q for sol in solutions])
    offset = np.stack([np.broadcast_to(sol.offset, (n, n)) for sol in solutions])
    scale = np.array([sol.scale for sol in solutions])[:, None]
    horizons = np.array([sol.horizon for sol in solutions])

    def read(taus) -> np.ndarray:
        taus = np.atleast_1d(taus)
        if not ((taus >= 0.0) & (taus <= horizons)).all():
            raise OutOfRange("tau values outside solution span")
        at = np.array([first[i] + min(max(bisect_left(t, tau) - 1, 0), len(t) - 2)
                       for i, (t, tau) in enumerate(zip(ts, taus.tolist()))])
        y = _gather(steps, q, at, taus)
        return offset + (scale * y[:, : n * n]).reshape(-1, n, n)

    return read


def _symmetric_rhs(s: np.ndarray, weight: np.ndarray, m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(s W s + c) symmetrized plus m s + (m s)': exactly symmetric, for one
    matrix or a stack."""
    q, ms = s @ weight @ s + c, m @ s
    return 0.5 * (q + q.swapaxes(-1, -2)) + (ms + ms.swapaxes(-1, -2))


def symmetric_operator(corr: np.ndarray, coefficients: Callable) -> QuadraticOperator:
    """Operator of S' = S Theta S + M S + S M' + C, (M, C) = coefficients(tau), with an
    exactly symmetric right-hand side, so S stays symmetric to the last bit."""

    def rhs(tau, s):
        return _symmetric_rhs(s, corr, *coefficients(tau))

    return QuadraticOperator(rhs=rhs, corr=corr, coefficients=coefficients)


def make_S_operator(params, prefs: Preferences) -> QuadraticOperator:
    """Operator of the S-equation: M = -delta K, C = delta (delta - 1) K Theta^{-1} K.

    ``params`` is one ``OUParams``, or a list of models that share Theta for
    the operator of their stack."""
    models = [params] if isinstance(params, OUParams) else params
    delta = prefs.delta
    m = [-delta * np.diag(p.kappa) for p in models]
    c = [delta * (delta - 1.0) * (p.kappa[:, None] * p.corr_inv * p.kappa[None, :]) for p in models]
    m, c = (m[0], c[0]) if models is not params else (np.stack(m), np.stack(c))
    return symmetric_operator(models[0].corr, lambda tau: (m, c))


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


def switch_level(op: QuadraticOperator, horizon: float, count: int = 1):
    """The max|S| at which ``solve`` leaves the S chart: SWITCH_SCALE times the
    scale s = |M| / l + sqrt(|C| / l) (spectral norms, l the smallest eigenvalue
    of Theta), the larger at tau = 0 and at the horizon; for an operator of a
    stack of ``count`` systems, one level each.

    Along an eigenvalue mu of S at either end of its spectrum,
    mu' >= l mu^2 - 2 |mu| |M| - |C|, which is positive once |mu| > 2 s.  So the
    smallest eigenvalue never falls below -2 s, and a largest one past 2 s
    grows into a pole: S reaches the level only on its way to one, and
    S + L I stays positive definite.
    """
    low = float(np.linalg.eigvalsh(op.corr)[0])
    scale = 0.0
    for tau in (0.0, horizon):
        m, c = op.coefficients(tau if count == 1 else np.full(count, tau))
        norm = np.linalg.norm(m, 2, axis=(-2, -1)) / low + np.sqrt(np.linalg.norm(c, 2, axis=(-2, -1)) / low)
        scale = np.fmax(scale, norm)
    level = np.broadcast_to(np.where(scale > 0.0, SWITCH_SCALE * scale, np.inf), (count,))
    return float(level[0]) if count == 1 else level


def solve(op: QuadraticOperator, horizon: float) -> RiccatiSolution:
    """Integrate a matrix Riccati ODE from S(0) = 0 over tau in [0, horizon]:
    ``solve_stack`` of the one system, with ``op.rhs`` read once per
    evaluation.  A pole, or a step size that underflows on either chart,
    raises ``BlowUpDetected`` with tau_s."""
    solution, = solve_stack(lambda rows: op, 1, horizon)
    if isinstance(solution, BlowUpDetected):
        raise solution
    return solution


def solve_stack(operator_of: Callable, count: int, horizon: float) -> list:
    """Integrate ``count`` matrix Riccati ODEs of one size from S(0) = 0 over tau in
    [0, horizon], in lock step on one stepper; ``operator_of(rows)`` is the
    operator of the stack of systems ``rows`` (an index array), built anew
    whenever a system leaves the stack.

    The running trace integral is carried as an extra state component so it
    shares the stepper's quadrature order.  One Dormand-Prince pass
    (``_dormand_prince``) steps every S from 0, and each system's steps,
    reads and evaluations are those of its solve alone.  From the end tau_s
    of a system's first step with max|S| >= L = ``switch_level``,
    ``_pole_search`` integrates its inverse chart W = L (S + L I)^{-1} on the
    same stepper, as a stack of one.  W only looks for a pole: if it reaches
    the horizon, the S pass steps on to it, so every solution returned is
    the one a solve that never switches gives.  Returns, per system, its
    ``RiccatiSolution`` or the ``BlowUpDetected``, with tau_s, of a pole or of
    a step size that underflowed on either chart.
    """
    horizon = check_positive(horizon, "horizon")
    everyone = np.arange(count)
    current = [everyone, operator_of(everyone)]
    corr = current[1].corr
    n = corr.shape[0]
    nn = n * n
    corr_flat = corr.T.ravel()
    levels = np.broadcast_to(switch_level(current[1], horizon, count), (count,)).tolist()

    def rhs_flat(rows, tau, y, out):
        if rows is not current[0]:
            current[:] = rows, operator_of(rows)
        lead = y.shape[:-1]
        s = y[..., :nn]
        out[..., :nn] = current[1].rhs(tau, s.reshape(lead + (n, n))).reshape(lead + (nn,))
        out[..., nn] = np.add.reduce(s * corr_flat, axis=-1)  # Tr(S @ Theta), as np.sum adds it

    switch_tau: list = [None] * count
    searched: list = [{"p_evals": 0, "w_min": None}] * count

    def check(b, step):
        if switch_tau[b] is None and np.abs(step.y[:nn]).max() >= levels[b]:
            switch_tau[b] = float(step.t)
            searched[b] = _pole_search(operator_of(everyone[b:b + 1]), levels[b], step, horizon)

    passes = _dormand_prince(rhs_flat, 0.0, np.zeros((count, nn + 1)), horizon,
                             FIRST_STEP_FRACTION * horizon, check)
    out = []
    for b, result in enumerate(passes):
        if isinstance(result, BlowUpDetected):
            result.switch_tau = switch_tau[b]
            out.append(result)
            continue
        steps = result.steps
        out.append(RiccatiSolution(steps, n, horizon, {
            "s_evals": 1 + 6 * (len(steps) + result.rejected), **searched[b],
            "switch_tau": switch_tau[b], "accepted": len(steps), "rejected": result.rejected,
            "min_step": min(step.t - step.t_old for step in steps)}))
    return out


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

    def inverse_flat(rows, tau, y, out):
        m, c = op.coefficients(tau)
        c_shift = _symmetric_rhs(shift, corr, m, c)  # C~: the S right-hand side at Z
        dw = _symmetric_rhs(y.reshape(n, n), c_shift / level, (m - level * corr).swapaxes(-1, -2),
                            level * corr)
        np.negative(dw.reshape(n * n), out=out)

    def lowest(y):
        return np.linalg.eigvalsh(y.reshape(n, n))[0]

    lows = []

    def check(b, w_step):
        lows.append(lowest(w_step.y))
        if lows[-1] <= 0.0:
            def crossing(tau):
                return lowest(_dense_read(w_step.t_old, w_step.t, w_step.y_old, w_step.Q, tau))

            raise BlowUpDetected(brent_root(crossing, w_step.t_old, w_step.t, xtol=ROOT_RTOL))

    w0 = level * np.linalg.inv(step.y[: n * n].reshape(n, n) - shift)
    result, = _dormand_prince(inverse_flat, step.t, w0.reshape(1, -1), horizon,
                              FIRST_STEP_FRACTION * (horizon - step.t), check)
    if isinstance(result, BlowUpDetected):
        raise result
    return {"p_evals": 1 + 6 * (len(result.steps) + result.rejected),
            "w_min": float(min(lows, default=lowest(w0)))}


def solve_A(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """Value matrix A = S/2 (the symmetric representative)."""
    return s_view(solve(make_S_operator(params, prefs), horizon), "A", params, prefs)


def solve_D(params: OUParams, prefs: Preferences, horizon: float) -> RiccatiSolution:
    """Feedback matrix D = delta Theta^{-1} K - S."""
    return s_view(solve(make_S_operator(params, prefs), horizon), "D", params, prefs)


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


def _pole_in_step(h: np.ndarray, s: np.ndarray, step: float, phi: np.ndarray) -> float:
    """r* in (0, step]: the first pole of S restarted from S(0) = s in a step of
    ``embedding_pass``, as the zero of f(r) = lambda_max(N(r) + s), N = Phi_12(r)^{-1}
    Phi_11(r), Phi(r) = expm(r h), read once per r and at ``step`` from phi = Phi(step).

    N + s = P^{-1} is finite and increasing in a step, which holds no conjugate
    point, and ~ -Theta^{-1} / r as r -> 0+ (see ``embedding_pass``); so f
    rises from -inf and crosses 0 first at the first pole, also when two
    poles share the step.  Halving r from ``step`` brackets that zero from
    below, and ``brent_root`` finds it to the spacing of doubles.
    f(step) <= 0, which only rounding can give after the step counted a pole,
    returns ``step``.
    """
    n = len(s)

    @cache
    def f(r):
        p = phi if r == step else _expm(r * h)
        q = np.linalg.solve(p[:n, n:], p[:n, :n]) + s
        return np.linalg.eigvalsh(0.5 * (q + q.T))[-1]

    if f(step) <= 0.0:
        return step
    lo = 0.5 * step
    while f(lo) >= 0.0:
        lo *= 0.5
    return brent_root(f, lo, step, xtol=np.finfo(float).eps * step)


def embedding_pass(params: OUParams, prefs: Preferences, horizon: float, dh=(), d2h=()):
    """log det U(T) of the S-equation's linear embedding [U; V]' = H [U; V], U(0) = I,
    V(0) = 0, H = [[-M', -Theta], [C, M]], S = V U^{-1}; and, along stacks dh of
    dH/drho_a and d2h of d2H/drho_0 drho_a (direction 0 is dh[0]), the arrays of
    d log det U / drho_a and d2 log det U / drho_0 drho_a.

    The propagator of a step h is Phi = expm(hH), and one block-triangular
    ``_expm`` per perturbation (Van Loan, 1978) gives its derivatives Phi_a,
    Phi_0, Phi_0a.  A step maps S to (Phi_21 + Phi_22 S) G^{-1},
    G = Phi_11 + Phi_12 S, and carries S_a and S_0a by the derivatives of that
    map, restarting from the S chart; log det U gains log det G, d log det U
    gains tr(G^{-1} G_a) and d2 log det U gains
    tr(G^{-1} G_0a) - tr(G^{-1} G_0 G^{-1} G_a).

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
    n = params.n
    m_s, c_s = make_S_operator(params, prefs).coefficients(0.0)
    h = np.block([[-m_s.T, -params.corr], [c_s, m_s]])
    w = params.corr_inv @ (0.5 * np.subtract.outer(params.kappa, params.kappa) * params.corr)  # Theta^{-1} B
    omega = np.sqrt(max(-np.trace(w @ w), 0.0) / 2.0)
    rate = max(np.abs(np.linalg.eigvals(h)).max(), prefs.delta * omega / 3.0)
    steps = max(1, int(np.ceil(horizon * rate)))
    step = horizon / steps
    phi = _expm(step * h)
    z = np.zeros_like(h)
    # Top block row of each perturbation's exponential: Phi, Phi_a, Phi_0, Phi_0a.
    tops = np.array([
        _expm(step * np.block([[h, ha, dh[0], h0a], [z, h, z, dh[0]], [z, z, h, ha], [z, z, z, h]]))[:2 * n]
        for ha, h0a in zip(dh, d2h)
    ]).reshape(len(dh), 2 * n, 4, 2 * n).swapaxes(1, 2)
    phi1, phi0, phi2 = tops[:, 1], tops[:1, 2], tops[:, 3]
    s, s1, s2 = np.zeros((n, n)), np.zeros((len(dh), n, n)), np.zeros((len(dh), n, n))
    d0, d1, d2 = 0.0, np.zeros(len(dh)), np.zeros(len(dh))
    for k in range(steps):
        y = np.vstack([np.eye(n), s])
        p = phi @ y  # [G; Phi_21 + Phi_22 S]
        sign, log_det = np.linalg.slogdet(p[:n])
        g_inv = np.linalg.inv(p[:n]) if sign else None
        # P's largest eigenvalue, read from its upper triangle.
        if g_inv is None or np.linalg.eigvalsh(g_inv @ phi[:n, n:], UPLO="U")[-1] > 0.0:
            r = _pole_in_step(h, s, step, phi) if g_inv is not None else step
            raise BlowUpDetected(min(k * horizon / steps + r, horizon))
        d0 += log_det
        s = p[n:] @ g_inv
        if len(dh):
            p1 = phi1 @ y + phi[:, n:] @ s1
            p2 = phi2 @ y + phi0[..., n:] @ s1 + phi1[..., n:] @ s1[:1] + phi[:, n:] @ s2
            x1 = g_inv @ p1[:, :n]
            d1 += np.trace(x1, axis1=1, axis2=2)
            d2 += np.einsum("ij,aji->a", g_inv, p2[:, :n]) - np.einsum("bij,aji->a", x1[:1], x1)
            s1_next = (p1[:, n:] - s @ p1[:, :n]) @ g_inv
            s2 = (p2[:, n:] - s @ p2[:, :n] - s1_next @ p1[:1, :n] - s1_next[:1] @ p1[:, :n]) @ g_inv
            s1 = s1_next
    return float(d0), d1, d2


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

