import ast
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from meanrev import misspec, oracles, riccati
from meanrev.control import misspecified_strategy, optimal_strategy, value_at_mean
from meanrev.errors import BlowUpDetected, NonFinite, OutOfDomain, OutOfRange, TrigSingularity
from meanrev.misspec import make_Q_operator, misspec_sweep, solve_Q
from meanrev.model import Preferences, normalize
from meanrev.riccati import d_scalar_closed_form, d_single_mr, single_mr_blowup_tau, solve_A, solve_D

from conftest import assert_passes, random_corr, random_params, two_asset


def test_scalar_closed_form_initial_value():
    for delta in (0.2, 1.0, 2.0):
        assert d_scalar_closed_form(0.8, delta, 0.0) == pytest.approx(0.8 * delta)
    # Without reversion D is 0 at every tau, as a float or as an array.
    assert d_scalar_closed_form(0.0, 2.0, 1.5) == 0.0
    assert isinstance(d_scalar_closed_form(0.0, 2.0, 1.5), float)
    out = d_scalar_closed_form(0.0, 2.0, np.array([0.0, 0.5, 3.0]))
    assert out.shape == (3,) and not out.any()


def test_uncorrelated_oracle():
    assert_passes(oracles.uncorrelated_oracle([((0.4, 1.0, 1.6), d) for d in (0.2, 2.0)]))


def test_common_kappa_oracle():
    assert_passes(oracles.common_kappa_oracle(deltas=(0.2, 2.0)))


def test_single_mr_oracle_tanh_branch():
    # delta = 0.2 keeps gamma negative; no pole anywhere.
    for rho in oracles.RHOS:
        assert single_mr_blowup_tau(1.0, oracles.pair_corr(rho), -4.0) is None
    assert_passes(oracles.single_mr_oracle(deltas=(0.2,)))
    # rho = 0.6, delta = 1/0.36 puts gamma zeta at 1, where tanh turns rational.
    zeta = np.linalg.inv(oracles.pair_corr(0.6))[0, 0]
    assert abs(Preferences.from_delta(1 / 0.36).gamma * zeta - 1.0) < 1e-12
    assert_passes(oracles.single_mr_oracle(rhos=(0.6,), deltas=(1 / 0.36,)))


def test_single_mr_constant_hedge_row():
    # Off-diagonal D_j1 stays at its initial value delta (Theta^{-1})_{j1} kappa.
    params = two_asset(rho=0.6, kappa=(1.0, 0.0))
    prefs = Preferences.from_delta(0.2)
    expected = prefs.delta * params.corr_inv[1, 0] * 1.0
    for tau in (0.0, 1.0, 3.0):
        assert d_single_mr(1.0, params.corr, prefs.gamma, tau)[1, 0] == pytest.approx(expected)


def test_single_mr_trig_branch_pole():
    # rho = 0.9, gamma = 0.5: the closed form has a pole inside the horizon,
    # and the solver must report blow-up there to 1e-9 relative.
    pole = single_mr_blowup_tau(1.0, oracles.pair_corr(0.9), 0.5)
    assert pole is not None and 0.0 < pole < 3.0
    check = oracles.single_mr_pole(rhos=(0.9,), deltas=(2.0,))
    assert_passes(check)
    assert check.tol == 1e-9
    assert_passes(oracles.single_mr_oracle(rhos=(0.9,), deltas=(2.0,)))


def test_log_utility_fixed_point():
    assert_passes(oracles.log_utility_fixed_point(rhos=(0.6,)))


def test_a_d_consistency(rng):
    # A and D are views of one S solve; both are held against the D-equation
    # on 20 general models reduced to unit noise, log utility included.
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        params, _ = normalize(random_params(rng, n))
        cases.append((params, Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.0, 0.5])))))
    assert_passes(oracles.a_d_consistency(cases, taus=np.linspace(0.0, 2.0, 11)))


def test_dij_dji_offset_time_independent(rng):
    # D_ij - D_ji = delta (Theta^{-1})_ij (kappa_j - kappa_i) at every time;
    # the offset is pinned by the initial condition D(0) = delta Theta^{-1} kappa
    # and never moves.
    for _ in range(5):
        params, _ = normalize(random_params(rng, 3))
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))
        sol = solve_D(params, prefs, 3.0)
        ci = params.corr_inv
        for tau in sol.tau_grid:
            d = sol.interpolate(tau)
            for i in range(3):
                for j in range(3):
                    expected = prefs.delta * ci[i, j] * (params.kappa[j] - params.kappa[i])
                    assert d[i, j] - d[j, i] == pytest.approx(expected, abs=1e-8)


def test_initial_conditions():
    params = two_asset(rho=0.3)
    prefs = Preferences(gamma=-4.0)
    a = solve_A(params, prefs, 1.0)
    d = solve_D(params, prefs, 1.0)
    assert np.allclose(a.interpolate(0.0), 0.0)
    assert np.allclose(d.interpolate(0.0),
                       prefs.delta * params.corr_inv @ np.diag(params.kappa))
    assert a.trace_integral_at(0.0) == 0.0


def test_at_many_matches_pointwise(rng):
    # A read of many taus is the read of each tau alone, bit for bit, at both
    # ends, on a solve-grid point and between grid points alike.
    for _ in range(5):
        params, _ = normalize(random_params(rng, int(rng.integers(1, 5))))
        sol = solve_D(params, Preferences(gamma=-4.0), 2.0)
        taus = np.array([0.0, 0.37, sol.tau_grid[len(sol.tau_grid) // 2], 1.11, 2.0])
        stacked, traces = sol.interpolate(taus), sol.trace_integral_at(taus)
        for k, tau in enumerate(taus):
            assert np.array_equal(stacked[k], sol.interpolate(tau))
            assert traces[k] == sol.trace_integral_at(tau)


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_array_and_stacked_reads_equal_the_scalar_reads(n):
    # On every accept point and halfway between them, an array read and a
    # stacked read of several solutions give each tau's scalar read bit for
    # bit, through the D view's offset, scale and trace rate.
    rng = np.random.default_rng(30 + n)
    prefs = Preferences(gamma=-4.0)
    sols = [solve_D(normalize(random_params(rng, n))[0], prefs, float(horizon))
            for horizon in rng.uniform(0.5, 2.0, 3)]
    taus = [np.union1d(sol.ts, 0.5 * (sol.ts[1:] + sol.ts[:-1])) for sol in sols]
    for sol, grid in zip(sols, taus):
        matrices, traces = sol.interpolate(grid), sol.trace_integral_at(grid)
        assert matrices.shape == (grid.size, n, n) and traces.shape == grid.shape
        assert sol.interpolate(np.empty(0)).shape == (0, n, n)
        assert sol.trace_integral_at(np.empty(0)).shape == (0,)
        for tau, matrix, trace in zip(grid, matrices, traces):
            assert np.array_equal(matrix, sol.interpolate(tau))
            assert trace == sol.trace_integral_at(tau)
    read = riccati.stacked_reader(sols)
    for j in range(max(grid.size for grid in taus)):
        at = np.array([grid[j % grid.size] for grid in taus])
        assert np.array_equal(read(at), np.stack([sol.interpolate(tau) for sol, tau in zip(sols, at)]))


@pytest.mark.parametrize("lookup", ["interpolate", "trace_integral_at", "array"])
@pytest.mark.parametrize("tau", [np.nan, -0.1, 2.1])
def test_lookups_reject_tau_outside_span(lookup, tau):
    sol = solve_D(two_asset(), Preferences(gamma=-4.0), 2.0)
    reads = [(getattr(sol, lookup), tau)] if lookup != "array" else [
        (sol.interpolate, np.array([0.5, tau])), (sol.trace_integral_at, np.array([0.5, tau]))]
    for read, arg in reads:
        with pytest.raises(OutOfRange):
            read(arg)


def test_dense_output_is_read_only_in_riccati():
    # The step table of a solution (ts, _ts, y_old, Q) is the dense-output
    # format; every other module reads a solution through its lookups.
    fields = {"ts", "_ts", "y_old", "Q"}
    sites = set()
    for path in sorted(Path(riccati.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                sites.add((path.stem, node.attr))
    assert {module for module, _ in sites} == {"riccati"}, sorted(sites)


# The S-solving machinery: the stepper, the matrix exponential and its
# squarings, the root finder and the in-step pole locate.
S_SOLVERS = {"_dormand_prince", "_expm", "_squarings", "_PADE13", "brent_root", "_pole_in_step"}


class _SolverSites(ast.NodeVisitor):
    """(enclosing function, name) for each definition of, import of or reference
    to one of ``S_SOLVERS``, and (enclosing function, "step loop") for each loop
    that sums log det of a step, as the embedding pass does."""

    def __init__(self):
        self.scope: list[str] = []
        self.sites: set[tuple[str, str]] = set()

    def _record(self, name):
        if name in S_SOLVERS:
            self.sites.add((".".join(self.scope) or "<module>", name))

    def _enter(self, node):
        self._record(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _loop(self, node):
        if any(isinstance(sub, ast.Attribute) and sub.attr == "slogdet" for sub in ast.walk(node)):
            self.sites.add((".".join(self.scope) or "<module>", "step loop"))
        self.generic_visit(node)

    visit_For = visit_While = _loop

    def visit_Name(self, node):
        self._record(node.id)

    def visit_Attribute(self, node):
        self._record(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._record(node.name)


def test_the_s_equation_is_solved_only_in_riccati():
    # One module decides how S is stepped and where its poles are: every
    # definition of and reference to the S-solving machinery, and the one
    # step loop of the embedding pass, lie in riccati.
    sites = set()
    for path in sorted(Path(riccati.__file__).parent.glob("*.py")):
        collector = _SolverSites()
        collector.visit(ast.parse(path.read_text(), filename=str(path)))
        sites.update((path.stem, *site) for site in collector.sites)
    assert {module for module, _, _ in sites} == {"riccati"}, sorted(sites)
    assert {scope for _, scope, name in sites if name == "step loop"} == {"embedding_pass"}
    assert {name for *_, name in sites} == S_SOLVERS | {"step loop"}


def test_the_pole_locate_reuses_its_exponentials(monkeypatch):
    # The step that counts the pole already holds Phi(step), and the halving
    # that brackets the pole has evaluated both ends that brent_root starts
    # from: a whole value_at_mean pass on the single-MR pole model makes 15
    # exponentials (18 when each is made again), and tau* stays exact.
    real, calls = riccati._expm, []
    monkeypatch.setattr(riccati, "_expm", lambda a: calls.append(a) or real(a))
    params, prefs = two_asset(rho=0.9, kappa=(1.0, 0.0)), Preferences(gamma=0.5)
    with pytest.raises(BlowUpDetected) as info:
        value_at_mean(params, prefs, 3.0)
    assert len(calls) <= 15
    assert info.value.tau_star == pytest.approx(single_mr_blowup_tau(1.0, params.corr, 0.5), rel=1e-14)


@pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
def test_solve_rejects_bad_horizon(horizon):
    with pytest.raises(OutOfDomain if np.isfinite(horizon) else NonFinite):
        solve_D(two_asset(), Preferences(gamma=-4.0), horizon)


def test_poles_match_the_radon_embedding():
    # Equal correlations near one and gamma in (0.5, 0.9) put a pole of the
    # S-equation inside the horizon for some draws and not for others.  The
    # linear embedding [U; V] = expm(tau H) [I; 0] solves no Riccati equation;
    # the solve must agree with it on whether a pole exists and where.  The
    # embedding is the one riccati.embedding_pass steps for value_at_mean,
    # counting the poles of U step by step.
    rng = np.random.default_rng(20261018)
    seen = {True: 0, False: 0}
    for _ in range(12):
        n = int(rng.integers(2, 4))
        corr = np.full((n, n), rng.uniform(0.85, 0.97))
        np.fill_diagonal(corr, 1.0)
        params = oracles.unit_noise(rng.uniform(0.3, 2.0, n), corr)
        prefs = Preferences(gamma=float(rng.uniform(0.5, 0.9)))
        try:
            value_at_mean(params, prefs, 3.0)
            pole = None
        except BlowUpDetected as exc:
            pole = exc.tau_star
        try:
            solve_A(params, prefs, 3.0)
            tau_star = None
        except BlowUpDetected as exc:
            tau_star = exc.tau_star
            assert 0.0 < exc.switch_tau < tau_star
        assert (pole is None) == (tau_star is None)
        if pole is not None:
            assert abs(tau_star - pole) <= oracles.POLE_TOL * pole
        seen[pole is not None] += 1
    assert seen[True] >= 5 and seen[False] >= 3


def _force_switch(monkeypatch, op, horizon):
    """Lower the switch level to half the largest |S| of the unswitched solve."""
    sol = riccati.solve(op, horizon)
    top = float(np.max(np.abs(sol.interpolate(sol.tau_grid))))
    monkeypatch.setattr(riccati, "SWITCH_SCALE",
                        0.5 * top * riccati.SWITCH_SCALE / riccati.switch_level(op, horizon))


def _assert_matches(sol, matrices, traces, taus, scale):
    assert np.max(np.abs(sol.interpolate(taus) - matrices)) <= 1e-8 * scale
    for tau, m, trace in zip(taus, matrices, traces):
        assert np.max(np.abs(sol.interpolate(tau) - m)) <= 1e-8 * scale
        assert abs(sol.trace_integral_at(tau) - trace) <= 1e-8 * scale
    for lookup, arg in (("interpolate", np.nan), ("trace_integral_at", np.nan),
                        ("interpolate", np.array([0.5, np.nan]))):
        with pytest.raises(OutOfRange):
            getattr(sol, lookup)(arg)


def _scipy_solve(op, horizon):
    """scipy's RK45 solve of the S-equation with its trace integral, from the
    settings ``riccati.solve`` uses: ``sol`` is its OdeSolution, ``nfev`` its
    right-hand-side evaluations."""
    n = op.corr.shape[0]

    def rhs_flat(tau, y):
        s = y[: n * n].reshape(n, n)
        return np.append(op.rhs(tau, s).ravel(), float(np.sum(s * op.corr.T)))

    return solve_ivp(rhs_flat, (0.0, horizon), np.zeros(n * n + 1), method="RK45",
                     rtol=riccati.RTOL, atol=riccati.ATOL,
                     first_step=riccati.FIRST_STEP_FRACTION * horizon, dense_output=True)


def _assert_reads_equal_scipys(sol, op, horizon, rng):
    """Every read of ``sol`` is scipy's OdeSolution's read of one tau, bit for bit
    (random taus, every accept point, both ends, one tau and an array alike),
    and the S pass made scipy's number of evaluations."""
    n = op.corr.shape[0]
    reference = _scipy_solve(op, horizon)
    assert sol.diagnostics["s_evals"] == reference.nfev
    taus = np.concatenate([rng.uniform(0.0, horizon, 200), sol.tau_grid, [0.0, horizon]])
    ys = np.array([reference.sol(tau) for tau in taus])
    matrices = ys[:, : n * n].reshape(-1, n, n)
    for tau, matrix, y in zip(taus, matrices, ys):
        assert np.array_equal(sol.interpolate(tau), matrix)
        assert sol.trace_integral_at(tau) == y[-1]
    assert np.array_equal(sol.interpolate(taus), matrices)
    assert np.array_equal(sol.trace_integral_at(taus), ys[:, -1])
    assert np.array_equal(sol.interpolate(taus[:1]), matrices[:1])


@pytest.mark.parametrize("gamma", [-4.0, -1.0, 0.5])
@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_reads_equal_scipys_dense_output(n, gamma):
    # The package's own stepper repeats scipy's RK45 step for step.
    rng = np.random.default_rng(100 * n + int(4 * gamma))
    params, _ = normalize(random_params(rng, n))
    op = riccati.make_S_operator(params, Preferences(gamma=gamma))
    horizon = (0.3 if n <= 10 else 0.1) if gamma > 0 else 2.0  # short of any pole at gamma = 0.5
    sol = riccati.solve(op, horizon)
    assert sol.diagnostics["switch_tau"] is None
    _assert_reads_equal_scipys(sol, op, horizon, rng)


def _assert_solved_alike(got, want):
    """A system of a stacked solve ended as its solve alone did: the same
    steps, dense output and diagnostics, or the same blow-up."""
    if isinstance(want, BlowUpDetected):
        assert isinstance(got, BlowUpDetected), got
        assert (got.tau_star, got.switch_tau, str(got)) == (want.tau_star, want.switch_tau, str(want))
        return
    assert np.array_equal(got.ts, want.ts)
    assert np.array_equal(got.y_old, want.y_old) and np.array_equal(got.Q, want.Q)
    assert got.diagnostics == want.diagnostics


def test_a_stacked_solve_equals_the_single_solves():
    # Random stacks of S-equations with one Theta: some systems converge, some
    # reach the switch level and search the inverse chart in vain, some hit a
    # pole.  Each system of the stack ends as its solve alone does, bit for bit.
    # The explicit example stacks all three outcomes, so the draws need not.
    outcomes = set()

    @settings(max_examples=30, deadline=None, database=None)
    @example(seed=2, n=2, gamma=0.5, size=3, switch_scale=0.1)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 5]),
           gamma=st.sampled_from([-4.0, -1.0, 0.5]), size=st.integers(2, 4),
           switch_scale=st.sampled_from([riccati.SWITCH_SCALE, 1.0, 0.1]))
    def stacked_alike(seed, n, gamma, size, switch_scale):
        rng = np.random.default_rng(seed)
        corr = random_corr(rng, n)
        if n > 1 and rng.integers(2):  # strong correlation: poles at gamma = 0.5
            corr = np.full((n, n), rng.uniform(0.85, 0.97))
            np.fill_diagonal(corr, 1.0)
        models = []
        for _ in range(size):
            kappa = rng.uniform(0.3, 2.0, n)
            if n > 1 and rng.integers(2):
                kappa[1:] = 0.0  # one mean-reverting asset, hedged
            models.append(oracles.unit_noise(kappa, corr))
        prefs, horizon = Preferences(gamma=gamma), float(rng.uniform(0.5, 3.0))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(riccati, "SWITCH_SCALE", switch_scale)
            stacked = riccati.solve_stack(
                lambda rows: riccati.make_S_operator([models[k] for k in rows], prefs), size, horizon)
            for model, got in zip(models, stacked):
                try:
                    want = riccati.solve(riccati.make_S_operator(model, prefs), horizon)
                    outcomes.add("switched" if want.diagnostics["switch_tau"] is not None else "plain")
                except BlowUpDetected as exc:
                    want = exc
                    outcomes.add("pole")
                _assert_solved_alike(got, want)

    stacked_alike()
    assert outcomes == {"plain", "switched", "pole"}


def test_stacked_moment_solves_equal_the_single_solves():
    # Q_1 and Q_2 of three rules in one stack, read through one stacked read
    # of the rules' feedback solutions, as the sweep solves them.
    params, prefs, horizon = two_asset(rho=0.6), Preferences(gamma=-4.0), 3.0
    specs = [misspecified_strategy(params, replace(params, kappa=params.kappa * np.array(m)), prefs,
                                   horizon) for m in ([0.5, 1.0], [1.0, 1.0], [2.0, 0.5])]
    eps = np.array([1.0, 2.0] * len(specs))
    pairs = [spec for spec in specs for _ in range(2)]
    stacked = riccati.solve_stack(lambda rows: make_Q_operator(eps[rows], [pairs[i] for i in rows]),
                                  len(pairs), horizon)
    for e, spec, got in zip(eps, pairs, stacked):
        try:
            want = riccati.solve(make_Q_operator(float(e), spec), horizon)
        except BlowUpDetected as exc:
            want = exc
        _assert_solved_alike(got, want)


@pytest.mark.parametrize("eps", [-4.0, 1.0, 2.0])
def test_q_reads_equal_scipys_dense_output(eps):
    # A moment operator, whose coefficients vary with tau through the rule's
    # feedback, at every exponent the sweep solves.
    rng = np.random.default_rng(7)
    params, _ = normalize(random_params(rng, 3))
    est = replace(params, kappa=params.kappa * np.array([1.5, 0.8, 1.2]))
    spec = misspecified_strategy(params, est, Preferences(gamma=-4.0), 0.9)  # short of a pole
    op = make_Q_operator(eps, spec)
    sol = riccati.solve(op, spec.horizon)
    assert sol.diagnostics["switch_tau"] is None
    _assert_reads_equal_scipys(sol, op, spec.horizon, rng)


def test_switched_reads_equal_scipys_dense_output(monkeypatch):
    # A solve forced through the inverse chart returns the S pass, still
    # scipy's bit for bit, with the same S evaluations.
    params = oracles.unit_noise([1.0, 2.0], oracles.pair_corr(0.4))
    prefs, horizon = Preferences(gamma=0.5), 1.0
    spec = misspecified_strategy(params, replace(params, kappa=params.kappa * np.array([1.5, 0.8])),
                                 prefs, horizon)
    for op in (riccati.make_S_operator(params, prefs), make_Q_operator(2.0, spec)):
        with monkeypatch.context() as patch:
            _force_switch(patch, op, horizon)
            sol = riccati.solve(op, horizon)
        assert sol.diagnostics["switch_tau"] is not None and sol.diagnostics["p_evals"] > 0
        _assert_reads_equal_scipys(sol, op, horizon, np.random.default_rng(8))


@pytest.mark.parametrize("locate", ["inverse-chart", "embedding-pass"])
def test_pole_root_finder_makes_no_more_calls_than_brentq(monkeypatch, locate):
    # The single-MR pole at rho = 0.9, gamma = 0.5 (tau* = 0.8749), located by
    # the inverse chart of riccati.solve and by riccati.embedding_pass: each
    # bracket's root is scipy's brentq's, found in no more evaluations.
    real, seen = riccati.brent_root, []

    def counting(f, a, b, xtol):
        calls = []
        root = real(lambda x: calls.append(x) or f(x), a, b, xtol)
        reference, info = brentq(f, a, b, xtol=xtol, rtol=riccati.ROOT_RTOL, full_output=True)
        seen.append((len(calls), info.function_calls, root, reference))
        return root

    monkeypatch.setattr(riccati, "brent_root", counting)
    params, prefs = two_asset(rho=0.9, kappa=(1.0, 0.0)), Preferences(gamma=0.5)
    with pytest.raises(BlowUpDetected) as info:
        solve_A(params, prefs, 3.0) if locate == "inverse-chart" else value_at_mean(params, prefs, 3.0)
    pole = single_mr_blowup_tau(1.0, params.corr, 0.5)
    assert info.value.tau_star == pytest.approx(pole, rel=oracles.POLE_TOL)
    assert len(seen) == 1
    ours, theirs, root, reference = seen[0]
    assert ours <= theirs and root == reference


def _assert_reads_alike(sol, base):
    """Every lookup of ``sol`` returns bit for bit what ``base`` returns."""
    assert np.array_equal(sol.tau_grid, base.tau_grid)
    assert np.array_equal(sol.interpolate(base.tau_grid), base.interpolate(base.tau_grid))
    for tau in base.tau_grid[::7]:
        assert np.array_equal(sol.interpolate(tau), base.interpolate(tau))
        assert sol.trace_integral_at(tau) == base.trace_integral_at(tau)


def test_pole_search_returns_the_s_chart_solution(monkeypatch):
    # With the switch level forced below the largest |S|, converging S and Q
    # solves search the inverse chart for a pole, find none, and return the S
    # solve: bitwise the unforced one, and held to reference solves of the D-
    # and Q-equations on both sides of the switch.
    params = oracles.unit_noise([1.0, 2.0], oracles.pair_corr(0.4))
    prefs, horizon, n = Preferences(gamma=0.5), 1.0, 2
    est = replace(params, kappa=params.kappa * np.array([1.5, 0.8]))
    spec = misspecified_strategy(params, est, prefs, horizon)

    def taus_around(sol):
        switch = sol.diagnostics["switch_tau"]
        assert 0.0 < switch < horizon and sol.diagnostics["p_evals"] > 0
        return np.union1d(np.linspace(0.0, horizon, 11), switch + np.array([-1e-3, 0.0, 1e-3]))

    with monkeypatch.context() as patch:
        _force_switch(patch, riccati.make_S_operator(params, prefs), horizon)
        d = solve_D(params, prefs, horizon)
    _assert_reads_alike(d, solve_D(params, prefs, horizon))
    d_rhs, d0 = oracles.d_equation(params, prefs)

    def with_trace(tau, y):
        out = np.zeros_like(y)
        out[:n, :n], out[n, n] = d_rhs(tau, y[:n, :n]), np.trace(y[:n, :n] @ params.corr)
        return out

    taus = taus_around(d)
    ref = oracles.reference_solve(with_trace, np.pad(d0, (0, 1)), horizon, taus)
    _assert_matches(d, ref[:, :n, :n], ref[:, n, n], taus, max(1.0, float(np.max(np.abs(ref)))))

    for eps in (prefs.gamma, 1.0, 2.0):
        with monkeypatch.context() as patch:
            _force_switch(patch, make_Q_operator(eps, spec), horizon)
            q = solve_Q(eps, spec)
        _assert_reads_alike(q, solve_Q(eps, spec))
        taus = taus_around(q)
        on_grid = q.interpolate(q.tau_grid)
        assert np.array_equal(on_grid, on_grid.transpose(0, 2, 1))
        ref = oracles.reference_solve(*oracles.q_equation(params, est, prefs, eps), horizon, taus)
        q_ref = ref[:, :n, :n]
        _assert_matches(q, 0.5 * (q_ref + q_ref.transpose(0, 2, 1)), ref[:, 2 * n, 2 * n], taus,
                        max(1.0, float(np.max(np.abs(q_ref)))))


def test_horizon_just_short_of_a_pole(monkeypatch):
    # At T = 0.999 tau* the single-MR solve reaches the switch level, finds no
    # pole before T, and reads like a solve that never switches.
    corr, prefs = oracles.pair_corr(0.9), Preferences(gamma=0.5)
    params = oracles.unit_noise([1.0, 0.0], corr)
    horizon = 0.999 * single_mr_blowup_tau(1.0, corr, prefs.gamma)
    d = solve_D(params, prefs, horizon)
    assert 0.0 < d.diagnostics["switch_tau"] < horizon and d.diagnostics["p_evals"] > 0
    # The flag: W = L (S + L I)^-1 falls towards the pole, so its smallest
    # eigenvalue over the inverse pass is the one at T, L / (mu_max(S(T)) + L),
    # well below the 1/2 that max|S| = L at the switch allows.
    op = riccati.make_S_operator(params, prefs)
    level = riccati.switch_level(op, horizon)
    mu_max = np.linalg.eigvalsh(riccati.solve(op, horizon).interpolate(horizon))[-1]
    assert d.diagnostics["w_min"] == pytest.approx(level / (mu_max + level), rel=1e-6)
    assert d.diagnostics["w_min"] < 0.25
    monkeypatch.setattr(riccati, "SWITCH_SCALE", np.inf)
    unswitched = solve_D(params, prefs, horizon)
    assert unswitched.diagnostics["switch_tau"] is None
    assert unswitched.diagnostics["w_min"] is None
    # One S pass: the search for a pole costs only the inverse pass.
    assert d.diagnostics["s_evals"] == unswitched.diagnostics["s_evals"]
    _assert_reads_alike(d, unswitched)


@pytest.mark.parametrize("start, switched", [(0.5, False), (0.8725, True)])
def test_a_failed_step_raises_where_the_integration_stopped(start, switched):
    # C is NaN on (start, 2.9), so every step into that span fails: on the S
    # pass from 0.5, and on the inverse pass, after the switch, from 0.8725,
    # short of the pole at 0.8749.  C stays finite at T, where switch_level
    # reads it.
    params, prefs = two_asset(rho=0.9, kappa=(1.0, 0.0)), Preferences(gamma=0.5)
    op = riccati.make_S_operator(params, prefs)

    def coefficients(tau):
        m, c = op.coefficients(tau)
        return (m, np.full_like(c, np.nan)) if start < tau < 2.9 else (m, c)

    with pytest.raises(BlowUpDetected, match=f"^integrator failed near tau = {start}: ") as info:
        riccati.solve(riccati.symmetric_operator(op.corr, coefficients), 3.0)
    assert info.value.tau_star == pytest.approx(start, rel=1e-12)
    assert (info.value.switch_tau is not None) == switched
    if switched:
        assert 0.0 < info.value.switch_tau < start


def test_sweeps_and_strategies_never_switch(monkeypatch):
    # A solve that reaches the switch level without a pole pays for an inverse
    # pass; no solve on the misspecification sweep or the optimal rule of the
    # default model may take that path.  The sweep's stacked solves do not go
    # through riccati.solve, so its solves are read from its diagnostics.
    returned = []

    def recording(solve):
        def wrapped(op, horizon):
            returned.append(solve(op, horizon))
            return returned[-1]
        return wrapped

    monkeypatch.setattr(riccati, "solve", recording(riccati.solve))
    params, prefs = two_asset(), Preferences(gamma=-4.0)
    grid = misspec_sweep(params, prefs, 3.0, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0], with_sharpe=True)
    sweep = grid.metadata["diagnostics"]
    assert sweep["solves"] > 9
    assert sweep["switched"] == 0 and sweep["p_evals"] == 0
    optimal_strategy(params, prefs, 3.0)
    assert returned and all(sol.diagnostics["switch_tau"] is None for sol in returned)
    assert all(sol.diagnostics["w_min"] is None for sol in returned)


def test_inverse_chart_reads_the_coefficients_once_per_evaluation():
    # Just short of the pole the solve switches to the inverse chart.  Each of
    # its right-hand-side evaluations reads (M, C) once, as each S evaluation
    # does; switch_level reads them at tau = 0 and at T.
    params, prefs = two_asset(rho=0.9, kappa=(1.0, 0.0)), Preferences(gamma=0.5)
    op = riccati.make_S_operator(params, prefs)
    calls = []

    def counting(tau):
        calls.append(tau)
        return op.coefficients(tau)

    horizon = 0.999 * single_mr_blowup_tau(1.0, params.corr, 0.5)
    d = riccati.solve(riccati.symmetric_operator(op.corr, counting), horizon).diagnostics
    assert d["switch_tau"] is not None and d["p_evals"] > 0
    assert len(calls) == d["s_evals"] + d["p_evals"] + 2


@pytest.mark.parametrize("cls", [BlowUpDetected, TrigSingularity])
@pytest.mark.parametrize("switch_tau", [None, 0.5])
def test_blow_up_errors_pickle(cls, switch_tau):
    exc = cls(0.87, switch_tau=switch_tau)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (back.tau_star, back.switch_tau, str(back)) == (0.87, switch_tau, str(exc))
