"""Seeded workloads: op lists built from generated configs, and their checks.

Each op is one CLI command called in-process through ``meanrev.cli.main``
(or, for stored-path Monte Carlo, one library call).  The seed decides the
inputs; the program only ever sees the generated config files.  Checks use
the package's own oracles and the structure of the outputs, never a byte
comparison with a stored CSV: floating-point reassociation may change the
last digits of a result without making it wrong.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("mc-terminal", "misspec-grid", "solve-lookup")

HORIZON = 3.0
N_STEPS = 1536  # 512 steps per unit time, the package default at T = 3
GAMMA = -4.0
DEFAULT_KAPPA = [1.0, 0.5]
DEFAULT_RHO = 0.5

MC_PATHS = 8192          # two 4096-path chunks
STORED_PATHS = 256
SOLVE_SIZES = (2, 5, 10, 20)
SOLVE_SAMPLES = 201
POSITION_TIMES = 61
POSITION_STATES = 50
MISSPEC_MULTIPLIERS = [0.5, 1.0, 2.0]
MISSPEC_RHO = (0.3, 0.7)

# Single mean-reverting asset hedged by a Brownian one: the risk-seeking
# branch has a finite-time pole at tau* = 0.874874448... inside T = 3.
POLE_MODEL = {"kappa": [1.0, 0.0], "rho": 0.9, "gamma": 0.5}

D_TOL = 1e-8             # D = delta Theta^-1 K - (A + A') on the solve grid
POSITION_TOL = 1e-9      # positions against -w D(T - t) x, relative
VALUE_TOL = 1e-8         # value at the mean against the zero-correlation closed form
POLE_TOL = 1e-9          # tau* relative to single_mr_blowup_tau
MC_SE_BOUND = 4.0        # |MC utility - analytic value| in standard errors
DECOMPOSE_TOL = 2e-3     # largest |residual| of the stored-path decomposition


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One closed-loop request: ``run(outdir)`` then ``check(result, outdir, outdirs)``.

    ``check`` returns a list of problems; ``outdirs`` maps the labels of the
    pass's ops to their output directories, for checks that read the output
    of an earlier op of the same pass.
    """

    label: str
    run: Callable[[Path], object]
    check: Callable[[object, Path, dict], list]
    cli: bool = True


@dataclass
class Workload:
    name: str
    ops: list
    prepare: Callable[[], None] = lambda: None


def model_config(kappa, rho_or_corr, gamma=GAMMA, sigma=None, theta=None, **sections) -> dict:
    n = len(kappa)
    if np.isscalar(rho_or_corr):
        corr = [[1.0, float(rho_or_corr)], [float(rho_or_corr), 1.0]]
    else:
        corr = np.asarray(rho_or_corr).tolist()
    return {
        "model": {
            "n": n,
            "kappa": [float(k) for k in kappa],
            "sigma": [1.0] * n if sigma is None else [float(s) for s in sigma],
            "theta": [0.0] * n if theta is None else [float(t) for t in theta],
            "corr": corr,
        },
        "gamma": float(gamma),
        "horizon": HORIZON,
        **sections,
    }


def random_corr(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal((n, 2 * n))
    c = w @ w.T
    d = np.sqrt(np.diag(c))
    corr = c / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return corr


def cli_op(cli, label: str, command: str, config_path: Path, check, expect=0) -> Op:
    def run(outdir: Path) -> CliResult:
        argv = ["--config", str(config_path), "--output-dir", str(outdir), command]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def checked(result: CliResult, outdir: Path, outdirs: dict) -> list:
        if result.code != expect:
            return [f"exit code {result.code}, expected {expect}: {result.stderr.strip()[-200:]}"]
        return check(result, outdir, outdirs)

    return Op(label, run, checked)


def read_csv(path: Path) -> tuple[dict, list, np.ndarray]:
    """Comment metadata, header and numeric rows of a CLI CSV file."""
    meta, lines = {}, path.read_text().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(": ")
        meta[key] = value
        k += 1
    header = lines[k].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[k + 1:]])
    return meta, header, rows.reshape(-1, len(header))


def zero_corr_value(kappa, gamma: float, horizon: float) -> float:
    """J(1, theta, 0) at zero correlation from the package's Psi integral."""
    analysis = importlib.import_module("meanrev.analysis")
    delta = 1.0 / (1.0 - gamma)
    trace = sum(analysis.psi_integral(float(k), delta, horizon) for k in kappa)
    return math.exp(trace / delta) / gamma


def _write(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# mc-terminal
# ---------------------------------------------------------------------------

def build_mc_terminal(seed: int, workdir: Path, cli) -> Workload:
    rng = np.random.default_rng([seed, 1])
    config = model_config(DEFAULT_KAPPA, DEFAULT_RHO, seed=int(rng.integers(2**31)),
                          simulate={"n_paths": MC_PATHS, "n_steps": N_STEPS})
    path = _write(workdir / "mc.json", config)
    refs: dict = {}

    def prepare():
        control = importlib.import_module("meanrev.control")
        model = importlib.import_module("meanrev.model")
        params = model.validate(model.OUParams.from_dict(config["model"]))
        prefs = model.Preferences(gamma=GAMMA)
        a = control.solve_value(params, prefs, HORIZON)
        refs["value"] = control.value_function(1.0, params.theta, 0.0, a, prefs, params).total

    def check(result, outdir, outdirs):
        problems = []
        data = (outdir / "terminal_wealth.csv").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if refs.setdefault("digest", digest) != digest:
            problems.append("terminal_wealth.csv differs from the first pass")
        meta, _, rows = read_csv(outdir / "terminal_wealth.csv")
        if rows.shape[0] != MC_PATHS or not np.all(np.isfinite(rows[:, 1])):
            problems.append(f"{rows.shape[0]} rows or non-finite log-wealth")
        if int(meta.get("excluded", -1)) != 0 or np.any(rows[:, 2] != 0):
            problems.append(f"excluded paths: {meta.get('excluded')}")
        mean, se = float(meta["utility_mean"]), float(meta["utility_se"])
        z = (mean - refs["value"]) / se
        if not abs(z) <= MC_SE_BOUND:
            problems.append(f"MC utility {mean:.6g} is {z:.2f} SE from the analytic value")
        return problems

    return Workload("mc-terminal", [cli_op(cli, "simulate", "simulate", path, check)], prepare)


# ---------------------------------------------------------------------------
# misspec-grid
# ---------------------------------------------------------------------------

_FAILED_CELL = re.compile(r"^cell \(([^,]+), ([^)]+)\) failed: (.+)$", re.M)


def build_misspec_grid(seed: int, workdir: Path, cli) -> Workload:
    rng = np.random.default_rng([seed, 2])
    rho = float(rng.uniform(*MISSPEC_RHO))
    config = model_config(DEFAULT_KAPPA, rho, misspec={
        "multipliers1": MISSPEC_MULTIPLIERS, "multipliers2": MISSPEC_MULTIPLIERS, "sharpe": True,
    })
    path = _write(workdir / "misspec.json", config)

    def check(result, outdir, outdirs):
        problems = []
        meta, header, rows = read_csv(outdir / "misspec_sweep.csv")
        if header[-1] != "sharpe" or rows.shape[0] != len(MISSPEC_MULTIPLIERS) ** 2:
            return [f"unexpected layout {header} with {rows.shape[0]} rows"]
        j_true = float(meta["j_true"])
        reasons = {(float(a), float(b)): r for a, b, r in _FAILED_CELL.findall(result.stderr)}
        for m1, m2, cell, sharpe in rows:
            if m1 == 1.0 and m2 == 1.0 and not abs(cell) <= 1e-8 * abs(j_true):
                problems.append(f"true cell is {cell:.3e}, not zero")
            if np.isnan(cell):
                if not reasons.get((m1, m2), "").strip():
                    problems.append(f"NaN cell ({m1:g}, {m2:g}) without a blow-up reason")
            elif not cell <= 1e-8:
                problems.append(f"cell ({m1:g}, {m2:g}) = {cell:.3e} beats the optimum")
            elif not np.isfinite(sharpe):
                problems.append(f"finite cell ({m1:g}, {m2:g}) has Sharpe {sharpe}")
        return problems

    return Workload("misspec-grid", [cli_op(cli, "misspec", "misspec", path, check)])


# ---------------------------------------------------------------------------
# solve-lookup
# ---------------------------------------------------------------------------

def check_solve(config: dict):
    """D = delta Theta^-1 K - (A + A') on every sampled tau."""
    corr = np.asarray(config["model"]["corr"], dtype=float)
    kappa = np.asarray(config["model"]["kappa"], dtype=float)
    delta = 1.0 / (1.0 - config["gamma"])
    base = delta * np.linalg.inv(corr) * kappa[None, :]
    n = kappa.size

    def check(result, outdir, outdirs):
        _, _, a = read_csv(outdir / "a_solution.csv")
        _, _, d = read_csv(outdir / "d_solution.csv")
        if a.shape != (SOLVE_SAMPLES, n * n + 2) or d.shape != a.shape:
            return [f"solution shapes {a.shape} / {d.shape}"]
        am = a[:, 1:-1].reshape(-1, n, n)
        dm = d[:, 1:-1].reshape(-1, n, n)
        err = float(np.max(np.abs(base - (am + np.swapaxes(am, 1, 2)) - dm)))
        if not err <= D_TOL:
            return [f"A/D consistency error {err:.2e} > {D_TOL:g}"]
        if not np.all(np.isfinite(a[:, -1])):
            return ["non-finite trace integral"]
        return []

    return check


def check_positions(config: dict, solve_label: str):
    """Positions equal -w D(T - t) x in unit-noise coordinates wherever
    T - t is one of the solve op's sampled tau values."""
    sigma = np.asarray(config["model"]["sigma"], dtype=float)
    theta = np.asarray(config["model"]["theta"], dtype=float)
    wealth = config["positions"]["wealth"]
    n = sigma.size

    def check(result, outdir, outdirs):
        _, _, rows = read_csv(outdir / "positions.csv")
        if rows.shape != (POSITION_TIMES * POSITION_STATES, 1 + 2 * n):
            return [f"positions shape {rows.shape}"]
        if not np.all(np.isfinite(rows)):
            return ["non-finite position"]
        _, _, d = read_csv(outdirs[solve_label] / "d_solution.csv")
        taus = d[:, 0]
        worst, compared = 0.0, 0
        for row in rows:
            t, x, alpha = row[0], row[1:1 + n], row[1 + n:]
            k = int(np.argmin(np.abs(taus - (HORIZON - t))))
            if abs(taus[k] - (HORIZON - t)) > 1e-12:
                continue
            dk = d[k, 1:-1].reshape(n, n)
            expect = -wealth * (dk @ ((x - theta) / sigma)) / sigma
            worst = max(worst, float(np.max(np.abs(alpha - expect) / (1.0 + np.abs(expect)))))
            compared += 1
        if compared == 0 or not worst <= POSITION_TOL:
            return [f"position error {worst:.2e} over {compared} rows"]
        return []

    return check


def build_solve_lookup(seed: int, workdir: Path, cli) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ops: list = []
    for n in SOLVE_SIZES:
        states = rng.standard_normal((POSITION_STATES, n))
        sigma = rng.uniform(0.5, 1.5, n)
        theta = rng.uniform(-0.5, 0.5, n)
        config = model_config(
            rng.uniform(0.5, 1.5, n), random_corr(rng, n), gamma=float(rng.uniform(-4.0, -1.0)),
            sigma=sigma, theta=theta, samples=SOLVE_SAMPLES,
            positions={
                "wealth": 1.0,
                "states": (theta + sigma * states).tolist(),
                "times": np.linspace(0.0, HORIZON, POSITION_TIMES).tolist(),
            },
        )
        path = _write(workdir / f"model{n}.json", config)

        def check_validate(result, outdir, outdirs, n=n):
            return [] if result.stdout.startswith(f"ok: n={n} ") else [result.stdout[:80]]

        ops += [
            cli_op(cli, f"validate-{n}", "validate", path, check_validate),
            cli_op(cli, f"solve-{n}", "solve", path, check_solve(config)),
            cli_op(cli, f"positions-{n}", "positions", path,
                   check_positions(config, f"solve-{n}")),
        ]

    kappa_config = model_config(DEFAULT_KAPPA, DEFAULT_RHO)
    kappa_path = _write(workdir / "kappa.json", kappa_config)

    def check_kappa(result, outdir, outdirs):
        _, _, surface = read_csv(outdir / "value_surface.csv")
        _, _, curves = read_csv(outdir / "d_curves.csv")
        problems = []
        if surface.shape != (45, 3) or not np.all(np.isfinite(surface)):
            problems.append(f"value surface shape {surface.shape} or non-finite cells")
        for k2, rho, value in surface[surface[:, 1] == 0.0]:
            expect = zero_corr_value([DEFAULT_KAPPA[0], k2], GAMMA, HORIZON)
            if not abs(value - expect) <= VALUE_TOL * abs(expect):
                problems.append(f"value at kappa2={k2:g}, rho=0: {value!r} vs {expect!r}")
        if curves.shape != (3 * POSITION_TIMES, 3) or not np.all(np.isfinite(curves)):
            problems.append(f"d_curves shape {curves.shape}")
        return problems

    corr_kappa = np.sort(rng.uniform(0.5, 1.5, 3))
    corr_config = model_config(corr_kappa, np.eye(3))
    corr_path = _write(workdir / "corr.json", corr_config)

    def check_corr(result, outdir, outdirs):
        meta, _, rows = read_csv(outdir / "corr_sweep.csv")
        if rows.shape != (19, 2) or not np.all(np.isfinite(rows)):
            return [f"corr sweep shape {rows.shape} or non-finite values"]
        problems = []
        zero = rows[np.abs(rows[:, 0]) < 1e-12]
        expect = zero_corr_value(corr_kappa, GAMMA, HORIZON)
        if zero.shape[0] != 1 or not abs(zero[0, 1] - expect) <= VALUE_TOL * abs(expect):
            problems.append(f"value at rho=0 {zero[:, 1]} vs {expect!r}")
        d1, err1 = float(meta["first_derivative"]), float(meta["first_error"])
        if not abs(d1) <= max(5 * err1, 1e-9):
            problems.append(f"first correlation derivative {d1:.2e} is not zero")
        return problems

    pole = POLE_MODEL
    pole_config = model_config(pole["kappa"], pole["rho"], gamma=pole["gamma"])
    pole_path = _write(workdir / "pole.json", pole_config)
    refs: dict = {}

    def check_pole(result, outdir, outdirs):
        found = re.search(r"tau\* = ([0-9.eE+-]+)", result.stderr)
        problems = list(refs.pop("pole_problems", []))
        if found is None:
            return problems + [f"no tau* in {result.stderr.strip()[-120:]!r}"]
        printed = float(found.group(1))
        if not abs(printed - refs["tau_star"]) <= 5e-6 * refs["tau_star"]:
            problems.append(f"printed tau* {printed} vs {refs['tau_star']!r}")
        return problems

    def check_verify(result, outdir, outdirs):
        report = json.loads((outdir / "verify.json").read_text())
        failed = [k for k, v in report["checks"].items() if not v["passed"]]
        return [] if report["all_passed"] and not failed else [f"verify failed: {failed}"]

    mc_seed = int(rng.integers(2**31))
    modules = {m: importlib.import_module(f"meanrev.{m}") for m in ("model", "control", "wealth")}

    def run_paths(outdir: Path):
        model, control, wealth = modules["model"], modules["control"], modules["wealth"]
        params = model.validate(model.OUParams.from_dict(kappa_config["model"]))
        prefs = model.Preferences(gamma=GAMMA)
        spec = control.optimal_strategy(params, prefs, HORIZON)
        ens = wealth.simulate(params, prefs, spec, HORIZON, N_STEPS, STORED_PATHS, mc_seed,
                              store_paths=True)
        residual = max(abs(wealth.decompose(ens, p, 0.0, HORIZON).residual)
                       for p in range(STORED_PATHS))
        return ens.n_excluded, residual

    def check_paths(result, outdir, outdirs):
        excluded, residual = result
        problems = [] if excluded == 0 else [f"{excluded} excluded paths"]
        if not residual < DECOMPOSE_TOL:
            problems.append(f"largest decompose residual {residual:.2e}")
        return problems

    def prepare():
        model = modules["model"]
        riccati = importlib.import_module("meanrev.riccati")
        errors = importlib.import_module("meanrev.errors")
        params = model.validate(model.OUParams.from_dict(pole_config["model"]))
        norm, _ = model.normalize(params)
        refs["tau_star"] = riccati.single_mr_blowup_tau(
            pole["kappa"][0], params.corr, pole["gamma"])
        try:
            # The same first solve cmd_solve makes; it must blow up at the pole.
            riccati.solve_A(norm, model.Preferences(gamma=pole["gamma"]), HORIZON)
            refs["pole_problems"] = ["solve_A did not blow up on the pole config"]
        except errors.BlowUpDetected as exc:
            rel = abs(exc.tau_star - refs["tau_star"]) / refs["tau_star"]
            refs["pole_problems"] = [] if rel <= POLE_TOL else [
                f"tau* {exc.tau_star!r} is {rel:.1e} from {refs['tau_star']!r}"]

    ops += [
        cli_op(cli, "kappa-sweep", "kappa-sweep", kappa_path, check_kappa),
        cli_op(cli, "corr-sweep", "corr-sweep", corr_path, check_corr),
        cli_op(cli, "solve-pole", "solve", pole_path, check_pole, expect=2),
        cli_op(cli, "verify", "verify", kappa_path, check_verify),
        Op("stored-paths", run_paths, check_paths, cli=False),
    ]
    return Workload("solve-lookup", ops, prepare)


BUILDERS = {
    "mc-terminal": build_mc_terminal,
    "misspec-grid": build_misspec_grid,
    "solve-lookup": build_solve_lookup,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    cli = importlib.import_module("meanrev.cli")
    return BUILDERS[name](seed, workdir, cli)
