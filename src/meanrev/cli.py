"""Command-line front end: reproducible experiments from JSON configs.

Every subcommand reads a JSON config (or falls back to a built-in default
model), writes CSV files with a commented metadata header into the output
directory, and returns a structured exit code: 0 success, 1 validation
error, 2 numerical failure, 3 I/O error.  Identical config and seed give
byte-identical CSV files; the metadata header carries the config hash and
seed but no timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import __version__
from .analysis import (
    corr_sensitivity,
    d_curve_1d,
    lambda_closed_form,
    matrix_calculus_checks,
    phi_diagonal,
    psi_closed_form,
    psi_integral,
    psi_property,
    solve_F,
    value_vs_kappa2_rho,
)
from .control import optimal_strategy, solve_value, value_at_mean
from .errors import BlowUpDetected, MeanrevError, NonFinite, ValidationError
from .misspec import misspec_sweep
from .model import OUParams, Preferences, normalize, validate
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
from .wealth import default_steps, simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

DEFAULT_CONFIG = {
    "model": {
        "n": 2,
        "kappa": [1.0, 0.5],
        "sigma": [1.0, 1.0],
        "theta": [0.0, 0.0],
        "corr": [[1.0, 0.5], [0.5, 1.0]],
    },
    "gamma": -4.0,
    "horizon": 3.0,
    "seed": 0,
}


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    with open(path) as fh:
        return json.load(fh)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def parse_model(config: dict) -> tuple[OUParams, Preferences, float]:
    params = validate(OUParams.from_dict(config["model"]))
    prefs = Preferences(gamma=float(config.get("gamma", -4.0)))
    horizon = float(config.get("horizon", 3.0))
    if not np.isfinite(horizon):
        raise NonFinite(f"horizon must be finite, got {horizon}")
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    return params, prefs, horizon


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, meta: dict, header: list, rows) -> None:
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def base_meta(config: dict, seed: int | None = None) -> dict:
    meta = {"tool": "meanrev", "version": __version__, "config_hash": config_hash(config)}
    if seed is not None:
        meta["seed"] = seed
    return meta


# SVG plots are written by hand so that ``--plot`` needs no optional
# dependency.  Pixel coordinates are printed with two decimals and labels
# with four significant digits, and nothing time- or random-dependent is
# written, so identical inputs give byte-identical SVG files.
SVG_SIZE = (640, 480)
PLOT_BOX = (80.0, 40.0, 480.0, 420.0)  # left, top, right, bottom of the data area
LINE_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
HEAT_LOW, HEAT_HIGH = (68, 1, 84), (253, 231, 37)
FAILED_FILL = "#bdbdbd"  # heatmap cells without a finite value


def _px(v: float) -> str:
    return f"{v:.2f}"


def _label(v: float) -> str:
    return f"{v:.4g}"


def _esc(text) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite_range(values) -> tuple[float, float]:
    """Min and max of the finite values, widened when they span no range.

    A spread below 1e-8 of the values' magnitude is solver noise (the
    Riccati solves run at rtol 1e-10), so such values are drawn flat at
    mid-axis instead of stretched over the whole axis.
    """
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo <= 1e-8 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        pad = 0.5 * max(abs(mid), 1.0)
        lo, hi = mid - pad, mid + pad
    return lo, hi


def _text(x: float, y: float, text: str, anchor: str = "middle", rotate: bool = False) -> str:
    turn = f' transform="rotate(-90 {_px(x)} {_px(y)})"' if rotate else ""
    return (f'<text x="{_px(x)}" y="{_px(y)}" text-anchor="{anchor}"{turn}>'
            f"{text}</text>")


def _rect(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (f'<rect x="{_px(x)}" y="{_px(y)}" width="{_px(w)}" height="{_px(h)}" '
            f'fill="{fill}"/>')


def _write_svg(path: Path, body: list, title: str, xlabel: str, ylabel: str,
               xticks: list, yticks: list) -> None:
    """Frame ``body`` with a white page, an axes box, tick labels and titles.

    Ticks are ``(pixel, label)`` pairs along the data area's x and y edges.
    """
    width, height = SVG_SIZE
    left, top, right, bottom = PLOT_BOX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        _rect(0, 0, width, height, "white"),
        *body,
        f'<rect x="{_px(left)}" y="{_px(top)}" width="{_px(right - left)}" '
        f'height="{_px(bottom - top)}" fill="none" stroke="black"/>',
    ]
    parts += [_text(px, bottom + 16, label) for px, label in xticks]
    parts += [_text(left - 6, py + 4, label, anchor="end") for py, label in yticks]
    if title:
        parts.append(_text((left + right) / 2, 24, _esc(title)))
    parts += [
        _text((left + right) / 2, bottom + 40, _esc(xlabel)),
        _text(20, (top + bottom) / 2, _esc(ylabel), rotate=True),
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n")


def plot_lines(path: Path, x, series: dict, xlabel: str, ylabel: str) -> None:
    """One polyline per series over a shared x grid, with a legend.

    Non-finite points are left out of the polylines and of the axis ranges.
    """
    left, top, right, bottom = PLOT_BOX
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(y, dtype=float) for name, y in series.items()}
    x_lo, x_hi = _finite_range(x)
    y_lo, y_hi = _finite_range(np.concatenate(list(ys.values())))

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    body = []
    for k, (name, y) in enumerate(ys.items()):
        color = LINE_COLORS[k % len(LINE_COLORS)]
        keep = np.isfinite(x) & np.isfinite(y)
        points = " ".join(f"{_px(sx(a))},{_px(sy(b))}" for a, b in zip(x[keep], y[keep]))
        body.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>')
        ly = top + 10 + 18 * k
        body.append(f'<line x1="{_px(right + 16)}" y1="{_px(ly)}" x2="{_px(right + 40)}" '
                    f'y2="{_px(ly)}" stroke="{color}" stroke-width="1.5"/>')
        body.append(_text(right + 46, ly + 4, _esc(name), anchor="start"))
    xticks = [(sx(v), _label(v)) for v in np.linspace(x_lo, x_hi, 5)]
    yticks = [(sy(v), _label(v)) for v in np.linspace(y_lo, y_hi, 5)]
    _write_svg(path, body, "", xlabel, ylabel, xticks, yticks)


def _heat_color(t: float) -> str:
    rgb = (int(round(lo + float(t) * (hi - lo))) for lo, hi in zip(HEAT_LOW, HEAT_HIGH))
    return "#" + "".join(f"{c:02x}" for c in rgb)


def plot_heatmap(path: Path, grid, title: str) -> None:
    """One rectangle per grid cell: axis2 across, axis1 upwards.

    The linear colour scale spans the finite cells only; a non-finite
    (failed) cell is drawn in ``FAILED_FILL``.
    """
    left, top, right, bottom = PLOT_BOX
    n1, n2 = grid.cells.shape
    cw, ch = (right - left) / n2, (bottom - top) / n1
    lo, hi = _finite_range(grid.cells.ravel())
    body = []
    for i in range(n1):
        for j in range(n2):
            v = grid.cells[i, j]
            fill = _heat_color((v - lo) / (hi - lo)) if np.isfinite(v) else FAILED_FILL
            body.append(_rect(left + j * cw, bottom - (i + 1) * ch, cw, ch, fill))
    # Colour bar: eight steps from the lowest to the highest finite cell.
    steps = 8
    sh = (bottom - top) / 2 / steps
    for k in range(steps):
        body.append(_rect(right + 20, top + (steps - 1 - k) * sh, 20, sh,
                          _heat_color(k / (steps - 1))))
    body.append(_text(right + 46, top + 10, _label(hi), anchor="start"))
    body.append(_text(right + 46, top + steps * sh, _label(lo), anchor="start"))
    if not np.all(np.isfinite(grid.cells)):
        fy = top + steps * sh + 20
        body.append(_rect(right + 20, fy, 20, sh, FAILED_FILL))
        body.append(_text(right + 46, fy + sh / 2 + 4, "failed", anchor="start"))
    xticks = [(left + (j + 0.5) * cw, _label(v)) for j, v in enumerate(grid.axis2)]
    yticks = [(bottom - (i + 0.5) * ch, _label(v)) for i, v in enumerate(grid.axis1)]
    _write_svg(path, body, title, grid.axis2_name, grid.axis1_name, xticks, yticks)


def cmd_validate(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    print(f"ok: n={params.n} assets, gamma={prefs.gamma}, horizon={horizon}")
    return EXIT_OK


def cmd_solve(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    norm_params, _ = normalize(params)
    s = solve(make_S_operator(norm_params, prefs), horizon)
    a, d = (s_view(s, which, norm_params, prefs) for which in "AD")
    samples = int(config.get("samples", 201))
    taus = np.linspace(0.0, horizon, samples)
    n = params.n
    meta = base_meta(config)
    entry_names = [f"{i}{j}" for i in range(n) for j in range(n)]
    for name, sol in (("a_solution", a), ("d_solution", d)):
        rows = []
        for tau in taus:
            m = sol.interpolate(tau)
            rows.append([tau, *m.ravel(), sol.trace_integral_at(tau)])
        write_csv(
            outdir / f"{name}.csv", meta,
            ["tau", *(f"{name[0]}_{e}" for e in entry_names), "trace_integral"], rows,
        )
    if plot:
        d_diag = np.array([[d.interpolate(tau)[i, i] for tau in taus] for i in range(n)])
        plot_lines(
            outdir / "d_solution.svg", taus,
            {f"D_{i}{i}": d_diag[i] for i in range(n)}, "tau", "feedback",
        )
    print(f"wrote a_solution.csv, d_solution.csv to {outdir}")
    return EXIT_OK


def cmd_positions(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("positions", {})
    wealth = float(section.get("wealth", 1.0))
    states = np.atleast_2d(np.asarray(section.get("states", [params.theta.tolist()]), dtype=float))
    times = np.asarray(section.get("times", [0.0]), dtype=float)
    spec = optimal_strategy(params, prefs, horizon)
    rows = []
    for t in times:
        for x in states:
            alpha = spec.position(wealth, x, float(t))
            rows.append([t, *x, *alpha])
    n = params.n
    write_csv(
        outdir / "positions.csv", base_meta(config),
        ["t", *(f"x_{i}" for i in range(n)), *(f"alpha_{i}" for i in range(n))], rows,
    )
    print(f"wrote positions.csv to {outdir}")
    return EXIT_OK


def cmd_simulate(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("simulate", {})
    n_paths = int(section.get("n_paths", 1000))
    n_steps = int(section.get("n_steps", default_steps(horizon)))
    x0 = section.get("x0")
    spec = optimal_strategy(params, prefs, horizon)
    ens = simulate(
        params, prefs, spec, horizon, n_steps, n_paths, seed,
        x0=None if x0 is None else np.asarray(x0, dtype=float), store_paths=False,
    )
    mean, se = ens.utility_estimate(prefs.gamma)
    meta = base_meta(config, seed)
    meta.update({
        "n_paths": n_paths, "n_steps": n_steps, "excluded": ens.n_excluded,
        "utility_mean": _fmt(mean), "utility_se": _fmt(se),
    })
    write_csv(
        outdir / "terminal_wealth.csv", meta,
        ["path", "terminal_log_wealth", "excluded"],
        ([i, ens.terminal_log_wealth[i], int(ens.excluded[i])] for i in range(n_paths)),
    )
    print(f"wrote terminal_wealth.csv to {outdir} "
          f"(utility {mean:.6g} +- {se:.2g}, {ens.n_excluded} excluded)")
    return EXIT_OK


def cmd_misspec(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("misspec", {})
    m1 = np.asarray(section.get("multipliers1", [0.5, 0.75, 1.0, 1.5, 2.0]), dtype=float)
    m2 = np.asarray(section.get("multipliers2", [0.5, 0.75, 1.0, 1.5, 2.0]), dtype=float)
    with_sharpe = bool(section.get("sharpe", False))
    grid = misspec_sweep(params, prefs, horizon, m1, m2, ctrl=None, with_sharpe=with_sharpe)
    meta = base_meta(config)
    meta["j_true"] = _fmt(grid.metadata["j_true"])
    header = [grid.axis1_name, grid.axis2_name, "value_shortfall"]
    rows = []
    sharpes = grid.metadata.get("sharpe")
    if with_sharpe:
        header.append("sharpe")
    for i, a in enumerate(grid.axis1):
        for j, b in enumerate(grid.axis2):
            row = [a, b, grid.cells[i, j]]
            if with_sharpe:
                row.append(sharpes[i, j])
            rows.append(row)
    write_csv(outdir / "misspec_sweep.csv", meta, header, rows)
    if grid.failures:
        for (i, j), reason in sorted(grid.failures.items()):
            print(f"cell ({grid.axis1[i]:g}, {grid.axis2[j]:g}) failed: {reason}",
                  file=sys.stderr)
    if plot:
        plot_heatmap(outdir / "misspec_sweep.svg", grid, "value shortfall")
    print(f"wrote misspec_sweep.csv to {outdir}")
    return EXIT_OK


def cmd_corr_sweep(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("corr_sweep", {})
    pair = tuple(section.get("pair", [0, 1]))
    rhos = np.asarray(section.get("rho_grid", np.linspace(-0.9, 0.9, 19).tolist()), dtype=float)
    if not np.allclose(params.corr, np.eye(params.n)):
        raise ValidationError("corr-sweep starts from the uncorrelated model")
    rows = []
    for rho in rhos:
        corr = np.eye(params.n)
        corr[pair[0], pair[1]] = corr[pair[1], pair[0]] = rho
        perturbed = validate(OUParams(
            n=params.n, kappa=params.kappa, sigma=params.sigma, theta=params.theta, corr=corr
        ))
        a = solve_value(perturbed, prefs, horizon)
        rows.append([rho, value_at_mean(1.0, 0.0, a, prefs)])
    report = corr_sensitivity(params, prefs, horizon, pair, h=float(section.get("h", 1e-3)))
    meta = base_meta(config)
    meta.update({
        "pair": f"{pair[0]}-{pair[1]}",
        "first_derivative": _fmt(report.first_derivative),
        "first_error": _fmt(report.first_error),
        "second_derivative": _fmt(report.second_derivative),
        "second_error": _fmt(report.second_error),
        "log_second_derivative": _fmt(report.log_second_derivative),
        "log_second_error": _fmt(report.log_second_error),
    })
    write_csv(outdir / "corr_sweep.csv", meta, ["rho", "value_at_mean"], rows)
    if plot:
        plot_lines(
            outdir / "corr_sweep.svg", rhos, {"J": [r[1] for r in rows]}, "rho", "value",
        )
    print(f"wrote corr_sweep.csv to {outdir}")
    return EXIT_OK


def cmd_kappa_sweep(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("kappa_sweep", {})
    kappa2 = np.asarray(section.get("kappa2_grid", np.linspace(0.2, 3.0, 15).tolist()), dtype=float)
    rhos = np.asarray(section.get("rho_grid", [0.0, 0.5, 0.9]), dtype=float)
    grid = value_vs_kappa2_rho(
        kappa2, rhos, gamma=prefs.gamma, kappa1=float(params.kappa[0]), horizon=horizon,
    )
    write_csv(
        outdir / "value_surface.csv", base_meta(config),
        ["kappa2", "rho", "value_at_mean"], list(grid.rows()),
    )
    gammas = np.asarray(section.get("gammas", [-4.0, 0.0, 0.5]), dtype=float)
    times = np.asarray(section.get("times", np.linspace(0.0, horizon, 61).tolist()), dtype=float)
    curves = d_curve_1d(float(params.kappa[0]), gammas, horizon, times)
    write_csv(
        outdir / "d_curves.csv", base_meta(config),
        ["gamma", "t", "d_scalar"], list(curves.rows()),
    )
    if plot:
        plot_heatmap(outdir / "value_surface.svg", grid, "value at the mean")
        plot_lines(
            outdir / "d_curves.svg", times,
            {f"gamma={g:g}": curves.cells[i] for i, g in enumerate(curves.axis1)},
            "t", "position multiplier",
        )
    print(f"wrote value_surface.csv, d_curves.csv to {outdir}")
    return EXIT_OK


def run_verification() -> dict:
    """Full oracle and identity suite; returns a name -> result report."""
    checks: dict = {}

    def record(name: str, passed: bool, detail: str) -> None:
        checks[name] = {"passed": bool(passed), "detail": detail}

    taus = np.linspace(0.0, 3.0, 61)

    # Scalar, uncorrelated, common-kappa, and single-asset oracles.
    worst = 0.0
    for delta in (0.2, 1.0, 2.0):
        prefs = Preferences.from_delta(delta)
        p1 = OUParams(n=1, kappa=np.array([0.8]), sigma=np.ones(1),
                      theta=np.zeros(1), corr=np.eye(1))
        d1 = solve_D(p1, prefs, 3.0)
        for tau in taus:
            worst = max(worst, abs(d1.interpolate(tau)[0, 0]
                                   - d_scalar_closed_form(0.8, delta, tau)))
    record("scalar_oracle", worst < 1e-8, f"max err {worst:.2e}")

    worst = 0.0
    pole_detail = None
    for rho in (-0.8, 0.0, 0.5, 0.9):
        corr = np.array([[1.0, rho], [rho, 1.0]])
        common = OUParams(n=2, kappa=np.array([0.7, 0.7]), sigma=np.ones(2),
                          theta=np.zeros(2), corr=corr)
        prefs = Preferences.from_delta(2.0)
        dn = solve_D(common, prefs, 3.0)
        for tau in taus:
            worst = max(worst, np.max(np.abs(dn.interpolate(tau)
                                             - d_common_kappa(0.7, corr, 2.0, tau))))
        single = OUParams(n=2, kappa=np.array([1.0, 0.0]), sigma=np.ones(2),
                          theta=np.zeros(2), corr=corr)
        # Risk-seeking branch can have a finite-time pole inside the horizon;
        # compare up to 90% of it and require the solver to locate it.
        pole = single_mr_blowup_tau(1.0, corr, prefs.gamma)
        span = 3.0 if pole is None else 0.9 * pole
        try:
            ds = solve_D(single, prefs, span if pole is None else 0.98 * pole)
        except BlowUpDetected:
            pole_detail = "unexpected blow-up before the pole"
            ds = None
        if ds is not None:
            for tau in np.linspace(0.0, span, 61):
                worst = max(worst, np.max(np.abs(ds.interpolate(tau)
                                                 - d_single_mr(1.0, corr, prefs.gamma, tau))))
        if pole is not None and pole < 3.0:
            try:
                solve_D(single, prefs, 3.0)
                pole_detail = "missed finite-time pole"
            except BlowUpDetected as exc:
                if abs(exc.tau_star - pole) > 0.05 * pole:
                    pole_detail = f"pole at {pole:.4f} reported as {exc.tau_star:.4f}"
    uncorr = OUParams(n=3, kappa=np.array([0.4, 1.0, 1.6]), sigma=np.ones(3),
                      theta=np.zeros(3), corr=np.eye(3))
    du = solve_D(uncorr, Preferences.from_delta(0.2), 3.0)
    for tau in taus:
        worst = max(worst, np.max(np.abs(du.interpolate(tau)
                                         - d_uncorrelated(uncorr.kappa, 0.2, tau))))
    record("structured_oracles", worst < 1e-8 and pole_detail is None,
           pole_detail or f"max err {worst:.2e}")

    # Log-utility fixed point.
    p = OUParams(n=2, kappa=np.array([1.0, 0.5]), sigma=np.ones(2), theta=np.zeros(2),
                 corr=np.array([[1.0, 0.6], [0.6, 1.0]]))
    dlog = solve_D(p, Preferences(gamma=0.0), 3.0)
    fixed = p.corr_inv @ np.diag(p.kappa)
    worst = max(np.max(np.abs(dlog.interpolate(tau) - fixed)) for tau in taus)
    record("log_utility_fixed_point", worst < 1e-10, f"max err {worst:.2e}")

    # A, D and F, all views of one S solve, against the D- and F-equations
    # integrated on their own by a different method at tight tolerance.
    def reference(rhs, m0: np.ndarray, horizon: float, taus: np.ndarray) -> np.ndarray:
        k = m0.shape[0]
        res = solve_ivp(lambda tau, y: rhs(y.reshape(k, k)).ravel(), (0.0, horizon),
                        m0.ravel(), method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True)
        return np.moveaxis(res.sol(taus).reshape(k, k, -1), 2, 0)

    rng = np.random.default_rng(12345)
    worst_ad, worst_f = 0.0, 0.0
    for _ in range(5):
        n = int(rng.integers(1, 4))
        w = rng.standard_normal((n, n + 2))
        c = w @ w.T
        dd = np.sqrt(np.diag(c))
        corr = c / np.outer(dd, dd)
        np.fill_diagonal(corr, 1.0)
        pr = OUParams(n=n, kappa=rng.uniform(0.3, 1.5, n), sigma=np.ones(n),
                      theta=np.zeros(n), corr=corr)
        prefs = Preferences(gamma=float(rng.choice([-4.0, -1.0, 0.5])))
        a = solve_A(pr, prefs, 2.0)
        d = solve_D(pr, prefs, 2.0)
        f = solve_F(pr, prefs, 2.0)
        delta, kmat = prefs.delta, np.diag(pr.kappa)
        base = delta * pr.corr_inv @ kmat
        gam = pr.corr_inv @ kmat @ corr
        tau_pts = np.linspace(0.0, 2.0, 21)
        d_ref = reference(lambda m: -m.T @ corr @ m + delta * kmat @ pr.corr_inv @ kmat,
                          base, 2.0, tau_pts)
        f_ref = reference(lambda m: (2.0 * m @ m - delta * (kmat @ m + m @ gam)
                                     + 0.5 * delta * (delta - 1.0) * kmat @ gam),
                          np.zeros((n, n)), 2.0, tau_pts)
        for tau, dr, fr in zip(tau_pts, d_ref, f_ref):
            am = a.interpolate(tau)
            worst_ad = max(worst_ad, np.max(np.abs(d.interpolate(tau) - dr)),
                           np.max(np.abs(base - (am + am.T) - dr)))
            worst_f = max(worst_f, np.max(np.abs(f.interpolate(tau) - fr)))
    record("a_d_consistency", worst_ad < 1e-8, f"max err {worst_ad:.2e}")
    record("f_consistency", worst_f < 1e-8, f"max err {worst_f:.2e}")

    # Psi residual, integral, property; lambda oracle; phi signs.
    worst_res, worst_prop = 0.0, 0.0
    h = 1e-5
    for delta in (0.2, 2.0, 4.0):
        for kappa in (0.5, 1.0):
            ts = np.linspace(h, 3.0, 121)
            psi = psi_closed_form(kappa, delta, ts)
            dnum = (psi_closed_form(kappa, delta, ts + h)
                    - psi_closed_form(kappa, delta, ts - h)) / (2 * h)
            resid = dnum - (2 * psi**2 - 2 * delta * kappa * psi
                            + 0.5 * delta * (delta - 1) * kappa**2)
            worst_res = max(worst_res, float(np.max(np.abs(resid))))
            prop = psi + 0.5 * (1 - delta) * kappa - psi_property(kappa, delta, ts)
            worst_prop = max(worst_prop, float(np.max(np.abs(prop))))
    record("psi_ode_residual", worst_res < 1e-8, f"max resid {worst_res:.2e}")
    record("psi_property_identity", worst_prop < 1e-12, f"max err {worst_prop:.2e}")

    q, _ = quad(lambda s: psi_closed_form(1.0, 4.0, s), 0.0, 2.0, limit=200)
    err = abs(q - psi_integral(1.0, 4.0, 2.0))
    record("psi_integral_quadrature", err < 1e-10, f"err {err:.2e}")

    worst = 0.0
    for ki in (0.5, 1.0, 2.0):
        for kj in (0.4, 1.0, 1.7):
            for delta in (0.2, 2.0, 4.0):
                def lam_rhs(tau, y):
                    return [y[0] * (2 * psi_closed_form(ki, delta, tau)
                                    + 2 * psi_closed_form(kj, delta, tau)
                                    - delta * (ki + kj))
                            - delta * (ki - kj) * psi_property(ki, delta, tau)]
                res = solve_ivp(lam_rhs, (0, 3), [0.0], rtol=1e-12, atol=1e-14,
                                dense_output=True)
                for tau in np.linspace(0, 3, 16):
                    worst = max(worst, abs(res.sol(tau)[0]
                                           - lambda_closed_form(ki, kj, delta, tau)))
    record("lambda_oracle", worst < 1e-8, f"max err {worst:.2e}")

    _, _, pos = phi_diagonal(1.0, 0.5, 4.0, 3.0)
    _, _, neg = phi_diagonal(1.0, 0.5, 0.2, 3.0)
    _, _, zero_d = phi_diagonal(1.0, 0.5, 1.0, 3.0)
    _, _, zero_k = phi_diagonal(0.8, 0.8, 4.0, 3.0)
    ok = pos > 0 and neg < 0 and abs(zero_d) < 1e-10 and abs(zero_k) < 1e-10
    record("phi_integral_signs", ok,
           f"pos {pos:.3e}, neg {neg:.3e}, zeros {zero_d:.1e}/{zero_k:.1e}")

    rep = matrix_calculus_checks(np.array([1.0, 0.5, 2.0]), (0, 1), (1, 2))
    record("matrix_calculus_identities", rep.all_passed,
           "; ".join(f"{c.name} {c.max_error:.2e}" for c in rep.checks))

    # Correlation-derivative trio at the uncorrelated point: the curvature
    # sign matching sign(gamma) is carried by the log-transformed value,
    # while J itself is convex in rho there on both sides of gamma = 0
    # (local minimum of J).  Both readings are reported.
    trio_ok = True
    details = []
    for gamma in (-4.0, 0.5):
        for kpair in ((1.0, 0.5), (1.0, 1.0)):
            pr = OUParams(n=2, kappa=np.array(kpair), sigma=np.ones(2),
                          theta=np.zeros(2), corr=np.eye(2))
            r = corr_sensitivity(pr, Preferences(gamma=gamma), 2.0, (0, 1))
            tol1 = max(5 * r.first_error, 1e-9)
            tol2 = max(5 * r.log_second_error, 1e-9)
            if abs(r.first_derivative) > tol1:
                trio_ok = False
            if kpair[0] == kpair[1]:
                if abs(r.log_second_derivative) > tol2:
                    trio_ok = False
            else:
                if np.sign(r.log_second_derivative) != np.sign(gamma):
                    trio_ok = False
                if r.second_derivative <= 0:
                    trio_ok = False
            details.append(f"g={gamma:g} k={kpair}: d1={r.first_derivative:.1e} "
                           f"d2J={r.second_derivative:.3e} "
                           f"d2logJ={r.log_second_derivative:.3e}")
    record("correlation_minimum_trio", trio_ok, "; ".join(details))
    checks["correlation_minimum_trio"]["note"] = (
        "curvature of J is positive on both sides of gamma = 0 (uncorrelated "
        "point minimizes J); the gamma-signed curvature holds for log|J|"
    )
    return checks


def cmd_verify(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    checks = run_verification()
    all_ok = all(c["passed"] for c in checks.values())
    report = {"version": __version__, "all_passed": all_ok, "checks": checks}
    (outdir / "verify.json").write_text(json.dumps(report, indent=2) + "\n")
    for name, c in checks.items():
        print(f"{'PASS' if c['passed'] else 'FAIL'} {name}: {c['detail']}")
    print(f"wrote verify.json to {outdir}")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


# Commands that write no figure; ``--plot`` only earns them a note on stderr.
PLOTLESS = ("validate", "positions", "simulate", "verify")

COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "positions": cmd_positions,
    "simulate": cmd_simulate,
    "misspec": cmd_misspec,
    "corr-sweep": cmd_corr_sweep,
    "kappa-sweep": cmd_kappa_sweep,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanrev",
        description="Optimal dynamic trading of correlated mean-reverting assets",
    )
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--output-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--plot", action="store_true",
                        help="also write SVG plots (solve, misspec, corr-sweep, kappa-sweep)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.plot and args.command in PLOTLESS:
        print(f"note: {args.command} has no figure; --plot writes nothing", file=sys.stderr)
    try:
        return COMMANDS[args.command](config, outdir, seed, args.plot)
    except ValidationError as exc:
        print(f"validation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowUpDetected as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc} "
              f"(tau* = {exc.tau_star:.6g})", file=sys.stderr)
        return EXIT_NUMERICAL
    except MeanrevError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
