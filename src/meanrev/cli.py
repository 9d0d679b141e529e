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

from . import __version__
from .analysis import check_pair, corr_sensitivity, d_curve_1d, value_vs_kappa2_rho
from .control import optimal_strategy, value_at_mean
from .errors import BlowUpDetected, MeanrevError, ValidationError
from .misspec import misspec_sweep
from .model import OUParams, Preferences, _check_size, check_positive
from .riccati import make_S_operator, s_view, solve
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
    params = OUParams.from_dict(config["model"])
    prefs = Preferences(gamma=float(config.get("gamma", -4.0)))
    return params, prefs, check_positive(config.get("horizon", 3.0), "horizon")


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, meta: dict, header: list, rows) -> None:
    """The metadata as comment lines, the header, then one line per row.

    A row is formatted in one "%.17g" call: for floats (NaN, infinities and
    -0.0 among them) that prints what ``_fmt`` prints, and for ints below
    1e17 their digits.  A larger int would print as 1e+17 and a bool as 1;
    no command writes either.
    """
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(header))
    row_format = ",".join(["%.17g"] * len(header))
    lines.extend(row_format % tuple(row) for row in rows)
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


def report_failed_cells(grid) -> None:
    """One stderr line per failed cell of a SensitivityGrid, with its reason."""
    for (i, j), reason in sorted(grid.failures.items()):
        print(f"cell ({grid.axis1[i]:g}, {grid.axis2[j]:g}) failed: {reason}", file=sys.stderr)


def cmd_validate(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    print(f"ok: n={params.n} assets, gamma={prefs.gamma}, horizon={horizon}")
    return EXIT_OK


def cmd_solve(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    s = solve(make_S_operator(params, prefs), horizon)
    a, d = (s_view(s, which, params, prefs) for which in "AD")
    samples = _check_size(config.get("samples", 201), "samples", 1)
    taus = np.linspace(0.0, horizon, samples)
    n = params.n
    meta = base_meta(config)
    entry_names = [f"{i}{j}" for i in range(n) for j in range(n)]
    tables = {}
    for name, sol in (("a_solution", a), ("d_solution", d)):
        matrices = sol.interpolate(taus).reshape(samples, n * n)
        tables[name] = np.column_stack([taus, matrices, sol.trace_integral_at(taus)])
        write_csv(
            outdir / f"{name}.csv", meta,
            ["tau", *(f"{name[0]}_{e}" for e in entry_names), "trace_integral"], tables[name].tolist(),
        )
    if plot:
        plot_lines(
            outdir / "d_solution.svg", taus,
            {f"D_{i}{i}": tables["d_solution"][:, 1 + i * (n + 1)] for i in range(n)}, "tau", "feedback",
        )
    print(f"wrote a_solution.csv, d_solution.csv to {outdir}")
    return EXIT_OK


def cmd_positions(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("positions", {})
    wealth = float(section.get("wealth", 1.0))
    states = np.atleast_2d(np.asarray(section.get("states", [params.theta.tolist()]), dtype=float))
    times = np.asarray(section.get("times", [0.0]), dtype=float)
    params.state_to_unit_noise(states)  # refuses a bad state even when no time is asked for
    spec = optimal_strategy(params, prefs, horizon)
    n = params.n
    blocks = [np.column_stack([np.full(len(states), t), states, spec.position(wealth, states, float(t))])
              for t in times]
    table = np.concatenate([np.empty((0, 1 + 2 * n)), *blocks])
    write_csv(
        outdir / "positions.csv", base_meta(config),
        ["t", *(f"x_{i}" for i in range(n)), *(f"alpha_{i}" for i in range(n))], table.tolist(),
    )
    print(f"wrote positions.csv to {outdir}")
    return EXIT_OK


def cmd_simulate(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("simulate", {})
    n_paths = _check_size(section.get("n_paths", 1000), "n_paths", 2)  # a standard error needs 2
    n_steps = _check_size(section.get("n_steps", default_steps(horizon)), "n_steps", 1)
    spec = optimal_strategy(params, prefs, horizon)
    ens = simulate(params, prefs, spec, horizon, n_steps, n_paths, seed,
                   x0=section.get("x0"), store_paths=False)
    mean, se = ens.utility_estimate(prefs.gamma)
    meta = base_meta(config, seed)
    meta.update({
        "n_paths": n_paths, "n_steps": n_steps, "excluded": ens.n_excluded,
        "utility_mean": _fmt(mean), "utility_se": _fmt(se),
    })
    table = np.column_stack([np.arange(n_paths), ens.terminal_log_wealth, ens.excluded])
    write_csv(
        outdir / "terminal_wealth.csv", meta,
        ["path", "terminal_log_wealth", "excluded"], table.tolist(),
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
    grid = misspec_sweep(params, prefs, horizon, m1, m2, with_sharpe=with_sharpe)
    meta = base_meta(config)
    meta["j_true"] = _fmt(grid.metadata["j_true"])
    header = [grid.axis1_name, grid.axis2_name, "value_shortfall"]
    rows = list(grid.rows())
    if with_sharpe:
        header.append("sharpe")
        rows = [(*row, s) for row, s in zip(rows, grid.metadata["sharpe"].ravel())]
    write_csv(outdir / "misspec_sweep.csv", meta, header, rows)
    report_failed_cells(grid)
    for (i, j), reason in sorted(grid.metadata.get("sharpe_failures", {}).items()):
        print(f"sharpe ({grid.axis1[i]:g}, {grid.axis2[j]:g}) failed: {reason}", file=sys.stderr)
    if plot:
        plot_heatmap(outdir / "misspec_sweep.svg", grid, "value shortfall")
    print(f"wrote misspec_sweep.csv to {outdir}")
    return EXIT_OK


def cmd_corr_sweep(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("corr_sweep", {})
    pair = check_pair(params.n, section.get("pair", [0, 1]))
    rhos = np.asarray(section.get("rho_grid", np.linspace(-0.9, 0.9, 19).tolist()), dtype=float)
    grid = value_vs_kappa2_rho(params, prefs, horizon, params.kappa[1:2], rhos, pair)
    for (_, j), reason in sorted(grid.failures.items()):
        print(f"row rho={rhos[j]:g} failed: {reason}", file=sys.stderr)
    report = corr_sensitivity(params, prefs, horizon, pair)
    value_at_mean(params, prefs, horizon)  # refuses a J that underflows, whose derivatives read 0
    meta = base_meta(config)
    meta.update({
        "pair": f"{pair[0]}-{pair[1]}",
        "first_derivative": _fmt(report.first_derivative),
        # Exact derivatives carry no error estimate; the key stays because
        # perfbench's corr-sweep check reads it.
        "first_error": "0",
        "second_derivative": _fmt(report.second_derivative),
        "log_second_derivative": _fmt(report.log_second_derivative),
    })
    write_csv(outdir / "corr_sweep.csv", meta, ["rho", "value_at_mean"], zip(rhos, grid.cells[0]))
    if plot:
        plot_lines(outdir / "corr_sweep.svg", rhos, {"J": grid.cells[0]}, "rho", "value")
    print(f"wrote corr_sweep.csv to {outdir}")
    return EXIT_OK


def cmd_kappa_sweep(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    params, prefs, horizon = parse_model(config)
    section = config.get("kappa_sweep", {})
    kappa2 = np.asarray(section.get("kappa2_grid", np.linspace(0.2, 3.0, 15).tolist()), dtype=float)
    rhos = np.asarray(section.get("rho_grid", [0.0, 0.5, 0.9]), dtype=float)
    grid = value_vs_kappa2_rho(params, prefs, horizon, kappa2, rhos)
    gammas = np.asarray(section.get("gammas", [-4.0, 0.0, 0.5]), dtype=float)
    times = np.asarray(section.get("times", np.linspace(0.0, horizon, 61).tolist()), dtype=float)
    curves = d_curve_1d(float(params.kappa[0]), gammas, horizon, times)
    write_csv(
        outdir / "value_surface.csv", base_meta(config),
        ["kappa2", "rho", "value_at_mean"], list(grid.rows()),
    )
    write_csv(
        outdir / "d_curves.csv", base_meta(config),
        ["gamma", "t", "d_scalar"], list(curves.rows()),
    )
    report_failed_cells(grid)
    if plot:
        plot_heatmap(outdir / "value_surface.svg", grid, "value at the mean")
        plot_lines(
            outdir / "d_curves.svg", times,
            {f"gamma={g:g}": curves.cells[i] for i, g in enumerate(curves.axis1)},
            "t", "position multiplier",
        )
    print(f"wrote value_surface.csv, d_curves.csv to {outdir}")
    return EXIT_OK


def cmd_verify(config: dict, outdir: Path, seed: int, plot: bool) -> int:
    # Imported here, before run_verification forks, so its workers inherit
    # oracles' scipy modules; no other command loads scipy.
    from .oracles import run_verification

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
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.plot and args.command in PLOTLESS:
        print(f"note: {args.command} has no figure; --plot writes nothing", file=sys.stderr)
    try:
        seed = _check_size(config.get("seed", 0) if args.seed is None else args.seed, "seed", 0)
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
