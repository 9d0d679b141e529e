import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import meanrev
from meanrev.cli import (
    COMMANDS,
    DEFAULT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    FAILED_FILL,
    config_hash,
    main,
    parse_model,
    write_csv,
)
from meanrev.analysis import corr_sensitivity, value_at_mean
from meanrev.errors import NonPositiveVariance
from meanrev.riccati import single_mr_blowup_tau


def base_config(**overrides):
    cfg = {
        "model": {
            "n": 2,
            "kappa": [1.0, 0.5],
            "sigma": [1.0, 1.0],
            "theta": [0.0, 0.0],
            "corr": [[1.0, 0.5], [0.5, 1.0]],
        },
        "gamma": -4.0,
        "horizon": 1.0,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, cfg, *args):
    return main(["--config", write_config(tmp_path, cfg),
                 "--output-dir", str(tmp_path / "out"), *args])


def read_body(path):
    """CSV lines without the commented metadata header."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_validate_ok(tmp_path):
    assert run(tmp_path, base_config(), "validate") == EXIT_OK


def test_validate_rank_deficient(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["corr"] = [[1.0, 1.0], [1.0, 1.0]]
    assert run(tmp_path, cfg, "validate") == EXIT_VALIDATION
    assert "NotPositiveDefinite" in capsys.readouterr().err


def test_validate_zero_kappa(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["kappa"] = [0.0, 0.0]
    assert run(tmp_path, cfg, "validate") == EXIT_VALIDATION
    assert "AllKappaZero" in capsys.readouterr().err


def test_infinite_horizon_is_rejected_without_hanging(tmp_path):
    # In a subprocess with a timeout, so a solver that never returns fails
    # the test instead of hanging the suite.
    env = dict(os.environ)
    src = str(Path(meanrev.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "meanrev.cli", "--config",
         write_config(tmp_path, base_config(horizon=math.inf)),
         "--output-dir", str(tmp_path / "out"), "solve"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert "NonFinite" in proc.stderr
    assert not list((tmp_path / "out").glob("*.csv"))


def test_non_finite_sigma_is_rejected(tmp_path, capsys):
    cfg = base_config()
    cfg["model"]["sigma"] = [math.nan, 1.0]
    assert run(tmp_path, cfg, "positions") == EXIT_VALIDATION
    assert "NonFinite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "positions.csv").exists()


def test_gamma_out_of_range_is_a_validation_error(tmp_path, capsys):
    assert run(tmp_path, base_config(gamma=1.5), "validate") == EXIT_VALIDATION
    assert "validation error: OutOfDomain" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "validate"]) == 3


@pytest.mark.parametrize("command, section, change", [
    ("validate", "model", {"kappa": [1.0, 0.5, 0.2]}),
    ("validate", "model", {"corr": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0]]}),
    ("simulate", "simulate", {"n_paths": 0}),
    ("simulate", "simulate", {"n_steps": 0}),
], ids=["kappa-length", "corr-2x3", "zero-paths", "zero-steps"])
def test_shapes_and_sizes_are_validation_errors(tmp_path, capsys, command, section, change):
    cfg = base_config()
    cfg[section] = {**cfg.get(section, {}), **change}
    assert run(tmp_path, cfg, command) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("command, change, args", [
    ("solve", {"samples": 2.7}, ()),
    ("solve", {"samples": 0}, ()),
    ("solve", {"samples": -1}, ()),
    ("simulate", {"simulate": {"n_paths": 1, "n_steps": 4}}, ()),
    ("simulate", {"simulate": {"n_paths": 4, "n_steps": 2.5}}, ()),
    ("simulate", {"seed": 1.5}, ()),
    ("simulate", {}, ("--seed", "-3")),
], ids=["float-samples", "zero-samples", "negative-samples", "one-path", "float-steps",
        "float-seed", "negative-seed"])
def test_counts_and_seeds_are_integers(tmp_path, capsys, command, change, args):
    # One integer rule for every count and the seed: not a truncated float,
    # a header-only CSV, or numpy's ValueError from a worker.
    cfg = base_config(**change)
    assert main(["--config", write_config(tmp_path, cfg), "--output-dir", str(tmp_path / "out"),
                 *args, command]) == EXIT_VALIDATION
    assert re.match(r"validation error: OutOfDomain: \w+ must be an integer >= \d", capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("*.csv"))


def test_an_output_dir_that_cannot_be_made_is_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, base_config())
    assert main(["--config", cfg, "--output-dir", str(tmp_path / "file" / "out"), "validate"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: cannot create output dir: ")


def test_a_failed_write_is_io_error(tmp_path, capsys):
    (tmp_path / "out" / "a_solution.csv").mkdir(parents=True)
    assert run(tmp_path, base_config(), "solve") == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: ")


def test_a_config_without_a_model_is_a_config_error(tmp_path, capsys):
    cfg = base_config()
    del cfg["model"]
    assert run(tmp_path, cfg, "validate") == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("config error: ")


def test_other_numerical_failures_exit_2(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise NonPositiveVariance("variance estimate is zero")

    monkeypatch.setitem(COMMANDS, "validate", fail)
    assert run(tmp_path, base_config(), "validate") == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: NonPositiveVariance: variance estimate is zero\n"


def test_solve_outputs(tmp_path):
    assert run(tmp_path, base_config(), "solve") == EXIT_OK
    out = tmp_path / "out"
    body = read_body(out / "d_solution.csv")
    header = body[0].split(",")
    assert header[0] == "tau" and header[-1] == "trace_integral"
    # First row is tau = 0 with D(0) = delta Theta^{-1} kappa.
    first = [float(v) for v in body[1].split(",")]
    assert first[0] == 0.0
    corr_inv = np.linalg.inv(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = 0.2 * corr_inv @ np.diag([1.0, 0.5])
    assert np.allclose(np.array(first[1:5]).reshape(2, 2), expected, atol=1e-12)
    assert (out / "a_solution.csv").exists()


def test_solve_log_utility_rows_identical(tmp_path):
    cfg = base_config(gamma=0.0)
    assert run(tmp_path, cfg, "solve") == EXIT_OK
    body = read_body(tmp_path / "out" / "d_solution.csv")
    entries = {ln.split(",", 1)[1].rsplit(",", 1)[0] for ln in body[1:]}
    assert len(entries) == 1


def test_solve_blowup_exit_code(tmp_path, capsys):
    cfg = base_config(gamma=0.5, horizon=3.0)
    cfg["model"]["kappa"] = [1.0, 0.0]
    cfg["model"]["corr"] = [[1.0, 0.9], [0.9, 1.0]]
    assert run(tmp_path, cfg, "solve") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "tau*" in err


def test_simulate_deterministic(tmp_path):
    cfg = base_config(simulate={"n_paths": 20, "n_steps": 16})
    path = write_config(tmp_path, cfg)
    for d in ("o1", "o2"):
        assert main(["--config", path, "--output-dir", str(tmp_path / d),
                     "simulate"]) == EXIT_OK
    a = (tmp_path / "o1" / "terminal_wealth.csv").read_bytes()
    b = (tmp_path / "o2" / "terminal_wealth.csv").read_bytes()
    assert a == b


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = base_config(simulate={"n_paths": 20, "n_steps": 16})
    path = write_config(tmp_path, cfg)
    main(["--config", path, "--output-dir", str(tmp_path / "o1"), "simulate"])
    main(["--config", path, "--output-dir", str(tmp_path / "o2"), "--seed", "99",
          "simulate"])
    a = read_body(tmp_path / "o1" / "terminal_wealth.csv")
    b = read_body(tmp_path / "o2" / "terminal_wealth.csv")
    assert a != b


def test_metadata_header(tmp_path):
    cfg = base_config(simulate={"n_paths": 5, "n_steps": 8})
    assert run(tmp_path, cfg, "simulate") == EXIT_OK
    text = (tmp_path / "out" / "terminal_wealth.csv").read_text()
    assert f"# config_hash: {config_hash(cfg)}" in text
    assert "# seed: 3" in text
    assert "timestamp" not in text


def test_csv_rows_print_as_the_per_value_formatter_did(tmp_path):
    # The writer formats a row in one "%.17g" call; the bytes equal those of
    # the per-value formatter it replaced, f"{float(v):.17g}" for floats and
    # str(v) otherwise, for every kind of value a command writes.
    def old_format(v):
        return f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)

    values = [0.1, 1.0 / 3.0, -2.5e-300, 1e300, np.float64(2.0 / 3.0), np.float64(-7.0), 0, 7,
              8191, math.nan, np.float64(math.nan), math.inf, -math.inf, -0.0, np.float64(-0.0),
              5e-324, np.float64(5e-324), 123456789.0]
    rows = [values[k:k + 3] for k in range(0, len(values), 3)]
    write_csv(tmp_path / "t.csv", {"tool": "meanrev"}, ["a", "b", "c"], rows)
    expected = "# tool: meanrev\na,b,c\n" + "".join(
        ",".join(old_format(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_misspec_true_cell_zero(tmp_path):
    cfg = base_config(horizon=0.5,
                      misspec={"multipliers1": [0.5, 1.0], "multipliers2": [0.5, 1.0]})
    assert run(tmp_path, cfg, "misspec") == EXIT_OK
    body = read_body(tmp_path / "out" / "misspec_sweep.csv")
    rows = {tuple(ln.split(",")[:2]): float(ln.split(",")[2]) for ln in body[1:]}
    assert abs(rows[("1", "1")]) < 1e-8
    assert all(v <= 1e-8 for v in rows.values())


def test_corr_sweep_default_config(tmp_path):
    # The sweep varies the pair's entry of the model's own correlation
    # matrix, so the row at the model's rho is the model's value.
    assert main(["--output-dir", str(tmp_path / "out"), "corr-sweep"]) == EXIT_OK
    params, prefs, horizon = parse_model(DEFAULT_CONFIG)
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in read_body(tmp_path / "out" / "corr_sweep.csv")[1:]])
    row = rows[np.argmin(np.abs(rows[:, 0] - params.corr[0, 1]))]
    assert row[0] == pytest.approx(params.corr[0, 1], abs=1e-15)
    j = corr_sensitivity(params, prefs, horizon, (0, 1)).value
    assert row[1] == pytest.approx(j, rel=1e-12)


def test_corr_sweep_outputs(tmp_path):
    cfg = base_config()
    cfg["model"]["corr"] = [[1.0, 0.0], [0.0, 1.0]]
    cfg["corr_sweep"] = {"rho_grid": [-0.5, 0.0, 0.5]}
    assert run(tmp_path, cfg, "corr-sweep") == EXIT_OK
    text = (tmp_path / "out" / "corr_sweep.csv").read_text()
    assert "# first_derivative:" in text
    assert len(read_body(tmp_path / "out" / "corr_sweep.csv")) == 4


def pole_before(horizon):
    """Rows of the single-mean-reverting model (kappa = (1, 0), gamma = 0.5)
    whose value equation has its pole before ``horizon``."""
    def fails(rho):
        tau_star = single_mr_blowup_tau(1.0, np.array([[1.0, rho], [rho, 1.0]]), 0.5)
        return tau_star is not None and tau_star < horizon
    return fails


@pytest.mark.parametrize("model, gamma, horizon, pair, fails, n_failed, reason", [
    # With Theta_01 = Theta_12 = 0.6, the matrix is positive definite only for
    # rho_02 in (-0.28, 1): the rows below fail on their own, the rest run.
    pytest.param(dict(n=3, kappa=[1.0, 0.5, 2.0], sigma=[1.0] * 3, theta=[0.0] * 3,
                      corr=[[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]),
                 -4.0, 1.0, [0, 2], lambda rho: rho <= -0.3 + 1e-12, 7,
                 "smallest correlation eigenvalue", id="not-positive-definite"),
    # The value equation blows up before T = 3 at |rho| >= 0.8.
    pytest.param(dict(n=2, kappa=[1.0, 0.0], sigma=[1.0] * 2, theta=[0.0] * 2,
                      corr=[[1.0, 0.0], [0.0, 1.0]]),
                 0.5, 3.0, [0, 1], pole_before(3.0), 4, "blew up", id="blow-up"),
])
def test_corr_sweep_records_failed_rows(tmp_path, capsys, model, gamma, horizon, pair, fails,
                                        n_failed, reason):
    cfg = base_config(gamma=gamma, horizon=horizon)
    cfg["model"] = model
    cfg["corr_sweep"] = {"pair": pair}
    assert run(tmp_path, cfg, "corr-sweep") == EXIT_OK
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in read_body(tmp_path / "out" / "corr_sweep.csv")[1:]])
    assert rows.shape == (19, 2)
    failed = np.array([fails(rho) for rho in rows[:, 0]])
    assert failed.sum() == n_failed
    assert np.all(np.isnan(rows[failed, 1])) and np.all(np.isfinite(rows[~failed, 1]))
    reasons = [ln for ln in capsys.readouterr().err.splitlines() if " failed: " in ln]
    assert [ln.split(" failed: ")[0] for ln in reasons] == [
        f"row rho={rho:g}" for rho in rows[failed, 0]]
    assert all(reason in ln for ln in reasons)


def test_corr_sweep_rejects_non_finite_rho(tmp_path, capsys):
    cfg = base_config()
    cfg["corr_sweep"] = {"rho_grid": [0.0, math.nan]}
    assert run(tmp_path, cfg, "corr-sweep") == EXIT_VALIDATION
    assert "NonFinite" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [[0, 5], [0.5, 1], [1, 1], [-1, 0]],
                         ids=["index-past-n", "non-integer", "same-index", "negative"])
def test_corr_sweep_rejects_a_bad_pair_before_solving(tmp_path, capsys, pair):
    cfg = base_config()
    cfg["corr_sweep"] = {"pair": pair}
    assert run(tmp_path, cfg, "corr-sweep") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: OutOfDomain:")
    assert "Traceback" not in err and " failed: " not in err
    assert not (tmp_path / "out" / "corr_sweep.csv").exists()


@pytest.mark.parametrize("command", ["corr-sweep", "kappa-sweep"])
def test_sweeps_refuse_log_utility_before_writing(tmp_path, capsys, command):
    assert run(tmp_path, base_config(gamma=0.0), command) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: OutOfDomain: exponent 0 (log utility) is served by log_utility_value\n")
    assert not list((tmp_path / "out").glob("*.csv"))


def test_misspec_reports_sharpe_failures_apart_from_cells(tmp_path, capsys):
    # At gamma = 0.5 and rho = 0.9 the Q_1 or Q_2 solve blows up on cells
    # whose value converges: the value stays, the Sharpe ratio is nan, and
    # the reason gets its own stderr line, which is not a failed-cell line.
    cfg = base_config(gamma=0.5, horizon=3.0,
                      misspec={"multipliers1": [0.5, 1.0], "multipliers2": [0.5, 1.0],
                               "sharpe": True})
    cfg["model"]["corr"] = [[1.0, 0.9], [0.9, 1.0]]
    assert run(tmp_path, cfg, "misspec") == EXIT_OK
    rows = [ln.split(",") for ln in read_body(tmp_path / "out" / "misspec_sweep.csv")[1:]]
    lost = [(a, b) for a, b, cell, sharpe in rows if cell != "nan" and sharpe == "nan"]
    err = capsys.readouterr().err.splitlines()
    assert lost and not [ln for ln in err if ln.startswith("cell (")]
    reasons = [ln for ln in err if ln.startswith("sharpe (")]
    assert [ln.split(" failed: ")[0] for ln in reasons] == [f"sharpe ({a}, {b})" for a, b in lost]
    assert all("blew up" in ln for ln in reasons)


def test_kappa_sweep_outputs(tmp_path, capsys):
    cfg = base_config(horizon=3.0)
    cfg["kappa_sweep"] = {
        "kappa2_grid": [0.3, 1.0, 2.0],
        "rho_grid": [0.0, 0.9],
        "gammas": [-4.0, 0.0, 0.5],
        "times": np.linspace(0.0, 3.0, 7).tolist(),
    }
    assert run(tmp_path, cfg, "kappa-sweep") == EXIT_OK
    assert len(read_body(tmp_path / "out" / "value_surface.csv")) == 1 + 6
    assert len(read_body(tmp_path / "out" / "d_curves.csv")) == 1 + 21
    assert " failed: " not in capsys.readouterr().err

    # kappa = (1, 0) at rho = 0.9 is the single-mean-reverting model with its
    # pole before T = 3; that cell alone fails, with its reason on stderr.
    cfg = base_config(gamma=0.5, horizon=3.0)
    cfg["model"].update(kappa=[1.0, 0.0], corr=[[1.0, 0.0], [0.0, 1.0]])
    cfg["kappa_sweep"] = {"kappa2_grid": [0.0, 0.5], "rho_grid": [0.0, 0.9]}
    assert run(tmp_path, cfg, "kappa-sweep") == EXIT_OK
    rows = [ln.split(",") for ln in read_body(tmp_path / "out" / "value_surface.csv")[1:]]
    assert [r[2] == "nan" for r in rows] == [False, True, False, False]
    reasons = [ln for ln in capsys.readouterr().err.splitlines() if " failed: " in ln]
    assert len(reasons) == 1
    assert reasons[0].startswith("cell (0, 0.9) failed: Riccati solution blew up near tau = ")


@pytest.mark.parametrize("command, section, csv, failed", [
    ("kappa-sweep", {"kappa_sweep": {"kappa2_grid": [0.2, 1.6], "rho_grid": [0.0, 0.5]}},
     "value_surface.csv", ["cell (1.6, 0)", "cell (1.6, 0.5)"]),
    ("corr-sweep", {"corr_sweep": {"rho_grid": [0.0, 0.9]}}, "corr_sweep.csv", ["row rho=0.9"]),
], ids=["kappa-sweep", "corr-sweep"])
def test_sweeps_record_an_overflowing_value_as_a_failure(tmp_path, capsys, command, section, csv,
                                                          failed):
    # At T = 2000 and gamma = 0.5, J passes the largest double in these cells:
    # each is written as nan with its reason, never as inf after a RuntimeWarning.
    cfg = base_config(gamma=0.5, horizon=2000.0, **section)
    assert run(tmp_path, cfg, command) == EXIT_OK
    body = read_body(tmp_path / "out" / csv)
    assert sum(ln.endswith(",nan") for ln in body) == len(failed)
    assert not any("inf" in ln for ln in body)
    reasons = [ln for ln in capsys.readouterr().err.splitlines() if " failed: " in ln]
    assert [ln.split(" failed: ")[0] for ln in reasons] == failed
    assert all("J overflows a double: log|gamma J| = " in ln for ln in reasons)


def test_corr_sweep_refuses_an_overflowing_header(tmp_path, capsys):
    # At T = 4000 and gamma = 0.5, J at the model's own correlation passes the
    # largest double, so its derivatives would be inf: the command fails typed,
    # under this suite's warnings-as-errors setting, and writes no header.
    cfg = base_config(gamma=0.5, horizon=4000.0, corr_sweep={"rho_grid": [0.0]})
    assert run(tmp_path, cfg, "corr-sweep") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: ValueOverflow: J overflows a double: log|gamma J| = 918.2" in err
    assert not (tmp_path / "out" / "corr_sweep.csv").exists()


def test_kappa_sweep_records_an_underflowing_value_as_a_failure(tmp_path, capsys):
    # At T = 1000 and gamma = -4, J in every cell of the default 15 x 3 grid is
    # below the smallest normal double: each is written as nan with its
    # reason, never as -0 or a denormal.
    assert run(tmp_path, base_config(horizon=1000.0), "kappa-sweep") == EXIT_OK
    body = read_body(tmp_path / "out" / "value_surface.csv")[1:]
    assert len(body) == 45 and all(ln.endswith(",nan") for ln in body)
    reasons = [ln for ln in capsys.readouterr().err.splitlines() if " failed: " in ln]
    assert len(reasons) == 45
    assert all("J underflows a double: log|gamma J| = -" in ln for ln in reasons)


def test_misspec_refuses_an_underflowing_true_value(tmp_path, capsys):
    # The sweep's cells are differences from J at the true model, which
    # underflows at T = 1000: the command fails typed, as for an overflow.
    assert run(tmp_path, base_config(horizon=1000.0), "misspec") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: ValueUnderflow: J underflows a double: log|gamma J| = -950.07" in err
    assert not (tmp_path / "out" / "misspec_sweep.csv").exists()


def test_kappa_sweep_sweeps_the_configured_model(tmp_path, capsys):
    # Every cell is the value at the mean of the configured three-asset model
    # with kappa_2 and Theta_01 replaced.  At Theta_01 = -0.9 the matrix is
    # not positive definite, and those cells fail with their reason.
    cfg = base_config(gamma=-1.0, horizon=2.0)
    cfg["model"] = dict(n=3, kappa=[1.0, 0.5, 2.0], sigma=[0.5, 1.0, 1.5], theta=[0.1, -0.2, 0.3],
                        corr=[[1.0, 0.3, 0.6], [0.3, 1.0, 0.6], [0.6, 0.6, 1.0]])
    cfg["kappa_sweep"] = {"kappa2_grid": [0.3, 1.5], "rho_grid": [-0.9, 0.0, 0.5], "times": [0.0]}
    assert run(tmp_path, cfg, "kappa-sweep") == EXIT_OK
    params, prefs, horizon = parse_model(cfg)
    for line in read_body(tmp_path / "out" / "value_surface.csv")[1:]:
        k2, rho, value = (float(v) for v in line.split(","))
        corr = params.corr.copy()
        corr[0, 1] = corr[1, 0] = rho
        if rho == -0.9:  # such a model cannot be made
            assert math.isnan(value)
        else:
            model = replace(params, kappa=[params.kappa[0], k2, params.kappa[2]], corr=corr)
            assert value == value_at_mean(model, prefs, horizon)
    reasons = [ln for ln in capsys.readouterr().err.splitlines() if " failed: " in ln]
    assert [ln.split(" failed: ")[0] for ln in reasons] == ["cell (0.3, -0.9)", "cell (1.5, -0.9)"]
    assert all("smallest correlation eigenvalue" in ln for ln in reasons)


@pytest.mark.parametrize("change", [
    {"kappa_sweep": {"gammas": [1.5]}},
    {"kappa_sweep": {"times": [4.0]}},
    {"kappa_sweep": {"times": [0.0, math.nan]}},
    {"model": dict(n=1, kappa=[1.0], sigma=[1.0], theta=[0.0], corr=[[1.0]])},
], ids=["gamma-past-one", "time-past-horizon", "nan-time", "one-asset"])
def test_kappa_sweep_rejects_invalid_input_before_writing(tmp_path, capsys, change):
    assert run(tmp_path, base_config(**change), "kappa-sweep") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert not list((tmp_path / "out").glob("*.csv"))


def test_positions_output(tmp_path):
    cfg = base_config(positions={"wealth": 2.0, "states": [[0.4, -0.2]], "times": [0.0, 0.5]})
    assert run(tmp_path, cfg, "positions") == EXIT_OK
    assert len(read_body(tmp_path / "out" / "positions.csv")) == 3


def test_positions_reject_zero_wealth(tmp_path):
    cfg = base_config(positions={"wealth": 0.0, "states": [[0.4, -0.2]], "times": [0.0]})
    assert run(tmp_path, cfg, "positions") == EXIT_VALIDATION
    assert not (tmp_path / "out" / "positions.csv").exists()


@pytest.mark.parametrize("command, section, error", [
    ("positions", {"positions": {"states": [[math.nan, 0.1]]}}, "NonFinite"),
    ("positions", {"positions": {"times": [5.0]}}, "OutOfHorizon"),
    ("positions", {"positions": {"times": [math.nan]}}, "OutOfHorizon"),
    ("simulate", {"simulate": {"n_paths": 4, "n_steps": 8, "x0": [math.nan, 0.0]}}, "NonFinite"),
    # The model's state rule: no broadcast of a short state, and no time needed to refuse one.
    ("positions", {"positions": {"states": [[0.1]]}}, "ShapeMismatch"),
    ("positions", {"positions": {"states": [[math.nan, 0.1]], "times": []}}, "NonFinite"),
    ("simulate", {"simulate": {"n_paths": 4, "n_steps": 8, "x0": [0.5]}}, "ShapeMismatch"),
    ("simulate", {"simulate": {"n_paths": 4, "n_steps": 8, "x0": [[0.1, 0.2], [0.3, 0.4]]}},
     "ShapeMismatch"),
], ids=["nan-state", "time-past-horizon", "nan-time", "nan-x0", "short-state",
        "nan-state-no-times", "short-x0", "stacked-x0"])
def test_invalid_states_and_times_are_validation_errors(tmp_path, capsys, command, section, error):
    assert run(tmp_path, base_config(**section), command) == EXIT_VALIDATION
    assert f"validation error: {error}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("command", ["validate", "positions", "simulate", "verify"])
def test_plot_on_a_command_without_figure_says_so(tmp_path, capsys, command):
    cfg = base_config(simulate={"n_paths": 8, "n_steps": 16})
    assert run(tmp_path, cfg, "--plot", command) == EXIT_OK
    err = capsys.readouterr().err
    assert f"{command} has no figure" in err
    assert not list((tmp_path / "out").glob("*.svg"))


def test_verify_all_green(tmp_path):
    assert run(tmp_path, base_config(), "verify") == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["all_passed"]
    assert len(report["checks"]) == 13
    for name, c in report["checks"].items():
        assert c["passed"], name
        # Every check records its measured error against the bound it applies.
        assert math.isfinite(c["error"]) and c["tol"] > 0, name
        assert c["passed"] == (c["error"] <= c["tol"]), name


def plot_case_config(case):
    cfg = base_config()
    if case == "misspec-blowup":
        # Long horizon with 2x overestimation diverges the fourth negative moment.
        cfg = base_config(horizon=3.0,
                          misspec={"multipliers1": [1.0, 2.0], "multipliers2": [1.0, 2.0]})
        cfg["model"]["corr"] = [[1.0, 0.7], [0.7, 1.0]]
    elif case == "corr-sweep-flat":
        # Equal reversion rates: the value does not depend on correlation.
        cfg["model"]["kappa"] = [0.7, 0.7]
        cfg["model"]["corr"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg["corr_sweep"] = {"rho_grid": [-0.5, 0.0, 0.5]}
    elif case == "kappa-sweep":
        cfg["kappa_sweep"] = {"kappa2_grid": [0.3, 1.0, 2.0], "rho_grid": [0.0, 0.9],
                              "times": np.linspace(0.0, 1.0, 7).tolist()}
    elif case == "kappa-sweep-single":
        cfg["kappa_sweep"] = {"kappa2_grid": [1.0], "rho_grid": [0.5], "times": [0.0]}
    return cfg


COORD_ATTRS = ("x", "y", "width", "height", "x1", "y1", "x2", "y2")


def parse_svg(path):
    """Parse an SVG and check that every coordinate it draws is finite."""
    root = ET.parse(path).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    for el in root.iter():
        values = [el.get(a) for a in COORD_ATTRS if el.get(a) is not None]
        values += el.get("points", "").replace(",", " ").split()
        assert all(math.isfinite(float(v)) for v in values), el.attrib
    return root


@pytest.mark.parametrize("case, command, svgs", [
    ("solve", "solve", ["d_solution.svg"]),
    ("misspec-blowup", "misspec", ["misspec_sweep.svg"]),
    ("corr-sweep-flat", "corr-sweep", ["corr_sweep.svg"]),
    ("kappa-sweep", "kappa-sweep", ["value_surface.svg", "d_curves.svg"]),
    ("kappa-sweep-single", "kappa-sweep", ["value_surface.svg", "d_curves.svg"]),
])
def test_plot_writes_valid_deterministic_svgs(tmp_path, case, command, svgs):
    path = write_config(tmp_path, plot_case_config(case))
    for d in ("o1", "o2"):
        assert main(["--config", path, "--output-dir", str(tmp_path / d),
                     "--plot", command]) == EXIT_OK
    for name in svgs:
        first = (tmp_path / "o1" / name).read_bytes()
        assert first == (tmp_path / "o2" / name).read_bytes()
        parse_svg(tmp_path / "o1" / name)


def test_plot_heatmap_marks_failed_cells(tmp_path):
    assert run(tmp_path, plot_case_config("misspec-blowup"), "--plot", "misspec") == EXIT_OK
    body = read_body(tmp_path / "out" / "misspec_sweep.csv")
    n_failed = sum(ln.split(",")[2] == "nan" for ln in body[1:])
    assert n_failed > 0
    root = parse_svg(tmp_path / "out" / "misspec_sweep.svg")
    fills = [el.get("fill") for el in root.iter("{http://www.w3.org/2000/svg}rect")]
    # One grey rectangle per failed cell plus the "failed" legend swatch.
    assert fills.count(FAILED_FILL) == n_failed + 1


def test_plot_flat_series_is_drawn_flat(tmp_path):
    assert run(tmp_path, plot_case_config("corr-sweep-flat"), "--plot",
               "corr-sweep") == EXIT_OK
    root = parse_svg(tmp_path / "out" / "corr_sweep.svg")
    (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    ys = {pt.split(",")[1] for pt in line.get("points").split()}
    assert len(ys) == 1


@pytest.mark.parametrize("command, section", [
    ("misspec", {"misspec": {"multipliers1": [], "multipliers2": [1.0]}}),
    ("kappa-sweep", {"kappa_sweep": {"kappa2_grid": []}}),
])
def test_an_empty_sweep_axis_exits_1_before_writing(tmp_path, capsys, command, section):
    # Once a ZeroDivisionError traceback from plot_heatmap, or a header-only CSV.
    assert run(tmp_path, base_config(**section), "--plot", command) == EXIT_VALIDATION
    assert "OutOfDomain" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))
