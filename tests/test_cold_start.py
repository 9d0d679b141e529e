"""Start-up cost: only ``meanrev verify`` loads scipy, through ``oracles``; every
other command, and every item it forks, runs on numpy alone.  ``misspec``
forks nothing; ``cmd_verify`` imports ``oracles`` before it forks, so no
forked worker imports scipy itself.

Each test runs a fresh interpreter, because this suite's own process has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import meanrev
from meanrev.cli import DEFAULT_CONFIG

SRC = str(Path(meanrev.__file__).resolve().parents[1])

# Every command but verify, on the default model; misspec on a 2x2 Sharpe
# grid and simulate on 2000 paths, so each run stays short.
COMMANDS = {
    "validate": {},
    "solve": {},
    "positions": {},
    "simulate": {"simulate": {"n_paths": 2000}},
    "misspec": {"misspec": {"multipliers1": [0.5, 1.0], "multipliers2": [1.0, 2.0], "sharpe": True}},
    "kappa-sweep": {},
    "corr-sweep": {},
}


def run_fresh(script: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, timeout=120, env=env, cwd=tmp_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_but_verify_loads_scipy(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps({**DEFAULT_CONFIG, **COMMANDS[command]}))
    proc = run_fresh(f"""
        import resource
        import sys

        import meanrev.cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        print("import:", scipy_modules())
        assert meanrev.cli.main(["--config", "config.json", "--output-dir", "out", {command!r}]) == 0
        print("run:", scipy_modules())
        print("ru_maxrss:", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                  if line.startswith(("import: ", "run: ", "ru_maxrss: ")))
    assert report["import"] == "[]", f"import meanrev.cli loaded {report['import']}"
    assert report["run"] == "[]", f"meanrev {command} loaded {report['run']}"
    print(f"meanrev {command}: ru_maxrss {int(report['ru_maxrss']) / 1024:.1f} MB")


def test_misspec_forks_nothing_and_verify_forks_after_scipy(tmp_path):
    # The sweep solves its cells in this process: it forks nothing and loads
    # no scipy module, with or without blow-up cells.  At run_verification's
    # fork_map call the caller already holds scipy.integrate and scipy.linalg,
    # and no item imports a scipy module that the caller did not hold.  The
    # sweep runs first, before oracles (which imports scipy at its top) is
    # loaded.
    proc = run_fresh("""
        import os
        import sys

        import numpy as np

        import meanrev.misspec
        from meanrev.model import OUParams, Preferences

        def scipy_modules():
            return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

        forks = []
        real_fork = os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        params = OUParams(n=2, kappa=np.array([1.0, 0.5]), sigma=np.ones(2), theta=np.zeros(2),
                          corr=np.array([[1.0, 0.5], [0.5, 1.0]]))
        grid = meanrev.misspec.misspec_sweep(params, Preferences(gamma=-4.0), 1.0, [0.8, 1.2],
                                             [0.9, 1.1], with_sharpe=True)
        assert np.isfinite(grid.cells).all(), grid.failures
        # A sweep with blow-up cells also runs the pole search and the embedding pass.
        grid = meanrev.misspec.misspec_sweep(params, Preferences(gamma=-4.0), 3.0, [0.5, 2.0],
                                             [0.5, 2.0], with_sharpe=True)
        assert grid.failures
        assert not forks, f"misspec_sweep forked {len(forks)} times"
        assert not scipy_modules(), f"misspec_sweep loaded {sorted(scipy_modules())}"

        import meanrev.oracles
        real = meanrev.oracles.fork_map
        required = {"scipy.integrate", "scipy.linalg"}

        def fork_map(func, count):
            held = scipy_modules()
            assert required <= held, f"oracles forks before importing {required - held}"

            def item(k):
                out = func(k)
                new = scipy_modules() - held
                assert not new, f"oracles item {k} imported {sorted(new)}"
                return out

            print("fork_map")
            return real(item, count)

        meanrev.oracles.fork_map = fork_map
        report = meanrev.oracles.run_verification()
        assert all(c["passed"] for c in report.values()), report
        # verify forks wherever more than one CPU is available.
        from meanrev._fork import worker_count
        print("forks:", (len(forks) > 0) == (worker_count(len(report)) > 1))
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fork_map", "forks:", "True"]
