"""Start-up cost: the package and the CLI load scipy only where a command uses
it, and every caller of ``fork_map`` imports what its items need before it
forks, so no forked worker imports scipy itself.

Each test runs a fresh interpreter, because this suite's own process has
long since imported scipy.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import meanrev

SRC = str(Path(meanrev.__file__).resolve().parents[1])
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def run_fresh(script: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, timeout=120, env=env, cwd=tmp_path)


def test_cli_import_and_validate_load_no_scipy_solver(tmp_path):
    proc = run_fresh(f"""
        import sys
        import meanrev.cli
        deferred = {DEFERRED!r}
        print(sorted(m for m in deferred if m in sys.modules))
        assert meanrev.cli.main(["--output-dir", "out", "validate"]) == 0
        print(sorted(m for m in deferred if m in sys.modules))
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    after_import, after_validate = proc.stdout.splitlines()[0], proc.stdout.splitlines()[-1]
    assert after_import == "[]", f"import meanrev.cli loaded {after_import}"
    assert after_validate == "[]", f"meanrev validate loaded {after_validate}"


def test_forked_items_inherit_scipy_from_their_caller(tmp_path):
    # Wrap the fork_map that misspec_sweep and run_verification look up: at
    # the call, the caller must already hold scipy.integrate and scipy.linalg,
    # and no item may import a scipy module that the caller did not hold.
    # The sweep runs first, before oracles (which imports scipy at its top)
    # is loaded.
    proc = run_fresh("""
        import sys

        import numpy as np

        import meanrev.misspec
        from meanrev.model import OUParams, Preferences

        def scipy_modules():
            return {m for m in sys.modules if m.startswith("scipy.")}

        def guard(module):
            real = module.fork_map

            def fork_map(func, count):
                missing = [m for m in ("scipy.integrate", "scipy.linalg") if m not in sys.modules]
                assert not missing, f"{module.__name__} calls fork_map before importing {missing}"
                held = scipy_modules()

                def item(k):
                    out = func(k)
                    new = scipy_modules() - held
                    assert not new, f"{module.__name__} item {k} imported {sorted(new)}"
                    return out

                calls.append(module.__name__)
                return real(item, count)

            module.fork_map = fork_map

        calls = []
        guard(meanrev.misspec)
        params = OUParams(n=2, kappa=np.array([1.0, 0.5]), sigma=np.ones(2), theta=np.zeros(2),
                          corr=np.array([[1.0, 0.5], [0.5, 1.0]]))
        grid = meanrev.misspec.misspec_sweep(params, Preferences(gamma=-4.0), 1.0, [0.8, 1.2],
                                             [0.9, 1.1], with_sharpe=True)
        assert np.isfinite(grid.cells).all(), grid.failures

        import meanrev.oracles
        guard(meanrev.oracles)
        report = meanrev.oracles.run_verification()
        assert all(c["passed"] for c in report.values()), report
        print(calls)
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['meanrev.misspec', 'meanrev.oracles']"
