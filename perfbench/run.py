"""Benchmark of the meanrev CLI and library: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 1] [--out FILE]

With ``--trace 0`` it prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, and fail_ratio as attempted/failed); with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of stdout is one JSON
object.  Every measurement runs in fresh worker processes (see worker.py),
one op in flight at a time.  README.md in this directory explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh processes that only set up; with the measuring worker itself they
# give the samples whose median is setup_s.
PROBES = 7
PROBE_TIMEOUT_S = 60


def worker(args: list, timeout: float) -> dict:
    """Run one worker process; its last stdout line is its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - t0
    return report


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    load_before = os.getloadavg()
    setups = [] if trace else [
        worker([*base, "--probe"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(PROBES)]
    report = worker([*base, "--seconds", str(seconds), "--trace", str(int(trace))],
                    timeout=max(120.0, 4 * seconds))
    setups.append(report["setup_s"])
    failed = len({(k, label) for k, label, _ in report["failures"]})
    result = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": report["attempted"], "failed": failed,
        "failures": report["failures"], "pass_times_s": report["times"],
        "ops": report["ops"], "op_times_s": report["op_times"],
        "setup_samples_s": setups, "facts": report["facts"],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    if trace:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
        for key in ("bases", "absent", "layer_self", "mean_traced_pass", "unaccounted_s",
                    "traced_times"):
            result[key] = report[key]
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(report["times"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return result


def describe(r: dict) -> list:
    """Human-readable lines for one workload's result."""
    times = r["pass_times_s"]
    lines = [f"== {r['workload']} (seed {r['seed']}, {'traced' if r['trace'] else 'untraced'}): "
             f"{len(times)} untraced passes, {r['attempted']} ops, {r['failed']} failed"]
    if not r["trace"]:
        q1, q3 = quartiles(times)
        s1, s3 = quartiles(r["setup_samples_s"])
        m = r["metrics"]
        lines += [
            f"  setup_s      {m['setup_s']['value']:10.4f} s   median of "
            f"{len(r['setup_samples_s'])} fresh processes, quartiles {s1:.4f}-{s3:.4f}",
            f"  wall_s       {m['wall_s']['value']:10.4f} s   median of {len(times)} passes, "
            f"quartiles {q1:.4f}-{q3:.4f}, fastest {min(times):.4f}",
            f"  peak_rss_mb  {m['peak_rss_mb']['value']:10.1f} MB",
        ]
    else:
        for name, mv in r["metrics"].items():
            base = r["bases"].get(name)
            extra = f"   base: {base}" if base else ""
            lines.append(f"  {name:34s} {mv['value']:14.6g} {mv['unit']}{extra}")
        layer_sum = sum(r["layer_self"].values())
        bench = r["metrics"]["bench.self_s"]["value"]
        lines.append(f"  layers {layer_sum:.4f} s + bench {bench:.4f} s = "
                     f"{layer_sum + bench:.4f} s; mean traced pass {r['mean_traced_pass']:.4f} s "
                     f"(unaccounted {r['unaccounted_s']:.1e} s)")
        overhead = r["metrics"]["trace.overhead_s"]["value"]
        plain = r["metrics"]["trace.untraced_wall_s"]["value"]
        lines.append(f"  tracing overhead {overhead:+.4f} s per pass "
                     f"({100 * overhead / plain:+.1f} % of the untraced median {plain:.4f} s)")
        if r["absent"]:
            lines.append(f"  absent (no wrapped name left): {', '.join(r['absent'])}")
    lines.append(f"  fail_ratio   {r['failed'] / r['attempted']:10.4f}     "
                 f"base: {r['attempted']} ops attempted, {r['failed']} failed")
    for k, label, text in r["failures"][:10]:
        lines.append(f"  FAILED pass {k} op {label}: {text}")
    lines.append(f"  load average {r['loadavg_before'][0]:.2f} before, "
                 f"{r['loadavg_after'][0]:.2f} after; {json.dumps(r['facts'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every result, with machine facts, here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "meanrev" / "__init__.py").is_file():
        print(f"error: no meanrev package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace)))
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(results[-1])), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
