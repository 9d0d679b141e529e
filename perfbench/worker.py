"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started fresh by ``run.py`` for every measurement, so that its start-up is
the start-up a CLI user pays.  It prints a single JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --probe

``--probe`` stops once the first op is ready and reports only that time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


def run_pass(workload, pass_dir: Path, log=None) -> tuple[float, list, dict]:
    """Run every op once; returns pass seconds, results, and per-op seconds
    and CLI CPU seconds."""
    results, op_s, cli_cpu = [], [], 0.0
    outdirs = {op.label: pass_dir / op.label for op in workload.ops}
    t0 = time.perf_counter()
    for k, op in enumerate(workload.ops):
        c0, t_op = time.process_time(), time.perf_counter()
        if log is not None:
            log.op_id = k
            root = log.open(0)
        try:
            results.append(op.run(outdirs[op.label]))
        except Exception:
            results.append(RuntimeError(traceback.format_exc(limit=3)))
        finally:
            if log is not None:
                log.close(root)
        op_s.append(time.perf_counter() - t_op)
        if op.cli:
            cli_cpu += time.process_time() - c0
    return time.perf_counter() - t0, results, {"op_s": op_s, "cli_cpu": cli_cpu, "outdirs": outdirs}


def check_pass(workload, results, outdirs) -> list:
    """Problems per failed op, as (label, text)."""
    failures = []
    for op, result in zip(workload.ops, results):
        if isinstance(result, Exception):
            failures.append((op.label, str(result).strip().splitlines()[-1]))
            continue
        try:
            problems = op.check(result, outdirs[op.label], outdirs)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append((op.label, "; ".join(problems)))
    return failures


def bytes_written(outdirs: dict) -> int:
    return sum(p.stat().st_size for d in outdirs.values() if d.is_dir()
               for p in d.rglob("*") if p.is_file())


def run_loop(workload, seconds: float, min_passes: int, work: Path, log=None, totals=None):
    """Closed loop of passes until ``seconds`` have gone by."""
    times, failures, attempted = [], [], 0
    extra = {"op_s": [], "cli_cpu": 0.0, "bytes": 0}
    began = time.perf_counter()
    k = 0
    while len(times) < min_passes or time.perf_counter() - began < seconds:
        pass_dir = work / f"pass{k}"
        wall, results, info = run_pass(workload, pass_dir, log)
        if totals is not None:
            totals.fold(log)
        times.append(wall)
        attempted += len(results)
        failures += [(k, label, text) for label, text in
                     check_pass(workload, results, info["outdirs"])]
        extra["op_s"].append(info["op_s"])
        extra["cli_cpu"] += info["cli_cpu"]
        extra["bytes"] += bytes_written(info["outdirs"])
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1
    return times, attempted, failures, extra


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas'].get('name')} {deps['blas'].get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import meanrev.cli  # noqa: F401  (part of the measured set-up)
    import meanrev

    if not Path(meanrev.__file__).resolve().is_relative_to(SRC):
        print(f"meanrev imported from {meanrev.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, work)
        ready = time.monotonic()
        if args.probe:
            print(json.dumps({"ready": ready}))
            return 0
        workload.prepare()
        report = {"ready": ready}
        if args.trace:
            report.update(traced_run(workload, args.seconds, work))
        else:
            times, attempted, failures, extra = run_loop(workload, args.seconds, 3, work)
            report.update(times=times, op_times=extra["op_s"], attempted=attempted,
                          failures=failures)
        report["ops"] = [op.label for op in workload.ops]
        report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["facts"] = machine_facts()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(workload, seconds: float, work: Path) -> dict:
    """Half the time untraced, half traced: per-layer metrics plus overhead."""
    import spans

    plain, attempted, failures, plain_extra = run_loop(workload, seconds / 2, 2, work)
    totals = spans.Totals.empty()
    with spans.Tracer("meanrev") as tracer:
        traced, n, more, extra = run_loop(workload, seconds / 2, 2, work, tracer.log, totals)
    values, bases, absent = spans.layer_metrics(totals, tracer.present)
    passes = len(traced)
    mean_pass = sum(traced) / passes
    layers = {layer: values.get(f"{layer}.self_s", (0.0, "s"))[0] for layer in spans.LAYERS}
    # The benchmark's own time: op spans minus their children, plus the gaps
    # between ops.  Layers plus this must add up to the traced pass.
    gaps = mean_pass - totals.sum((spans.ROOT,), spans.INCL) / passes
    bench = values.pop("bench.op_self_s")[0] + gaps
    values.update({
        "cli.bytes_written": (extra["bytes"] / passes, "bytes"),
        "cli.cpu_s": (extra["cli_cpu"] / passes, "s"),
        "bench.self_s": (bench, "s"),
        "trace.wall_s": (statistics.median(traced), "s"),
        "trace.untraced_wall_s": (statistics.median(plain), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
    })
    return {
        "times": plain, "op_times": plain_extra["op_s"], "traced_times": traced,
        "attempted": attempted + n,
        "failures": failures + more, "layers": values, "bases": bases, "absent": absent,
        "layer_self": layers, "mean_traced_pass": mean_pass,
        "unaccounted_s": mean_pass - sum(layers.values()) - bench,
    }


if __name__ == "__main__":
    sys.exit(main())
