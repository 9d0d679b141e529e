"""Independent items of work spread over forked worker processes.

``simulate`` runs its path chunks and ``misspec_sweep`` its grid cells
through ``fork_map``.  A forked child starts with the parent's memory, so
the work function and everything it reads need no pickling; only results
and errors travel back, through one pipe per worker.  ``multiprocessing``
is imported on first use, which keeps it out of the package's import.
"""

from __future__ import annotations

import os
import warnings


def worker_count(count: int) -> int:
    """Processes to spread ``count`` items over: one per available CPU, at most
    one per item, and 1 (this process) where fork is unavailable."""
    if count < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.current_process().daemon:
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def fork_map(func, count: int) -> list:
    """[func(k) for k in range(count)], item k run by forked worker k mod w,
    w = ``worker_count(count)``; with one worker, in this process.

    Results come back in item order.  A worker stops at its first error; the
    error of the lowest item index is re-raised, as the loop would raise it,
    and a worker that dies without reporting counts as a RuntimeError at its
    first item.  No worker outlives the call.
    """
    workers = worker_count(count)
    if workers == 1:
        return [func(k) for k in range(count)]
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs = []
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() from a process with OS threads,
            # which OpenBLAS's pool always gives; OpenBLAS resets its pool in
            # the child, and the package starts no threads of its own.
            warnings.filterwarnings("ignore", message=r".*use of fork\(\) may lead to deadlocks",
                                    category=DeprecationWarning)
            for w in range(workers):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker, args=(func, range(w, count, workers), send),
                                   daemon=True)
                procs.append((proc, recv))
                proc.start()
                send.close()
        results = [None] * count
        errors = []
        for w, (proc, recv) in enumerate(procs):
            try:
                done, error = recv.recv()
            except EOFError:  # the worker died without reporting
                done, error = None, None
            proc.join()
            if error is None and (done is None or proc.exitcode != 0):
                error = (w, RuntimeError(f"worker process exited with code {proc.exitcode}"))
            if error is not None:
                errors.append(error)
            else:
                results[w::workers] = done
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return results
    finally:
        for proc, recv in procs:
            if proc.pid is not None and proc.exitcode is None:
                proc.terminate()
                proc.join()
            recv.close()


def _worker(func, items: range, conn) -> None:
    """Body of a forked worker: its items in order until the first error, then
    (results, None or (item, error)) on ``conn``.

    An error that cannot be sent ends the worker with a nonzero exit code,
    which the parent reports instead.
    """
    done, error = [], None
    for k in items:
        try:
            done.append(func(k))
        except Exception as exc:
            error = (k, exc)
            break
    conn.send((done, error))
