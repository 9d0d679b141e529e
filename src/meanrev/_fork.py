"""Independent items of work spread over forked worker processes.

``simulate`` runs its path chunks, ``misspec_sweep`` its grid cells and
``run_verification`` (``meanrev verify``) its checks through ``fork_map``.
A forked child starts with the parent's memory, so the work function and
everything it reads need no pickling; only item indices, results and errors
travel, through one pipe per worker.  Work is handed out claim-next: each
worker is sent the next unclaimed index as soon as it has answered the last
one, so a slow item does not hold up a queue of items behind it.
``multiprocessing`` is imported on first use, which keeps it out of the
package's import.
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
    """[func(k) for k in range(count)] over w = ``worker_count(count)`` forked
    workers; with one worker, in this process.

    Items are handed out in index order, each to the first worker that is
    free.  Results come back in item order.  After the first error no
    further item is handed out; every lower index was handed out before it,
    so the error of the lowest item index is re-raised, as the loop would
    raise it.  A worker that dies counts as a RuntimeError at the item it
    was running.  No worker outlives the call.
    """
    workers = worker_count(count)
    if workers == 1:
        return [func(k) for k in range(count)]
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    procs, running = [], {}  # running: parent end of a busy worker's pipe -> (process, item)
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() from a process with OS threads,
            # which OpenBLAS's pool always gives; OpenBLAS resets its pool in
            # the child, and the package starts no threads of its own.
            warnings.filterwarnings("ignore", message=r".*use of fork\(\) may lead to deadlocks",
                                    category=DeprecationWarning)
            for k in range(workers):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_worker, args=(func, there), daemon=True)
                procs.append((proc, here))
                proc.start()
                there.close()
                here.send(k)
                running[here] = (proc, k)
        results, errors, next_item = [None] * count, [], workers
        while running:
            for conn in wait(list(running)):
                proc, k = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, ConnectionError):  # the worker died without reporting
                    proc.join()
                    errors.append((k, RuntimeError(f"worker process exited with code {proc.exitcode}")))
                    next_item = count
                    continue
                if ok:
                    results[k] = value
                else:
                    errors.append((k, value))
                    next_item = count
                if next_item < count:
                    conn.send(next_item)
                    running[conn] = (proc, next_item)
                    next_item += 1
                else:
                    conn.send(None)
        for proc, _ in procs:
            proc.join()
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return results
    finally:
        for proc, conn in procs:
            if proc.pid is not None and proc.exitcode is None:
                proc.terminate()
                proc.join()
            conn.close()


def _worker(func, conn) -> None:
    """Body of a forked worker: for each index k received on ``conn``, send back
    (True, func(k)) or (False, error), until it receives None.

    An error that cannot be sent ends the worker with a nonzero exit code,
    which the parent reports instead.
    """
    while (k := conn.recv()) is not None:
        try:
            reply = (True, func(k))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)
