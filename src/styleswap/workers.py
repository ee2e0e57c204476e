"""Forked worker processes: the job runner of `pipeline` and `ablate`, and `generate`'s shards.

A pool has at most one worker per usable CPU, and each worker runs OpenBLAS
on one thread. A worker counts as one usable CPU itself, so work that runs
inside a worker never forks workers of its own. The workers are forked: they
need no `__main__` guard in the caller and see the caller's module state,
monkeypatches included. So a caller hands a worker a private module-level
function and picklable arguments, and larger state reaches it through the
fork. `multiprocessing` and `concurrent.futures` are imported only when a
pool is made, which keeps them out of every command that makes none.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path


class WorkerError(RuntimeError):
    pass


_in_worker = False  # set by `_start_worker` in every pool worker


def _usable_cpus() -> int:
    if _in_worker:
        return 1
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS's thread-count setter in a system build, a numpy wheel's ILP64
# build and its LP64 build
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads")
_LOADED_LIBRARIES = Path("/proc/self/maps")


def _one_blas_thread() -> None:
    """Limit a worker's OpenBLAS to one thread.

    There is one worker per usable CPU, so more BLAS threads only contend:
    two forked workers of a matmul loop each ran 4x slower with OpenBLAS's
    default of one thread per CPU than with one thread. numpy has no setter,
    so each loaded OpenBLAS library's own is called. The libraries are found
    in the process's memory map; a process without OpenBLAS, or on a
    platform without that map, is left as it is.
    """
    import ctypes

    if not _LOADED_LIBRARIES.exists():
        return
    with open(_LOADED_LIBRARIES, encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def _start_worker() -> None:
    global _in_worker
    _in_worker = True
    _one_blas_thread()


def _can_fork() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@contextlib.contextmanager
def _pool(workers: int, unfinished: Callable[[], str]) -> Iterator:
    """A `ProcessPoolExecutor` of `workers` forked workers, all stopped on exit.

    A dead worker raises a `WorkerError` naming `unfinished()`.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker)
    try:
        yield pool
    except BrokenProcessPool:
        raise WorkerError(f"a worker process died; {unfinished()!r} did not finish") from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class _Job:
    """One stage command to run in a worker: `command(*args)`.

    `needs` are the keys of the jobs whose artifacts it reads; each must name
    a job. `urgent` jobs gate the most work downstream and start ahead of
    other ready ones.
    """

    key: str
    command: Callable[..., int]
    args: tuple
    needs: tuple[str, ...] = ()
    urgent: bool = False


def _captured(command: Callable[..., int], args: tuple) -> str:
    """Run one stage command in a worker and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        command(*args)
    return out.getvalue()


def _run_jobs(jobs: list[_Job]) -> Iterator[str]:
    """Run `jobs` in worker processes; yield each one's printed text in list order.

    A need that names no job of the list raises `ValueError` before any
    worker starts. One worker per usable CPU, at most one per job. A job
    starts once its `needs` have finished, and every ready job goes to a
    free worker before the next text is yielded; no more jobs start than
    there are workers, so an urgent job that becomes ready overtakes every
    job not yet started.

    When a job fails, no job after it in the list starts; the jobs before it
    run on, and the first failure in list order is raised where its text
    would have been yielded, so a failing run raises the error a sequential
    run of the list would. Closing the generator lets the running jobs
    finish and stops every worker. Outputs depend only on the artifacts a
    job reads, never on the worker count or the completion order.
    """
    from concurrent.futures import FIRST_COMPLETED, wait

    if not _can_fork():
        raise WorkerError("worker processes need the fork start method, which this platform lacks")
    index = {job.key: i for i, job in enumerate(jobs)}
    unknown = [(job.key, key) for job in jobs for key in job.needs if key not in index]
    if unknown:
        raise ValueError("job {!r} needs {!r}, which no job makes".format(*unknown[0]))
    needs = [[index[key] for key in job.needs] for job in jobs]
    queue = sorted(range(len(jobs)), key=lambda i: (not jobs[i].urgent, i))
    workers = max(1, min(_usable_cpus(), len(jobs)))
    running, finished, first_failed = {}, {}, len(jobs)
    with _pool(workers, lambda: job.key) as pool:
        for i, job in enumerate(jobs):
            while True:
                for j in [j for j in queue if j < first_failed
                          and all(k in finished for k in needs[j])][:workers - len(running)]:
                    queue.remove(j)
                    running[pool.submit(_captured, jobs[j].command, jobs[j].args)] = j
                if i in finished:
                    break
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    j = running.pop(future)
                    finished[j] = future
                    if future.exception() is not None:
                        first_failed = min(first_failed, j)
            yield finished[i].result()
