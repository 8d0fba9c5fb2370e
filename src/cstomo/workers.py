"""Forked worker processes for the cells of ``sweep --jobs N``
(``experiments.run_sweep(jobs=N)``); nothing else in cstomo starts a
process.

``ordered_map`` runs one map. A task is a module-level function and its
arguments, both pickled (a function pickles as its name). The workers are
started with fork, so they inherit the loaded modules and the BLAS settings
and run the same arithmetic as an in-line run. They all start at the first
submission, before the executor's manager thread, so no fork happens while
that thread runs.

The workers are capped at the usable CPUs divided by the BLAS threads each
one runs. BLAS runs one thread per CPU unless ``OPENBLAS_NUM_THREADS``,
``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS`` pins it (the first one set
counts), so with BLAS unpinned the map runs in-line: on 2 CPUs, two
workers at 2 BLAS threads each ran a sweep 2–4 times slower than one
process.

The map runs in-line with fewer than two workers, after that cap, on a
platform without fork, and inside a process that is itself a
multiprocessing worker.

The pool modules, ``multiprocessing`` and ``concurrent.futures``, load at
the first fork: a map loads them only once it has two or more workers after
the cap. ``import cstomo``, a reconstruct, a simulation and an in-line
sweep never load them; on a 2-vCPU Xeon they took about 25 ms and 2.5 MB
of resident memory to import.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator

from .errors import WorkerPoolError


# variables that pin the BLAS thread count (OpenBLAS, MKL, OpenMP); the first
# one set is taken
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _max_workers() -> int:
    """The usable CPUs divided by the BLAS threads a worker runs, at least 1."""
    cpus = _usable_cpus()
    blas_threads = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, cpus // blas_threads)


def ordered_map(fn: Callable, tasks: list[tuple], workers: int) -> Iterator:
    """Yield fn(*task) for every task, in task order, from up to ``workers``
    forked processes, and no more than ``_max_workers()``. In-line, each
    task runs as it is read. Closing the generator before its end cancels
    the tasks not yet started and stops the workers. A worker that cannot
    start or dies raises WorkerPoolError; an exception a task raises
    propagates."""
    workers = min(workers, _max_workers())
    if workers >= 2:
        import multiprocessing

        if (
            "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.parent_process() is not None
        ):
            workers = 1
    if workers < 2:
        for task in tasks:
            yield fn(*task)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    running = set(multiprocessing.active_children())
    executor = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )
    try:
        try:
            futures = [executor.submit(fn, *task) for task in tasks]
        except OSError as exc:
            # a worker forked before the failing one would wait for work forever
            for proc in set(multiprocessing.active_children()) - running:
                proc.kill()
                proc.join()
            raise WorkerPoolError(f"could not start sweep workers: {exc}") from exc
        for future in futures:
            yield future.result()
    except BrokenProcessPool as exc:
        raise WorkerPoolError(f"a sweep worker died: {exc}") from exc
    finally:
        executor.shutdown(cancel_futures=True)
