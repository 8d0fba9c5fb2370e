"""Forked worker processes for the cells of ``sweep --jobs N``
(``experiments.run_sweep(jobs=N)``); nothing else in cstomo starts a
process.

``ordered_map`` runs one map. A task is a module-level function and its
arguments, both pickled (a function pickles as its name). The workers are
started with fork, so they inherit the loaded modules and the BLAS settings
and run the same arithmetic as an in-line run. They all start at the first
submission, before the executor's manager thread, so no fork happens while
that thread runs.

The map runs in-line with fewer than two workers, on a platform without
fork, and inside a process that is itself a multiprocessing worker.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator

from .errors import WorkerPoolError


def ordered_map(fn: Callable, tasks: list[tuple], workers: int, what: str) -> Iterator:
    """Yield fn(*task) for every task, in task order, from up to ``workers``
    forked processes; ``what`` names them in errors. In-line, each task runs
    as it is read. Closing the generator before its end cancels the tasks not
    yet started and stops the workers. A worker that cannot start or dies
    raises WorkerPoolError; an exception a task raises propagates."""
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
    ):
        for task in tasks:
            yield fn(*task)
        return
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
            raise WorkerPoolError(f"could not start {what} workers: {exc}") from exc
        for future in futures:
            yield future.result()
    except BrokenProcessPool as exc:
        raise WorkerPoolError(f"a {what} worker died: {exc}") from exc
    finally:
        executor.shutdown(cancel_futures=True)
