"""A pool of forked worker processes for the cells of ``sweep --jobs N``
(``experiments.run_sweep(jobs=N)``); nothing else in cstomo starts a
process.

A task is a module-level function and its arguments, both pickled (a
function pickles as its name). The workers are started with fork, so they
inherit the loaded modules and the BLAS settings and run the same arithmetic
as an in-line run. The workers start at the first map and all at once,
before the pool's manager thread, so a live pool never forks again.

A pool runs its maps in-line with fewer than two workers, on a platform
without fork, and inside a process that is itself a multiprocessing worker.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator

from .errors import WorkerPoolError


class WorkerPool:
    """Up to ``workers`` forked processes that run the tasks of every map
    made while the pool is open; ``what`` names them in errors. A worker
    that cannot start or dies raises WorkerPoolError; an exception a task
    raises propagates."""

    def __init__(self, workers: int, what: str):
        self._what = what
        self._workers = workers
        self._forked = (
            workers >= 2
            and "fork" in multiprocessing.get_all_start_methods()
            and multiprocessing.parent_process() is None
        )
        self._executor: ProcessPoolExecutor | None = None

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Cancel the queued tasks and stop the workers."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def map(self, fn: Callable, tasks: list[tuple]) -> Iterator:
        """Submit fn(*task) for every task now and yield the results in task
        order. In-line, each runs as it is read. Dropping the iterator before
        its end cancels the tasks not yet started."""
        if not self._forked:
            return (fn(*task) for task in tasks)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=multiprocessing.get_context("fork")
            )
        running = set(multiprocessing.active_children())
        try:
            futures = [self._executor.submit(fn, *task) for task in tasks]
        except OSError as exc:
            # a worker forked before the failing one would wait for work forever
            for proc in set(multiprocessing.active_children()) - running:
                proc.kill()
                proc.join()
            self.close()
            raise WorkerPoolError(f"could not start {self._what} workers: {exc}") from exc
        except BrokenProcessPool as exc:
            raise WorkerPoolError(f"a {self._what} worker died: {exc}") from exc
        results = self._results(futures)
        next(results)  # enter the try, so that closing it cancels the rest
        return results

    def _results(self, futures: list) -> Iterator:
        try:
            yield
            for future in futures:
                yield future.result()
        except BrokenProcessPool as exc:
            raise WorkerPoolError(f"a {self._what} worker died: {exc}") from exc
        finally:
            for future in futures:
                future.cancel()

