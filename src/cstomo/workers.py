"""One ordered map over forked worker processes, for the correction's subset
solves and the sweep's cells.

A worker is started with fork, so it inherits the loaded modules, the BLAS
settings and the function to run: the function is the pool initializer's
argument, never pickled, and each task sends only an index. The map runs
in-line with fewer than two workers, on a platform without fork, and inside
a process that is itself a multiprocessing worker, so the subsets of a sweep
cell never start a pool of their own.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator

from .errors import WorkerPoolError

# the function a worker applies to each index, set by the pool initializer
_worker_fn: Callable | None = None


def _init_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(i: int):
    return _worker_fn(i)


def ordered_map(fn: Callable, n: int, workers: int, what: str) -> Iterator:
    """Yield fn(0), …, fn(n-1) in order, computed by up to ``workers``
    forked processes. A worker that cannot start or dies raises
    WorkerPoolError naming ``what``; an exception fn raises propagates."""
    workers = min(workers, n)
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
    ):
        yield from map(fn, range(n))
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn,),
    ) as pool:
        running = set(multiprocessing.active_children())
        try:
            futures = [pool.submit(_call, i) for i in range(n)]
        except OSError as exc:
            # a worker forked before the failing one would wait for work forever
            for proc in set(multiprocessing.active_children()) - running:
                proc.kill()
                proc.join()
            raise WorkerPoolError(f"could not start {what} workers: {exc}") from exc
        try:
            for future in futures:
                yield future.result()
        except BrokenProcessPool as exc:
            raise WorkerPoolError(f"a {what} worker died: {exc}") from exc
        finally:
            # a consumer that stops early leaves no queued task to run
            pool.shutdown(cancel_futures=True)
