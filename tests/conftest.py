import tracemalloc

import pytest

import cstomo.correction
import cstomo.solver
from cstomo.errors import InvariantViolation


@pytest.fixture
def factorizations(monkeypatch):
    """The Gram size of every top-level ``solver._factor_inverse`` call, in
    call order; its recursion into halves is not counted."""
    sizes, depth = [], [0]
    real = cstomo.solver._factor_inverse

    def counting(g):
        if not depth[0]:
            sizes.append(len(g))
        depth[0] += 1
        try:
            return real(g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cstomo.solver, "_factor_inverse", counting)
    return sizes


@pytest.fixture
def traced_peak():
    """Call with a function and its arguments: the peak of the memory that
    tracemalloc traces while the call runs, above what was traced before it.
    Tracing starts and stops around the call unless it was on already."""

    def measure(fn, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    return measure


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a worker pool starts."""
    monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", _NoPool)


@pytest.fixture
def forked_workers(monkeypatch):
    """Let ``workers.ordered_map`` start two workers on any host: BLAS pinned
    to one thread and two usable CPUs. Unpinned, BLAS runs one thread per
    CPU, and the map caps its workers at one and runs in-line."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr("cstomo.workers._usable_cpus", lambda: 2)


@pytest.fixture
def violate_in_final_solve(monkeypatch):
    """Call with a campaign seed: the second solve of that campaign inside
    ``reconstruct_corrected``, its final solve, then raises an
    InvariantViolation. The call returns the seed of every such solve in
    this process, in call order."""

    def install(bad_seed):
        seeds = []
        real = cstomo.correction.reconstruct

        def solve(ms, *args, **kwargs):
            seeds.append(ms.seed)
            if ms.seed == bad_seed and seeds.count(bad_seed) == 2:
                raise InvariantViolation("iterate lost Hermiticity after projection 1")
            return real(ms, *args, **kwargs)

        monkeypatch.setattr(cstomo.correction, "reconstruct", solve)
        return seeds

    return install
