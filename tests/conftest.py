import pytest

import cstomo.solver


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


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a worker pool starts."""
    monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", _NoPool)
