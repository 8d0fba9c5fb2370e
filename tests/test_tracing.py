"""The benchmark's tracer wraps cstomo functions by module and attribute
name (``perfbench/tracing.py``, ``WRAPPED``). A renamed or removed attribute
breaks every traced benchmark run; these tests catch it in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import cstomo.solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
ATTRIBUTES = [(module, attr) for module, attr, _, _ in tracing.WRAPPED]


@pytest.mark.parametrize("module,attr", ATTRIBUTES,
                         ids=[f"{module.__name__}.{attr}" for module, attr in ATTRIBUTES])
def test_wrapped_attribute_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None))


def test_uninstall_restores_every_original():
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, fn in originals:
            assert getattr(module, attr).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn


def test_module_global_lookup_is_traced():
    # threshold_eigs finds eig_hermitian as a solver module global, so the
    # wrapper on cstomo.solver.eig_hermitian sees the call
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cstomo.solver.threshold_eigs(np.eye(3, dtype=complex), 0.5)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["linalg.eigh"]
