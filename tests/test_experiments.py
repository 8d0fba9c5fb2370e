import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cstomo.experiments import (
    SweepSpec,
    cell_seed,
    run_sweep,
    run_sweep_cell,
    summarize_sweep,
)
from cstomo.solver import ReconstructionConfig


def small_spec(**kw):
    kw.setdefault("d", 3)
    kw.setdefault("fractions", [0.5, 0.75])
    kw.setdefault("repeats", 2)
    kw.setdefault("mean_total_counts", 1e4)
    kw.setdefault("solver", ReconstructionConfig(tau=0.7))
    return SweepSpec(**kw)


class TestSweepSpec:
    def test_fraction_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            small_spec(fractions=[0.5, 0.2])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            small_spec(fractions=[0.0, 0.5])
        with pytest.raises(ValueError, match="at least one"):
            small_spec(fractions=[])

    def test_budget_arithmetic(self):
        spec = small_spec()
        assert spec.n_measurements(1.0) == 81
        assert spec.n_measurements(0.5) == 40  # round(40.5) banker's rounding
        assert small_spec(d=7).n_measurements(1.0) == 2401


class TestCellSeeds:
    def test_deterministic_and_distinct(self):
        s = cell_seed(1, 2, 3)
        assert s == cell_seed(1, 2, 3)
        assert s != cell_seed(1, 2, 4)
        assert s != cell_seed(1, 3, 3)
        assert s != cell_seed(2, 2, 3)

    def test_cell_reproducible_standalone(self):
        spec = small_spec()
        row = run_sweep_cell(spec, 0, 1)
        again = run_sweep_cell(spec, 0, 1)
        assert row.seed == again.seed
        assert row.fidelity_raw == again.fidelity_raw
        assert row.fidelity_corrected == again.fidelity_corrected


class TestRunSweep:
    def test_serial_rows_sorted_and_ok(self):
        spec = small_spec()
        rows = run_sweep(spec)
        assert [(r.fraction, r.repeat) for r in rows] == [
            (0.5, 0), (0.5, 1), (0.75, 0), (0.75, 1)
        ]
        assert all(r.status == "ok" for r in rows)

    def test_process_pool_matches_serial(self):
        spec = small_spec(repeats=1)
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        for a, b in zip(serial, pooled):
            assert a.seed == b.seed
            assert a.fidelity_raw == b.fidelity_raw
            assert a.fidelity_corrected == b.fidelity_corrected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_row_streams_rows_in_order(self, jobs):
        seen = []
        rows = run_sweep(small_spec(), jobs=jobs, on_row=seen.append)
        assert [(r.fraction, r.repeat) for r in seen] == [
            (0.5, 0), (0.5, 1), (0.75, 0), (0.75, 1)
        ]
        assert seen == rows

    def test_raw_only_mode(self):
        spec = small_spec(with_correction=False, repeats=1)
        rows = run_sweep(spec)
        assert all(np.isnan(r.fidelity_corrected) for r in rows)
        assert all(r.fidelity_raw > 0 for r in rows)

    def test_summary_aggregation(self):
        spec = small_spec()
        rows = run_sweep(spec)
        summary = summarize_sweep(rows)
        assert [e["fraction"] for e in summary] == [0.5, 0.75]
        for e in summary:
            assert e["n"] == 2
            vals = [r.fidelity_raw for r in rows if r.fraction == e["fraction"]]
            assert e["fidelity_raw_mean"] == pytest.approx(np.mean(vals))
            assert e["fidelity_raw_std"] == pytest.approx(np.std(vals, ddof=1))


class TestSubsetPool:
    # d=5, 5 and 7 subsets per cell: an in-line sweep shares one pool for them
    SPEC = dict(d=5, fractions=[0.2, 0.3], repeats=1, solver=ReconstructionConfig())

    @staticmethod
    def count_pools(monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", CountingPool)
        return pools

    def test_one_pool_per_sweep(self, monkeypatch):
        spec = small_spec(**self.SPEC)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 1)
        inline = run_sweep(spec)
        pools = self.count_pools(monkeypatch)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        before = set(multiprocessing.active_children())
        pooled = run_sweep(spec)
        assert pools == [2]
        assert set(multiprocessing.active_children()) == before
        assert all(r.status == "ok" and r.fidelity_corrected > 0 for r in pooled)

        def timeless(rows):
            return [repr(dataclasses.replace(r, runtime_seconds=0.0)) for r in rows]

        assert timeless(pooled) == timeless(inline)

    def test_no_child_left_when_on_row_raises(self, monkeypatch):
        pools = self.count_pools(monkeypatch)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        before = set(multiprocessing.active_children())
        seen = []

        def stop(row):
            seen.append(row)
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            run_sweep(small_spec(**self.SPEC), on_row=stop)
        assert len(seen) == 1 and pools == [2]
        assert set(multiprocessing.active_children()) == before
