import dataclasses
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import cstomo.experiments
from cstomo.correction import _subset_gap
from cstomo.errors import InvariantViolation
from cstomo.experiments import (
    SweepSpec,
    cell_seed,
    run_sweep,
    run_sweep_cell,
    summarize_sweep,
)
from cstomo.solver import ReconstructionConfig

# a subset task's function is pickled by name, so the stand-ins for
# ``correction._subset_gap`` below are module-level; forked workers see the
# seed set here before the pool starts
VIOLATE_SEED = None


def violate_on_seed(sub, sub_cfg):
    if sub.seed == VIOLATE_SEED:
        raise InvariantViolation("iterate lost Hermiticity after projection 1")
    return _subset_gap(sub, sub_cfg)


def slow_gap(sub, sub_cfg):
    time.sleep(0.1)
    return _subset_gap(sub, sub_cfg)


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

    @pytest.mark.parametrize("counts", [0.0, float("inf"), float("nan")])
    def test_counts_validation(self, counts):
        with pytest.raises(ValueError, match="must be positive and finite"):
            small_spec(mean_total_counts=counts)

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

    def test_corrected_raw_fidelity_uses_the_solver(self):
        # a non-default solver (tau=0.7) with a subset count: the corrected
        # cells' raw solve is the raw-only sweep's
        spec = small_spec(fractions=[0.4, 0.75], repeats=1, n_subsets=2)
        corrected = run_sweep(spec)
        raw_only = run_sweep(dataclasses.replace(spec, with_correction=False))
        assert all(r.status == "ok" for r in corrected)
        assert [r.fidelity_raw for r in corrected] == [r.fidelity_raw for r in raw_only]

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(small_spec(), jobs=jobs)

    def test_rejects_no_subsets(self):
        with pytest.raises(ValueError, match="at least 1"):
            small_spec(n_subsets=0)

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


class TestDefaultCorrection:
    def test_in_line_sweep_starts_no_pool_and_queues_nothing(self, monkeypatch):
        # the default correction's gap is each cell's raw solve's own: the
        # cells are simulated in their turn and nothing forks
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started")

        def no_queue(*args, **kwargs):
            raise AssertionError("cells were started ahead")

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", NoPool)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        monkeypatch.setattr("cstomo.experiments._started_cells", no_queue)
        seeds = TestLookahead.record_simulations(monkeypatch)
        spec = small_spec(d=5, fractions=[0.05, 0.2], repeats=2, solver=ReconstructionConfig())
        simulated = []
        before = set(multiprocessing.active_children())
        rows = run_sweep(spec, on_row=lambda row: simulated.append(len(seeds)))
        assert set(multiprocessing.active_children()) == before
        assert simulated == [1, 2, 3, 4]
        assert all(r.status == "ok" and r.fidelity_corrected > 0 for r in rows)


class TestSubsetPool:
    # d=5, 5 subsets per cell: an in-line sweep shares one pool for them
    SPEC = dict(d=5, fractions=[0.2, 0.3], repeats=1, solver=ReconstructionConfig(),
                n_subsets=5)

    @staticmethod
    def count_pools(monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", CountingPool)
        return pools

    @staticmethod
    def timeless(rows):
        return [repr(dataclasses.replace(r, runtime_seconds=0.0)) for r in rows]

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

        assert self.timeless(pooled) == self.timeless(inline)

    def test_shared_pool_skips_a_cell_it_cannot_partition(self, monkeypatch):
        # M=31 < 5·25 at fraction 0.05: the first cell maps no subsets on the
        # shared pool, the next cell maps five
        spec = small_spec(d=5, fractions=[0.05, 0.2], repeats=1, solver=ReconstructionConfig(),
                          n_subsets=5)

        def run():
            with pytest.warns(UserWarning, match="floor"):
                return run_sweep(spec)

        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 1)
        inline = run()
        pools = self.count_pools(monkeypatch)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        before = set(multiprocessing.active_children())
        pooled = run()
        assert pools == [2]
        assert set(multiprocessing.active_children()) == before
        assert [r.status for r in pooled] == ["ok", "ok"]
        assert np.isnan(pooled[0].fidelity_corrected) and pooled[1].fidelity_corrected > 0

        assert self.timeless(pooled) == self.timeless(inline)

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


class TestLookahead:
    # d=5, 5 subsets: fraction 0.05 (M=31) cannot be partitioned, 0.2 and
    # 0.3 can
    SPEC = dict(d=5, fractions=[0.05, 0.2, 0.3], repeats=2, solver=ReconstructionConfig(),
                n_subsets=5)

    count_pools = staticmethod(TestSubsetPool.count_pools)
    timeless = staticmethod(TestSubsetPool.timeless)

    @staticmethod
    def sweep(monkeypatch, workers, spec, **kw):
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: workers)
        before = set(multiprocessing.active_children())
        rows = run_sweep(spec, **kw)
        assert set(multiprocessing.active_children()) == before
        return rows

    @staticmethod
    def record_simulations(monkeypatch, fail_seed=None):
        seeds = []
        real = cstomo.experiments.simulate_measurements

        def simulate(*args, **kwargs):
            seeds.append(kwargs["seed"])
            if kwargs["seed"] == fail_seed:
                raise ValueError("no campaign for this seed")
            return real(*args, **kwargs)

        monkeypatch.setattr("cstomo.experiments.simulate_measurements", simulate)
        return seeds

    @pytest.mark.filterwarnings("ignore:noise correction skipped")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_start_ahead_up_to_the_depth(self, monkeypatch, workers):
        spec = small_spec(**self.SPEC)
        seeds = self.record_simulations(monkeypatch)
        started = []
        self.sweep(monkeypatch, workers, spec, on_row=lambda row: started.append(len(seeds)))
        depth = cstomo.experiments._LOOKAHEAD_PER_WORKER * workers if workers > 1 else 0
        n = len(started)
        assert started == [min(k + 1 + depth, n) for k in range(n)]
        assert seeds == [cell_seed(spec.seed, *divmod(i, spec.repeats)) for i in range(n)]

    def test_rows_match_across_worker_counts(self, monkeypatch):
        spec = small_spec(**self.SPEC)
        with pytest.warns(UserWarning, match="floor"):
            inline = self.sweep(monkeypatch, 1, spec)
        pools = self.count_pools(monkeypatch)
        with pytest.warns(UserWarning, match="floor"):
            pooled = self.sweep(monkeypatch, 2, spec)
        assert pools == [2]
        assert [np.isnan(r.fidelity_corrected) for r in pooled] == [True] * 2 + [False] * 4
        assert all(r.status == "ok" for r in pooled)
        assert self.timeless(pooled) == self.timeless(inline)

    @pytest.mark.filterwarnings("ignore:noise correction skipped")
    def test_failed_simulation_of_a_cell_started_ahead(self, monkeypatch):
        # cell 3 is simulated during an earlier cell's call; its row fails
        # in its place and cells 4 and 5 still run
        spec = small_spec(**self.SPEC)
        fail_seed = cell_seed(spec.seed, 1, 1)
        runs = []
        for workers in (1, 2):
            seeds = self.record_simulations(monkeypatch, fail_seed)
            out = []
            rows = self.sweep(monkeypatch, workers, spec,
                              on_row=lambda row: out.append(fail_seed in seeds))
            runs.append(rows)
        assert out.index(True) < 3  # started ahead of its turn
        assert [r.status for r in rows] == ["ok"] * 3 + [
            "failed: no campaign for this seed"] + ["ok"] * 2
        assert self.timeless(runs[1]) == self.timeless(runs[0])

    @pytest.mark.filterwarnings("ignore:noise correction skipped")
    def test_invariant_violation_in_a_queued_subset_fails_only_its_cell(self, monkeypatch):
        spec = small_spec(**self.SPEC)
        monkeypatch.setattr("cstomo.correction._subset_gap", violate_on_seed)
        monkeypatch.setitem(globals(), "VIOLATE_SEED", cell_seed(spec.seed, 2, 0))
        runs = [self.sweep(monkeypatch, workers, spec) for workers in (1, 2)]
        assert [r.status for r in runs[1]] == ["ok"] * 4 + [
            "failed: iterate lost Hermiticity after projection 1", "ok"]
        assert self.timeless(runs[1]) == self.timeless(runs[0])

    def test_on_row_raising_cancels_the_queued_cells(self, monkeypatch):
        spec = small_spec(d=5, fractions=[0.2, 0.3], repeats=2, solver=ReconstructionConfig(),
                          n_subsets=5)
        futures = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("cstomo.correction._subset_gap", slow_gap)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)

        def stop(row):
            raise RuntimeError("stop")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="stop"):
            run_sweep(spec, on_row=stop)
        assert set(multiprocessing.active_children()) == before
        assert len(futures) > 5  # the first cell's 5 subsets, then queued cells'
        assert all(f.done() for f in futures)
        assert any(f.cancelled() for f in futures[5:])
