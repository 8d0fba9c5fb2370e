import dataclasses
import multiprocessing

import numpy as np
import pytest

import cstomo.experiments
import cstomo.workers
from cstomo.experiments import (
    SweepSpec,
    cell_seed,
    run_sweep,
    run_sweep_cell,
    summarize_sweep,
)
from cstomo.simulate import MAX_MEAN_TOTAL_COUNTS, make_max_entangled
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

    @pytest.mark.parametrize("counts", [0.0, float("inf"), float("nan"), 1e30])
    def test_counts_validation(self, counts):
        with pytest.raises(ValueError, match="must be positive and finite"):
            small_spec(mean_total_counts=counts)

    def test_accepts_the_largest_counts(self):
        assert small_spec(mean_total_counts=MAX_MEAN_TOTAL_COUNTS).mean_total_counts == 1e18

    def test_removed_subset_count_is_a_type_error(self):
        # a corrected cell always runs the default correction
        with pytest.raises(TypeError, match="n_subsets"):
            small_spec(n_subsets=2)

    @pytest.mark.parametrize("kw,message", [
        ({"d": 3.7}, "d must be an integer, got 3.7"),
        ({"d": 4}, "mode count d must be odd (d = 2L+1), got 4"),
        ({"d": 3, "state": make_max_entangled(5)}, "state has d=5, expected 3"),
    ], ids=["float", "even", "state-of-another-d"])
    def test_rejects_a_mode_count_at_construction(self, kw, message):
        # refused when the spec is built, not at its first cell
        with pytest.raises(ValueError) as exc:
            small_spec(**kw)
        assert str(exc.value) == message

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

    def test_process_pool_matches_serial(self, forked_workers):
        spec = small_spec(repeats=1)
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=2)
        for a, b in zip(serial, pooled):
            assert a.seed == b.seed
            assert a.fidelity_raw == b.fidelity_raw
            assert a.fidelity_corrected == b.fidelity_corrected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_row_streams_rows_in_order(self, forked_workers, jobs):
        seen = []
        rows = run_sweep(small_spec(), jobs=jobs, on_row=seen.append)
        assert [(r.fraction, r.repeat) for r in seen] == [
            (0.5, 0), (0.5, 1), (0.75, 0), (0.75, 1)
        ]
        assert seen == rows

    def test_no_child_left_when_on_row_raises(self, forked_workers):
        def stop(row):
            raise RuntimeError("stop")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="stop"):
            run_sweep(small_spec(), jobs=2, on_row=stop)
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("reason", ["no fork", "multiprocessing child"])
    def test_jobs_run_in_line_without_a_pool(self, monkeypatch, forked_workers, no_pool,
                                             reason):
        if reason == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if reason == "multiprocessing child":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        rows = run_sweep(small_spec(repeats=1), jobs=2)
        assert all(r.status == "ok" for r in rows)

    def test_corrected_raw_fidelity_uses_the_solver(self):
        # a non-default solver (tau=0.7): the corrected cells' raw solve is
        # the raw-only sweep's
        spec = small_spec(fractions=[0.4, 0.75], repeats=1)
        corrected = run_sweep(spec)
        raw_only = run_sweep(dataclasses.replace(spec, with_correction=False))
        assert all(r.status == "ok" for r in corrected)
        assert [r.fidelity_raw for r in corrected] == [r.fidelity_raw for r in raw_only]

    @pytest.mark.parametrize("cpus, env, cap", [
        (8, {}, 1),  # BLAS unpinned: one thread per CPU
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
        (8, {"MKL_NUM_THREADS": "4"}, 2),
        (8, {"OMP_NUM_THREADS": "1"}, 8),
        (8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),  # the first set
        (8, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "2"}, 4),  # 0 is unset
        (8, {"OPENBLAS_NUM_THREADS": "x"}, 1),
        (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
    ])
    def test_workers_are_capped_at_cpus_over_blas_threads(self, monkeypatch, cpus, env, cap):
        for var in cstomo.workers._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr("cstomo.workers._usable_cpus", lambda: cpus)
        assert cstomo.workers._max_workers() == cap

    def test_unpinned_blas_runs_the_cells_in_line(self, monkeypatch, no_pool):
        for var in cstomo.workers._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr("cstomo.workers._usable_cpus", lambda: 2)
        spec = small_spec(repeats=1)
        capped = run_sweep(spec, jobs=2)
        serial = run_sweep(spec, jobs=1)
        for a, b in zip(capped, serial):
            assert dataclasses.replace(a, runtime_seconds=0.0) == \
                dataclasses.replace(b, runtime_seconds=0.0)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(small_spec(), jobs=jobs)

    def test_cell_whose_raw_solve_hits_k_max_is_ok(self):
        # the correction is skipped with one warning; the cell itself did not fail
        spec = small_spec(fractions=[0.75], repeats=1,
                          solver=ReconstructionConfig(tau=0.7, k_max=1))
        with pytest.warns(UserWarning) as caught:
            (row,) = run_sweep(spec)
        assert [str(w.message) for w in caught] == [
            "noise correction skipped: raw solve did not converge within k_max=1"
        ]
        assert row.status == "ok" and row.iterations == 1
        assert np.isnan(row.fidelity_corrected) and row.fidelity_raw > 0

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


def record_simulations(monkeypatch, fail_seed=None,
                       error=ValueError("no campaign for this seed")):
    """The seeds of the campaigns the sweep simulates, in call order; the
    campaign of ``fail_seed`` raises ``error``."""
    seeds = []
    real = cstomo.experiments.simulate_measurements

    def simulate(*args, **kwargs):
        seeds.append(kwargs["seed"])
        if kwargs["seed"] == fail_seed:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr("cstomo.experiments.simulate_measurements", simulate)
    return seeds


class TestInLineCorrection:
    def test_in_line_sweep_starts_no_pool_and_queues_nothing(self, monkeypatch, no_pool):
        # both solves of every cell run in the calling process, and each
        # cell is simulated in its turn: nothing forks
        seeds = record_simulations(monkeypatch)
        spec = small_spec(d=5, fractions=[0.1, 0.2], repeats=2, solver=ReconstructionConfig())
        simulated = []
        before = set(multiprocessing.active_children())
        rows = run_sweep(spec, on_row=lambda row: simulated.append(len(seeds)))
        assert set(multiprocessing.active_children()) == before
        assert simulated == [1, 2, 3, 4]
        assert seeds == [cell_seed(spec.seed, *divmod(i, spec.repeats)) for i in range(4)]
        assert all(r.status == "ok" and r.fidelity_corrected > 0 for r in rows)

    def test_on_row_raising_stops_before_the_next_cell(self, monkeypatch, no_pool):
        seeds = record_simulations(monkeypatch)

        def stop(row):
            raise RuntimeError("stop")

        spec = small_spec()
        with pytest.raises(RuntimeError, match="stop"):
            run_sweep(spec, on_row=stop)
        assert seeds == [cell_seed(spec.seed, 0, 0)]

    def test_invariant_violation_in_a_final_solve_fails_only_its_cell(self,
                                                                       violate_in_final_solve):
        spec = small_spec(d=5, fractions=[0.05, 0.2, 0.3], repeats=2,
                          solver=ReconstructionConfig())
        want = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        solves = violate_in_final_solve(cell_seed(spec.seed, 2, 0))
        rows = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        assert [r.status for r in rows] == ["ok"] * 4 + [
            "failed: iterate lost Hermiticity after projection 1", "ok"]
        assert [np.isnan(r.fidelity_corrected) for r in rows] == [False] * 4 + [True, False]
        assert repr(rows[:4] + rows[5:]) == repr(want[:4] + want[5:])
        assert solves == [seed for r in want for seed in (r.seed, r.seed)]  # raw, final

    def test_failed_simulation_fails_only_its_row(self, monkeypatch):
        spec = small_spec()
        want = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        record_simulations(monkeypatch, fail_seed=cell_seed(spec.seed, 1, 0))
        rows = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        assert [r.status for r in rows] == ["ok", "ok", "failed: no campaign for this seed", "ok"]
        assert repr(rows[:2] + rows[3:]) == repr(want[:2] + want[3:])

    def test_refused_allocation_fails_only_its_row(self, monkeypatch):
        # numpy raises MemoryError when an array is too large for memory
        spec = small_spec()
        want = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        record_simulations(monkeypatch, fail_seed=cell_seed(spec.seed, 0, 1),
                           error=MemoryError("Unable to allocate 122. GiB for an array"))
        rows = [dataclasses.replace(r, runtime_seconds=0.0) for r in run_sweep(spec)]
        assert [r.status for r in rows] == [
            "ok", "failed: Unable to allocate 122. GiB for an array", "ok", "ok"]
        assert repr(rows[:1] + rows[2:]) == repr(want[:1] + want[2:])
