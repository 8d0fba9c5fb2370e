import dataclasses
import json
import multiprocessing
import os
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cstomo.correction import (
    NoiseCorrectionConfig,
    _subset_config,
    _subset_workers,
    correct_probabilities,
    default_subset_count,
    estimate_delta_rho,
    partition,
    reconstruct_corrected,
)
from cstomo.errors import InvariantViolation
from cstomo.linalg import frob_norm, hs_inner, mat, vec
from cstomo.serialize import report_to_dict
from cstomo.simulate import joint_vectors, simulate_measurements, state_to_density
from cstomo.solver import ReconstructionConfig, reconstruct


D3_CFG = ReconstructionConfig(tau=0.7)  # small-instance threshold (see solver tests)


def d3_correction_config(**kw):
    kw.setdefault("base", D3_CFG)
    return NoiseCorrectionConfig(**kw)


class TestConfig:
    def test_rejects_single_subset(self):
        with pytest.raises(ValueError, match="at least 2"):
            NoiseCorrectionConfig(n_subsets=1)

    def test_rejects_unknown_assignment(self):
        with pytest.raises(ValueError, match="assignment"):
            NoiseCorrectionConfig(subset_assignment="alphabetical")

    def test_default_subset_count(self):
        assert default_subset_count(100, 9) == 8
        assert default_subset_count(30, 9) == 3
        with pytest.raises(ValueError, match="infeasible"):
            default_subset_count(17, 9)

    @pytest.mark.parametrize("subset_tol, expected", [(None, 1e-2), (1e-4, 1e-4), (1e-1, 1e-2)])
    def test_subset_config_keeps_base_fields(self, subset_tol, expected):
        base = ReconstructionConfig(
            tau=0.6, tau_ell=5.0, step_tol_rel=1e-2, k_max=7, threshold_mode="absolute"
        )
        sub = _subset_config(NoiseCorrectionConfig(base=base, subset_step_tol_rel=subset_tol))
        for f in dataclasses.fields(base):
            want = expected if f.name == "step_tol_rel" else getattr(base, f.name)
            assert getattr(sub, f.name) == want, f.name


class TestPartition:
    def test_round_robin_sizes(self):
        ms = simulate_measurements(3, 100, seed=0)
        subs = partition(ms, d3_correction_config(n_subsets=4))
        assert [len(s) for s in subs] == [25, 25, 25, 25]

    def test_disjoint_exact_cover(self):
        ms = simulate_measurements(3, 40, seed=1, mean_total_counts=1e4)
        for assignment in ("round-robin", "seeded-random"):
            subs = partition(
                ms, d3_correction_config(n_subsets=2, subset_assignment=assignment)
            )
            all_probs = np.concatenate([s.probs for s in subs])
            assert sorted(all_probs.tolist()) == sorted(ms.probs.tolist())
            assert sum(len(s) for s in subs) == len(ms)
            seen = set()
            for s in subs:
                for sig, idl in zip(s.signal, s.idler):
                    key = sig.tobytes() + idl.tobytes()
                    assert key not in seen
                    seen.add(key)
            assert len(seen) == len(ms)

    def test_seeded_random_deterministic(self):
        ms = simulate_measurements(3, 40, seed=2)
        cfg = d3_correction_config(n_subsets=2, subset_assignment="seeded-random", seed=7)
        a = partition(ms, cfg)
        b = partition(ms, cfg)
        assert np.array_equal(a[0].probs, b[0].probs)

    def test_too_few_measurements(self):
        ms = simulate_measurements(3, 20, seed=3)
        with pytest.raises(ValueError, match="floor|infeasible"):
            partition(ms, d3_correction_config(n_subsets=4))


class TestEstimateDeltaRho:
    def test_noiseless_sparse_state_gives_tiny_delta(self):
        # subsets of 30: deep lock onto the structured fixed point
        ms = simulate_measurements(3, 60, seed=4)
        cfg = d3_correction_config(n_subsets=2, subset_step_tol_rel=1e-9)
        est = estimate_delta_rho(partition(ms, cfg), cfg)
        assert np.linalg.norm(est.delta) <= 1e-6
        assert est.subset_converged == [True, True]

    def test_single_subset_rejected(self):
        ms = simulate_measurements(3, 60, seed=5)
        subs = partition(ms, d3_correction_config(n_subsets=2))
        with pytest.raises(ValueError, match="two subsets"):
            estimate_delta_rho(subs[:1], d3_correction_config())

    def test_noisy_delta_nonzero_and_correction_helps(self):
        # demonstration instance: subsets large enough to lock (30 each) and
        # moderate shot noise; the estimated displacement then cancels part of
        # the probability error, shrinking the residual at the true state
        ms = simulate_measurements(3, 60, seed=0, mean_total_counts=1e4)
        cfg = d3_correction_config(n_subsets=2, subset_step_tol_rel=1e-6)
        est = estimate_delta_rho(partition(ms, cfg), cfg)
        assert np.linalg.norm(est.delta) > 1e-4
        corrected, _ = correct_probabilities(ms, est.delta)
        truth_vec = vec(state_to_density(ms.truth))
        from cstomo.solver import measurement_rows

        rows = measurement_rows(ms)
        res_before = np.linalg.norm((rows @ truth_vec).real - ms.probs)
        res_after = np.linalg.norm((rows @ truth_vec).real - corrected.probs)
        assert res_after < res_before

    def test_unconverged_subsets_flagged(self):
        ms = simulate_measurements(3, 60, seed=7, mean_total_counts=500.0)
        cfg = d3_correction_config(
            n_subsets=2,
            base=ReconstructionConfig(tau=0.7, k_max=1),
            subset_step_tol_rel=1e-12,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = estimate_delta_rho(partition(ms, cfg), cfg)
        assert est.subset_converged == [False, False]
        assert est.n_omitted == 2
        assert np.linalg.norm(est.delta) == 0.0


    def test_invariant_violation_propagates(self, monkeypatch):
        # a convention bug must surface, not become an omitted subset, also
        # when a subset worker process raises it
        def broken(ms, cfg):
            raise InvariantViolation(
                f"projection 1 left constraint residual 1e-3 > 1e-9 (pid {os.getpid()})"
            )

        ms = simulate_measurements(3, 60, seed=0, mean_total_counts=1e4)
        cfg = d3_correction_config(n_subsets=2)
        monkeypatch.setattr("cstomo.correction.reconstruct", broken)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        with pytest.raises(InvariantViolation) as info:
            estimate_delta_rho(partition(ms, cfg), cfg)
        pid = int(re.search(r"pid (\d+)", str(info.value)).group(1))
        assert pid != os.getpid()


class TestSubsetWorkers:
    def test_pool_gives_the_same_bits(self, monkeypatch):
        # d=5, 4 subsets of 50; subset 3 needs 261 iterations, so k_max=100
        # omits it while the other three converge
        ms = simulate_measurements(5, 200, seed=0, mean_total_counts=300)
        cfg = NoiseCorrectionConfig(n_subsets=4, base=ReconstructionConfig(k_max=100))
        subsets = partition(ms, cfg)
        delta = np.zeros(25 * 25, dtype=complex)
        converged, norms = [], []
        for sub in subsets:
            rep = reconstruct(sub, cfg.base)
            converged.append(rep.converged)
            norms.append(float("nan"))
            if rep.converged:
                gap = vec(rep.rho_pre_gamma) - vec(rep.rho)
                delta += gap
                norms[-1] = float(np.linalg.norm(gap))
        assert converged == [True, True, True, False]

        def estimate():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est = estimate_delta_rho(subsets, cfg)
            return est, [str(w.message) for w in caught]

        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 1)
        _, inline_warnings = estimate()
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        est, pool_warnings = estimate()
        assert pools == [2]
        assert np.array_equal(est.delta, delta)
        assert est.subset_converged == converged
        assert np.array_equal(est.subset_delta_norms, norms, equal_nan=True)
        assert pool_warnings == inline_warnings
        assert pool_warnings == [
            "subset did not converge within k_max=100; contribution omitted"
        ]

    def test_overlap_gives_the_same_report(self, monkeypatch):
        # the raw solve runs while two workers solve the subsets
        ms = simulate_measurements(5, 200, seed=0, mean_total_counts=300)
        cfg = NoiseCorrectionConfig(n_subsets=4, base=ReconstructionConfig(k_max=100))

        def report():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = reconstruct_corrected(ms, cfg)
            assert rep.correction.applied
            return json.dumps(report_to_dict(rep, d=5), sort_keys=True)

        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 1)
        inline = report()
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr("cstomo.correction._subset_workers", lambda n: 2)
        before = set(multiprocessing.active_children())
        assert report() == inline
        assert pools == [2]
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.parametrize(
        "env, n_subsets, workers",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
            ({"OMP_NUM_THREADS": "2"}, 8, 2),
            ({"MKL_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 8, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 8, 1),
            ({}, 8, 1),  # BLAS then runs one thread per CPU
        ],
    )
    def test_worker_count(self, monkeypatch, env, n_subsets, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert _subset_workers(n_subsets) == workers

    @pytest.mark.parametrize("reason", ["one worker", "no fork", "multiprocessing child"])
    def test_in_line_without_a_pool(self, monkeypatch, reason):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started")

        monkeypatch.setattr("cstomo.workers.ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(
            "cstomo.correction._subset_workers", lambda n: 1 if reason == "one worker" else 2
        )
        if reason == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        if reason == "multiprocessing child":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        ms = simulate_measurements(3, 60, seed=4)
        cfg = d3_correction_config(n_subsets=2)
        est = estimate_delta_rho(partition(ms, cfg), cfg)
        assert est.subset_converged == [True, True]


class TestCorrectProbabilities:
    def test_zero_delta_is_identity(self):
        ms = simulate_measurements(3, 10, seed=8)
        out, n_clamped = correct_probabilities(ms, np.zeros(81, dtype=complex))
        assert np.array_equal(out.probs, ms.probs)
        assert n_clamped == 0

    def test_orthogonal_delta_leaves_probs(self):
        # delta = vec of an operator Hilbert-Schmidt-orthogonal to the single projector
        ms = simulate_measurements(3, 1, seed=9)
        w = joint_vectors(ms.signal, ms.idler)[0]
        op = np.outer(w, w.conj())
        w, v = np.linalg.eigh(op)
        perp = np.outer(v[:, 0], v[:, 0].conj())  # eigenvector of eigenvalue 0
        assert abs(hs_inner(op, perp)) < 1e-12
        out, _ = correct_probabilities(ms, vec(perp))
        assert np.abs(out.probs - ms.probs).max() <= 1e-12

    def test_matches_hs_inner_oracle(self):
        rng = np.random.default_rng(10)
        ms = simulate_measurements(3, 8, seed=11)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        delta = vec((a + a.conj().T) / 200)
        out, _ = correct_probabilities(ms, delta)
        for i, w in enumerate(joint_vectors(ms.signal, ms.idler)):
            shift = hs_inner(np.outer(w, w.conj()), mat(delta))
            assert abs(shift.imag) <= 1e-12
            expected = min(max(ms.probs[i] - shift.real, 0.0), 1.0)
            assert out.probs[i] == pytest.approx(expected, abs=1e-12)

    def test_clamping_counted(self):
        ms = simulate_measurements(3, 5, seed=12)
        delta = vec(np.eye(9, dtype=complex))  # shifts every prob by -1... clamps
        out, n_clamped = correct_probabilities(ms, delta)
        assert n_clamped == 5
        assert np.all(out.probs == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        ms = simulate_measurements(3, 6, seed=14)

        def shifts(delta):
            out, _ = correct_probabilities(ms, delta)
            return ms.probs - out.probs  # no clamping for tiny deltas

        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        da = vec((a + a.conj().T) / 1000)
        db = vec((b + b.conj().T) / 1000)
        assert np.abs(shifts(da + db) - (shifts(da) + shifts(db))).max() <= 1e-12


class TestReconstructCorrected:
    def test_noiseless_correction_is_noop(self):
        ms = simulate_measurements(3, 60, seed=15)
        cfg = d3_correction_config(n_subsets=2, subset_step_tol_rel=1e-9)
        corrected = reconstruct_corrected(ms, cfg)
        raw = corrected.correction.raw_report
        assert corrected.correction.applied
        assert frob_norm(corrected.rho - raw.rho) <= 1e-6

    def test_deterministic(self):
        ms = simulate_measurements(3, 60, seed=16, mean_total_counts=2e3)
        cfg = d3_correction_config(n_subsets=2)
        a = reconstruct_corrected(ms, cfg)
        b = reconstruct_corrected(ms, cfg)
        assert np.array_equal(a.rho, b.rho)
        assert a.correction.delta_norm == b.correction.delta_norm

    def test_fallback_when_partition_infeasible(self):
        ms = simulate_measurements(3, 12, seed=17)  # cannot form 2 subsets of 9
        with pytest.warns(UserWarning, match="skipped"):
            rep = reconstruct_corrected(ms, d3_correction_config())
        assert rep.correction is not None
        assert not rep.correction.applied
        assert rep.correction.reason

    def test_fallback_when_every_subset_omitted(self):
        ms = simulate_measurements(3, 60, seed=7, mean_total_counts=500.0)
        cfg = d3_correction_config(n_subsets=2, base=ReconstructionConfig(tau=0.7, k_max=1))
        with pytest.warns(UserWarning) as caught:
            rep = reconstruct_corrected(ms, cfg)
        assert [str(w.message) for w in caught] == [
            "subset did not converge within k_max=1; contribution omitted",
            "subset did not converge within k_max=1; contribution omitted",
            "noise correction skipped: every subset failed to converge",
        ]
        raw = reconstruct(ms, cfg.base)
        assert np.array_equal(rep.rho, raw.rho)
        assert rep.iterations == raw.iterations == 1
        c = rep.correction
        assert not c.applied and c.raw_report is None
        assert c.reason == "every subset failed to converge"
        assert c.n_subsets == 2 and c.n_omitted == 2
        assert c.subset_sizes == [30, 30]
        assert c.subset_converged == [False, False]
        assert np.isnan(c.subset_delta_norms).all() and len(c.subset_delta_norms) == 2
        doc = report_to_dict(rep, d=3)["correction"]
        assert json.dumps(doc, sort_keys=True) == json.dumps({
            "applied": False,
            "n_subsets": 2,
            "subset_sizes": [30, 30],
            "subset_converged": [False, False],
            "subset_delta_norms": [float("nan"), float("nan")],
            "delta_norm": 0.0,
            "n_clamped": 0,
            "reason": "every subset failed to converge",
        }, sort_keys=True)

    def test_report_carries_diagnostics(self):
        ms = simulate_measurements(3, 60, seed=18, mean_total_counts=2e3)
        rep = reconstruct_corrected(ms, d3_correction_config(n_subsets=2))
        c = rep.correction
        assert c.applied
        assert c.n_subsets == 2
        assert c.subset_sizes == [30, 30]
        assert len(c.subset_delta_norms) == 2
        assert c.raw_report is not None
        assert c.delta_norm >= 0.0
