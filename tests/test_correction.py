import dataclasses
import json
import multiprocessing
import warnings

import numpy as np
import pytest

import cstomo.correction
from cstomo.correction import (
    CorrectionDiagnostics,
    NoiseCorrectionConfig,
    correct_probabilities,
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
    def test_rejects_no_subsets(self):
        with pytest.raises(ValueError, match="at least 1"):
            NoiseCorrectionConfig(n_subsets=0)

    @pytest.mark.parametrize("field", ["subset_assignment", "seed"])
    def test_removed_fields_are_rejected(self, field):
        # the partition is round-robin only: no assignment to choose, no seed
        with pytest.raises(TypeError, match=field):
            NoiseCorrectionConfig(n_subsets=2, **{field: 0})

    def test_default_subset_count(self):
        # one subset, the whole campaign, by default; two subsets of 17
        # measurements fall below the floor of D=9 each
        ms = simulate_measurements(3, 17, seed=0)
        assert NoiseCorrectionConfig().n_subsets == 1
        assert [len(s) for s in partition(ms, NoiseCorrectionConfig())] == [17]
        with pytest.raises(ValueError, match="floor"):
            partition(ms, NoiseCorrectionConfig(n_subsets=2))


class TestPartition:
    def test_round_robin_sizes(self):
        ms = simulate_measurements(3, 100, seed=0)
        subs = partition(ms, d3_correction_config(n_subsets=4))
        assert [len(s) for s in subs] == [25, 25, 25, 25]

    @pytest.mark.parametrize("n_subsets", [2, 3, 4])
    def test_round_robin_order(self, n_subsets):
        # subset j holds measurements j, j + N, j + 2N, ..., in campaign order
        ms = simulate_measurements(3, 103, seed=2, mean_total_counts=1e4)
        subs = partition(ms, d3_correction_config(n_subsets=n_subsets))
        assert [len(s) for s in subs] == [len(range(j, 103, n_subsets))
                                          for j in range(n_subsets)]
        for j, sub in enumerate(subs):
            assert np.array_equal(sub.signal, ms.signal[j::n_subsets])
            assert np.array_equal(sub.idler, ms.idler[j::n_subsets])
            assert np.array_equal(sub.probs, ms.probs[j::n_subsets])
            assert np.array_equal(sub.counts, ms.counts[j::n_subsets])

    def test_disjoint_exact_cover(self):
        ms = simulate_measurements(3, 40, seed=1, mean_total_counts=1e4)
        subs = partition(ms, d3_correction_config(n_subsets=2))
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

    @pytest.mark.parametrize("counts", [1e4, None])
    def test_new_sets_keep_the_campaign(self, counts):
        # every subset and the corrected set carry the campaign's metadata;
        # only the per-measurement arrays are sliced or replaced
        ms = simulate_measurements(3, 40, seed=19, mean_total_counts=counts)
        assert (ms.counts is None) == (counts is None)
        for j, sub in enumerate(partition(ms, d3_correction_config(n_subsets=2))):
            assert (sub.d, sub.seed, sub.calibration) == (ms.d, ms.seed, ms.calibration)
            assert sub.truth is ms.truth
            for name in ("signal", "idler", "probs", "counts"):
                whole = getattr(ms, name)
                want = None if whole is None else whole[j::2]
                assert np.array_equal(getattr(sub, name), want), name
        corrected, _ = correct_probabilities(ms, vec(np.eye(9, dtype=complex) / 900))
        assert not np.array_equal(corrected.probs, ms.probs)
        for f in dataclasses.fields(ms):
            if f.name == "probs":
                continue
            got, want = getattr(corrected, f.name), getattr(ms, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got is want or got == want, f.name

    def test_too_few_measurements(self):
        ms = simulate_measurements(3, 20, seed=3)
        with pytest.raises(ValueError, match="floor|infeasible"):
            partition(ms, d3_correction_config(n_subsets=4))


class TestEstimateDeltaRho:
    def test_noiseless_sparse_state_gives_tiny_delta(self):
        # subsets of 30: deep lock onto the structured fixed point
        ms = simulate_measurements(3, 60, seed=4)
        cfg = d3_correction_config(
            n_subsets=2, base=ReconstructionConfig(tau=0.7, step_tol_rel=1e-9)
        )
        est = reconstruct_corrected(ms, cfg).correction
        assert np.linalg.norm(est.delta) <= 1e-6
        assert est.subset_converged == [True, True]

    def test_partition_below_floor_gives_no_estimate(self):
        # 17 measurements of D=9 cannot form 2 subsets of 9: no estimate
        ms = simulate_measurements(3, 17, seed=5)
        with pytest.warns(UserWarning, match="floor"):
            est = reconstruct_corrected(ms, d3_correction_config(n_subsets=2)).correction
        assert est.n_subsets == 0 and est.delta is None and not est.applied
        assert est.reason == (
            "17 measurements over 2 subsets leaves 8 per subset, below the floor of D=9"
        )

    def test_default_corrects_a_campaign_too_small_to_partition(self):
        # the same campaign under the default: one subset of all 17
        ms = simulate_measurements(3, 17, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = reconstruct_corrected(ms, d3_correction_config()).correction
        assert est.applied and est.reason == ""
        assert est.subset_sizes == [17] and est.subset_converged == [True]

    def test_noisy_delta_nonzero_and_correction_helps(self):
        # demonstration instance: subsets large enough to lock (30 each) and
        # moderate shot noise; the estimated displacement then cancels part of
        # the probability error, shrinking the residual at the true state
        ms = simulate_measurements(3, 60, seed=0, mean_total_counts=1e4)
        cfg = d3_correction_config(
            n_subsets=2, base=ReconstructionConfig(tau=0.7, step_tol_rel=1e-6)
        )
        est = reconstruct_corrected(ms, cfg).correction
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
            base=ReconstructionConfig(tau=0.7, step_tol_rel=1e-12, k_max=1),
        )
        with pytest.warns(UserWarning) as caught:
            est = reconstruct_corrected(ms, cfg).correction
        assert est.subset_converged == [False, False]
        assert est.n_omitted == 2
        assert np.linalg.norm(est.delta) == 0.0
        assert [str(w.message) for w in caught][:2] == [
            "subset did not converge within k_max=1; contribution omitted"
        ] * 2

    def test_invariant_violation_propagates(self, monkeypatch):
        # a convention bug in a subset solve must surface, not become an
        # omitted subset; the raw solve, the first, succeeds
        solves = []

        def broken(ms, cfg, **kwargs):
            solves.append(len(ms))
            if len(solves) == 1:
                return reconstruct(ms, cfg, **kwargs)
            raise InvariantViolation("projection 1 left constraint residual 1e-3 > 1e-9")

        ms = simulate_measurements(3, 60, seed=0, mean_total_counts=1e4)
        monkeypatch.setattr("cstomo.correction.reconstruct", broken)
        with pytest.raises(InvariantViolation, match="constraint residual"):
            reconstruct_corrected(ms, d3_correction_config(n_subsets=2))
        assert solves == [60, 30]


class TestSubsetsInLine:
    """With N ≥ 2 the subsets are solved in the calling process, after the
    raw solve, as ``estimate_delta_rho`` reads their gaps."""

    def test_same_bits_as_the_subset_solves_by_hand(self):
        # d=5, 4 subsets of 50, which need 107, 495, 91 and 275 iterations,
        # so k_max=200 omits subsets 1 and 3 while the other two converge
        ms = simulate_measurements(5, 200, seed=0, mean_total_counts=300)
        cfg = NoiseCorrectionConfig(n_subsets=4, base=ReconstructionConfig(k_max=200))
        delta = np.zeros(25 * 25, dtype=complex)
        converged, norms = [], []
        for sub in partition(ms, cfg):
            rep = reconstruct(sub, cfg.base)
            converged.append(rep.converged)
            norms.append(float("nan"))
            if rep.converged:
                gap = vec(rep.rho_pre_gamma) - vec(rep.rho)
                delta += gap
                norms[-1] = float(np.linalg.norm(gap))
        assert converged == [True, False, True, False]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = reconstruct_corrected(ms, cfg).correction
        assert np.array_equal(est.delta, delta)
        assert est.subset_converged == converged
        assert np.array_equal(est.subset_delta_norms, norms, equal_nan=True)
        assert [str(w.message) for w in caught] == [
            "subset did not converge within k_max=200; contribution omitted"
        ] * 2

    def test_subsets_solve_after_the_raw_solve_inside_the_estimate(self, monkeypatch,
                                                                   no_pool):
        events = []
        real_reconstruct = cstomo.correction.reconstruct
        real_estimate = cstomo.correction.estimate_delta_rho

        def solve(ms, cfg, **kwargs):
            events.append(("solve", len(ms)))
            return real_reconstruct(ms, cfg, **kwargs)

        def estimate(subsets, gaps):
            events.append("estimate")
            try:
                return real_estimate(subsets, gaps)
            finally:
                events.append("estimated")

        monkeypatch.setattr("cstomo.correction.reconstruct", solve)
        monkeypatch.setattr("cstomo.correction.estimate_delta_rho", estimate)
        ms = simulate_measurements(3, 60, seed=16, mean_total_counts=2e3)
        before = set(multiprocessing.active_children())
        rep = reconstruct_corrected(ms, d3_correction_config(n_subsets=2))
        assert set(multiprocessing.active_children()) == before
        assert rep.correction.applied
        assert events == [
            ("solve", 60), "estimate", ("solve", 30), ("solve", 30), "estimated", ("solve", 60)
        ]


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
        cfg = d3_correction_config(
            n_subsets=2, base=ReconstructionConfig(tau=0.7, step_tol_rel=1e-9)
        )
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
            rep = reconstruct_corrected(ms, d3_correction_config(n_subsets=2))
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


class TestOneOperatorPerCampaign:
    """The raw and final solves share one factorization of the campaign's
    Gram matrix; correction subsets build their own."""

    def test_default_op_factors_once(self, monkeypatch, factorizations):
        ms = simulate_measurements(5, 200, seed=22, mean_total_counts=300)
        got = reconstruct_corrected(ms)
        assert got.correction.applied
        assert factorizations == [200]

        # the same report, bit for bit, as solves that each build their own
        def fresh(ms, cfg, **kwargs):
            kwargs.pop("operator")
            return reconstruct(ms, cfg, **kwargs)

        monkeypatch.setattr("cstomo.correction.reconstruct", fresh)
        want = reconstruct_corrected(ms)
        assert factorizations == [200, 200, 200]
        assert json.dumps(report_to_dict(got, d=5), sort_keys=True) == json.dumps(
            report_to_dict(want, d=5), sort_keys=True
        )

    def test_subsets_build_their_own(self, factorizations):
        ms = simulate_measurements(3, 60, seed=16, mean_total_counts=2e3)
        rep = reconstruct_corrected(ms, d3_correction_config(n_subsets=2))
        assert rep.correction.applied
        assert sorted(factorizations) == [30, 30, 60]


class TestOwnGap:
    """The default: one subset, the whole campaign, whose gap is the raw
    solve's own."""

    def test_two_solves_and_no_child_process(self, monkeypatch, no_pool):
        solves = []

        def counting(ms, cfg, **kwargs):
            solves.append(len(ms))
            return reconstruct(ms, cfg, **kwargs)

        monkeypatch.setattr("cstomo.correction.reconstruct", counting)
        ms = simulate_measurements(3, 60, seed=16, mean_total_counts=2e3)
        before = set(multiprocessing.active_children())
        rep = reconstruct_corrected(ms, d3_correction_config())
        assert rep.correction.applied
        assert solves == [60, 60]
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.parametrize("d, m, counts", [(3, 60, 2e3), (5, 200, 300.0)])
    def test_equals_the_one_subset_estimator_by_hand(self, d, m, counts):
        ms = simulate_measurements(d, m, seed=21, mean_total_counts=counts)
        cfg = d3_correction_config() if d == 3 else NoiseCorrectionConfig()
        (sub,) = partition(ms, dataclasses.replace(cfg, n_subsets=1))
        sub_rep = reconstruct(sub, cfg.base)
        assert sub_rep.converged
        gap = vec(sub_rep.rho_pre_gamma) - vec(sub_rep.rho)
        corrected_ms, n_clamped = correct_probabilities(ms, gap)
        want = reconstruct(corrected_ms, cfg.base)
        want.correction = CorrectionDiagnostics(
            subset_sizes=[m],
            subset_converged=[True],
            subset_delta_norms=[float(np.linalg.norm(gap))],
            delta=gap,
            n_clamped=n_clamped,
            raw_report=reconstruct(ms, cfg.base),
        )

        got = reconstruct_corrected(ms, cfg)
        assert np.array_equal(got.correction.delta, gap)
        assert json.dumps(report_to_dict(got, d=d), sort_keys=True) == json.dumps(
            report_to_dict(want, d=d), sort_keys=True
        )
        assert report_to_dict(got, d=d)["correction"]["subset_sizes"] == [m]

    def test_skipped_when_the_raw_solve_does_not_converge(self):
        ms = simulate_measurements(3, 60, seed=7, mean_total_counts=500.0)
        cfg = d3_correction_config(base=ReconstructionConfig(tau=0.7, k_max=1))
        with pytest.warns(UserWarning) as caught:
            rep = reconstruct_corrected(ms, cfg)
        assert [str(w.message) for w in caught] == [
            "subset did not converge within k_max=1; contribution omitted",
            "noise correction skipped: every subset failed to converge",
        ]
        assert np.array_equal(rep.rho, reconstruct(ms, cfg.base).rho)
        c = rep.correction
        assert not c.applied and c.subset_sizes == [60] and c.subset_converged == [False]
