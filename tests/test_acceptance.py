"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s or -rA to see them).

Criterion 3 runs the full d=7 fidelity-vs-fraction experiment and takes
about 10 s; criterion 4 (the d=17 stretch run, scored against the simulated
truth at a floor of 0.999) is opt-in via CSTOMO_STRETCH=1 since it needs
16-20 s at one BLAS thread on two CPUs.
"""

import os
import time
from typing import NamedTuple

import numpy as np
import pytest

from cstomo.cli import main as cli_main
from cstomo.correction import reconstruct_corrected
from cstomo.experiments import SweepSpec, run_sweep, summarize_sweep
from cstomo.metrics import fidelity_pure
from cstomo.simulate import (
    MeasurementSet,
    expectations,
    joint_state_vector,
    joint_vectors,
    make_downconversion_state,
    make_max_entangled,
    random_mode,
    simulate_measurements,
)
from cstomo.solver import (
    MeasurementOperator,
    ReconstructionConfig,
    enforce_structure,
    kaczmarz_sweep,
    measurement_rows,
    orthogonalize,
    reconstruct,
)

# Small-instance solver settings: the default tau=0.4 targets d~17-scale
# problems and leaves stable mid-rank attractors on tiny ones; a harsher
# rank cut recovers d=3 instances reliably across seeds.
D3_SOLVER = ReconstructionConfig(tau=0.7)


def _random_pure_density(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def test_criterion_1_oracle_equivalence_small_instance():
    start = time.perf_counter()
    rng = np.random.default_rng(1)  # frozen: truth has no sub-threshold entries
    d = 2
    rho_true = _random_pure_density(d * d, rng)
    arms = np.array([[random_mode(d, rng), random_mode(d, rng)] for _ in range(16)])
    signal, idler = arms[:, 0], arms[:, 1]
    probs = np.clip(expectations(joint_vectors(signal, idler), rho_true), 0, 1)
    ms = MeasurementSet(d=d, signal=signal, idler=idler, probs=probs)

    a_matrix = measurement_rows(ms)
    direct = np.linalg.solve(a_matrix, probs.astype(complex)).reshape(d * d, d * d, order="F")

    report = reconstruct(ms)
    err_pre = np.linalg.norm(report.rho_pre_gamma - direct)
    err_post = np.linalg.norm(report.rho - direct)
    elapsed = time.perf_counter() - start

    assert report.converged
    assert err_pre <= 1e-6
    assert err_post <= 1e-6
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 (oracle equivalence, d=2 fully determined): PASS: "
        f"|pre-structural - direct| = {err_pre:.2e}, "
        f"|recovered - direct| = {err_post:.2e}, {elapsed:.2f} s"
    )


def test_criterion_2_noiseless_compressive_recovery():
    start = time.perf_counter()
    d = 3
    state = make_max_entangled(d)
    n_meas = round(0.3 * d**4)
    fidelities = []
    for seed in range(10):
        ms = simulate_measurements(d, n_meas, state=state, seed=seed)
        report = reconstruct(ms, D3_SOLVER)
        fidelities.append(fidelity_pure(report.rho, state))
    elapsed = time.perf_counter() - start

    assert min(fidelities) >= 0.99
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 (noiseless d=3 recovery at 30%): PASS: "
        f"min fidelity {min(fidelities):.6f} over 10 seeds, {elapsed:.2f} s"
    )


def _raw_se(entry):
    """Standard error of a summary entry's raw-fidelity mean."""
    return entry["fidelity_raw_std"] / np.sqrt(entry["n"])


class RawShape(NamedTuple):
    """Where a sweep's raw-fidelity curve peaks, in units its repeats resolve.

    ``peak_gap`` is the peak mean minus the best mean at a fraction <= 30%,
    ``decline`` the peak mean minus the mean at 60%; each bound is two
    standard errors of that difference.
    """

    peak_fraction: float
    early_fraction: float
    peak_gap: float
    peak_bound: float
    decline: float
    decline_bound: float

    @property
    def early_peak(self):
        return self.peak_gap <= self.peak_bound

    @property
    def resolved_decline(self):
        return self.decline > self.decline_bound


def raw_fidelity_shape(summary):
    """Compare the raw-fidelity peak of ``summarize_sweep`` output with its
    best point at <= 30% and its point at 60%.

    The raw curve is flat within its noise across a plateau, so the argmax
    alone is decided by a few cells; the peak counts as reached early when
    it is within two standard errors of the best early mean, and the decline
    counts when it exceeds two standard errors.
    """

    def gap_and_bound(high, low):
        return (
            high["fidelity_raw_mean"] - low["fidelity_raw_mean"],
            2 * np.hypot(_raw_se(high), _raw_se(low)),
        )

    def best(entries):
        return max(entries, key=lambda e: e["fidelity_raw_mean"])

    peak = best(summary)
    early = best(e for e in summary if e["fraction"] <= 0.30)
    (late,) = (e for e in summary if e["fraction"] == 0.60)
    return RawShape(
        peak["fraction"],
        early["fraction"],
        *gap_and_bound(peak, early),
        *gap_and_bound(peak, late),
    )


def test_criterion_3_fidelity_vs_fraction_sweep():
    start = time.perf_counter()
    d = 7
    truth = make_downconversion_state(d, 2.5)
    target = make_max_entangled(d)
    spec = SweepSpec(
        d=d,
        fractions=[round(0.05 * k, 2) for k in range(1, 13)],
        repeats=5,
        mean_total_counts=300.0,
        seed=0,
        state=truth,
    )
    rows = run_sweep(spec)
    assert all(r.status == "ok" for r in rows)
    summary = summarize_sweep(rows)
    elapsed = time.perf_counter() - start

    corrected_max = max(e["fidelity_corrected_mean"] for e in summary)
    shape = raw_fidelity_shape(summary)

    print("\nACCEPTANCE 3 (d=7 fidelity vs measurement fraction):")
    print("  fraction  raw_mean  raw_se  corrected_mean")
    for e in summary:
        print(
            f"    {e['fraction']:.2f}    {e['fidelity_raw_mean']:.4f}  "
            f"{_raw_se(e):.4f}  {e['fidelity_corrected_mean']:.4f}"
        )
    print(
        f"  corrected max {corrected_max:.4f}; raw peak at "
        f"{shape.peak_fraction:.0%} exceeds best <=30% ({shape.early_fraction:.0%}) "
        f"by {shape.peak_gap:.4f} (<= {shape.peak_bound:.4f} = 2 SE) and "
        f"raw at 60% by {shape.decline:.4f} (> {shape.decline_bound:.4f} = 2 SE); "
        f"{elapsed:.0f} s"
    )

    assert corrected_max >= 0.94
    assert shape.early_peak
    assert shape.resolved_decline
    assert elapsed <= 30 * 60
    print("ACCEPTANCE 3: PASS")


def _synthetic_summary(raw_means, raw_stds=0.005, n=5):
    fractions = [round(0.05 * k, 2) for k in range(1, 13)]
    raw_stds = np.broadcast_to(raw_stds, len(fractions))
    return [
        {
            "fraction": f,
            "n": n,
            "fidelity_raw_mean": m,
            "fidelity_raw_std": float(sd),
        }
        for f, m, sd in zip(fractions, raw_means, raw_stds, strict=True)
    ]


def test_criterion_3_shape_check_rejects_late_peak_and_flat_tail():
    # fractions 0.05 ... 0.60; the plateau is criterion 3's own seed-0 curve
    # (numpy 2.4.6, OpenBLAS 0.3.31), whose argmax 0.40 beats the best point
    # at <= 30% by 0.0009 against a 2-SE bound of 0.0110
    plateau = _synthetic_summary(
        [0.4063, 0.4064, 0.9604, 0.9601, 0.9606, 0.9579,
         0.9542, 0.9615, 0.9511, 0.9527, 0.9518, 0.9474],
        [0.1687, 0.0172, 0.0080, 0.0014, 0.0104, 0.0044,
         0.0089, 0.0066, 0.0086, 0.0066, 0.0080, 0.0068],
    )
    shape = raw_fidelity_shape(plateau)
    assert shape.peak_fraction == 0.40 and shape.early_fraction == 0.25
    assert shape.early_peak and shape.resolved_decline

    # with std 0.005 over 5 repeats each 2-SE bound on a difference is 0.0063
    late_peak = _synthetic_summary(
        [0.80, 0.93, 0.945, 0.948, 0.950, 0.950, 0.953, 0.956,
         0.960, 0.965, 0.958, 0.950]
    )
    shape = raw_fidelity_shape(late_peak)
    assert shape.peak_fraction == 0.50 and shape.peak_gap > shape.peak_bound
    assert not shape.early_peak and shape.resolved_decline

    flat_tail = _synthetic_summary(
        [0.80, 0.93, 0.955, 0.958, 0.960, 0.961, 0.960, 0.960,
         0.959, 0.959, 0.958, 0.957]
    )
    shape = raw_fidelity_shape(flat_tail)
    assert shape.early_peak and shape.decline > 0
    assert not shape.resolved_decline
    print("\nACCEPTANCE 3 shape check: PASS: rejects a late peak and an "
          "unresolved decline")


@pytest.mark.skipif(
    not os.environ.get("CSTOMO_STRETCH"),
    reason="optional non-gating d=17 stretch run; set CSTOMO_STRETCH=1 to enable",
)
def test_criterion_4_stretch_d17(traced_peak):
    # the abstract's case: 83521 real unknowns from 2506 measurements (3 % of
    # d⁴) at 1e6 counts, scored against the simulated truth. The truth's own
    # fidelity to the maximally entangled target is 0.966, which an exact
    # reconstruction would also score against it; against the truth an
    # accurate one reads at least 0.999 (0.99992 corrected, 0.99993 raw).
    # Building the campaign's operator, once more under tracemalloc, peaks at
    # most at 1.6 times its 48 MiB Gram buffer (1.48×; 1.73× with Xᵀ in a
    # second temporary instead of the buffer, 3.23× with the Gram formed from
    # three full-size temporaries).
    start = time.perf_counter()
    d = 17
    truth = make_downconversion_state(d, 6.0)
    target = make_max_entangled(d)
    ms = simulate_measurements(d, 2506, state=truth, seed=0, mean_total_counts=1e6)
    gram_bytes = 8 * len(ms) ** 2
    build_peak = traced_peak(MeasurementOperator, ms)
    report = reconstruct_corrected(ms)
    fid = fidelity_pure(report.rho, ms.truth)
    elapsed = time.perf_counter() - start
    ceiling = abs(np.vdot(joint_state_vector(target), joint_state_vector(truth)))

    print(
        f"\nACCEPTANCE 4 (d=17 stretch, 2506 measurements = 3% of 83521): "
        f"fidelity vs truth {fid:.5f}; vs maximally entangled target "
        f"{fidelity_pure(report.rho, target):.4f}, the truth's own {ceiling:.4f}; "
        f"wall clock {elapsed / 3600:.2f} h; operator build traced peak "
        f"{build_peak / gram_bytes:.2f}× the {gram_bytes / 2**20:.0f} MiB Gram buffer"
    )
    assert fid >= 0.999
    assert build_peak <= 1.6 * gram_bytes
    assert elapsed <= 5 * 3 * 3600
    print("ACCEPTANCE 4: PASS")


class TestCriterion5InvariantSuite:
    """Property tests across 100 random seeds each."""

    SEEDS = range(100)

    def test_vec_mat_round_trip_exact(self):
        # the sequential reference's rows, applied to ρ stacked column by
        # column, give the solver's Tr[Â_i ρ] = ⟨w_i|ρ|w_i⟩
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            d, m = int(rng.integers(1, 5)), int(rng.integers(1, 31))
            signal = np.array([random_mode(d, rng) for _ in range(m)])
            idler = np.array([random_mode(d, rng) for _ in range(m)])
            ms = MeasurementSet(d=d, signal=signal, idler=idler, probs=np.zeros(m))
            n = d * d
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = (a + a.conj().T) / 2
            by_rows = measurement_rows(ms) @ rho.reshape(-1, order="F")
            by_vectors = expectations(joint_vectors(ms.signal, ms.idler), rho)
            assert np.abs(by_rows - by_vectors).max() <= 1e-12
        print("\nACCEPTANCE 5a (column-stacked rows give Tr[Â_i ρ], 100 seeds): PASS")

    def test_structural_stage_outputs_valid_density(self):
        cfg = ReconstructionConfig()
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            kind = seed % 3
            if kind == 0:
                m = a @ a.conj().T  # PSD
            elif kind == 1:
                m = (a + a.conj().T) / 2  # indefinite Hermitian
            else:
                m = _random_pure_density(n, rng) + 0.05 * (a + a.conj().T) / 2
            try:
                out = enforce_structure(m, cfg)
            except Exception:
                # matrices with no positive spectrum are legitimately rejected
                assert np.linalg.eigvalsh((m + m.conj().T) / 2)[-1] <= 0
                continue
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert abs(np.trace(out).imag) <= 1e-10
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(out)[0] >= -1e-10
        print("ACCEPTANCE 5b (structural stage trace-1 Hermitian PSD, 100 seeds): PASS")

    def test_sweep_constraints_and_hermiticity(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            d = 3
            n_meas = int(rng.integers(5, 30))
            ms = simulate_measurements(
                d, n_meas, seed=int(rng.integers(0, 2**31))
            )
            system = orthogonalize(measurement_rows(ms), ms.probs)
            a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            start_mat = (a + a.conj().T) / 2
            out = kaczmarz_sweep(start_mat.reshape(-1, order="F"), system)
            assert np.abs(system.rows @ out - system.probs_prime).max() <= 1e-9
            out = out.reshape(9, 9, order="F")
            assert np.abs(out - out.conj().T).max() <= 1e-9
            op = MeasurementOperator(ms)
            p = ms.probs[op.keep]
            projected = op.project(start_mat, p)
            assert np.abs(op.residual(projected, p)).max() <= 1e-9
            assert np.abs(projected - projected.conj().T).max() <= 1e-9
            assert np.abs(projected - out).max() <= 1e-9
        print(
            "ACCEPTANCE 5c (sweep and Gram projection: constraints 1e-9, "
            "Hermiticity 1e-9, agreement 1e-9, 100 seeds): PASS"
        )

    def test_fidelity_closed_form_consistency(self):
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            d = int(rng.choice([1, 3, 5]))
            target = make_downconversion_state(d, float(rng.uniform(0.5, 4.0)))
            a = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal(
                (d * d, d * d)
            )
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            f = fidelity_pure(rho, target)
            phi = joint_state_vector(target)
            projector = np.outer(phi, phi.conj())
            assert f**2 == pytest.approx(np.vdot(projector, rho).real, abs=1e-10)
        print("ACCEPTANCE 5d (fidelity closed-form consistency 1e-10, 100 seeds): PASS")

    def test_noise_correction_noop_on_noiseless_sparse_inputs(self):
        # the default estimator (the raw solve's own gap) and two subsets
        base = ReconstructionConfig(tau=0.7, step_tol_rel=1e-9)
        worst = {}
        for n_subsets in (1, 2):
            worst[n_subsets] = 0.0
            for seed in self.SEEDS:
                ms = simulate_measurements(3, 60, seed=seed)
                corrected = reconstruct_corrected(ms, base, n_subsets=n_subsets)
                raw = corrected.correction.raw_report
                assert corrected.correction.applied
                gap = np.linalg.norm(corrected.rho - raw.rho)
                worst[n_subsets] = max(worst[n_subsets], gap)
                assert gap <= 1e-6
        print(
            f"ACCEPTANCE 5e (noiseless correction no-op <= 1e-6, 100 seeds): "
            f"PASS: worst {worst[1]:.2e} (default), {worst[2]:.2e} (2 subsets)"
        )


class TestCriterion6Determinism:
    # the default correction (the raw solve's own gap) and two correction subsets
    @pytest.mark.parametrize("correction", [[], ["--subsets", "2"]],
                             ids=["default", "subsets-2"])
    def test_simulate_reconstruct_metrics_byte_identical(self, tmp_path, capsys, correction):
        sim_args = [
            "simulate", "--d", "3", "--measurements", "60", "--seed", "11",
            "--mean-total-counts", "10000.0",
        ]
        ms_a, ms_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(sim_args + ["--out", str(ms_a)]) == 0
        assert cli_main(sim_args + ["--out", str(ms_b)]) == 0
        assert ms_a.read_bytes() == ms_b.read_bytes()

        rep_a, rep_b = tmp_path / "ra.json", tmp_path / "rb.json"
        rec_args = ["reconstruct", str(ms_a), "--tau", "0.7", *correction]
        assert cli_main(rec_args + ["--out", str(rep_a)]) == 0
        assert cli_main(rec_args + ["--out", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()

        capsys.readouterr()  # drain the progress lines
        assert cli_main(["metrics", str(rep_a), "--measurements", str(ms_a)]) == 0
        out_a = capsys.readouterr().out
        assert cli_main(["metrics", str(rep_a), "--measurements", str(ms_a)]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b
        print("\nACCEPTANCE 6 (byte-identical re-runs): PASS: simulate, "
              "reconstruct, metrics outputs identical")

    def test_sweep_deterministic_modulo_wall_clock(self, tmp_path):
        # runtime_seconds is wall-clock and cannot be byte-stable; every other
        # byte must match (see decisions ledger)
        args = [
            "sweep", "--d", "3", "--fractions", "0.5,0.75", "--repeats", "2",
            "--mean-total-counts", "10000.0", "--tau", "0.7", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0

        def mask_runtime(path):
            lines = path.read_text().splitlines()
            out = [lines[0]]
            for line in lines[1:]:
                cells = line.split(",")
                cells[6] = "<runtime>"
                out.append(",".join(cells))
            return "\n".join(out)

        assert mask_runtime(a) == mask_runtime(b)
        assert (tmp_path / "a.csv.summary.csv").read_bytes() == (
            tmp_path / "b.csv.summary.csv"
        ).read_bytes()
        print("ACCEPTANCE 6 (sweep determinism modulo runtime column): PASS")
