import json

import numpy as np
import pytest

from cstomo.cli import main as cli_main
from cstomo.errors import DegenerateIterateError, DegenerateSystemError
from cstomo.linalg import frob_norm, hermiticity_error, mat, vec
from cstomo.metrics import fidelity_pure
from cstomo.serialize import save_measurement_set
from cstomo.simulate import (
    MeasurementSet,
    expectations,
    joint_vectors,
    make_max_entangled,
    random_mode,
    simulate_measurements,
    state_to_density,
)
from cstomo.solver import (
    MeasurementOperator,
    _in_order_cholesky,
    _lower_inverse,
    ReconstructionConfig,
    clip_to_psd,
    enforce_structure,
    kaczmarz_sweep,
    measurement_rows,
    normalize_trace,
    orthogonalize,
    reconstruct,
    threshold_eigs,
    threshold_elements,
)


def random_pure_density(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def hermitian_rows(n_rows, dim, rng):
    """Rows in the vec-conjugate convention derived from random Hermitian
    operators, with a real right-hand side from a random Hermitian "state"."""
    rows = np.empty((n_rows, dim * dim), dtype=complex)
    for i in range(n_rows):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        rows[i] = vec(h).conj()
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = vec((x + x.conj().T) / 2)
    p = (rows @ x).real
    return rows, p, x


def random_arms(d, n, rng):
    """n random projectors' (signal, idler) rows, drawn in simulate_measurements'
    order: one projector after another, signal before idler."""
    signal, idler = [], []
    for _ in range(n):
        signal.append(random_mode(d, rng))
        idler.append(random_mode(d, rng))
    return np.array(signal), np.array(idler)


def random_measurement_set(d, n, rng, *, noisy=False):
    """Random projectors against a random pure state of any d (the simulator's
    states need odd d); Poisson counts at 1e3 when ``noisy``."""
    signal, idler = random_arms(d, n, rng)
    rho = random_pure_density(d * d, rng)
    probs = np.clip(expectations(joint_vectors(signal, idler), rho), 0, 1)
    if noisy:
        probs = np.clip(rng.poisson(probs * 1e3) / 1e3, 0, 1)
    return MeasurementSet(d=d, signal=signal, idler=idler, probs=probs)


def vectorize_projector(signal, idler):
    """The row of one projector, given by its (1, d) arms, in measurement_rows."""
    ms = MeasurementSet(d=signal.shape[1], signal=signal, idler=idler, probs=[0.0])
    return measurement_rows(ms)[0]


class TestVectorizeProjector:
    """Rows of measurement_rows, one vectorized projector each."""

    def test_dot_with_vec_rho_is_trace(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            signal, idler = random_arms(d, 1, rng)
            rho = random_pure_density(d * d, rng)
            lhs = np.dot(vectorize_projector(signal, idler), vec(rho))
            w = np.kron(signal[0], idler[0])
            assert lhs.real == pytest.approx(np.vdot(w, rho @ w).real, abs=1e-12)
            assert abs(lhs.imag) <= 1e-12

    def test_d1_single_entry(self):
        row = vectorize_projector(*random_arms(1, 1, np.random.default_rng(1)))
        assert row.shape == (1,)
        assert row[0] == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm(self):
        row = vectorize_projector(*random_arms(3, 1, np.random.default_rng(2)))
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-12)

    def test_equals_conjugate_vec_of_materialized(self):
        signal, idler = random_arms(3, 1, np.random.default_rng(3))
        w = np.kron(signal[0], idler[0])
        op = np.outer(w, w.conj())
        assert np.allclose(vectorize_projector(signal, idler), vec(op).conj(), atol=1e-15)


class TestOrthogonalize:
    def test_orthonormal_rows_pass_through(self):
        rows = np.eye(4, dtype=complex)[:2]
        p = np.array([0.3, 0.7])
        sysm = orthogonalize(rows, p)
        assert np.abs(sysm.rows - rows).max() <= 1e-12
        assert np.abs(sysm.probs_prime - p).max() <= 1e-12
        assert sysm.n_dropped == 0

    def test_duplicate_row_dropped(self):
        rng = np.random.default_rng(4)
        rows, p, _ = hermitian_rows(3, 2, rng)
        rows = np.vstack([rows, rows[1]])
        p = np.append(p, p[1])
        sysm = orthogonalize(rows, p)
        assert sysm.n_rows == 3
        assert sysm.n_dropped == 1

    def test_solution_set_preserved(self):
        # any x with A x = p must satisfy A' x = p'
        rng = np.random.default_rng(5)
        rows, p, x = hermitian_rows(10, 4, rng)
        sysm = orthogonalize(rows, p)
        assert np.abs(sysm.rows @ x - sysm.probs_prime).max() <= 1e-10

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(6)
        rows, p, _ = hermitian_rows(12, 4, rng)
        sysm = orthogonalize(rows, p)
        gram = sysm.rows.conj() @ sysm.rows.T
        assert np.abs(gram - np.eye(12)).max() <= 1e-10

    def test_all_rows_dropped_raises(self):
        with pytest.raises(DegenerateSystemError):
            orthogonalize(np.zeros((2, 4), dtype=complex), np.zeros(2))

    def test_probability_carried_through(self):
        # scaled duplicate system: same solution set under elimination
        rng = np.random.default_rng(7)
        rows, p, x = hermitian_rows(5, 3, rng)
        sysm = orthogonalize(rows, p)
        assert np.abs(sysm.rows @ x - sysm.probs_prime).max() <= 1e-10


class TestThresholdEigs:
    def test_rank1_unchanged(self):
        rng = np.random.default_rng(8)
        rho = random_pure_density(4, rng)
        for tau in (0.1, 0.4, 0.9):
            assert frob_norm(threshold_eigs(rho, tau) - rho) <= 1e-10

    def test_relative_rule_hand_case(self):
        out = threshold_eigs(np.diag([1.0, 0.3, 0.05]).astype(complex), 0.4)
        assert np.allclose(out, np.diag([1.0, 0, 0]), atol=1e-12)

    def test_negative_eigenvalue_removed(self):
        out = threshold_eigs(np.diag([1.0, -0.2]).astype(complex), 0.4)
        assert np.allclose(out, np.diag([1.0, 0]), atol=1e-12)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12

    def test_degenerate_when_no_positive_spectrum(self):
        with pytest.raises(DegenerateIterateError):
            threshold_eigs(np.diag([-1.0, -2.0]).astype(complex), 0.4)

    def test_absolute_mode(self):
        out = threshold_eigs(np.diag([0.5, 0.3]).astype(complex), 0.4, mode="absolute")
        assert np.allclose(out, np.diag([0.5, 0]), atol=1e-12)


class TestThresholdElements:
    def test_equal_modulus_unchanged(self):
        m = np.array([[1, 1j], [-1j, 1]], dtype=complex)
        assert np.array_equal(threshold_elements(m, 0.04), m)

    def test_hand_case(self):
        m = np.array([[1, 0.01], [0.01, 1]], dtype=complex)
        out = threshold_elements(m, 0.04)
        assert np.array_equal(out, np.eye(2, dtype=complex))

    def test_zero_matrix_passes_through(self):
        z = np.zeros((3, 3), dtype=complex)
        assert np.array_equal(threshold_elements(z, 0.04), z)

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = (a + a.conj().T) / 2
        out = threshold_elements(h, 0.3)
        assert hermiticity_error(out) == 0.0

    def test_conjugate_symmetric_zeroing_on_asymmetric_input(self):
        # straddling pair: keep both when either side is above the cut
        m = np.array([[1.0, 0.039], [0.041, 1.0]], dtype=complex)
        out = threshold_elements(m, 0.04)
        assert out[0, 1] != 0 and out[1, 0] != 0


class TestNormalizeAndStructure:
    def test_identity_normalizes(self):
        out = normalize_trace(np.eye(2, dtype=complex))
        assert np.allclose(out, np.eye(2) / 2)

    def test_trace_one_unchanged(self):
        rng = np.random.default_rng(10)
        rho = random_pure_density(3, rng)
        assert np.allclose(normalize_trace(rho), rho, atol=1e-15)

    def test_spectrum_ratios_preserved(self):
        rho = np.diag([3.0, 1.0]).astype(complex)
        out = normalize_trace(rho)
        w = np.linalg.eigvalsh(out)
        assert w[1] / w[0] == pytest.approx(3.0, rel=1e-12)

    def test_near_zero_trace_raises(self):
        with pytest.raises(DegenerateIterateError):
            normalize_trace(np.diag([1e-13, -1e-13]).astype(complex))

    def test_clip_to_psd_noop_on_psd(self):
        rng = np.random.default_rng(11)
        rho = random_pure_density(4, rng)
        assert np.array_equal(clip_to_psd(rho), rho)

    def test_clip_to_psd_removes_negatives(self):
        out = clip_to_psd(np.diag([1.0, -0.3]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_structure_fixed_point_max_entangled(self):
        cfg = ReconstructionConfig()
        rho = state_to_density(make_max_entangled(3))
        assert frob_norm(enforce_structure(rho, cfg) - rho) <= 1e-10

    def test_structure_fixed_point_maximally_mixed(self):
        cfg = ReconstructionConfig()
        rho = np.eye(9, dtype=complex) / 9
        assert frob_norm(enforce_structure(rho, cfg) - rho) <= 1e-12

    def test_structure_output_valid_density(self):
        cfg = ReconstructionConfig()
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        out = enforce_structure(rho, cfg)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert hermiticity_error(out) <= 1e-14
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestKaczmarzSweep:
    def _system(self, n_rows, dim, rng):
        rows, p, x = hermitian_rows(n_rows, dim, rng)
        return orthogonalize(rows, p), x

    def test_consistent_point_unchanged(self):
        rng = np.random.default_rng(14)
        sysm, x = self._system(6, 3, rng)
        out = kaczmarz_sweep(x, sysm)
        assert np.abs(out - x).max() <= 1e-12

    def test_matches_pseudoinverse_affine_projection(self):
        # least-squares oracle for the orthogonal projection onto {y: Qy = p'}
        rng = np.random.default_rng(16)
        sysm, _ = self._system(5, 4, rng)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        q = sysm.rows
        oracle = x + np.linalg.pinv(q) @ (sysm.probs_prime - q @ x)
        out = kaczmarz_sweep(x, sysm)
        assert np.abs(out - oracle).max() <= 1e-9

    def test_all_constraints_satisfied(self):
        rng = np.random.default_rng(17)
        sysm, _ = self._system(8, 3, rng)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out = kaczmarz_sweep(x, sysm)
        assert np.abs(sysm.rows @ out - sysm.probs_prime).max() <= 1e-10

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(18)
        sysm, x = self._system(7, 3, rng)
        start = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        start = vec((start + start.conj().T) / 2)
        out = mat(kaczmarz_sweep(start, sysm))
        assert hermiticity_error(out) <= 1e-9


class TestMeasurementOperator:
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("d,n", [(1, 3), (2, 10), (3, 24), (5, 100)])
    def test_projection_matches_sequential_reference(self, d, n, noisy):
        rng = np.random.default_rng(20 + d)
        ms = random_measurement_set(d, n, rng, noisy=noisy)
        op = MeasurementOperator(ms)
        sysm = orthogonalize(measurement_rows(ms), ms.probs)
        assert op.n_dropped == sysm.n_dropped  # d=1: every row after the first
        a = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        rho = (a + a.conj().T) / 2
        expected = mat(kaczmarz_sweep(vec(rho), sysm))
        assert np.abs(op.project(rho) - expected).max() <= 1e-12

    def test_duplicated_projector_dropped_in_input_order(self, tmp_path):
        ms = simulate_measurements(3, 24, seed=3)
        dup = MeasurementSet(
            d=3,
            signal=np.insert(ms.signal, 10, ms.signal[4], axis=0),
            idler=np.insert(ms.idler, 10, ms.idler[4], axis=0),
            probs=np.insert(ms.probs, 10, ms.probs[4]),
        )
        op = MeasurementOperator(dup)
        assert op.n_dropped == 1
        assert np.array_equal(op.w, joint_vectors(ms.signal, ms.idler))

        cfg = ReconstructionConfig(tau=0.7)
        rep, rep_dup = reconstruct(ms, cfg), reconstruct(dup, cfg)
        assert rep_dup.converged and rep_dup.n_dropped_rows == 1
        assert rep_dup.iterations == rep.iterations
        assert np.abs(rep_dup.rho - rep.rho).max() <= 1e-10

        inp, out = tmp_path / "dup.json", tmp_path / "report.json"
        save_measurement_set(dup, str(inp))
        assert cli_main(["reconstruct", str(inp), "--out", str(out), "--tau", "0.7",
                         "--no-correction"]) == 0
        assert json.loads(out.read_text())["n_dropped_rows"] == 1


def gram_of(signal, idler):
    w = joint_vectors(signal, idler)
    return np.abs(w.conj() @ w.T) ** 2


class TestLowerInverse:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 720])
    def test_matches_lapack_inverse(self, n):
        rng = np.random.default_rng(n)
        low = np.linalg.cholesky(gram_of(*random_arms(7, n, rng)))
        inv = _lower_inverse(low)
        assert np.abs(low @ inv - np.eye(n)).max() <= 1e-12
        assert np.abs(inv - np.linalg.inv(low)).max() <= 1e-12 * np.abs(inv).max()

    def test_factor_from_drop_path(self):
        rng = np.random.default_rng(5)
        signal, idler = random_arms(7, 130, rng)
        g = gram_of(np.insert(signal, 90, signal[20], axis=0), np.insert(idler, 90, idler[20], axis=0))
        keep, low = _in_order_cholesky(g)
        assert len(keep) == 130 and 90 not in keep
        inv = _lower_inverse(low)
        assert np.abs(low @ inv - np.eye(130)).max() <= 1e-12
        g_inv = np.linalg.inv(g[np.ix_(keep, keep)])
        assert np.abs(inv.T @ inv - g_inv).max() <= 1e-12 * np.abs(g_inv).max()


class TestReconstruct:
    def test_fully_determined_matches_direct_solve(self):
        # d=2, D=4, N=16 with 16 independent projectors: unique solution
        rng = np.random.default_rng(1)
        d = 2
        rho_true = random_pure_density(d * d, rng)
        signal, idler = random_arms(d, 16, rng)
        probs = np.clip(expectations(joint_vectors(signal, idler), rho_true), 0, 1)
        ms = MeasurementSet(d=d, signal=signal, idler=idler, probs=probs)
        a_mat = measurement_rows(ms)
        direct = mat(np.linalg.solve(a_mat, probs.astype(complex)))
        rep = reconstruct(ms)
        assert rep.converged
        assert frob_norm(rep.rho_pre_gamma - direct) <= 1e-6
        assert frob_norm(rep.rho - direct) <= 1e-6

    def test_noiseless_d3_compressive_recovery(self):
        state = make_max_entangled(3)
        ms = simulate_measurements(3, 24, state=state, seed=3)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7))
        assert fidelity_pure(rep.rho, state) >= 0.99

    def test_maximally_mixed_input_is_fixed_point(self):
        d = 3
        rho_mixed = np.eye(d * d, dtype=complex) / (d * d)
        rng = np.random.default_rng(19)
        signal, idler = random_arms(d, 20, rng)
        probs = np.clip(expectations(joint_vectors(signal, idler), rho_mixed), 0, 1)
        ms = MeasurementSet(d=d, signal=signal, idler=idler, probs=probs)
        rep = reconstruct(ms)
        assert rep.converged
        assert rep.iterations <= 2
        assert frob_norm(rep.rho - rho_mixed) <= 1e-8

    def test_report_contract(self):
        ms = simulate_measurements(3, 24, seed=4)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7))
        assert rep.iterations == len(rep.per_iteration_steps)
        assert rep.iterations == len(rep.per_iteration_residuals)
        assert max(rep.per_iteration_residuals) <= 1e-9
        if rep.converged:
            assert rep.final_step <= rep.final_step_tol
        assert np.trace(rep.rho).real == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        ms = simulate_measurements(3, 24, seed=5, mean_total_counts=1e4)
        cfg = ReconstructionConfig(tau=0.7)
        r1 = reconstruct(ms, cfg)
        r2 = reconstruct(ms, cfg)
        assert np.array_equal(r1.rho, r2.rho)
        assert r1.per_iteration_steps == r2.per_iteration_steps

    def test_original_system_residual_at_recovered_solution(self):
        # the raw converged iterate sits on every measurement hyperplane
        from cstomo.metrics import residual

        ms = simulate_measurements(3, 24, seed=8)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7, step_tol_rel=1e-8))
        assert residual(ms, rep.rho_pre_gamma) <= 1e-8

    def test_non_convergence_reported_not_raised(self):
        ms = simulate_measurements(3, 20, seed=6, mean_total_counts=100.0)
        rep = reconstruct(ms, ReconstructionConfig(k_max=2))
        assert rep.iterations == 2
        assert not rep.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(tau=1.5)
        with pytest.raises(ValueError):
            ReconstructionConfig(tau_ell=0.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(step_tol_rel=-1.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(k_max=0)
        with pytest.raises(ValueError):
            ReconstructionConfig(threshold_mode="weird")
