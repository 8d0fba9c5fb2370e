import dataclasses
import json

import numpy as np
import pytest

import cstomo.solver
from cstomo.cli import main as cli_main
from cstomo.correction import _subset_gap, reconstruct_corrected
from cstomo.errors import DegenerateIterateError, DegenerateSystemError
from cstomo.metrics import fidelity_pure
from cstomo.serialize import report_to_dict, save_measurement_set
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
    _GRAM_ROWS,
    _INV_LEAF,
    MeasurementOperator,
    ReconstructionConfig,
    _factor_inverse,
    clip_to_psd,
    eig_hermitian,
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
        rows[i] = h.reshape(-1, order="F").conj()
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = ((x + x.conj().T) / 2).reshape(-1, order="F")
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
            lhs = np.dot(vectorize_projector(signal, idler), rho.reshape(-1, order="F"))
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
        assert np.allclose(vectorize_projector(signal, idler), op.reshape(-1, order="F").conj(),
                           atol=1e-15)


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


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(5, dtype=complex))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)

    def test_pure_projector_spectrum(self):
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        w, _ = eig_hermitian(np.outer(psi, psi.conj()))
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(w[1:], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 30, 289])
    def test_recomposition(self, n):
        rng = np.random.default_rng(n)
        m = random_hermitian(n, rng)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) <= 0)  # descending
        recomposed = (v * w) @ v.conj().T
        assert np.linalg.norm(recomposed - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10

    def test_symmetrizes_input(self):
        # rounding-level asymmetry must not leak through
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]], dtype=complex)
        w, v = eig_hermitian(m)
        h = (m + m.conj().T) / 2
        assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-12


class TestThresholdEigs:
    def test_rank1_unchanged(self):
        rng = np.random.default_rng(8)
        rho = random_pure_density(4, rng)
        for tau in (0.1, 0.4, 0.9):
            assert np.linalg.norm(threshold_eigs(rho, tau) - rho) <= 1e-10

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

    def test_degenerate_when_the_largest_eigenvalue_is_nan(self, monkeypatch):
        # NaN passes the positivity check and then fails every comparison
        monkeypatch.setattr(cstomo.solver, "eig_hermitian",
                            lambda rho: (np.array([np.nan, 0.5]), np.eye(2)))
        with pytest.raises(DegenerateIterateError, match="no eigenvalue at or above"):
            threshold_eigs(np.eye(2, dtype=complex), 0.4)


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
        assert np.abs(out - out.conj().T).max() == 0.0

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
        assert np.linalg.norm(enforce_structure(rho, cfg) - rho) <= 1e-10

    def test_structure_fixed_point_maximally_mixed(self):
        cfg = ReconstructionConfig()
        rho = np.eye(9, dtype=complex) / 9
        assert np.linalg.norm(enforce_structure(rho, cfg) - rho) <= 1e-12

    def test_structure_output_valid_density(self):
        cfg = ReconstructionConfig()
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        out = enforce_structure(rho, cfg)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out - out.conj().T).max() <= 1e-14
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
        start = ((start + start.conj().T) / 2).reshape(-1, order="F")
        out = kaczmarz_sweep(start, sysm).reshape(3, 3, order="F")
        assert np.abs(out - out.conj().T).max() <= 1e-9


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
        expected = kaczmarz_sweep(rho.reshape(-1, order="F"), sysm).reshape(d * d, d * d, order="F")
        assert np.abs(op.project(rho, ms.probs[op.keep]) - expected).max() <= 1e-12

    def test_holds_projectors_only(self):
        # the probabilities are the caller's: the truth meets the campaign's
        # constraints and not those of halved probabilities
        ms = simulate_measurements(3, 40, seed=12)
        op = MeasurementOperator(ms)
        assert sorted(vars(op)) == ["idler", "keep", "low_inv", "n_dropped", "signal", "w"]
        assert np.array_equal(op.keep, np.arange(40)) and op.n_dropped == 0
        truth, p = state_to_density(ms.truth), ms.probs[op.keep]
        assert np.abs(op.residual(truth, p)).max() <= 1e-12
        assert np.abs(op.residual(truth, p / 2) + p / 2).max() <= 1e-12

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


class TestSharedOperator:
    """``reconstruct(..., operator=op)`` solves with op's factorization."""

    @staticmethod
    def campaigns():
        ms = simulate_measurements(5, 150, seed=11, mean_total_counts=300)
        return ms, dataclasses.replace(ms, probs=np.clip(ms.probs * 0.9 + 0.01, 0.0, 1.0))

    def test_same_bits_as_a_fresh_operator(self):
        ms, other = self.campaigns()
        op = MeasurementOperator(ms)

        def report(campaign, **kw):
            return json.dumps(report_to_dict(reconstruct(campaign, **kw)), sort_keys=True)

        assert report(other, operator=op) == report(other)
        # the operator holds no probabilities: the other campaign's solve
        # leaves nothing behind for the next one
        assert report(ms, operator=op) == report(ms)

    def test_one_operator_projects_two_campaigns(self):
        ms, other = self.campaigns()
        op = MeasurementOperator(ms)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        rho = (a + a.conj().T) / 2
        for campaign in (other, ms):
            fresh = MeasurementOperator(campaign)
            p, p_fresh = campaign.probs[op.keep], campaign.probs[fresh.keep]
            assert np.array_equal(op.residual(rho, p), fresh.residual(rho, p_fresh))
            assert np.array_equal(op.project(rho, p), fresh.project(rho, p_fresh))

    def test_factorization_made_once(self, factorizations):
        ms = simulate_measurements(3, 40, seed=12)
        op = MeasurementOperator(ms)
        assert factorizations == [40]  # made when the operator is built
        reconstruct(ms, ReconstructionConfig(tau=0.7), operator=op)
        reconstruct(dataclasses.replace(ms, probs=ms.probs * 0.5),
                    ReconstructionConfig(tau=0.7), operator=op)
        assert factorizations == [40]

    @pytest.mark.parametrize("change", ["other projectors", "fewer", "other d"])
    def test_mismatched_operator_raises(self, change):
        ms = simulate_measurements(3, 40, seed=13)
        other = {
            "other projectors": simulate_measurements(3, 40, seed=14),
            "fewer": dataclasses.replace(ms, signal=ms.signal[:39], idler=ms.idler[:39],
                                         probs=ms.probs[:39]),
            "other d": simulate_measurements(5, 40, seed=13),
        }[change]
        with pytest.raises(ValueError, match="projectors are not the operator's"):
            reconstruct(other, ReconstructionConfig(tau=0.7), operator=MeasurementOperator(ms))


def gram_of(signal, idler):
    w = joint_vectors(signal, idler)
    return np.abs(w.conj() @ w.T) ** 2


def gram_with_duplicate(n, at, of, seed):
    """The Gram matrix of n random d=7 projectors with a copy of projector
    ``of`` inserted at position ``at``."""
    signal, idler = random_arms(7, n, np.random.default_rng(seed))
    return gram_of(np.insert(signal, at, signal[of], axis=0), np.insert(idler, at, idler[of], axis=0))


def assert_whitens(g, keep, low_inv):
    """L⁻¹ is lower triangular (up to the rounding of LAPACK's pivoted leaf
    inverse) and L⁻¹·G_keep·L⁻ᵀ = I."""
    assert np.abs(np.triu(low_inv, 1)).max(initial=0.0) <= 1e-12
    g_keep = g[np.ix_(keep, keep)]
    assert np.abs(low_inv @ g_keep @ low_inv.T - np.eye(len(keep))).max() <= 1e-12


WHITEN_SIZES = [1, 2, _INV_LEAF - 1, _INV_LEAF, _INV_LEAF + 1, 2 * _INV_LEAF + 1, 720]

# (n, at, of, seed): a copy inside one LAPACK leaf, one whose original sits
# across the top split, and one that drops from the first half, so the second
# half's inverse moves up into the kept rows' block
DUPLICATES = [(60, 30, 12, 6), (130, 90, 20, 5), (200, 50, 10, 7)]


def whiten_gram(n):
    return gram_of(*random_arms(7, n, np.random.default_rng(n)))


class TestFactorInverse:
    @pytest.mark.parametrize("n", WHITEN_SIZES)
    def test_whitens_gram(self, n):
        g = whiten_gram(n)
        keep, low_inv = _factor_inverse(g.copy())
        assert np.array_equal(keep, np.arange(n))
        assert_whitens(g, keep, low_inv)

    @pytest.mark.parametrize("n,at,of,seed", DUPLICATES)
    def test_duplicate_dropped_in_input_order(self, n, at, of, seed):
        g = gram_with_duplicate(n, at, of, seed)
        keep, low_inv = _factor_inverse(g.copy())
        assert np.array_equal(keep, np.delete(np.arange(n + 1), at))
        assert_whitens(g, keep, low_inv)

    # the operator's build fills only the lower triangle, so the strict upper
    # one must not reach the result: NaN there changes no bit and raises no
    # floating-point warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [*WHITEN_SIZES, *DUPLICATES], ids=str)
    def test_reads_the_lower_triangle_only(self, case):
        g = whiten_gram(case) if isinstance(case, int) else gram_with_duplicate(*case)
        keep, low_inv = _factor_inverse(g.copy())
        g[np.triu_indices(len(g), 1)] = np.nan
        keep_lower, low_inv_lower = _factor_inverse(g)
        assert np.array_equal(keep_lower, keep)
        assert low_inv_lower.tobytes() == low_inv.tobytes()

    # d² × d² Hermitian operators span d⁴ real dimensions, so the in-order
    # rule keeps the first d⁴ rows of a random campaign. A spanning set of
    # random projectors is ill-conditioned (cond ~3e6 at d=3), hence the bound.
    @pytest.mark.parametrize("d,n", [(1, 5), (2, 40), (3, 130)])
    def test_rank_deficient_keeps_leading_rows(self, d, n):
        g = gram_of(*random_arms(d, n, np.random.default_rng(d)))
        keep, low_inv = _factor_inverse(g.copy())
        assert np.array_equal(keep, np.arange(d**4))
        assert np.abs(low_inv @ g[:d**4, :d**4] @ low_inv.T - np.eye(d**4)).max() <= 1e-9


def assert_built_from_the_full_gram(ms):
    """The operator's keep, L⁻¹ and joint vectors are the bits of a
    factorization of the whole Gram matrix W̄Wᵀ, formed in one product."""
    w = joint_vectors(ms.signal, ms.idler)
    keep, low_inv = _factor_inverse(np.abs(w.conj() @ w.T) ** 2)
    op = MeasurementOperator(ms)
    assert np.array_equal(op.keep, keep)
    assert op.low_inv.tobytes() == low_inv.tobytes()
    assert op.w.tobytes() == w[keep].tobytes()
    return op


class TestOperatorBuild:
    """The Gram matrix is formed in lower-triangle blocks of _GRAM_ROWS rows."""

    @pytest.mark.parametrize("m", [1, _GRAM_ROWS - 1, _GRAM_ROWS, _GRAM_ROWS + 1,
                                   2 * _GRAM_ROWS + 1, 720])
    def test_same_bits_as_the_full_gram(self, m):
        assert_built_from_the_full_gram(simulate_measurements(7, m, seed=m))

    # a projector and its copy on the two sides of the first block edge, the
    # original before it or after it
    @pytest.mark.parametrize("of,at", [(_GRAM_ROWS - 1, _GRAM_ROWS), (_GRAM_ROWS, _GRAM_ROWS - 1)])
    def test_repeated_projector_across_a_block_edge(self, of, at):
        ms = simulate_measurements(7, 2 * _GRAM_ROWS, seed=of)
        dup = MeasurementSet(
            d=7,
            signal=np.insert(ms.signal, at, ms.signal[of], axis=0),
            idler=np.insert(ms.idler, at, ms.idler[of], axis=0),
            probs=np.insert(ms.probs, at, ms.probs[of]),
        )
        op = assert_built_from_the_full_gram(dup)
        assert np.array_equal(op.keep, np.delete(np.arange(len(dup)), max(of + 1, at)))

    def test_peak_memory_within_1_45_times_the_gram_buffer(self, traced_peak):
        # the M×M float64 buffer, the M×D joint vectors and one (M/2)²
        # factorization temporary read 1.32×; with Xᵀ in a second temporary
        # instead of the buffer 1.57×, and with three full-size temporaries
        # for the Gram 3.07×
        m = 1500
        ms = simulate_measurements(7, m, seed=1)
        peak = traced_peak(MeasurementOperator, ms)
        assert peak <= 1.45 * 8 * m * m, f"{peak / (8 * m * m):.2f}× the Gram buffer"


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
        direct = np.linalg.solve(a_mat, probs.astype(complex)).reshape(d * d, d * d, order="F")
        rep = reconstruct(ms)
        assert rep.converged
        assert np.linalg.norm(rep.rho_pre_gamma - direct) <= 1e-6
        assert np.linalg.norm(rep.rho - direct) <= 1e-6

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
        assert np.linalg.norm(rep.rho - rho_mixed) <= 1e-8

    def test_report_contract(self):
        ms = simulate_measurements(3, 24, seed=4)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7))
        assert rep.iterations == len(rep.per_iteration_steps)
        assert rep.iterations == len(rep.per_iteration_residuals)
        assert max(rep.per_iteration_residuals) <= 1e-9
        if rep.converged:
            assert rep.final_step <= rep.final_step_tol
        assert np.trace(rep.rho).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("k_max", [500, 2], ids=["converged", "capped"])
    def test_report_summary_is_read_from_the_steps(self, k_max):
        ms = simulate_measurements(3, 20, seed=6, mean_total_counts=100.0)
        tols = []
        rep = reconstruct(ms, ReconstructionConfig(k_max=k_max),
                          on_iteration=lambda k, step, tol: tols.append(tol))
        assert rep.converged is (k_max == 500)
        assert rep.iterations == len(rep.per_iteration_steps) == len(tols)
        assert rep.final_step == rep.per_iteration_steps[-1]
        assert rep.final_step_tol == tols[-1]
        assert rep.converged is (rep.final_step <= rep.final_step_tol)
        assert {f.name for f in dataclasses.fields(rep)}.isdisjoint(
            {"iterations", "final_step", "converged"})
        with pytest.raises(AttributeError):
            rep.iterations = 1

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

    def test_one_eigendecomposition_per_iteration(self, monkeypatch):
        # Γ in the loop costs one; the reported rho's PSD repair a second
        calls = []

        def counting(m):
            calls.append(m)
            return eig_hermitian(m)

        monkeypatch.setattr(cstomo.solver, "eig_hermitian", counting)
        ms = simulate_measurements(3, 36, seed=0, mean_total_counts=300)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7))
        assert rep.iterations > 1
        assert len(calls) == rep.iterations + 2

    def test_first_iteration_is_the_plain_step(self):
        # before the first iteration x_{k-1} = x_k = I/D, so the extrapolated
        # point is the start itself
        ms = simulate_measurements(5, 150, seed=9, mean_total_counts=300)
        cfg = ReconstructionConfig()
        start = np.eye(25, dtype=complex) / 25
        cut = threshold_elements(threshold_eigs(start, cfg.tau), cfg.tau_ell)
        op = MeasurementOperator(ms)
        first = op.project(normalize_trace(cut), ms.probs[op.keep])
        rep = reconstruct(ms, cfg)
        assert rep.per_iteration_steps[0] == np.linalg.norm(first - start)

    def test_gamma_acts_on_the_extrapolated_point(self, monkeypatch):
        cut_inputs, iterates = [], [np.eye(9, dtype=complex) / 9]
        cut, project = cstomo.solver._cut, MeasurementOperator.project

        def recording_cut(rho, cfg):
            cut_inputs.append(rho)
            return cut(rho, cfg)

        def recording_project(op, rho, p):
            iterates.append(project(op, rho, p))
            return iterates[-1]

        monkeypatch.setattr(cstomo.solver, "_cut", recording_cut)
        monkeypatch.setattr(MeasurementOperator, "project", recording_project)
        ms = simulate_measurements(3, 36, seed=0, mean_total_counts=300)
        rep = reconstruct(ms, ReconstructionConfig(tau=0.7))
        assert cstomo.solver.MOMENTUM == 0.5
        assert rep.iterations > 2 and len(iterates) == rep.iterations + 1
        assert np.array_equal(cut_inputs[0], iterates[0])
        for k in range(1, rep.iterations):
            x, before = iterates[k], iterates[k - 1]
            assert np.array_equal(cut_inputs[k], x + 0.5 * (x - before))
        # the stopping rule and the reported matrices use the iterates
        assert rep.per_iteration_steps[-1] == np.linalg.norm(iterates[-1] - iterates[-2])
        assert np.array_equal(rep.rho_pre_gamma, iterates[-1])

    @pytest.mark.parametrize("seed", range(7000, 7010))
    def test_noiseless_d7_recovery_at_one_and_a_half_pure_state_budgets(self, seed):
        # M = 1.5·(2D−1) = 146; without the heavy-ball step seeds 7000, 7006
        # and 7007 settle on a wrong fixed point (0.397, 0.528, 0.367)
        state = make_max_entangled(7)
        ms = simulate_measurements(7, 146, state=state, seed=seed)
        rep = reconstruct(ms)
        assert rep.converged
        assert fidelity_pure(rep.rho, state) >= 0.999

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(tau=1.5)
        with pytest.raises(ValueError):
            ReconstructionConfig(tau_ell=0.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(step_tol_rel=-1.0)
        with pytest.raises(ValueError):
            ReconstructionConfig(k_max=0)
        # thresholds are relative only: the mode field is gone
        with pytest.raises(TypeError, match="threshold_mode"):
            ReconstructionConfig(threshold_mode="relative")

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 1.0, 1e308, 0.0])
    def test_step_tol_outside_the_unit_interval_rejected(self, tol):
        # a tolerance of 1 or more stops every solve after one iteration
        with pytest.raises(ValueError, match=r"step_tol_rel must lie in \(0, 1\)"):
            ReconstructionConfig(step_tol_rel=tol)



class TestWarmStart:
    """``reconstruct(..., start=x)`` begins at x_{k−1} = x_k = P(x), the
    start projected with the solve's own probabilities."""

    @pytest.mark.parametrize("d, m, counts", [(3, 36, 300.0), (5, 150, 300.0), (5, 250, 5e4)])
    def test_converged_start_stops_after_one_iteration(self, d, m, counts):
        ms = simulate_measurements(d, m, seed=9, mean_total_counts=counts)
        cfg = ReconstructionConfig(tau=0.7) if d == 3 else ReconstructionConfig()
        cold = reconstruct(ms, cfg)
        assert cold.converged and cold.iterations > 1
        warm = reconstruct(ms, cfg, start=cold.rho_pre_gamma)
        assert warm.iterations == 1 and warm.converged
        assert max(warm.per_iteration_residuals) <= 1e-9

    def test_start_is_projected_then_stepped(self):
        # x_0 = P(start) meets the measurements; the first extrapolated point
        # is x_0 itself, as I/D is for a cold solve
        ms = simulate_measurements(5, 150, seed=9, mean_total_counts=300)
        cfg = ReconstructionConfig()
        start = random_pure_density(25, np.random.default_rng(9))
        op = MeasurementOperator(ms)
        p = ms.probs[op.keep]
        x0 = op.project(start, p)
        assert np.abs(op.residual(x0, p)).max() <= 1e-9
        first = op.project(normalize_trace(cstomo.solver._cut(x0, cfg)), p)
        rep = reconstruct(ms, cfg, operator=op, start=start)
        assert rep.per_iteration_steps[0] == np.linalg.norm(first - x0)
        assert max(rep.per_iteration_residuals) <= 1e-9

    @pytest.mark.parametrize("shape", [(24, 24), (25, 24), (25,)])
    def test_start_of_the_wrong_shape_raises(self, shape):
        ms = simulate_measurements(5, 150, seed=9, mean_total_counts=300)
        with pytest.raises(ValueError):
            reconstruct(ms, start=np.ones(shape, dtype=complex))

class TestPsdRepairOnReportedMatrices:
    """Γ in the loop is not repaired onto the PSD cone; every matrix that
    leaves the loop is, through enforce_structure."""

    CFG = ReconstructionConfig(tau=0.7)

    @staticmethod
    def assert_density(rho):
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(rho).imag) <= 1e-10

    @pytest.fixture
    def campaign(self):
        return simulate_measurements(3, 60, seed=18, mean_total_counts=300)

    def test_loop_gamma_leaves_the_psd_cone(self, campaign, monkeypatch):
        lowest = []
        project = MeasurementOperator.project

        def recording(op, rho, p):
            lowest.append(np.linalg.eigvalsh(rho)[0])
            return project(op, rho, p)

        monkeypatch.setattr(MeasurementOperator, "project", recording)
        rep = reconstruct(campaign, self.CFG)
        assert len(lowest) == rep.iterations
        assert min(lowest) < -1e-10

    def test_reported_rho_is_repaired(self, campaign):
        # the corrected report and its raw report, the plain solve's report
        rep = reconstruct_corrected(campaign, self.CFG, n_subsets=2)
        raw = rep.correction.raw_report
        assert raw is not None
        for r in (rep, raw):
            self.assert_density(r.rho)
            assert np.array_equal(r.rho, enforce_structure(r.rho_pre_gamma, self.CFG))

    def test_subset_gap_is_against_the_repaired_rho(self, campaign):
        pre = reconstruct(campaign, self.CFG).rho_pre_gamma
        gap = _subset_gap(campaign, self.CFG)
        assert np.array_equal(gap, pre - enforce_structure(pre, self.CFG))
