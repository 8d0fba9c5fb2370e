import numpy as np
import pytest

from cstomo.metrics import (
    RANK_REL_TOL,
    effective_rank,
    fidelity_pure,
    purity,
    residual,
    summarize,
)
from cstomo.simulate import (
    MeasurementSet,
    TwoPhotonState,
    joint_state_vector,
    make_downconversion_state,
    make_max_entangled,
    simulate_measurements,
    state_to_density,
)


class TestFidelityPure:
    def test_self_fidelity_is_one(self):
        s = make_downconversion_state(3, 1.3)
        assert fidelity_pure(state_to_density(s), s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_maximally_mixed(self, d):
        rho = np.eye(d * d, dtype=complex) / (d * d)
        assert fidelity_pure(rho, make_max_entangled(d)) == pytest.approx(
            1 / d, abs=1e-12
        )

    def test_closed_form_consistency(self):
        # F^2 == Tr(|phi><phi| rho)
        rng = np.random.default_rng(0)
        s = make_max_entangled(3)
        phi = joint_state_vector(s)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        f = fidelity_pure(rho, s)
        assert f**2 == pytest.approx(
            np.vdot(np.outer(phi, phi.conj()), rho).real, abs=1e-10
        )

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        s = make_downconversion_state(3, 2.0)
        rho = state_to_density(make_max_entangled(3))
        rotated = TwoPhotonState(s.coeffs * np.exp(1.7j))
        assert fidelity_pure(rho, rotated) == pytest.approx(
            fidelity_pure(rho, s), abs=1e-12
        )

    def test_rejects_significantly_non_psd(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        target = TwoPhotonState(np.array([1.0, 0.0], dtype=complex))  # d=2, D=4
        with pytest.raises(ValueError, match="non-PSD"):
            fidelity_pure(rho, target)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            fidelity_pure(np.eye(4) / 4, make_max_entangled(3))


class TestPurity:
    def test_pure_state(self):
        rho = state_to_density(make_max_entangled(5))
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        rho = np.eye(9) / 9
        assert purity(rho) == pytest.approx(1 / 9, abs=1e-12)

    def test_equal_mixture_of_orthogonal_states(self):
        a = np.zeros(4, dtype=complex)
        a[0] = 1
        b = np.zeros(4, dtype=complex)
        b[1] = 1
        rho = 0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_range_for_valid_density_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(2, 10))
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            p = purity(rho)
            assert 1 / dim - 1e-12 <= p <= 1 + 1e-12


class TestEffectiveRank:
    def test_pure_state(self):
        assert effective_rank(state_to_density(make_max_entangled(3))) == 1

    def test_maximally_mixed(self):
        assert effective_rank(np.eye(9) / 9) == 9

    def test_hand_case(self):
        assert RANK_REL_TOL == 1e-3
        assert effective_rank(np.diag([1.0, 0.5, 1e-6])) == 2

    def test_zero_matrix(self):
        assert effective_rank(np.zeros((3, 3))) == 0

    def test_tolerance_one_counts_the_top_eigenvalue(self, monkeypatch):
        # the cut is inclusive: eigenvalues equal to it are counted
        monkeypatch.setattr("cstomo.metrics.RANK_REL_TOL", 1.0)
        assert effective_rank(np.diag([1.0, 1.0, 0.5])) == 2

    def test_removed_tolerance_keywords_are_type_errors(self):
        # the cut is the constant RANK_REL_TOL; neither function takes one
        with pytest.raises(TypeError, match="rel_tol"):
            effective_rank(np.eye(3), rel_tol=1e-3)
        with pytest.raises(TypeError, match="rank_rel_tol"):
            summarize(np.eye(3) / 3, rank_rel_tol=1e-3)


class TestResidual:
    def test_exact_solution(self):
        ms = simulate_measurements(3, 12, seed=0)
        rho = state_to_density(ms.truth)
        assert residual(ms, rho) <= 1e-12

    def test_shot_noise_scaling(self):
        # residual at the труth scales like 1/sqrt(C): statistical over seeds
        d, m = 3, 30
        state = make_max_entangled(d)
        rho = state_to_density(state)
        for c, bound in ((1e4, 0.08), (1e6, 0.008)):
            worst = max(
                residual(
                    simulate_measurements(d, m, state=state, seed=s, mean_total_counts=c),
                    rho,
                )
                for s in range(5)
            )
            assert worst < bound

    def test_dimension_mismatch(self):
        ms = simulate_measurements(3, 5, seed=1)
        with pytest.raises(ValueError, match="match"):
            residual(ms, np.eye(4))

    def test_empty_set(self):
        none = np.empty((0, 3), dtype=complex)
        ms = MeasurementSet(d=3, signal=none, idler=none, probs=[])
        assert residual(ms, np.eye(9) / 9) == 0.0


class TestSummarize:
    def test_full_summary(self):
        ms = simulate_measurements(3, 20, seed=2)
        rho = state_to_density(ms.truth)
        m = summarize(rho, measurements=ms, target=ms.truth)
        assert m.fidelity == pytest.approx(1.0, abs=1e-10)
        assert m.purity == pytest.approx(1.0, abs=1e-10)
        assert m.effective_rank == 1
        assert m.residual_inf <= 1e-12

    def test_optional_fields(self):
        rho = np.eye(9) / 9
        m = summarize(rho)
        assert m.fidelity is None and m.residual_inf is None
        assert m.effective_rank == 9
