import numpy as np
import pytest

import cstomo
import cstomo.linalg

from cstomo.linalg import (
    check_hermitian,
    eig_hermitian,
    frob_norm,
    hermitian_part,
    hs_inner,
    mat,
    vec,
)


def random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestVecMat:
    def test_vec_1x1(self):
        assert vec(np.array([[3.5 + 1j]])).tolist() == [3.5 + 1j]

    def test_vec_2x2_column_stacking(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        # declared order: flat index c*D + r, i.e. [a, c, b, d]
        assert vec(m).tolist() == [1, 3, 2, 4]

    def test_mat_inverts_declared_order(self):
        v = np.array([1, 3, 2, 4], dtype=complex)
        assert mat(v).tolist() == [[1, 2], [3, 4]]

    def test_mat_1x1(self):
        assert mat(np.array([2j])).tolist() == [[2j]]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17])
    def test_round_trip_bit_identical(self, n):
        rng = np.random.default_rng(n)
        m = random_hermitian(n, rng)
        back = mat(vec(m))
        assert np.array_equal(back, m)

    def test_vec_round_trip_on_vectors(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(vec(mat(v)), v)

    def test_mat_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            mat(np.zeros(5, dtype=complex))

    def test_vec_rejects_non_square_matrix(self):
        with pytest.raises(ValueError):
            vec(np.zeros((2, 3)))

    def test_mat_does_not_symmetrize(self):
        v = np.array([0, 1, 0, 0], dtype=complex)
        out = mat(v)
        assert out[1, 0] == 1 and out[0, 1] == 0


    def test_not_exported_at_top_level(self):
        # the solver and the correction hold matrices; vec and mat stay in
        # cstomo.linalg beside the sequential reference
        assert not hasattr(cstomo, "vec") and not hasattr(cstomo, "mat")
        assert cstomo.linalg.vec is vec and cstomo.linalg.mat is mat


class TestHsInner:
    def test_identity_identity(self):
        eye = np.eye(2, dtype=complex)
        assert hs_inner(eye, eye) == pytest.approx(2.0)

    def test_self_inner_is_squared_frobenius(self):
        rng = np.random.default_rng(1)
        m = random_hermitian(4, rng)
        val = hs_inner(m, m)
        assert val.imag == pytest.approx(0.0, abs=1e-14)
        assert val.real == pytest.approx(frob_norm(m) ** 2)

    def test_matches_entrywise_trace(self):
        # brute-force oracle: Tr[A rho] summed entry by entry
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        chi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        chi /= np.linalg.norm(chi)
        rho = np.outer(chi, chi.conj())
        brute = sum(
            proj[c, r] * rho[r, c] for r in range(4) for c in range(4)
        )
        assert hs_inner(proj, rho) == pytest.approx(brute, abs=1e-12)

    def test_hermitian_pair_has_tiny_imaginary_part(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = random_hermitian(6, rng)
            y = random_hermitian(6, rng)
            assert abs(hs_inner(x, y).imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hs_inner(np.eye(2), np.eye(3))


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
        assert frob_norm(recomposed - m) <= 1e-10 * max(1.0, frob_norm(m))
        assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10

    def test_symmetrizes_input(self):
        # rounding-level asymmetry must not leak through
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]], dtype=complex)
        w, v = eig_hermitian(m)
        h = hermitian_part(m)
        assert frob_norm((v * w) @ v.conj().T - h) <= 1e-12


class TestFrobNorm:
    def test_zero(self):
        assert frob_norm(np.zeros((3, 3))) == 0.0

    def test_identity_2(self):
        assert frob_norm(np.eye(2)) == pytest.approx(np.sqrt(2))

    def test_matches_hs_inner(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(5, rng)
        assert frob_norm(m) == pytest.approx(np.sqrt(hs_inner(m, m).real), rel=1e-12)


class TestCheckHermitian:
    def test_accepts_hermitian(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(3, rng)
        assert check_hermitian(m) is not None

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_hermitian(np.zeros((2, 3)))
