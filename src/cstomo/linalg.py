"""Dense complex linear algebra primitives for density-matrix reconstruction.

Everything operates on plain ``numpy.ndarray`` objects. This module pins the
conventions the rest of the package relies on: the Hilbert-Schmidt inner
product and descending Hermitian eigendecompositions, and, for the
sequential reference in ``solver``, column-stacked vectorization.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "vec",
    "mat",
    "hs_inner",
    "eig_hermitian",
    "frob_norm",
    "hermitian_part",
    "hermiticity_error",
    "check_hermitian",
]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (m + m†) / 2."""
    m = np.asarray(m)
    return (m + m.conj().T) / 2


def hermiticity_error(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m†|."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


_HERMITIAN_TOL = 1e-12


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate that ``m`` is square and Hermitian within ``_HERMITIAN_TOL``.

    Returns ``m`` as an ndarray so the call can be chained.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    err = hermiticity_error(m)
    if err > _HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m†| = {err:.3e} > {_HERMITIAN_TOL:.1e}"
        )
    return m


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector.

    Flat index ``k = c*D + r`` holds entry ``(r, c)``. This ordering is the
    file-format contract for all vectorized quantities; ``mat`` inverts it
    bit-exactly.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.reshape(-1, order="F")


def mat(v: np.ndarray) -> np.ndarray:
    """Reshape a length-D² vector back into the D×D matrix ``vec`` came from.

    The output is not forced Hermitian: mid-iteration vectors are allowed to
    carry rounding-level asymmetry and callers decide whether to symmetrize.
    """
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(n, n, order="F")


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(x† y) = Σ conj(x[r,c])·y[r,c].

    Real up to rounding when both arguments are Hermitian.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return complex(np.vdot(x, y))


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized first; sweep updates introduce rounding-level
    asymmetry that plain ``eigh`` would otherwise interpret arbitrarily.

    Returns ``(w, v)`` with eigenvalues ``w`` real and descending and the
    matching orthonormal eigenvectors in the columns of ``v``, so that
    ``(v * w) @ v.conj().T`` reconstructs the symmetrized input.
    """
    h = hermitian_part(m)
    w, v = np.linalg.eigh(h)
    return w[::-1].copy(), v[:, ::-1].copy()


def frob_norm(m: np.ndarray) -> float:
    """Frobenius norm; equals the Euclidean norm of ``vec(m)``."""
    return float(np.linalg.norm(np.asarray(m)))
