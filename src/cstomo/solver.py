"""Operation-projection reconstruction of low-rank, sparse density matrices.

The solver alternates two stages until the step size stalls below tolerance:

* a structural stage that enforces the expected characteristics of the
  solution (eigenvalue thresholding for low rank, entrywise thresholding for
  sparsity, trace normalization), and
* a projection stage that returns the iterate to the solution space
  {ρ : Tr[Â_i ρ] = p_i} of the measurements by one orthogonal projection.

Measurement convention: every Â_i = |w_i⟩⟨w_i| is rank 1, so the system is the
M×D matrix W of joint vectors, Tr[Â_i ρ] = ⟨w_i|ρ|w_i⟩, the operators' Gram
matrix is G = |W̄Wᵀ|⊙² (real, M×M) and the projection is ρ + Σ_i c_i Â_i with
G c = p − (Tr[Â_i ρ])_i; no M×D⁴ matrix is formed. G⁻¹ = L⁻ᵀL⁻¹ is formed once
per solve from the Cholesky factor L, whose inverse is taken by halves
(about 2M³/3 flops in matrix products, a third of an LU-based inverse).
The test-only reference
``measurement_rows`` → ``orthogonalize`` → ``kaczmarz_sweep`` computes the same
projection from the Gram-Schmidt orthonormalized rows u = conj(vec(Â)), with
u · vec(ρ) = Tr[Â ρ] and hyperplane normal conj(u).

Every solve starts from the maximally mixed state I/D. A report's
``correction`` is filled in only by ``correction.reconstruct_corrected``,
and its type, ``CorrectionDiagnostics``, is defined there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DegenerateIterateError, DegenerateSystemError, InvariantViolation
from .linalg import eig_hermitian, frob_norm, hermiticity_error
from .simulate import MeasurementSet, expectations, joint_vectors

if TYPE_CHECKING:
    from .correction import CorrectionDiagnostics

__all__ = [
    "ReconstructionConfig",
    "ReconstructionReport",
    "MeasurementOperator",
    "threshold_eigs",
    "threshold_elements",
    "normalize_trace",
    "clip_to_psd",
    "enforce_structure",
    "reconstruct",
]

THRESHOLD_MODES = ("relative", "absolute")

# Joint vectors have unit norm, so G has a unit diagonal and a row's in-order
# Cholesky pivot is its squared Gram-Schmidt residual norm. G carries rounding
# of order M·eps, and LAPACK can return the pivot of an exactly repeated row as
# ~1e-16 instead of failing, so a row is dropped as dependent on the rows
# before it once its pivot falls below this cut (a residual norm of 1e-5).
PIVOT_TOL = 1e-10

# Below this many rows _lower_inverse hands its block to LAPACK.
_INV_LEAF = 64

# clip_to_psd leaves a matrix whose spectrum sits above -_PSD_FLOOR as it is:
# the floor tolerates eigensolver rounding on genuinely PSD inputs while
# staying an order of magnitude inside the -1e-10 validity band demanded of
# structural-stage outputs.
_PSD_FLOOR = 1e-12


@dataclass
class ReconstructionConfig:
    """Solver knobs.

    tau: eigenvalue threshold, as a fraction of the largest eigenvalue in
        "relative" mode (default; scale-invariant before trace normalization)
        or an absolute cut in "absolute" mode.
    tau_ell: entrywise threshold, same two modes against the largest entry
        modulus.
    step_tol_rel: convergence when the Frobenius step between consecutive
        iterates falls below step_tol_rel × (norm of the current iterate).
    k_max: iteration cap; hitting it is reported, not raised.
    """

    tau: float = 0.4
    tau_ell: float = 0.04
    step_tol_rel: float = 1e-3
    k_max: int = 500
    threshold_mode: str = "relative"

    def __post_init__(self):
        if self.threshold_mode not in THRESHOLD_MODES:
            raise ValueError(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.threshold_mode == "relative":
            if not 0.0 < self.tau < 1.0:
                raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
            if not 0.0 < self.tau_ell < 1.0:
                raise ValueError(f"tau_ell must lie in (0, 1), got {self.tau_ell}")
        else:
            if not self.tau > 0 or not self.tau_ell > 0:
                raise ValueError("absolute thresholds must be positive")
        if not self.step_tol_rel > 0:
            raise ValueError("step_tol_rel must be positive")
        if int(self.k_max) < 1:
            raise ValueError("k_max must be at least 1")
        self.k_max = int(self.k_max)


@dataclass(eq=False)
class OrthoSystem:
    """An orthonormalized measurement system with the same solution set as
    the original one.

    ``rows`` are orthonormal under the standard complex inner product;
    ``probs_prime`` carries the right-hand side through the identical
    elimination coefficients. ``probs_prime`` is real: for rows derived from
    Hermitian operators the elimination coefficients are real up to rounding
    (orthogonalize enforces this).
    """

    rows: np.ndarray
    probs_prime: np.ndarray
    n_dropped: int = 0

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(eq=False)
class ReconstructionReport:
    """Recovered matrix plus convergence diagnostics.

    ``rho`` is the final iterate with the structural stage applied once more,
    so it is Hermitian, PSD, trace 1; ``rho_pre_gamma`` (the wire-format name)
    is the raw converged projection output, which still sits on the
    measurement hyperplanes. ``per_iteration_residuals[k]`` is the worst
    |Tr[Â_i ρ] − p_i| over the kept rows after projection k+1;
    ``n_dropped_rows`` counts rows dropped as dependent on earlier ones.
    """

    rho: np.ndarray
    rho_pre_gamma: np.ndarray
    iterations: int
    final_step: float
    final_step_tol: float
    converged: bool
    per_iteration_residuals: list[float]
    per_iteration_steps: list[float]
    n_dropped_rows: int = 0
    correction: CorrectionDiagnostics | None = None


def measurement_rows(ms: MeasurementSet) -> np.ndarray:
    """Stack the rows conj(vec(Â_i)) of a measurement set into the M×D⁴
    matrix A, so that A·vec(ρ) = (Tr[Â_i ρ])_i.

    Sequential reference only: at d=17 the matrix takes 3.35 GB, where the
    solver's joint vectors take 12 MB.
    """
    w = joint_vectors(ms.signal, ms.idler)
    # vec(|w><w|) = kron(conj(w), w) under column stacking; conjugate it.
    return (w[:, :, None] * w.conj()[:, None, :]).reshape(len(ms), -1)


def orthogonalize(
    a_rows: np.ndarray,
    probs: np.ndarray,
    *,
    drop_tol: float = 1e-10,
) -> OrthoSystem:
    """Gram-Schmidt orthonormalization of measurement rows, carrying the
    probabilities through the identical elimination/scaling coefficients.

    Rows whose residual norm after elimination falls below ``drop_tol`` times
    their original norm are dropped together with their probability entry;
    the count is reported on the returned system. Elimination runs twice per
    row (classical Gram-Schmidt with reorthogonalization) so the output rows
    are orthonormal to machine precision.
    """
    work = np.array(a_rows, dtype=complex)
    if work.ndim != 2:
        raise ValueError(f"expected an M×N row matrix, got shape {work.shape}")
    p = np.asarray(probs, dtype=float)
    m_in, _ = work.shape
    if p.shape != (m_in,):
        raise ValueError(f"{m_in} rows but {p.size} probabilities")

    pp = np.empty(m_in, dtype=complex)
    kept = 0
    for i in range(m_in):
        v = work[i].copy()
        beta = complex(p[i])
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        for _ in range(2):
            if kept:
                # ⟨q_j, v⟩ for all previous rows, conjugating the small
                # vector rather than the row block (no M×N temporaries)
                coef = (work[:kept] @ v.conj()).conj()
                v -= coef @ work[:kept]
                beta -= coef @ pp[:kept]
        r = np.linalg.norm(v)
        if r < drop_tol * norm0:
            continue
        work[kept] = v / r
        pp[kept] = beta / r
        kept += 1

    dropped = m_in - kept
    if kept == 0:
        raise DegenerateSystemError("every measurement row was dropped as dependent")
    pp = pp[:kept]
    worst_imag = float(np.abs(pp.imag).max())
    if worst_imag > 1e-9:
        raise ValueError(
            "transformed probabilities acquired imaginary parts up to "
            f"{worst_imag:.3e}; rows do not derive from Hermitian operators"
        )
    return OrthoSystem(rows=work[:kept], probs_prime=pp.real.copy(), n_dropped=dropped)


def _eig_threshold_cut(w: np.ndarray, tau: float, mode: str) -> float:
    if mode == "relative":
        lam_max = float(w[0])
        if lam_max <= 0.0:
            raise DegenerateIterateError(
                f"largest eigenvalue {lam_max!r} is not positive; thresholding "
                "would zero the matrix"
            )
        return tau * lam_max
    return float(tau)


def threshold_eigs(rho: np.ndarray, tau: float, mode: str = "relative") -> np.ndarray:
    """Zero every eigenvalue below the threshold and recompose.

    In "relative" mode the cut is tau × (largest eigenvalue). Negative
    eigenvalues are always below the (positive) cut, so the output is PSD.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}")
    w, v = eig_hermitian(rho)
    cut = _eig_threshold_cut(w, tau, mode)
    keep = w >= cut
    if not keep.any():
        raise DegenerateIterateError("no eigenvalue at or above the threshold")
    w = np.where(keep, w, 0.0)
    return (v * w) @ v.conj().T


def threshold_elements(rho: np.ndarray, tau_ell: float, mode: str = "relative") -> np.ndarray:
    """Zero every entry whose modulus falls below the threshold.

    In "relative" mode the cut is tau_ell × (largest entry modulus). The
    decision uses the larger modulus of each (r,c)/(c,r) pair so zeroing is
    conjugate-symmetric and Hermiticity is preserved even for inputs with
    rounding-level asymmetry.
    """
    if mode not in THRESHOLD_MODES:
        raise ValueError(f"mode must be one of {THRESHOLD_MODES}")
    a = np.asarray(rho)
    mod = np.abs(a)
    mod = np.maximum(mod, mod.T)
    if mode == "relative":
        peak = float(mod.max())
        if peak == 0.0:
            return a.copy()
        cut = tau_ell * peak
    else:
        cut = float(tau_ell)
    return np.where(mod >= cut, a, 0.0)


def normalize_trace(rho: np.ndarray) -> np.ndarray:
    """Divide by the trace so the output has trace exactly 1."""
    a = np.asarray(rho)
    tr = complex(np.trace(a))
    if abs(tr) <= 1e-12:
        raise DegenerateIterateError(f"trace {tr!r} too small to normalize")
    return a / tr


def clip_to_psd(rho: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone by zeroing negative eigenvalues; an exact
    no-op for matrices whose spectrum sits above -_PSD_FLOOR."""
    w, v = eig_hermitian(rho)
    if w[-1] >= -_PSD_FLOOR:
        return np.asarray(rho)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def enforce_structure(rho: np.ndarray, cfg: ReconstructionConfig) -> np.ndarray:
    """The combined structural stage: rank thresholding, then entrywise
    sparsification, then trace normalization, in that order.

    Zeroing individual entries of a PSD matrix can push a few eigenvalues
    slightly negative; the result is projected back onto the PSD cone before
    normalization so that every structural output is a valid density matrix
    (Hermitian, PSD, trace 1).
    """
    out = threshold_eigs(rho, cfg.tau, cfg.threshold_mode)
    out = threshold_elements(out, cfg.tau_ell, cfg.threshold_mode)
    out = clip_to_psd(out)
    return normalize_trace(out)


def kaczmarz_sweep(x: np.ndarray, system: OrthoSystem) -> np.ndarray:
    """Project sequentially onto the hyperplane of every row, in stored order.

    Row u with right-hand side p' defines the hyperplane u·y = p', whose unit
    normal is conj(u). Because the rows are orthonormal, one pass lands on the
    intersection of all hyperplanes: the result satisfies every constraint
    simultaneously and equals the orthogonal projection of ``x`` onto the
    solution affine subspace.
    """
    x = np.array(x, dtype=complex)
    if x.shape != (system.dim,):
        raise ValueError(f"iterate has shape {x.shape}, system dimension {system.dim}")
    rows = system.rows
    pp = system.probs_prime
    for i in range(system.n_rows):
        row = rows[i]
        k = pp[i] - np.dot(row, x)
        x += k * row.conj()
    return x


def _in_order_cholesky(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kept row indices of a Gram matrix and the lower Cholesky factor of
    their block, dropping each row whose pivot against the rows kept before it
    is below PIVOT_TOL: one LAPACK call unless a row drops, else each half in
    turn, the second as its Schur complement against the first's kept rows."""
    try:
        low = np.linalg.cholesky(g)
        if np.diagonal(low).min() ** 2 >= PIVOT_TOL:
            return np.arange(len(g)), low
    except np.linalg.LinAlgError:
        pass
    if len(g) == 1:
        return np.arange(0), np.zeros((0, 0))
    h = len(g) // 2
    keep1, low1 = _in_order_cholesky(g[:h, :h])
    x = np.linalg.solve(low1, g[keep1, h:])
    keep2, low2 = _in_order_cholesky(g[h:, h:] - x.T @ x)
    low = np.block([[low1, np.zeros((len(keep1), len(keep2)))], [x[:, keep2].T, low2]])
    return np.concatenate([keep1, h + keep2]), low


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by halves: for L = [[A, 0], [C, B]]
    it is [[A⁻¹, 0], [−B⁻¹·C·A⁻¹, B⁻¹]], with LAPACK's inverse below
    _INV_LEAF rows. About 2n³/3 flops, nearly all in matrix products, against
    about 2n³ for an LU-based inverse."""
    n = len(low)
    if n <= _INV_LEAF:
        return np.linalg.inv(low)
    h = n // 2
    a_inv = _lower_inverse(low[:h, :h])
    b_inv = _lower_inverse(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = a_inv
    out[h:, h:] = b_inv
    out[h:, :h] = -b_inv @ (low[h:, :h] @ a_inv)
    return out


class MeasurementOperator:
    """The orthogonal projection onto {ρ : Tr[Â_i ρ] = p_i}, built once per
    solve: G = |W̄Wᵀ|⊙² is factored in input order, rows dependent on earlier
    ones are dropped (``n_dropped``) and G⁻¹ = L⁻ᵀL⁻¹ of the kept rows is
    formed from a blocked inverse of the lower factor L (about 2M³/3 flops,
    against about 2M³ for an LU-based inverse), so a projection costs two
    O(M·D²) products and one M×M matrix-vector product.
    """

    def __init__(self, ms: MeasurementSet):
        if len(ms) == 0:
            raise DegenerateSystemError("measurement set is empty")
        w = joint_vectors(ms.signal, ms.idler)
        keep, low = _in_order_cholesky(np.abs(w.conj() @ w.T) ** 2)
        low_inv = _lower_inverse(low)
        self.w = w[keep]
        self.probs = ms.probs[keep]
        self.gram_inv = low_inv.T @ low_inv
        self.n_dropped = len(ms) - len(keep)

    def residual(self, rho: np.ndarray) -> np.ndarray:
        """p_i − Tr[Â_i ρ] over the kept rows."""
        return self.probs - expectations(self.w, rho)

    def project(self, rho: np.ndarray) -> np.ndarray:
        """ρ + Σ_i c_i Â_i with G c = p − (Tr[Â_i ρ])_i: the matrix nearest ρ
        in Frobenius norm that meets every kept constraint. c is real, so a
        Hermitian ρ stays Hermitian."""
        c = self.gram_inv @ self.residual(rho)
        return rho + (self.w.T * c) @ self.w.conj()


def reconstruct(
    ms: MeasurementSet,
    cfg: ReconstructionConfig | None = None,
    *,
    on_iteration: Callable[[int, float, float], None] | None = None,
) -> ReconstructionReport:
    """Run the full operation-projection loop on a measurement set.

    Per iteration: structural stage, then the orthogonal projection onto the
    measurement system's solution set, then stop once the Frobenius step
    between consecutive iterates falls below step_tol_rel × (norm of the
    current iterate). The reported ``rho`` has the structural stage applied
    once more so it carries the desired characteristics; the raw projection
    output is kept as ``rho_pre_gamma``.

    Two runtime invariants are checked after every projection and raise
    InvariantViolation on failure: the iterate stays Hermitian to 1e-9 and
    meets every kept constraint, |Tr[Â_i ρ] − p_i| ≤ 1e-9.

    ``on_iteration(k, step, step_tol)`` is invoked once per iteration for
    progress streaming.
    """
    if cfg is None:
        cfg = ReconstructionConfig()
    op = MeasurementOperator(ms)
    dim = ms.d**2
    prev = np.eye(dim, dtype=complex) / dim
    steps: list[float] = []
    residuals: list[float] = []
    converged = False
    final_step = float("nan")
    final_tol = float("nan")
    iterations = 0

    for k in range(1, cfg.k_max + 1):
        cur = op.project(enforce_structure(prev, cfg))

        herm_err = hermiticity_error(cur)
        if herm_err > 1e-9:
            raise InvariantViolation(
                f"iterate lost Hermiticity after projection {k}: {herm_err:.3e}"
            )
        res = float(np.abs(op.residual(cur)).max())
        residuals.append(res)
        if res > 1e-9:
            raise InvariantViolation(
                f"projection {k} left constraint residual {res:.3e} > 1e-9"
            )

        final_step = frob_norm(cur - prev)
        final_tol = cfg.step_tol_rel * frob_norm(cur)
        steps.append(final_step)
        iterations = k
        prev = cur
        if on_iteration is not None:
            on_iteration(k, final_step, final_tol)
        if final_step <= final_tol:
            converged = True
            break

    rho_pre = prev
    rho = enforce_structure(rho_pre, cfg)
    return ReconstructionReport(
        rho=rho,
        rho_pre_gamma=rho_pre,
        iterations=iterations,
        final_step=final_step,
        final_step_tol=final_tol,
        converged=converged,
        per_iteration_residuals=residuals,
        per_iteration_steps=steps,
        n_dropped_rows=op.n_dropped,
    )
