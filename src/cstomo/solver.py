"""Operation-projection reconstruction of low-rank, sparse density matrices.

The solver alternates two stages until the step size stalls below tolerance:

* the structural step Γ that enforces the expected characteristics of the
  solution: eigenvalue thresholding for low rank, entrywise thresholding for
  sparsity, trace normalization. It costs one eigendecomposition per
  iteration, as in singular value thresholding; and
* a projection stage that returns the iterate to the solution space
  {ρ : Tr[Â_i ρ] = p_i} of the measurements by one orthogonal projection.

Γ acts on the heavy-ball point y_k = x_k + β(x_k − x_{k−1}) of the last two
iterates (``MOMENTUM``), not on x_k itself; the projection stays last, so
every iterate x_{k+1} = P(Γ(y_k)) meets the measurements, and the stopping
rule and the runtime invariants see the iterates only.

Γ's entrywise cut nearly always leaves some eigenvalues negative. Inside the
loop that does not matter: the next projection leaves the PSD cone anyway,
and Γ stays well defined (see ``_cut``). Only a matrix that leaves the loop
gets the PSD repair: ``enforce_structure`` is Γ with the negative eigenvalues
clipped before normalization, and it makes a report's ``rho``, and through
it every correction subset's structural gap.

Measurement convention: every Â_i = |w_i⟩⟨w_i| is rank 1, so the system is the
M×D matrix W of joint vectors, Tr[Â_i ρ] = ⟨w_i|ρ|w_i⟩, the operators' Gram
matrix is G = |W̄Wᵀ|⊙² (real, M×M) and the projection is ρ + Σ_i c_i Â_i with
G c = p − (Tr[Â_i ρ])_i; no M×D⁴ matrix is formed. Building a
``MeasurementOperator`` forms G's lower triangle in row blocks into one
zeroed M×M buffer, half the products of the full W̄Wᵀ, then runs one
recursion by halves that factors G and overwrites that buffer with the
inverse of its Cholesky factor L (about 7M³/6 flops, nearly all in matrix
products); a projection takes c = L⁻ᵀ(L⁻¹ r). The build needs the buffer,
the M×D joint vectors, and one row block's temporaries or the
factorization's (one (M/2)² block at a time: the factorization keeps its
intermediate product in the buffer's free upper triangle): 1.32× the
buffer at d=7 with M = 1500 and 1.48× at d=17 with M = 2506. The operator
then keeps the buffer and one M×D array, W. G depends on the projectors only,
and the operator holds no probabilities, so the correction's raw and final
solves project with one operator, each with its own probabilities.
The test-only reference
``measurement_rows`` → ``orthogonalize`` → ``kaczmarz_sweep`` computes the same
projection from the Gram-Schmidt orthonormalized rows u, each a conjugated Â
stacked column by column (see ``measurement_rows``): for ρ stacked the same
way, u · ρ = Tr[Â ρ], and conj(u) is the hyperplane normal.

A solve starts from the maximally mixed state I/D, with x_{k−1} = x_k,
unless it is given a start point: then x_{k−1} = x_k = P(start), the start's
projection with this solve's own probabilities, so the loop's iterates meet
the measurements from the first. The correction's final solve starts from
the raw solve's converged iterate (see ``reconstruct``).
A report stores the per-iteration steps and the last iteration's tolerance;
its iteration count, final step and convergence flag are read from them.
A report's ``correction`` is filled in only by
``correction.reconstruct_corrected``, and its type,
``CorrectionDiagnostics``, is defined there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DegenerateIterateError, DegenerateSystemError, InvariantViolation
from .simulate import MeasurementSet, check_count, expectations, joint_vectors

if TYPE_CHECKING:
    from .correction import CorrectionDiagnostics

__all__ = [
    "ReconstructionConfig",
    "ReconstructionReport",
    "MeasurementOperator",
    "enforce_structure",
    "reconstruct",
]

# Joint vectors have unit norm, so G has a unit diagonal and a row's in-order
# Cholesky pivot is its squared Gram-Schmidt residual norm. G carries rounding
# of order M·eps, and LAPACK can return the pivot of an exactly repeated row as
# ~1e-16 instead of failing, so a row is dropped as dependent on the rows
# before it once its pivot falls below this cut (a residual norm of 1e-5).
PIVOT_TOL = 1e-10

# orthogonalize drops a row whose Gram-Schmidt residual norm falls below this
# fraction of its original norm.
_DROP_TOL = 1e-10

# Up to this many rows _factor_inverse factors and inverts a block in LAPACK.
_INV_LEAF = 64

# The Gram matrix is formed this many rows at a time, each row block only up
# to the diagonal (the lower triangle, which is all _factor_inverse reads):
# half the products of a full W̄Wᵀ, and a block's temporaries take at most
# 24·M bytes per row, under 4 MB at the paper's M = 2506 against G's 50 MB.
_GRAM_ROWS = 64

# Heavy-ball weight β: Γ acts on x_k + β(x_k − x_{k−1}), as in the
# accelerated proximal gradient of Toh & Yun (Pac. J. Optim. 6, 615, 2010),
# with the projection kept last so every iterate meets the measurements.
# Against β = 0 on noisy d=7 campaigns (M = 720, 300 counts) 0.5 took 29 %
# fewer iterations, and on noiseless d=5 and d=7 campaigns at
# M = 1.5·(2D−1) it recovered 16 of 20 states instead of 9. Each of 0.3,
# 0.4, 0.6, 0.7 and 0.8 took more iterations on the first or recovered
# fewer states on the second.
MOMENTUM = 0.5

# clip_to_psd leaves a matrix whose spectrum sits above -_PSD_FLOOR as it is:
# the floor tolerates eigensolver rounding on genuinely PSD inputs while
# staying an order of magnitude inside the -1e-10 validity band demanded of
# structural-stage outputs.
_PSD_FLOOR = 1e-12


@dataclass
class ReconstructionConfig:
    """Solver knobs.

    tau: eigenvalue threshold, as a fraction of the largest eigenvalue
        (scale-invariant before trace normalization).
    tau_ell: entrywise threshold, as a fraction of the largest entry
        modulus.
    step_tol_rel: convergence when the Frobenius step between consecutive
        iterates falls below step_tol_rel × (norm of the current iterate);
        in (0, 1), since a tolerance of 1 or more stops every solve after
        its first iteration.
    k_max: iteration cap, an integer of at least 1; hitting it is reported, not raised.
    """

    tau: float = 0.4
    tau_ell: float = 0.04
    step_tol_rel: float = 1e-3
    k_max: int = 500

    def __post_init__(self):
        for name in ("tau", "tau_ell", "step_tol_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        self.k_max = check_count(self.k_max, "k_max")


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

    ``rho`` is ``enforce_structure`` of the final iterate: Γ plus the PSD
    repair, which is applied to reported matrices only, never inside the
    loop. It is Hermitian, PSD, trace 1. ``rho_pre_gamma`` (the wire-format
    name) is the raw converged projection output, which still sits on the
    measurement hyperplanes. ``per_iteration_residuals[k]`` is the worst
    |Tr[Â_i ρ] − p_i| over the kept rows after projection k+1;
    ``n_dropped_rows`` counts rows dropped as dependent on earlier ones.

    The iteration summary is derived from the per-iteration steps:
    ``iterations`` is their count, ``final_step`` the last of them, and the
    solve ``converged`` when that step is at most ``final_step_tol``, the
    last iteration's tolerance.
    """

    rho: np.ndarray
    rho_pre_gamma: np.ndarray
    final_step_tol: float
    per_iteration_residuals: list[float]
    per_iteration_steps: list[float]
    n_dropped_rows: int = 0
    correction: CorrectionDiagnostics | None = None

    @property
    def iterations(self) -> int:
        return len(self.per_iteration_steps)

    @property
    def final_step(self) -> float:
        return self.per_iteration_steps[-1]

    @property
    def converged(self) -> bool:
        return self.final_step <= self.final_step_tol


def measurement_rows(ms: MeasurementSet) -> np.ndarray:
    """Stack the rows conj(vec(Â_i)) of a measurement set into the M×D⁴
    matrix A, so that A·vec(ρ) = (Tr[Â_i ρ])_i.

    vec is column stacking, ``m.reshape(-1, order="F")``: flat index
    ``k = c*D + r`` holds entry ``(r, c)``, and ``v.reshape(D, D, order="F")``
    inverts it. The sequential reference and its tests use this convention;
    the solver itself holds matrices.

    Sequential reference only: at d=17 the matrix takes 3.35 GB, where the
    solver's joint vectors take 12 MB.
    """
    w = joint_vectors(ms.signal, ms.idler)
    # vec(|w><w|) = kron(conj(w), w) under column stacking; conjugate it.
    return (w[:, :, None] * w.conj()[:, None, :]).reshape(len(ms), -1)


def orthogonalize(a_rows: np.ndarray, probs: np.ndarray) -> OrthoSystem:
    """Gram-Schmidt orthonormalization of measurement rows, carrying the
    probabilities through the identical elimination/scaling coefficients.

    Rows whose residual norm after elimination falls below ``_DROP_TOL`` times
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
        if r < _DROP_TOL * norm0:
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


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized first; sweep updates introduce rounding-level
    asymmetry that plain ``eigh`` would otherwise interpret arbitrarily.

    Returns ``(w, v)`` with eigenvalues ``w`` real and descending and the
    matching orthonormal eigenvectors in the columns of ``v``, so that
    ``(v * w) @ v.conj().T`` reconstructs the symmetrized input.
    """
    m = np.asarray(m)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def threshold_eigs(rho: np.ndarray, tau: float) -> np.ndarray:
    """Zero every eigenvalue below tau × (largest eigenvalue) and recompose.

    Negative eigenvalues are always below the (positive) cut, so the output
    is PSD.
    """
    w, v = eig_hermitian(rho)
    lam_max = float(w[0])
    if lam_max <= 0.0:
        raise DegenerateIterateError(
            f"largest eigenvalue {lam_max!r} is not positive; thresholding "
            "would zero the matrix"
        )
    keep = w >= tau * lam_max
    if not keep.any():  # a NaN largest eigenvalue
        raise DegenerateIterateError("no eigenvalue at or above the threshold")
    w = np.where(keep, w, 0.0)
    return (v * w) @ v.conj().T


def threshold_elements(rho: np.ndarray, tau_ell: float) -> np.ndarray:
    """Zero every entry whose modulus falls below tau_ell × (largest entry
    modulus).

    The decision uses the larger modulus of each (r,c)/(c,r) pair so zeroing
    is conjugate-symmetric and Hermiticity is preserved even for inputs with
    rounding-level asymmetry.
    """
    a = np.asarray(rho)
    mod = np.abs(a)
    mod = np.maximum(mod, mod.T)
    peak = float(mod.max())
    if peak == 0.0:
        return a.copy()
    return np.where(mod >= tau_ell * peak, a, 0.0)


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


def _cut(rho: np.ndarray, cfg: ReconstructionConfig) -> np.ndarray:
    """Γ's two cuts: rank thresholding, then entrywise sparsification.

    The output's trace is positive whenever the rank cut keeps anything: the
    kept spectrum is positive, so the rank-cut matrix is PSD and its largest
    entry lies on its diagonal; the relative entrywise cut keeps that entry,
    so the trace is at least it. Normalization needs no PSD repair first.
    """
    return threshold_elements(threshold_eigs(rho, cfg.tau), cfg.tau_ell)


def enforce_structure(rho: np.ndarray, cfg: ReconstructionConfig) -> np.ndarray:
    """The structural step Γ (rank thresholding, then entrywise
    sparsification, then trace normalization) with a PSD repair before the
    normalization, for the matrices a report carries.

    Zeroing individual entries of a PSD matrix can push eigenvalues
    negative; they are clipped so that the output is a valid
    density matrix (Hermitian, PSD, trace 1). The repair costs a second
    eigendecomposition, so the iteration loop applies Γ without it.
    """
    return normalize_trace(clip_to_psd(_cut(rho, cfg)))


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


def _factor_inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kept row indices of a Gram matrix and the inverse L⁻¹ of the lower
    Cholesky factor of their block, dropping each row whose pivot against the
    rows kept before it is below PIVOT_TOL. LAPACK factors and inverts a block
    of up to _INV_LEAF rows that drops none; any other goes by halves
    [[A, Bᵀ], [B, C]]: with X = B·L₁⁻ᵀ over A's kept rows, the second half is
    the Schur complement C − XXᵀ and L⁻¹'s off-diagonal block is −L₂⁻¹·X·L₁⁻¹.

    Only the lower triangle of ``g``, its diagonal included, is read: the
    strict upper triangle may hold anything, NaN included, without changing a
    bit of the result. ``g`` is overwritten, and L⁻¹ is a view of its leading
    block. Xᵀ is written into the free upper-right block, so one (M/2)²
    temporary lives at a time, at the top level (two when a row of the second
    half drops)."""
    n = len(g)
    if n <= _INV_LEAF:
        try:
            low = np.linalg.cholesky(g)
            if np.diagonal(low).min() ** 2 >= PIVOT_TOL:
                g[:] = np.linalg.inv(low)
                return np.arange(n), g
        except np.linalg.LinAlgError:
            pass
        if n == 1:
            return np.arange(0), g[:0, :0]
    h = n // 2
    keep1, inv1 = _factor_inverse(g[:h, :h])
    k1 = len(keep1)
    # Xᵀ = L₁⁻¹Bᵀ goes into the upper-right block, which is free; B is read as
    # a slice unless a row of the first half dropped
    xt = g[:k1, h:]
    np.matmul(inv1, (g[h:, :h] if k1 == h else g[h:, keep1]).T, out=xt)
    g[h:, h:] -= xt.T @ xt
    keep2, inv2 = _factor_inverse(g[h:, h:])
    k = k1 + len(keep2)
    x = xt.T if len(keep2) == n - h else xt[:, keep2].T
    # B is spent: L⁻¹'s off-diagonal block goes straight into its place
    off = g[k1:k, :k1]
    np.matmul(inv2, x @ inv1, out=off)
    np.negative(off, out=off)
    g[k1:k, k1:k] = inv2
    g[:k1, k1:k] = 0.0
    return np.concatenate([keep1, h + keep2]), g[:k, :k]


class MeasurementOperator:
    """The orthogonal projection onto {ρ : Tr[Â_i ρ] = p_i} for the projectors
    of a measurement set. Building it forms the lower triangle of
    G = |W̄Wᵀ|⊙² in blocks of ``_GRAM_ROWS`` rows into one zeroed M×M buffer
    (half the products of the full W̄Wᵀ), factors G in input order in one
    recursion, drops the rows dependent on earlier ones (``n_dropped``;
    ``keep`` holds the indices of the others) and overwrites the buffer with
    the inverse of the lower Cholesky factor L of the kept rows' block
    (``low_inv``, a view of the buffer), so a projection costs two O(M·D²)
    products and two M×M matrix-vector products, c = L⁻ᵀ(L⁻¹ r). Besides
    the buffer, the build holds the M×D joint vectors W and one block's
    temporaries or the factorization's, one (M/2)² block at a time; the
    operator keeps W as it is unless a row drops.

    The operator holds projectors only. The probabilities are data:
    ``residual`` and ``project`` take the kept rows' ``p = probs[keep]``, so
    one operator serves every campaign of its projectors.
    """

    def __init__(self, ms: MeasurementSet):
        if len(ms) == 0:
            raise DegenerateSystemError("measurement set is empty")
        self.signal, self.idler = ms.signal, ms.idler
        w = joint_vectors(ms.signal, ms.idler)
        m = len(w)
        # zeroed, so the upper triangle the build leaves alone holds no
        # uninitialised values
        g = np.zeros((m, m))
        # a last block of one row joins the block before it: numpy multiplies
        # a single row by gemv, whose sums round differently from gemm's
        edges = list(range(0, m, _GRAM_ROWS))
        if len(edges) > 1 and m - edges[-1] == 1:
            edges.pop()
        for i, j in zip(edges, edges[1:] + [m]):
            g[i:j, :j] = np.abs(w[i:j].conj() @ w[:j].T) ** 2
        self.keep, self.low_inv = _factor_inverse(g)
        self.n_dropped = m - len(self.keep)
        self.w = w[self.keep] if self.n_dropped else w

    def residual(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """p_i − Tr[Â_i ρ] = p_i − ⟨w_i|ρ|w_i⟩ over the kept rows."""
        return p - expectations(self.w, rho)

    def project(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """ρ + Σ_i c_i Â_i with G c = p − (Tr[Â_i ρ])_i: the matrix nearest ρ
        in Frobenius norm that meets every kept constraint. c is real, so a
        Hermitian ρ stays Hermitian."""
        c = self.low_inv.T @ (self.low_inv @ self.residual(rho, p))
        return rho + (self.w.T * c) @ self.w.conj()


def reconstruct(
    ms: MeasurementSet,
    cfg: ReconstructionConfig | None = None,
    *,
    on_iteration: Callable[[int, float, float], None] | None = None,
    operator: MeasurementOperator | None = None,
    start: np.ndarray | None = None,
) -> ReconstructionReport:
    """Run the full operation-projection loop on a measurement set.

    Per iteration: the structural step Γ (one eigendecomposition, no PSD
    repair) on the extrapolated point y = x_k + β(x_k − x_{k−1}) of the last
    two iterates (β = ``MOMENTUM``; the first iteration's y is the start
    x_0), then the orthogonal projection onto the measurement system's
    solution set, which gives x_{k+1}; stop once the Frobenius step
    ‖x_{k+1} − x_k‖ falls below step_tol_rel × ‖x_{k+1}‖. The reported
    ``rho`` is ``enforce_structure`` of the final iterate, Γ with the PSD
    repair, so it carries the desired characteristics and is a valid density
    matrix; the raw projection output is kept as ``rho_pre_gamma``.

    Two runtime invariants are checked after every projection and raise
    InvariantViolation on failure: the iterate stays Hermitian to 1e-9 and
    meets every kept constraint, |Tr[Â_i ρ] − p_i| ≤ 1e-9.

    ``on_iteration(k, step, step_tol)`` is invoked once per iteration for
    progress streaming. ``operator``, a ``MeasurementOperator`` of the same
    projectors as ``ms`` (else ValueError), is used instead of a new one
    being built; the results are the same bits.

    ``start``, a D×D matrix, makes x_0 = ``op.project(start, p)`` in place
    of I/D. ``reconstruct_corrected`` passes the raw solve's
    ``rho_pre_gamma`` to its final solve, whose probabilities differ from
    the raw ones only by the small shift Re Tr[Â_i Δ]: started there, the
    final solve takes a few iterations instead of a second full solve, and
    it stays at the fixed point the raw solve found instead of settling on
    another one. An earlier ``init`` parameter was removed because nothing
    passed it; this one has that caller.
    """
    if cfg is None:
        cfg = ReconstructionConfig()
    if operator is None:
        op = MeasurementOperator(ms)
    elif np.array_equal(ms.signal, operator.signal) and np.array_equal(ms.idler, operator.idler):
        op = operator
    else:
        raise ValueError("the measurement set's projectors are not the operator's")
    p = ms.probs[op.keep]
    dim = ms.d**2
    if start is None:
        prev = np.eye(dim, dtype=complex) / dim
    else:
        prev = op.project(start, p)
    before = prev
    steps: list[float] = []
    residuals: list[float] = []

    for k in range(1, cfg.k_max + 1):
        cur = op.project(normalize_trace(_cut(prev + MOMENTUM * (prev - before), cfg)), p)

        herm_err = float(np.abs(cur - cur.conj().T).max())
        if herm_err > 1e-9:
            raise InvariantViolation(
                f"iterate lost Hermiticity after projection {k}: {herm_err:.3e}"
            )
        res = float(np.abs(op.residual(cur, p)).max())
        residuals.append(res)
        if res > 1e-9:
            raise InvariantViolation(
                f"projection {k} left constraint residual {res:.3e} > 1e-9"
            )

        step = float(np.linalg.norm(cur - prev))
        tol = cfg.step_tol_rel * float(np.linalg.norm(cur))
        steps.append(step)
        before, prev = prev, cur
        if on_iteration is not None:
            on_iteration(k, step, tol)
        if step <= tol:
            break

    return ReconstructionReport(
        rho=enforce_structure(prev, cfg),
        rho_pre_gamma=prev,
        final_step_tol=tol,
        per_iteration_residuals=residuals,
        per_iteration_steps=steps,
        n_dropped_rows=op.n_dropped,
    )
