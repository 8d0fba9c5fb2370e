"""Shot-noise compensation via disjoint measurement subsets.

Noisy probabilities push the solution space away from the true state. The
correction estimates that displacement without leaving the linear setting:
reconstruct each measurement subset independently, measure how far each
subset solution sits from the structured set (solution minus its structural
projection), sum those gaps into a displacement estimate, map it back onto
the probabilities, and re-run the solver on the corrected system.

The subset solves do not depend on each other, so they run in worker
processes started with fork, one per usable CPU that BLAS threads leave
free. Forked workers inherit the loaded modules and the BLAS settings, so
every subset runs the same arithmetic as an in-line solve and the results
are bit-identical. The solves run in-line when that leaves one worker, on a
platform without fork, and inside a process that is itself a
multiprocessing worker (a ``run_sweep(jobs>1)`` cell). The raw and final
solves always run in the calling process, which also emits the warnings and
sums the gaps in subset order.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DegenerateIterateError, DegenerateSystemError, WorkerPoolError
from .linalg import mat, vec
from .simulate import MeasurementSet, expectations, joint_vectors
from .solver import (
    CorrectionDiagnostics,
    ReconstructionConfig,
    ReconstructionReport,
    reconstruct,
)

__all__ = [
    "NoiseCorrectionConfig",
    "CorrectionEstimate",
    "default_subset_count",
    "partition",
    "estimate_delta_rho",
    "correct_probabilities",
    "reconstruct_corrected",
]

SUBSET_ASSIGNMENTS = ("round-robin", "seeded-random")


@dataclass
class NoiseCorrectionConfig:
    """Correction knobs.

    n_subsets: number of disjoint subsets; None picks min(8, M // D) so every
        subset keeps at least max(D, M/8) measurements, a floor that keeps
        each subset solvable for near-pure states (raises when fewer than two
        such subsets fit). Must be ≥ 2 when given.
    subset_assignment: "round-robin" (deterministic interleave) or
        "seeded-random" (shuffled by ``seed`` first).
    base: solver configuration shared by the subset runs and the final runs.
    subset_step_tol_rel: optional tighter convergence for the subset runs
        (inherits the base tolerance when None). The structural gap each
        subset contributes stabilizes well before deep convergence, so the
        base tolerance is normally enough; tighten it when asserting that the
        correction vanishes on noiseless data.
    """

    n_subsets: int | None = None
    subset_assignment: str = "round-robin"
    base: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    seed: int = 0
    subset_step_tol_rel: float | None = None

    def __post_init__(self):
        if self.n_subsets is not None and int(self.n_subsets) < 2:
            raise ValueError(f"n_subsets must be at least 2, got {self.n_subsets}")
        if self.subset_assignment not in SUBSET_ASSIGNMENTS:
            raise ValueError(f"subset_assignment must be one of {SUBSET_ASSIGNMENTS}")
        if self.subset_step_tol_rel is not None and not self.subset_step_tol_rel > 0:
            raise ValueError("subset_step_tol_rel must be positive")


@dataclass(eq=False)
class CorrectionEstimate:
    """Summed displacement estimate plus per-subset diagnostics."""

    delta: np.ndarray
    subset_sizes: list[int]
    subset_converged: list[bool]
    subset_delta_norms: list[float]

    @property
    def n_omitted(self) -> int:
        return sum(not ok for ok in self.subset_converged)


def default_subset_count(n_measurements: int, dim: int) -> int:
    """Largest subset count ≤ 8 keeping every subset at least D measurements."""
    n = min(8, n_measurements // dim)
    if n < 2:
        raise ValueError(
            f"{n_measurements} measurements cannot form 2 subsets of at least "
            f"{dim} each; noise correction is infeasible"
        )
    return n


def partition(ms: MeasurementSet, cfg: NoiseCorrectionConfig) -> list[MeasurementSet]:
    """Split a measurement set into disjoint subsets covering it exactly."""
    m = len(ms)
    dim = ms.d**2
    n = int(cfg.n_subsets) if cfg.n_subsets is not None else default_subset_count(m, dim)
    if m // n < dim:
        raise ValueError(
            f"{m} measurements over {n} subsets leaves {m // n} per subset, "
            f"below the floor of D={dim}"
        )
    if cfg.subset_assignment == "round-robin":
        order = np.arange(m)
    else:
        order = np.random.default_rng(cfg.seed).permutation(m)
    subsets = []
    for j in range(n):
        idx = order[j::n]
        subsets.append(
            MeasurementSet(
                d=ms.d,
                signal=ms.signal[idx],
                idler=ms.idler[idx],
                probs=ms.probs[idx],
                counts=None if ms.counts is None else ms.counts[idx],
                seed=ms.seed,
                calibration=ms.calibration,
                truth=ms.truth,
            )
        )
    return subsets


def _subset_config(cfg: NoiseCorrectionConfig) -> ReconstructionConfig:
    base = cfg.base
    if cfg.subset_step_tol_rel is None:
        return base
    return ReconstructionConfig(
        tau=base.tau,
        tau_ell=base.tau_ell,
        step_tol_rel=min(base.step_tol_rel, cfg.subset_step_tol_rel),
        k_max=base.k_max,
        init=base.init,
        threshold_mode=base.threshold_mode,
    )


# variables that pin the BLAS thread count (OpenBLAS, MKL, OpenMP); the first
# one set is taken
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _subset_workers(n_subsets: int) -> int:
    """Worker processes for the subset solves: the usable CPUs divided by
    the BLAS threads each solve runs. BLAS runs one thread per CPU unless a
    variable pins it, and then the solves stay in-line: on 2 CPUs, two
    workers at 2 BLAS threads each made a corrected d=7 op 5 times slower."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return min(n_subsets, max(1, cpus // blas_threads))


def _subset_gap(sub: MeasurementSet, sub_cfg: ReconstructionConfig):
    """Solve one subset. Returns its structural gap, None when the solve did
    not converge, or the degenerate-system error it raised."""
    try:
        rep = reconstruct(sub, sub_cfg)
    except (DegenerateSystemError, DegenerateIterateError) as exc:
        return exc
    if not rep.converged:
        return None
    return vec(rep.rho_pre_gamma) - vec(rep.rho)


# (subsets, config) in a subset worker. A forked worker inherits them from
# the pool's initializer arguments, so no subset is pickled; tasks send only
# an index.
_worker_subsets: tuple | None = None


def _init_worker(subsets, sub_cfg) -> None:
    global _worker_subsets
    _worker_subsets = (subsets, sub_cfg)


def _worker_gap(j: int):
    subsets, sub_cfg = _worker_subsets
    return _subset_gap(subsets[j], sub_cfg)


def _solve_subsets(subsets: list[MeasurementSet], sub_cfg: ReconstructionConfig) -> list:
    """``_subset_gap`` of every subset, in subset order."""
    workers = _subset_workers(len(subsets))
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.parent_process() is not None
    ):
        return list(map(_subset_gap, subsets, repeat(sub_cfg)))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(subsets, sub_cfg),
    ) as pool:
        running = set(multiprocessing.active_children())
        try:
            futures = [pool.submit(_worker_gap, j) for j in range(len(subsets))]
        except OSError as exc:
            # a worker forked before the failing one would wait for work forever
            for proc in set(multiprocessing.active_children()) - running:
                proc.kill()
                proc.join()
            raise WorkerPoolError(f"could not start subset workers: {exc}") from exc
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise WorkerPoolError(f"a subset worker died: {exc}") from exc


def estimate_delta_rho(
    subsets: list[MeasurementSet], cfg: NoiseCorrectionConfig
) -> CorrectionEstimate:
    """Reconstruct every subset and sum the structural gaps.

    For subset i the gap is vec(solution) − vec(structural stage of the
    solution); the pre-structural converged iterate is the subset solution.
    Subsets that fail to converge (or degenerate) contribute nothing and are
    flagged; any other error, such as an InvariantViolation, propagates. The
    solves run in forked worker processes (see the module docstring); a
    worker that dies or cannot start raises WorkerPoolError. Warnings, flags
    and the sum are made here, in subset order.
    """
    if len(subsets) < 2:
        raise ValueError("need at least two subsets to estimate the displacement")
    sub_cfg = _subset_config(cfg)
    dim = subsets[0].d ** 2
    delta = np.zeros(dim * dim, dtype=complex)
    sizes, oks, norms = [], [], []
    for sub, gap in zip(subsets, _solve_subsets(subsets, sub_cfg)):
        sizes.append(len(sub))
        if isinstance(gap, Exception):  # omit and flag
            warnings.warn(f"subset reconstruction failed ({gap}); contribution omitted")
            oks.append(False)
            norms.append(float("nan"))
            continue
        if gap is None:
            warnings.warn(
                f"subset did not converge within k_max={sub_cfg.k_max}; "
                "contribution omitted"
            )
            oks.append(False)
            norms.append(float("nan"))
            continue
        delta += gap
        oks.append(True)
        norms.append(float(np.linalg.norm(gap)))
    return CorrectionEstimate(
        delta=delta, subset_sizes=sizes, subset_converged=oks, subset_delta_norms=norms
    )


def correct_probabilities(
    ms: MeasurementSet, delta_rho: np.ndarray
) -> tuple[MeasurementSet, int]:
    """Subtract the probability shift implied by a displacement estimate.

    The shift of measurement i is Re Tr[Â_i Δ] evaluated against the original
    measurement operators. Corrected probabilities are clamped to [0, 1]; the
    clamp count is returned alongside the new set.
    """
    delta_mat = mat(np.asarray(delta_rho, dtype=complex))
    raw = ms.probs - expectations(joint_vectors(ms.signal, ms.idler), delta_mat)
    corrected = np.clip(raw, 0.0, 1.0)
    n_clamped = int(np.count_nonzero(raw != corrected))
    return (
        MeasurementSet(
            d=ms.d,
            signal=ms.signal,
            idler=ms.idler,
            probs=corrected,
            counts=ms.counts,
            seed=ms.seed,
            calibration=ms.calibration,
            truth=ms.truth,
        ),
        n_clamped,
    )


def reconstruct_corrected(
    ms: MeasurementSet,
    cfg: NoiseCorrectionConfig | None = None,
    *,
    on_iteration=None,
) -> ReconstructionReport:
    """Full pipeline: raw solve, subset displacement estimate, probability
    correction, corrected solve.

    The returned report is the corrected run with ``correction`` filled in,
    including the raw run's report. If partitioning is infeasible or every
    subset fails, the raw report is returned with a warning and
    ``correction.applied`` False.
    """
    if cfg is None:
        cfg = NoiseCorrectionConfig()
    raw = reconstruct(ms, cfg.base, on_iteration=on_iteration)

    try:
        subsets = partition(ms, cfg)
        est = estimate_delta_rho(subsets, cfg)
    except ValueError as exc:
        warnings.warn(f"noise correction skipped: {exc}")
        raw.correction = CorrectionDiagnostics(applied=False, reason=str(exc))
        return raw
    if est.n_omitted == len(subsets):
        reason = "every subset failed to converge"
        warnings.warn(f"noise correction skipped: {reason}")
        raw.correction = CorrectionDiagnostics(
            applied=False,
            n_subsets=len(subsets),
            subset_sizes=est.subset_sizes,
            subset_converged=est.subset_converged,
            subset_delta_norms=est.subset_delta_norms,
            reason=reason,
        )
        return raw

    corrected_ms, n_clamped = correct_probabilities(ms, est.delta)
    out = reconstruct(corrected_ms, cfg.base, on_iteration=on_iteration)
    out.correction = CorrectionDiagnostics(
        applied=True,
        n_subsets=len(subsets),
        subset_sizes=est.subset_sizes,
        subset_converged=est.subset_converged,
        subset_delta_norms=est.subset_delta_norms,
        delta_norm=float(np.linalg.norm(est.delta)),
        n_clamped=n_clamped,
        raw_report=raw,
    )
    return out
