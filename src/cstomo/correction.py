"""Shot-noise compensation via disjoint measurement subsets.

Noisy probabilities push the solution space away from the true state. The
correction estimates that displacement without leaving the linear setting:
reconstruct each measurement subset independently, measure how far each
subset solution sits from the structured set (solution minus its structural
projection), sum those gaps into a displacement estimate, map it back onto
the probabilities, and re-run the solver on the corrected system.

The subset solves do not depend on each other or on the raw solve.
``submit_subsets`` is the one place that submits them: it partitions the
campaign and maps ``_subset_gap`` over the subsets on a ``workers.WorkerPool``
of one forked worker per usable CPU that BLAS threads leave free.
``reconstruct_corrected`` reads the gaps. Called alone (``cstomo
reconstruct``) it submits to a pool of its own, runs the raw solve while the
workers solve the subsets, waits for their gaps, stops the pool and runs
the final solve. An in-line sweep instead submits each cell's subsets itself,
on the one pool it keeps from ``subset_pool``, a few cells ahead of the cell
being solved, and hands them in: the workers solve the next cells' subsets
while the calling process runs the current cell's solves (see
``experiments``). Every subset runs the same arithmetic as an in-line solve
wherever and whenever it runs, so the results are bit-identical. The raw and
final solves always run in the calling process, which also emits the
warnings and sums the gaps in subset order.

The outcome is one ``CorrectionDiagnostics``: ``estimate_delta_rho`` sums
the subsets' outcomes into the per-subset sizes, flags and gap norms and the
summed displacement, and ``reconstruct_corrected`` adds the clamp count and
the raw report when the correction is applied, or the reason it was
skipped, before attaching it to the report it returns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DegenerateIterateError, DegenerateSystemError
from .linalg import mat, vec
from .simulate import MeasurementSet, expectations, joint_vectors
from .solver import ReconstructionConfig, ReconstructionReport, reconstruct
from .workers import WorkerPool

__all__ = [
    "NoiseCorrectionConfig",
    "CorrectionDiagnostics",
    "partition",
    "subset_pool",
    "SubmittedSubsets",
    "submit_subsets",
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
class CorrectionDiagnostics:
    """Outcome of the correction; ``reconstruct_corrected`` attaches it as
    the returned report's ``correction``.

    subset_sizes, subset_converged, subset_delta_norms: one entry per subset,
        in subset order; an omitted subset (unconverged or degenerate) has
        flag False and norm NaN and adds nothing to ``delta``.
    delta: the summed structural gaps, vec of a D×D matrix; None when the
        measurements could not be partitioned.
    n_clamped: corrected probabilities clamped to [0, 1].
    reason: why the correction was skipped; empty when it was applied.
    raw_report: the uncorrected solve's report when the correction was
        applied (the returned report is then the corrected solve's), else
        None (the returned report is the raw one).
    """

    subset_sizes: list[int] = field(default_factory=list)
    subset_converged: list[bool] = field(default_factory=list)
    subset_delta_norms: list[float] = field(default_factory=list)
    delta: np.ndarray | None = None
    n_clamped: int = 0
    reason: str = ""
    raw_report: ReconstructionReport | None = None

    @property
    def applied(self) -> bool:
        return self.raw_report is not None

    @property
    def n_subsets(self) -> int:
        return len(self.subset_sizes)

    @property
    def n_omitted(self) -> int:
        return sum(not ok for ok in self.subset_converged)

    @property
    def delta_norm(self) -> float:
        return 0.0 if self.delta is None else float(np.linalg.norm(self.delta))


# the most subsets the default partition makes
_MAX_SUBSETS = 8


def _subset_count(n_subsets: int | None, n_measurements: int, dim: int) -> int:
    """``n_subsets`` when given, else the largest count ≤ 8 keeping every
    subset at least D measurements (below 2 when two such subsets do not
    fit)."""
    if n_subsets is not None:
        return int(n_subsets)
    return min(_MAX_SUBSETS, n_measurements // dim)


def partition(ms: MeasurementSet, cfg: NoiseCorrectionConfig) -> list[MeasurementSet]:
    """Split a measurement set into disjoint subsets covering it exactly."""
    m = len(ms)
    dim = ms.d**2
    n = _subset_count(cfg.n_subsets, m, dim)
    if n < 2:  # only the default count falls below 2
        raise ValueError(
            f"{m} measurements cannot form 2 subsets of at least "
            f"{dim} each; noise correction is infeasible"
        )
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
    if cfg.subset_step_tol_rel is None:
        return cfg.base
    return dataclasses.replace(
        cfg.base, step_tol_rel=min(cfg.base.step_tol_rel, cfg.subset_step_tol_rel)
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
    """Solve one subset. Returns its structural gap, or the reason it is
    omitted as text: the solve did not converge or raised a degenerate-system
    error."""
    try:
        rep = reconstruct(sub, sub_cfg)
    except (DegenerateSystemError, DegenerateIterateError) as exc:
        return f"reconstruction failed ({exc})"
    if not rep.converged:
        return f"did not converge within k_max={sub_cfg.k_max}"
    return vec(rep.rho_pre_gamma) - vec(rep.rho)


def subset_pool(n_subsets: int | None, n_measurements: int, dim: int) -> WorkerPool:
    """A pool for the correction subsets of campaigns of up to
    ``n_measurements`` measurements of dimension ``dim``, split into
    ``n_subsets`` (None: the default count): one worker per subset of the
    largest, as far as ``_subset_workers`` allows."""
    return WorkerPool(_subset_workers(_subset_count(n_subsets, n_measurements, dim)), "subset")


@dataclass(eq=False)
class SubmittedSubsets:
    """A campaign's correction subsets and their pending ``_subset_gap``
    outcomes, in subset order; no subsets, and the reason, when the campaign
    cannot be partitioned."""

    subsets: list[MeasurementSet]
    gaps: Iterator
    reason: str = ""


def submit_subsets(
    ms: MeasurementSet, cfg: NoiseCorrectionConfig, pool: WorkerPool
) -> SubmittedSubsets:
    """Partition ``ms`` and submit its subsets' solves to ``pool``; the
    gaps are read by the ``reconstruct_corrected`` call handed the result."""
    try:
        subsets = partition(ms, cfg)
    except ValueError as exc:
        return SubmittedSubsets([], iter(()), reason=str(exc))
    sub_cfg = _subset_config(cfg)
    return SubmittedSubsets(subsets, pool.map(_subset_gap, [(sub, sub_cfg) for sub in subsets]))


def estimate_delta_rho(subsets: list[MeasurementSet], gaps) -> CorrectionDiagnostics:
    """Sum the subsets' structural gaps.

    ``gaps`` holds each subset's ``_subset_gap`` outcome, in subset order:
    vec(solution) − vec(structural stage of the solution), where the
    pre-structural converged iterate is the subset solution, or the reason
    the subset is omitted. It may be a pool's pending results, and then
    reading it waits for the workers: an exception a solve raised, such as
    an InvariantViolation, propagates, and a worker that died raises
    WorkerPoolError. An omitted subset contributes nothing and is flagged
    with a warning. Warnings, flags and the sum are made here, in subset
    order.
    """
    dim = subsets[0].d ** 2
    out = CorrectionDiagnostics(delta=np.zeros(dim * dim, dtype=complex))
    for sub, gap in zip(subsets, gaps):
        omitted = isinstance(gap, str)
        out.subset_sizes.append(len(sub))
        out.subset_converged.append(not omitted)
        if omitted:
            warnings.warn(f"subset {gap}; contribution omitted")
            out.subset_delta_norms.append(float("nan"))
        else:
            out.delta += gap
            out.subset_delta_norms.append(float(np.linalg.norm(gap)))
    return out


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
    submitted: SubmittedSubsets | None = None,
) -> ReconstructionReport:
    """Full pipeline: raw solve, subset displacement estimate, probability
    correction, corrected solve.

    ``submitted`` is ``submit_subsets(ms, cfg, pool)`` made earlier on a
    caller's pool; without it the subsets go to a pool of this call's own,
    before the raw solve, which then runs while they are solved, and the
    pool stops once the gaps are in. A worker that dies or cannot start
    raises WorkerPoolError.

    The returned report is the corrected run with ``correction`` filled in,
    including the raw run's report. If partitioning is infeasible or every
    subset fails, the raw report is returned with a warning and
    ``correction.applied`` False.
    """
    if cfg is None:
        cfg = NoiseCorrectionConfig()
    with (
        subset_pool(cfg.n_subsets, len(ms), ms.d**2)
        if submitted is None
        else contextlib.nullcontext()
    ) as pool:
        if submitted is None:
            submitted = submit_subsets(ms, cfg, pool)
        raw = reconstruct(ms, cfg.base, on_iteration=on_iteration)
        if submitted.subsets:
            diag = estimate_delta_rho(submitted.subsets, submitted.gaps)
            if diag.n_omitted == diag.n_subsets:
                diag.reason = "every subset failed to converge"
        else:
            diag = CorrectionDiagnostics(reason=submitted.reason)
    if diag.n_omitted == diag.n_subsets:  # no subset contributed
        warnings.warn(f"noise correction skipped: {diag.reason}")
        raw.correction = diag
        return raw

    corrected_ms, diag.n_clamped = correct_probabilities(ms, diag.delta)
    out = reconstruct(corrected_ms, cfg.base, on_iteration=on_iteration)
    diag.raw_report = raw
    out.correction = diag
    return out
