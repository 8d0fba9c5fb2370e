"""Shot-noise compensation from structural gaps.

Noisy probabilities push the solution space away from the true state. The
correction estimates that displacement without leaving the linear setting:
reconstruct one or more disjoint measurement subsets, measure how far each
subset solution sits from the structured set (solution minus its structural
projection), sum those gaps into a displacement estimate, map it back onto
the probabilities, and re-run the solver on the corrected system.

Every solve, raw, subset and final, runs with the one ``ReconstructionConfig``
passed to ``reconstruct_corrected``. By default there is one subset, the
whole campaign, whose solve is the raw solve: the raw report's own gap is
taken, and exactly two solves run, raw then final.

The raw and final solves measure with the same projectors, so they share
one ``MeasurementOperator``: ``reconstruct_corrected`` builds it, which
factors the campaign's Gram matrix once, and both solves project with it,
the final solve with the corrected probabilities; that gives the same bits
as a second factorization. Correction subsets have projectors of their own
and build their own operators.

The final solve starts from the raw solve's converged iterate
``rho_pre_gamma``, projected with the corrected probabilities
(``reconstruct(..., start=)``). Those probabilities differ from the raw
ones only by the shift Re Tr[Â_i Δ], so the final solve takes a few
iterations, often one, and stays by the fixed point the raw solve found.
Started at I/D, it repeated most of the raw solve and could settle on
another fixed point, which took campaigns the raw solve had recovered far
below it.

With ``n_subsets`` N ≥ 2 the campaign is partitioned round-robin and each
subset is solved after the raw solve, one after another, in the calling
process: the subset gaps are a lazy generator that ``estimate_delta_rho``
reads in subset order, so each subset solve runs inside it, and an
exception one raises, such as an InvariantViolation, propagates from it.

Either way the outcome is one ``CorrectionDiagnostics``:
``estimate_delta_rho`` sums the subsets' outcomes into the per-subset sizes,
flags and gap norms and the summed displacement, and
``reconstruct_corrected`` adds the clamp count and the raw report when the
correction is applied, or the reason it was skipped, before attaching it to
the report it returns.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateIterateError, DegenerateSystemError
from .simulate import MeasurementSet, check_count, expectations, joint_vectors
from .solver import (
    MeasurementOperator,
    ReconstructionConfig,
    ReconstructionReport,
    reconstruct,
)

__all__ = [
    "CorrectionDiagnostics",
    "partition",
    "correct_probabilities",
    "reconstruct_corrected",
]


@dataclass(eq=False)
class CorrectionDiagnostics:
    """Outcome of the correction; ``reconstruct_corrected`` attaches it as
    the returned report's ``correction``.

    subset_sizes, subset_converged, subset_delta_norms: one entry per subset,
        in subset order; an omitted subset (unconverged or degenerate) has
        flag False and norm NaN and adds nothing to ``delta``.
    delta: the summed structural gaps, a D×D matrix; None when the
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


def partition(ms: MeasurementSet, n_subsets: int) -> list[MeasurementSet]:
    """Split a measurement set round-robin into N = ``n_subsets`` disjoint
    subsets covering it exactly: subset j holds measurements j, j + N, ...
    ValueError for a bad count, or if a subset would keep fewer than D
    measurements, the floor that keeps it solvable for near-pure states."""
    m = len(ms)
    dim = ms.d**2
    n = check_count(n_subsets, "n_subsets")
    if m // n < dim:
        raise ValueError(
            f"{m} measurements over {n} subsets leaves {m // n} per subset, "
            f"below the floor of D={dim}"
        )
    return [
        dataclasses.replace(
            ms,
            signal=ms.signal[idx],
            idler=ms.idler[idx],
            probs=ms.probs[idx],
            counts=None if ms.counts is None else ms.counts[idx],
        )
        for idx in (np.arange(j, m, n) for j in range(n))
    ]


def _gap(rep: ReconstructionReport, cfg: ReconstructionConfig):
    """A solve's structural gap, or the reason it is omitted as text: the
    solve did not converge."""
    if not rep.converged:
        return f"did not converge within k_max={cfg.k_max}"
    return rep.rho_pre_gamma - rep.rho


def _subset_gap(sub: MeasurementSet, cfg: ReconstructionConfig):
    """Solve one subset. Returns its ``_gap``, or the reason it is omitted
    as text, with a warning: the solve did not converge or raised a
    degenerate-system error."""
    try:
        gap = _gap(reconstruct(sub, cfg), cfg)
    except (DegenerateSystemError, DegenerateIterateError) as exc:
        gap = f"reconstruction failed ({exc})"
    if isinstance(gap, str):
        warnings.warn(f"subset {gap}; contribution omitted")
    return gap


def estimate_delta_rho(subsets: list[MeasurementSet], gaps) -> CorrectionDiagnostics:
    """Sum the subsets' structural gaps.

    ``gaps`` holds each subset's ``_gap`` outcome, in subset order:
    solution − structural stage of the solution, where the
    pre-structural converged iterate is the subset solution, or the reason
    the subset is omitted. It may be a generator that solves each subset as
    it is read; an exception a solve raises, such as an InvariantViolation,
    then propagates from here. An omitted subset contributes nothing and is
    flagged. Flags and the sum are made here, in subset order.
    """
    dim = subsets[0].d ** 2
    out = CorrectionDiagnostics(delta=np.zeros((dim, dim), dtype=complex))
    for sub, gap in zip(subsets, gaps):
        omitted = isinstance(gap, str)
        out.subset_sizes.append(len(sub))
        out.subset_converged.append(not omitted)
        if omitted:
            out.subset_delta_norms.append(float("nan"))
        else:
            out.delta += gap
            out.subset_delta_norms.append(float(np.linalg.norm(gap)))
    return out


def correct_probabilities(
    ms: MeasurementSet, delta: np.ndarray
) -> tuple[MeasurementSet, int]:
    """Subtract the probability shift implied by a displacement estimate Δ,
    a D×D matrix.

    The shift of measurement i is Re Tr[Â_i Δ] evaluated against the original
    measurement operators. Corrected probabilities are clamped to [0, 1]; the
    clamp count is returned alongside the new set.
    """
    raw = ms.probs - expectations(joint_vectors(ms.signal, ms.idler), delta)
    corrected = np.clip(raw, 0.0, 1.0)
    n_clamped = int(np.count_nonzero(raw != corrected))
    return dataclasses.replace(ms, probs=corrected), n_clamped


def reconstruct_corrected(
    ms: MeasurementSet,
    cfg: ReconstructionConfig | None = None,
    *,
    n_subsets: int = 1,
    on_iteration=None,
) -> ReconstructionReport:
    """Full pipeline: raw solve, structural-gap displacement estimate,
    probability correction, corrected solve started from the raw solve's
    ``rho_pre_gamma``.

    ``cfg`` configures every solve. ``n_subsets``, an integer of at least
    1 (else ValueError; a bool is not one), counts the disjoint subsets:
    with one (the default) the estimate is the raw solve's own gap; with
    N ≥ 2 the subsets are solved after the raw solve, in subset order, as
    ``estimate_delta_rho`` reads their gaps.

    The returned report is the corrected run with ``correction`` filled in,
    including the raw run's report. If the raw solve does not converge (one
    subset), partitioning is infeasible or every subset fails (N ≥ 2), the
    raw report is returned with ``correction.applied`` False and a warning
    that gives ``correction.reason``.
    """
    n_subsets = check_count(n_subsets, "n_subsets")
    if cfg is None:
        cfg = ReconstructionConfig()
    # one factorization for both solves, made here
    op = MeasurementOperator(ms)
    raw = reconstruct(ms, cfg, on_iteration=on_iteration, operator=op)
    if n_subsets == 1:  # the one subset is the campaign, solved just now
        gap = _gap(raw, cfg)
        diag = estimate_delta_rho([ms], [gap])
        if isinstance(gap, str):
            diag.reason = f"raw solve {gap}"
    else:
        try:
            subsets = partition(ms, n_subsets)
        except ValueError as exc:
            diag = CorrectionDiagnostics(reason=str(exc))
        else:
            diag = estimate_delta_rho(subsets, (_subset_gap(sub, cfg) for sub in subsets))
    if diag.n_omitted == diag.n_subsets:  # no subset contributed
        if not diag.reason:
            diag.reason = "every subset failed to converge"
        warnings.warn(f"noise correction skipped: {diag.reason}")
        raw.correction = diag
        return raw

    corrected_ms, diag.n_clamped = correct_probabilities(ms, diag.delta)
    out = reconstruct(corrected_ms, cfg, on_iteration=on_iteration, operator=op,
                      start=raw.rho_pre_gamma)
    diag.raw_report = raw
    out.correction = diag
    return out
