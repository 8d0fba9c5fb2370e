"""Fidelity-vs-measurement-fraction sweeps.

Each sweep cell draws a fresh campaign (projectors and noisy counts) at one
measurement fraction, reconstructs with and without noise correction, and
scores fidelity against the maximally entangled target state (the benchmark
metric; it coincides with fidelity-to-truth when the simulated state is the
default maximally entangled one). Cells are independent and own their seeded
RNG streams, so ``run_sweep(jobs=N)`` (``cstomo sweep --jobs N``) maps them
over up to N forked worker processes with ``workers.ordered_map``, which
caps them by the CPUs and BLAS threads. With ``jobs`` 1 the cells run in
the calling process, one after another.

A cell runs its raw and final solves in the process that runs it. The
rows, and the ``on_row`` calls that stream them, come in (fraction,
repeat) order whatever order the cells finish in, and a cell's row does
not depend on where it ran (its wall-clock ``runtime_seconds`` aside).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .correction import reconstruct_corrected
from .metrics import fidelity_pure
from .simulate import (
    TwoPhotonState,
    check_mean_total_counts,
    make_max_entangled,
    simulate_measurements,
)
from .solver import ReconstructionConfig, reconstruct
from .workers import ordered_map

__all__ = ["SweepSpec", "SweepRow", "cell_seed", "run_sweep_cell", "run_sweep", "summarize_sweep"]

@dataclass
class SweepSpec:
    """One fidelity-vs-fraction experiment.

    fractions are of the informationally complete budget d⁴ (1.0 means d⁴
    random projective measurements) and must be sorted ascending in (0, 1].
    with_correction=True scores both the raw and the corrected
    reconstruction; False runs raw only. Both solve with ``solver``, and the
    correction is the default one: the raw solve's own structural gap.
    """

    d: int
    fractions: list[float]
    repeats: int = 5
    mean_total_counts: float = 5e4
    seed: int = 0
    with_correction: bool = True
    state: TwoPhotonState | None = None
    solver: ReconstructionConfig = field(default_factory=ReconstructionConfig)

    def __post_init__(self):
        if not self.fractions:
            raise ValueError("need at least one fraction")
        fr = [float(f) for f in self.fractions]
        if any(not 0.0 < f <= 1.0 for f in fr):
            raise ValueError("fractions must lie in (0, 1]")
        if fr != sorted(fr):
            raise ValueError("fractions must be sorted ascending")
        self.fractions = fr
        if int(self.repeats) < 1:
            raise ValueError("repeats must be at least 1")
        self.repeats = int(self.repeats)
        check_mean_total_counts(self.mean_total_counts, "mean_total_counts")

    def n_measurements(self, fraction: float) -> int:
        return max(1, round(float(fraction) * self.d**4))


@dataclass
class SweepRow:
    """One cell's outcome. ``runtime_seconds`` is the wall time of the
    cell's raw and final solves and scoring, without the simulation of its
    campaign, in the process that runs the cell; 0.0 for a failed cell.
    ``iterations`` counts the solve of the returned report: the final solve
    when the correction applied, else the raw one. The final solve starts
    from the raw solution and often takes one iteration, so the column does
    not measure a corrected cell's work; ``runtime_seconds`` does. The
    fields, in order, are the columns of ``cstomo sweep``'s CSV."""

    fraction: float
    repeat: int
    seed: int
    fidelity_raw: float
    fidelity_corrected: float
    iterations: int
    runtime_seconds: float
    status: str = "ok"


def cell_seed(base_seed: int, fraction_index: int, repeat_index: int) -> int:
    """Deterministic, well-mixed per-cell seed, reusable with cmd_simulate."""
    ss = np.random.SeedSequence([int(base_seed), int(fraction_index), int(repeat_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def run_sweep_cell(spec: SweepSpec, fraction_index: int, repeat_index: int) -> SweepRow:
    """Simulate and reconstruct one (fraction, repeat) cell. An error fails
    the cell's row."""
    fraction = spec.fractions[fraction_index]
    seed = cell_seed(spec.seed, fraction_index, repeat_index)
    # the failed row; a cell that runs replaces its outcome
    row = SweepRow(fraction, repeat_index, seed, float("nan"), float("nan"), 0, 0.0)
    target = make_max_entangled(spec.d)
    try:
        ms = simulate_measurements(
            spec.d,
            spec.n_measurements(fraction),
            state=spec.state,
            seed=seed,
            mean_total_counts=spec.mean_total_counts,
        )
        start = time.perf_counter()
        rep = (reconstruct_corrected if spec.with_correction else reconstruct)(ms, spec.solver)
        corr = rep.correction
        # the raw run: the report itself unless a correction applied
        raw = corr.raw_report if corr is not None and corr.applied else rep
        fid_raw = fidelity_pure(raw.rho, target)
        fid_corr = float("nan") if raw is rep else fidelity_pure(rep.rho, target)
        return dataclasses.replace(
            row,
            fidelity_raw=fid_raw,
            fidelity_corrected=fid_corr,
            iterations=rep.iterations,
            runtime_seconds=time.perf_counter() - start,
        )
    except Exception as exc:
        return dataclasses.replace(row, status=f"failed: {exc}")


def run_sweep(spec: SweepSpec, jobs: int = 1, on_row=None) -> list[SweepRow]:
    """Run every cell, in-line (``jobs`` 1) or in up to ``jobs`` forked
    worker processes, and return the rows sorted by (fraction index,
    repeat). ``on_row`` sees each row in that order as soon as it and every
    row before it are done. A worker that dies or cannot start raises
    WorkerPoolError; ``jobs`` below 1 raises ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n_cells = len(spec.fractions) * spec.repeats
    cells = [(spec, *divmod(i, spec.repeats)) for i in range(n_cells)]
    rows = []
    results = ordered_map(run_sweep_cell, cells, min(jobs, n_cells))
    try:
        for row in results:
            rows.append(row)
            if on_row is not None:
                on_row(row)
    finally:
        results.close()
    return rows


def summarize_sweep(rows: list[SweepRow]) -> list[dict]:
    """Aggregate mean ± sample std of the fidelities per fraction (failed
    cells excluded; std is NaN for a single sample). The keys of a record,
    in order, are the columns of ``cstomo sweep``'s summary CSV."""
    out = []
    for fraction in sorted({row.fraction for row in rows}):
        ok = [r for r in rows if r.fraction == fraction and r.status == "ok"]
        entry = {"fraction": fraction, "n": len(ok)}
        for name in ("fidelity_raw", "fidelity_corrected"):
            vals = np.array([getattr(r, name) for r in ok], dtype=float)
            vals = vals[~np.isnan(vals)]
            entry[f"{name}_mean"] = float(vals.mean()) if vals.size else float("nan")
            entry[f"{name}_std"] = (
                float(vals.std(ddof=1)) if vals.size > 1 else float("nan")
            )
        out.append(entry)
    return out
