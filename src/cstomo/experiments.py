"""Fidelity-vs-measurement-fraction sweeps.

Each sweep cell draws a fresh campaign (projectors and noisy counts) at one
measurement fraction, reconstructs with and without noise correction, and
scores fidelity against the maximally entangled target state (the benchmark
metric; it coincides with fidelity-to-truth when the simulated state is the
default maximally entangled one). Cells are independent and own their seeded
RNG streams, so ``run_sweep(jobs=N)`` (``cstomo sweep --jobs N``) runs them
in a ``workers.WorkerPool`` of N forked worker processes. With ``jobs`` 1
the cells run in the calling process.

The default correction takes each cell's displacement from its raw solve's
own structural gap, so a corrected cell is two solves in the process that
runs it, and nothing is queued ahead. With ``n_subsets`` ≥ 2 the cell
workers of ``jobs`` N solve their cells' correction subsets in-line, and an
in-line sweep sends them to one ``correction.subset_pool``, started once for
the whole sweep. That pool is kept fed across cells by one generator,
``_started_cells``, that starts each cell (simulates its campaign and
submits its subsets) w cells ahead of its turn. The cells run in order, and
each ``run_sweep_cell`` call draws its own cell from the generator, which
first starts the cell w after it; the call then runs its raw solve, waits
for its gaps and runs its final solve, so the workers go on to the next
cells' subsets instead of idling. The look-ahead depth w is
``_LOOKAHEAD_PER_WORKER`` per worker process of the pool, and 0 when the
pool runs in-line; it bounds the campaigns and gap vectors held at once to
w cells' worth (w × subsets × D² complex numbers). An error in starting a
cell ahead fails that cell's row, in its place, and a worker that dies
stops the sweep.

Either way the rows, and the ``on_row`` calls that stream them, come in
(fraction, repeat) order whatever order the cells finish in, and a cell's row
does not depend on where or when it ran (its wall-clock ``runtime_seconds``
aside).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .correction import (
    NoiseCorrectionConfig,
    reconstruct_corrected,
    submit_subsets,
    subset_pool,
)
from .errors import WorkerPoolError
from .metrics import fidelity_pure
from .simulate import TwoPhotonState, make_max_entangled, simulate_measurements
from .solver import ReconstructionConfig, reconstruct
from .workers import WorkerPool

__all__ = ["SweepSpec", "SweepRow", "cell_seed", "run_sweep_cell", "run_sweep", "summarize_sweep"]

CSV_COLUMNS = (
    "fraction",
    "repeat",
    "seed",
    "fidelity_raw",
    "fidelity_corrected",
    "iterations",
    "runtime_seconds",
    "status",
)

SUMMARY_COLUMNS = (
    "fraction",
    "n",
    "fidelity_raw_mean",
    "fidelity_raw_std",
    "fidelity_corrected_mean",
    "fidelity_corrected_std",
)


@dataclass
class SweepSpec:
    """One fidelity-vs-fraction experiment.

    fractions are of the informationally complete budget d⁴ (1.0 means d⁴
    random projective measurements) and must be sorted ascending in (0, 1].
    with_correction=True scores both the raw and the corrected
    reconstruction; False runs raw only. Both solve with ``solver``; the
    correction splits each campaign into ``n_subsets`` ≥ 1 subsets (the
    default 1: the raw solve's own structural gap).
    """

    d: int
    fractions: list[float]
    repeats: int = 5
    mean_total_counts: float = 5e4
    seed: int = 0
    with_correction: bool = True
    state: TwoPhotonState | None = None
    solver: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    n_subsets: int = 1

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
        if not 0 < float(self.mean_total_counts) < np.inf:
            raise ValueError("mean_total_counts must be positive and finite")
        if int(self.n_subsets) < 1:
            raise ValueError(f"n_subsets must be at least 1, got {self.n_subsets}")

    def n_measurements(self, fraction: float) -> int:
        return max(1, round(float(fraction) * self.d**4))


@dataclass
class SweepRow:
    """One cell's outcome. ``runtime_seconds`` is the wall time of the
    cell's reconstruction and scoring in the process that runs the cell,
    without the simulation of its campaign. Under the default correction
    that is its raw and final solves. With ``n_subsets`` N ≥ 2, for a cell
    of an in-line corrected sweep it is its raw solve, the wait for its
    subsets' gaps and its final solve: the subsets were submitted before it
    started, and any the workers solved while earlier cells ran are not in
    it, nor is the starting of later cells; elsewhere (``jobs`` N, or
    ``run_sweep_cell`` called alone) it also covers partitioning the
    campaign and solving its subsets. It is 0.0 for a failed cell."""

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


# cells an in-line sweep starts ahead of the one it is solving, per subset
# worker: enough queued subsets that the workers do not run dry while the
# calling process solves a cell, and a bound on the campaigns and gaps held
# (depth × subsets × D² complex). On the benchmark's d=5 sweep (2 workers)
# depths 1, 2, 4 and 8 all beat no look-ahead by a margin the noise could
# not rank; the median cell latency fell with depth (0.152, 0.155, 0.133,
# 0.124 s), and 4 holds half of 8's gaps.
_LOOKAHEAD_PER_WORKER = 2


def _started_cells(spec: SweepSpec, pool: WorkerPool) -> Iterator:
    """The cells of an in-line corrected sweep, in order: each cell's
    campaign and ``SubmittedSubsets``, or the error that starting it raised.
    Drawing a cell first starts the cells up to ``_LOOKAHEAD_PER_WORKER``
    per worker process of ``pool`` after it. The in-line map runs the cells
    in order, so each ``run_sweep_cell`` call draws its own, and the
    generator's work runs inside that call. A WorkerPoolError propagates."""
    cfg = NoiseCorrectionConfig(n_subsets=spec.n_subsets, base=spec.solver)
    depth = _LOOKAHEAD_PER_WORKER * pool.processes
    started = collections.deque()
    for cell in range(len(spec.fractions) * spec.repeats):
        try:
            ms = _campaign(spec, *divmod(cell, spec.repeats))
            started.append((ms, submit_subsets(ms, cfg, pool)))
        except WorkerPoolError:
            raise
        except Exception as exc:
            started.append(exc)
        if len(started) > depth:
            yield started.popleft()
    while started:
        yield started.popleft()


def _campaign(spec: SweepSpec, fraction_index: int, repeat_index: int):
    return simulate_measurements(
        spec.d,
        spec.n_measurements(spec.fractions[fraction_index]),
        state=spec.state,
        seed=cell_seed(spec.seed, fraction_index, repeat_index),
        mean_total_counts=spec.mean_total_counts,
    )


def run_sweep_cell(
    spec: SweepSpec,
    fraction_index: int,
    repeat_index: int,
    *,
    started: Iterator | None = None,
) -> SweepRow:
    """Simulate and reconstruct one (fraction, repeat) cell. An in-line
    corrected sweep hands in its ``_started_cells``, and the call draws its
    cell's campaign and submitted subsets from it. An error fails the
    cell's row, except a WorkerPoolError, which propagates."""
    fraction = spec.fractions[fraction_index]
    seed = cell_seed(spec.seed, fraction_index, repeat_index)
    target = make_max_entangled(spec.d)
    cfg = NoiseCorrectionConfig(n_subsets=spec.n_subsets, base=spec.solver)
    try:
        if started is not None:
            cell = next(started)
            if isinstance(cell, Exception):
                raise cell
            ms, submitted = cell
        else:
            ms, submitted = _campaign(spec, fraction_index, repeat_index), None
        start = time.perf_counter()
        if spec.with_correction:
            rep = reconstruct_corrected(ms, cfg, submitted=submitted)
            if rep.correction is not None and rep.correction.applied:
                fid_corr = fidelity_pure(rep.rho, target)
                fid_raw = fidelity_pure(rep.correction.raw_report.rho, target)
            else:  # fell back: the report is the raw run
                fid_corr = float("nan")
                fid_raw = fidelity_pure(rep.rho, target)
        else:
            rep = reconstruct(ms, spec.solver)
            fid_raw = fidelity_pure(rep.rho, target)
            fid_corr = float("nan")
        elapsed = time.perf_counter() - start
        return SweepRow(
            fraction=fraction,
            repeat=repeat_index,
            seed=seed,
            fidelity_raw=fid_raw,
            fidelity_corrected=fid_corr,
            iterations=rep.iterations,
            runtime_seconds=elapsed,
        )
    except WorkerPoolError:
        raise
    except Exception as exc:
        return SweepRow(
            fraction=fraction,
            repeat=repeat_index,
            seed=seed,
            fidelity_raw=float("nan"),
            fidelity_corrected=float("nan"),
            iterations=0,
            runtime_seconds=0.0,
            status=f"failed: {exc}",
        )


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
    sub_pool = started = None
    if jobs < 2 and spec.with_correction and spec.n_subsets > 1:
        # the cells run here: one pool for all their subsets
        sub_pool = subset_pool(spec.n_subsets)
        started = _started_cells(spec, sub_pool)
    rows = []
    with WorkerPool(min(jobs, n_cells), "sweep") as cell_pool, (
        sub_pool or contextlib.nullcontext()
    ):
        for row in cell_pool.map(functools.partial(run_sweep_cell, started=started), cells):
            rows.append(row)
            if on_row is not None:
                on_row(row)
    return rows


def summarize_sweep(rows: list[SweepRow]) -> list[dict]:
    """Aggregate mean ± sample std of the fidelities per fraction (failed
    cells excluded; std is NaN for a single sample)."""
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
