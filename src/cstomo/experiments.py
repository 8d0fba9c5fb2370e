"""Fidelity-vs-measurement-fraction sweeps.

Each sweep cell draws a fresh campaign (projectors and noisy counts) at one
measurement fraction, reconstructs with and without noise correction, and
scores fidelity against the maximally entangled target state (the benchmark
metric; it coincides with fidelity-to-truth when the simulated state is the
default maximally entangled one). Cells are independent and own their seeded
RNG streams, so ``run_sweep(jobs=N)`` (``cstomo sweep --jobs N``) runs them
in a ``workers.WorkerPool`` of N forked worker processes, which solve their
cells' correction subsets in-line. With ``jobs`` 1 the cells run in the
calling process, and their correction subsets go to one
``correction.subset_pool``, started once for the whole sweep. That pool is
kept fed across cells: each cell's ``run_sweep_cell`` call first starts the
w cells after its own (simulates each campaign and submits its subsets), then
runs its own raw solve, waits for its gaps and runs its final solve, so the
workers go on to the next cells' subsets instead of idling. The look-ahead
depth w is ``_LOOKAHEAD_PER_WORKER`` per worker process of the pool, and 0
when the pool runs in-line; it bounds the campaigns and gap vectors held at
once to w cells' worth (w × subsets × D² complex numbers). An error in
starting a cell ahead fails that cell's row, in its place, and a worker that
dies stops the sweep.

Either way the rows, and the ``on_row`` calls that stream them, come in
(fraction, repeat) order whatever order the cells finish in, and a cell's row
does not depend on where or when it ran (its wall-clock ``runtime_seconds``
aside).
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

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
    correction splits each campaign into ``n_subsets`` subsets (None: the
    correction's default count), which must be at least 2 when given.
    """

    d: int
    fractions: list[float]
    repeats: int = 5
    mean_total_counts: float = 5e4
    seed: int = 0
    with_correction: bool = True
    state: TwoPhotonState | None = None
    solver: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    n_subsets: int | None = None

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
        if not float(self.mean_total_counts) > 0:
            raise ValueError("mean_total_counts must be positive")
        if self.n_subsets is not None and int(self.n_subsets) < 2:
            raise ValueError(f"n_subsets must be at least 2, got {self.n_subsets}")

    def n_measurements(self, fraction: float) -> int:
        return max(1, round(float(fraction) * self.d**4))


@dataclass
class SweepRow:
    """One cell's outcome. ``runtime_seconds`` is the wall time of the
    cell's reconstruction and scoring in the process that runs the cell,
    without the simulation of its campaign. For a cell of an in-line
    corrected sweep that is its raw solve, the wait for its subsets' gaps
    and its final solve: the subsets were submitted before it started, and
    any the workers solved while earlier cells ran are not in it, nor is the
    starting of later cells. Elsewhere (``jobs`` N, or ``run_sweep_cell``
    called alone) it also covers partitioning the campaign and solving its
    subsets. It is 0.0 for a failed cell."""

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


class _StartedCells:
    """The cells of an in-line corrected sweep started ahead of their turn,
    owned by ``run_sweep``: campaign simulated and correction subsets
    submitted to the sweep's one subset pool. Each ``run_sweep_cell`` call
    takes its own cell and first starts the ``depth`` cells after it, so the
    workers solve those cells' subsets while the calling process runs the
    cell's raw and final solves. The depth is ``_LOOKAHEAD_PER_WORKER`` per
    worker process, 0 when the pool runs in-line."""

    def __init__(self, spec: SweepSpec, pool: WorkerPool):
        self.spec = spec
        self.pool = pool
        self.depth = _LOOKAHEAD_PER_WORKER * pool.processes
        self._started: dict[int, tuple | Exception] = {}
        self._next = 0  # the first cell not started yet

    def take(self, cell: int, state: TwoPhotonState, cfg: NoiseCorrectionConfig):
        """Start the cells up to ``depth`` after ``cell``, from ``cell`` on,
        and return ``cell``'s campaign and submitted subsets. An error that
        starting a cell raised, other than a WorkerPoolError, is raised
        here, by the call for that cell."""
        n_cells = len(self.spec.fractions) * self.spec.repeats
        for i in range(max(self._next, cell), min(cell + self.depth + 1, n_cells)):
            try:
                ms = _campaign(self.spec, *divmod(i, self.spec.repeats), state)
                self._started[i] = (ms, submit_subsets(ms, cfg, self.pool))
            except WorkerPoolError:
                raise
            except Exception as exc:
                self._started[i] = exc
            self._next = i + 1
        started = self._started.pop(cell)
        if isinstance(started, Exception):
            raise started
        return started


def _campaign(spec: SweepSpec, fraction_index: int, repeat_index: int, state: TwoPhotonState):
    return simulate_measurements(
        spec.d,
        spec.n_measurements(spec.fractions[fraction_index]),
        state=state,
        seed=cell_seed(spec.seed, fraction_index, repeat_index),
        mean_total_counts=spec.mean_total_counts,
    )


def run_sweep_cell(
    spec: SweepSpec,
    fraction_index: int,
    repeat_index: int,
    *,
    started: _StartedCells | None = None,
) -> SweepRow:
    """Simulate and reconstruct one (fraction, repeat) cell; an in-line
    sweep hands in the cells it has ``started``. An error fails the cell's
    row, except a WorkerPoolError, which propagates."""
    fraction = spec.fractions[fraction_index]
    seed = cell_seed(spec.seed, fraction_index, repeat_index)
    target = make_max_entangled(spec.d)
    state = spec.state if spec.state is not None else target
    cfg = NoiseCorrectionConfig(n_subsets=spec.n_subsets, base=spec.solver)
    try:
        if started is not None:
            cell = fraction_index * spec.repeats + repeat_index
            ms, submitted = started.take(cell, state, cfg)
        else:
            ms, submitted = _campaign(spec, fraction_index, repeat_index, state), None
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
    if jobs < 2 and spec.with_correction:
        # the cells run here: one pool for all their subsets, sized for the
        # sweep's largest campaign
        sub_pool = subset_pool(
            spec.n_subsets, spec.n_measurements(spec.fractions[-1]), spec.d**2
        )
        started = _StartedCells(spec, sub_pool)
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
