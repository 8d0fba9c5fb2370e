"""Batch command-line front end.

Four subcommands cover the whole pipeline: ``simulate`` writes a measurement
campaign to JSON, ``reconstruct`` recovers a density matrix from one,
``sweep`` runs the fidelity-vs-measurement-fraction experiment into CSV, and
``metrics`` scores a stored matrix. Exit codes: 0 success/converged,
1 input or I/O error, 2 a usage error (an unknown command or flag, or a bad
flag value, reported by argparse), 3 non-convergence, 4 degenerate
measurement system, 5 a solver invariant violated (a bug, not bad input),
6 a ``sweep --jobs N`` worker process died or could not be started (for
example killed when memory ran out).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .correction import NoiseCorrectionConfig, reconstruct_corrected
from .errors import (
    DegenerateIterateError,
    DegenerateSystemError,
    InvariantViolation,
    SchemaError,
    WorkerPoolError,
)
from .experiments import CSV_COLUMNS, SUMMARY_COLUMNS, SweepSpec, run_sweep, summarize_sweep
from .linalg import check_hermitian
from .metrics import check_rank_tol, summarize
from .serialize import (
    _metrics_to_dict,
    format_float,
    load_matrix,
    load_measurement_set,
    report_to_dict,
    save_measurement_set,
    save_report,
)
from .simulate import (
    make_downconversion_state,
    make_max_entangled,
    simulate_measurements,
)
from .solver import ReconstructionConfig, reconstruct

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4
EXIT_INVARIANT = 5
EXIT_WORKER = 6


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=0.4,
                   help="eigenvalue threshold, a fraction of the largest eigenvalue "
                        "(default 0.4)")
    p.add_argument("--tau-ell", type=float, default=0.04,
                   help="entrywise threshold, a fraction of the largest entry modulus "
                        "(default 0.04)")
    p.add_argument("--step-tol", type=float, default=1e-3,
                   help="relative step tolerance for convergence (default 1e-3)")
    p.add_argument("--k-max", type=int, default=500,
                   help="iteration cap (default 500)")


def _solver_config(args) -> ReconstructionConfig:
    return ReconstructionConfig(
        tau=args.tau,
        tau_ell=args.tau_ell,
        step_tol_rel=args.step_tol,
        k_max=args.k_max,
    )


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", choices=("max-entangled", "downconversion"),
                   default="max-entangled",
                   help="simulated two-photon state (default max-entangled)")
    p.add_argument("--spiral-width", type=float, default=2.5,
                   help="width of the downconversion spectrum in mode index "
                        "(only with --state downconversion; default 2.5)")


def _make_state(name: str, d: int, spiral_width: float):
    if name == "downconversion":
        return make_downconversion_state(d, spiral_width)
    return make_max_entangled(d)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cstomo",
        description="Compressive-sensing density-matrix reconstruction toolkit",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated measurement campaign to JSON")
    p.add_argument("--d", type=int, required=True, help="modes per photon (odd)")
    p.add_argument("--measurements", type=int, required=True,
                   help="number of random projective measurements")
    _add_state_flags(p)
    p.add_argument("--noise", choices=("none", "poisson"), default="none")
    p.add_argument("--mean-total-counts", type=float, default=5e4,
                   help="calibration constant: mean counts at p=1 (poisson noise)")
    p.add_argument("--strip-truth", action="store_true",
                   help="omit the ground-truth state from the file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="recover a density matrix from a measurement file")
    p.add_argument("input", help="measurement-set JSON")
    p.add_argument("--out", required=True, help="report JSON path")
    _add_solver_flags(p)
    p.add_argument("--no-correction", action="store_true",
                   help="skip the noise correction: one raw solve")
    p.add_argument("--subsets", type=int, default=1,
                   help="correction subsets (default 1: the raw solve's own structural "
                        "gap; N >= 2 sums the gaps of N disjoint subsets, solved after it)")
    p.add_argument("--diagnostics", default=None,
                   help="stream per-iteration diagnostics to this CSV path")
    p.add_argument("--rank-tol", type=float, default=1e-3,
                   help="relative eigenvalue cut for the effective-rank metric")

    p = sub.add_parser("sweep", help="fidelity vs measurement fraction experiment (CSV)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--fractions", required=True,
                   help="comma-separated fractions of d^4, ascending, e.g. 0.05,0.1,0.2")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--mean-total-counts", type=float, default=5e4)
    _add_state_flags(p)
    _add_solver_flags(p)
    p.add_argument("--no-correction", action="store_true",
                   help="score the raw solve only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--out", required=True, help="per-cell CSV path")
    p.add_argument("--summary", default=None,
                   help="per-fraction aggregate CSV (default <out>.summary.csv)")

    p = sub.add_parser("metrics", help="score a stored density matrix")
    p.add_argument("matrix", help="report JSON (rho entry) or bare [[re,im]] matrix JSON")
    p.add_argument("--measurements", default=None,
                   help="measurement-set JSON for the residual (and its truth as target)")
    p.add_argument("--target", choices=("max-entangled", "downconversion"), default=None,
                   help="fidelity target built at the matrix dimension")
    p.add_argument("--spiral-width", type=float, default=2.5)
    p.add_argument("--rank-tol", type=float, default=1e-3)

    return top


def _cmd_simulate(args) -> int:
    if args.measurements < 1:
        print("error: --measurements must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    state = _make_state(args.state, args.d, args.spiral_width)
    ms = simulate_measurements(
        args.d,
        args.measurements,
        state=state,
        seed=args.seed,
        mean_total_counts=args.mean_total_counts if args.noise == "poisson" else None,
    )
    save_measurement_set(ms, args.out, strip_truth=args.strip_truth)
    print(f"wrote {args.out}: d={ms.d}, {len(ms)} measurements, seed={ms.seed}")
    return EXIT_OK


class _DiagnosticsWriter:
    """Streams per-iteration rows; the corrected full solve restarts the
    iteration counter, which flips the phase label."""

    def __init__(self, fh):
        self.fh = fh
        self.last_k = 0
        self.phase = "raw"
        fh.write("phase,iteration,step,step_tol\n")

    def __call__(self, k, step, tol):
        if k <= self.last_k:
            self.phase = "corrected"
        self.last_k = k
        self.fh.write(f"{self.phase},{k},{format_float(step)},{format_float(tol)}\n")
        self.fh.flush()


def _cmd_reconstruct(args) -> int:
    check_rank_tol(args.rank_tol)  # before the solves, which it would outlast
    ms = load_measurement_set(args.input)
    cfg = _solver_config(args)

    diag_fh = None
    on_iteration = None
    if args.diagnostics:
        diag_fh = open(args.diagnostics, "w", encoding="utf-8")
        on_iteration = _DiagnosticsWriter(diag_fh)

    try:
        if args.no_correction:
            report = reconstruct(ms, cfg, on_iteration=on_iteration)
        else:
            corr_cfg = NoiseCorrectionConfig(n_subsets=args.subsets, base=cfg)
            report = reconstruct_corrected(ms, corr_cfg, on_iteration=on_iteration)
    finally:
        if diag_fh is not None:
            diag_fh.close()

    metrics = summarize(
        report.rho, measurements=ms, target=ms.truth, rank_rel_tol=args.rank_tol
    )
    raw_metrics = None
    if report.correction is not None and report.correction.raw_report is not None:
        raw_metrics = summarize(
            report.correction.raw_report.rho,
            measurements=ms,
            target=ms.truth,
            rank_rel_tol=args.rank_tol,
        )
    save_report(
        report_to_dict(report, d=ms.d, metrics=metrics, raw_metrics=raw_metrics),
        args.out,
    )
    fid = "n/a" if metrics.fidelity is None else f"{metrics.fidelity:.6f}"
    print(
        f"wrote {args.out}: converged={report.converged} "
        f"iterations={report.iterations} fidelity={fid}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _write_csv(path: str, columns: tuple[str, ...], records: list[dict]) -> None:
    """One line per record, its ``columns`` in order; floats at full precision."""

    def cell(x) -> str:
        return format_float(x) if isinstance(x, float) else str(x)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(cell(rec[c]) for c in columns) + "\n")


def _cmd_sweep(args) -> int:
    fractions = [float(tok) for tok in args.fractions.split(",") if tok.strip()]
    spec = SweepSpec(
        d=args.d,
        fractions=fractions,
        repeats=args.repeats,
        mean_total_counts=args.mean_total_counts,
        seed=args.seed,
        with_correction=not args.no_correction,
        state=_make_state(args.state, args.d, args.spiral_width),
        solver=_solver_config(args),
    )
    rows = run_sweep(spec, jobs=args.jobs)
    _write_csv(args.out, CSV_COLUMNS, [vars(r) for r in rows])
    summary_path = args.summary or f"{args.out}.summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summarize_sweep(rows))
    n_failed = sum(r.status != "ok" for r in rows)
    print(f"wrote {args.out} ({len(rows)} cells, {n_failed} failed) and {summary_path}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    rho = load_matrix(args.matrix)
    try:
        check_hermitian(rho)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc

    ms = None
    target = None
    if args.measurements:
        ms = load_measurement_set(args.measurements)
        target = ms.truth
    if args.target is not None:
        d = int(round(np.sqrt(rho.shape[0])))
        if d * d != rho.shape[0]:
            raise SchemaError(
                f"matrix dimension {rho.shape[0]} is not a perfect square; "
                "cannot build a two-photon target"
            )
        target = _make_state(args.target, d, args.spiral_width)
    m = summarize(rho, measurements=ms, target=target, rank_rel_tol=args.rank_tol)
    print(json.dumps(_metrics_to_dict(m), sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "reconstruct": _cmd_reconstruct,
        "sweep": _cmd_sweep,
        "metrics": _cmd_metrics,
    }
    try:
        return handlers[args.command](args)
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except DegenerateSystemError as exc:
        print(f"error: degenerate measurement system: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DegenerateIterateError as exc:
        print(f"error: degenerate iterate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InvariantViolation as exc:
        print(f"error: solver invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except WorkerPoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
