"""Batch command-line front end.

Four subcommands cover the whole pipeline: ``simulate`` writes a measurement
campaign to JSON, ``reconstruct`` recovers a density matrix from one,
``sweep`` runs the fidelity-vs-measurement-fraction experiment into CSV, and
``metrics`` scores a stored matrix. Exit codes: 0 success/converged,
1 input or I/O error, or an array too large for memory, 2 a usage error
(an unknown command or flag, a bad flag value, or a flag that the other
flags make moot, reported by argparse),
3 non-convergence, 4 degenerate measurement system, 5 a solver invariant
violated (a bug, not bad input), 6 a ``sweep --jobs N`` worker process died
or could not be started (for example killed when memory ran out).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import sys

import numpy as np

from . import __version__
from .correction import reconstruct_corrected
from .errors import (
    DegenerateIterateError,
    DegenerateSystemError,
    InvariantViolation,
    SchemaError,
    WorkerPoolError,
)
from .experiments import SweepSpec, run_sweep, summarize_sweep
from .metrics import summarize
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
    total_power,
)
from .solver import ReconstructionConfig, reconstruct

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 3
EXIT_DEGENERATE = 4
EXIT_INVARIANT = 5
EXIT_WORKER = 6

# width of the simulated downconversion spectrum, in mode index
SPIRAL_WIDTH = 2.5

# the largest entrywise |m - m†| that ``metrics`` accepts in a stored matrix
_HERMITIAN_TOL = 1e-12

# how far a stored matrix's trace may stray from 1, and its least eigenvalue
# below 0, for ``metrics`` to score it: a reconstruction is PSD and of trace 1
# up to rounding of order D·ε (about 6e-14 at d = 17), which its file's
# shortest-repr floats keep; 1e-9 is the solver's own invariant tolerance
_DENSITY_TOL = 1e-9

# the subsets when --subsets is left out (it defaults to None, so that
# --no-correction can refuse it): reconstruct_corrected's own default
_SUBSETS_DEFAULT = inspect.signature(reconstruct_corrected).parameters["n_subsets"].default


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, default=ReconstructionConfig.tau,
                   help="eigenvalue threshold, a fraction of the largest eigenvalue "
                        "(default %(default)s)")
    p.add_argument("--tau-ell", type=float, default=ReconstructionConfig.tau_ell,
                   help="entrywise threshold, a fraction of the largest entry modulus "
                        "(default %(default)s)")
    p.add_argument("--step-tol", type=float, default=ReconstructionConfig.step_tol_rel,
                   help="relative step tolerance for convergence (default %(default)s)")
    p.add_argument("--k-max", type=int, default=ReconstructionConfig.k_max,
                   help="iteration cap (default %(default)s)")


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
    p.add_argument("--spiral-width", type=float, default=None,
                   help="width of the downconversion spectrum in mode index "
                        f"(only with --state downconversion; default {SPIRAL_WIDTH})")


def _make_state(name: str, d: int, spiral_width: float | None):
    if name == "downconversion":
        return make_downconversion_state(
            d, SPIRAL_WIDTH if spiral_width is None else spiral_width)
    return make_max_entangled(d)


def _moot_flag(args) -> str | None:
    """The usage error for a flag that the command's other flags would make
    it drop, or None. Such flags default to None, so that a flag given is
    told apart from one left out."""
    width = getattr(args, "spiral_width", None)
    if args.command in ("simulate", "sweep") and width is not None \
            and args.state != "downconversion":
        return "argument --spiral-width: only with --state downconversion"
    if args.command == "metrics" and width is not None and args.target != "downconversion":
        return "argument --spiral-width: only with --target downconversion"
    if args.command == "reconstruct" and args.no_correction and args.subsets is not None:
        return "argument --subsets: not allowed with --no-correction"
    return None


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
    p.add_argument("--mean-total-counts", type=float, default=None,
                   help="calibration constant, the mean counts at p=1: Poisson "
                        "counts normalized by it replace the probabilities "
                        "(default: none, a noiseless campaign)")
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
    p.add_argument("--subsets", type=int, default=None,
                   help=f"correction subsets (default {_SUBSETS_DEFAULT}: "
                        "the raw solve's own structural gap; N >= 2 sums the gaps of "
                        "N disjoint subsets, solved after it)")
    p.add_argument("--diagnostics", default=None,
                   help="stream per-iteration diagnostics to this CSV path")

    p = sub.add_parser("sweep", help="fidelity vs measurement fraction experiment (CSV)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--fractions", required=True,
                   help="comma-separated fractions of d^4, ascending, e.g. 0.05,0.1,0.2")
    p.add_argument("--repeats", type=int, default=SweepSpec.repeats,
                   help="campaigns per fraction (default %(default)s)")
    p.add_argument("--mean-total-counts", type=float, default=SweepSpec.mean_total_counts,
                   help="calibration constant of every campaign, the mean counts at "
                        "p=1 (default %(default)s)")
    _add_state_flags(p)
    _add_solver_flags(p)
    p.add_argument("--no-correction", action="store_true",
                   help="score the raw solve only")
    p.add_argument("--seed", type=int, default=SweepSpec.seed,
                   help="base seed of the cells' campaigns (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes, at most the usable CPUs over the BLAS threads")
    p.add_argument("--out", required=True, help="per-cell CSV path")
    p.add_argument("--summary", default=None,
                   help="per-fraction aggregate CSV (default <out>.summary.csv)")

    p = sub.add_parser("metrics", help="score a stored density matrix")
    p.add_argument("matrix", help="report JSON (rho entry) or bare [[re,im]] matrix JSON")
    p.add_argument("--measurements", default=None,
                   help="measurement-set JSON for the residual (and its truth as target)")
    p.add_argument("--target", choices=("max-entangled", "downconversion"), default=None,
                   help="fidelity target built at the matrix dimension")
    p.add_argument("--spiral-width", type=float, default=None,
                   help="width of the downconversion target's spectrum "
                        f"(only with --target downconversion; default {SPIRAL_WIDTH})")

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
        mean_total_counts=args.mean_total_counts,
    )
    save_measurement_set(dataclasses.replace(ms, truth=None) if args.strip_truth else ms, args.out)
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
            n_subsets = _SUBSETS_DEFAULT if args.subsets is None else args.subsets
            report = reconstruct_corrected(ms, cfg, n_subsets=n_subsets,
                                           on_iteration=on_iteration)
    finally:
        if diag_fh is not None:
            diag_fh.close()

    metrics = summarize(report.rho, measurements=ms, target=ms.truth)
    raw_metrics = None
    if report.correction is not None and report.correction.applied:
        raw_metrics = summarize(
            report.correction.raw_report.rho, measurements=ms, target=ms.truth
        )
    save_report(report_to_dict(report, metrics=metrics, raw_metrics=raw_metrics), args.out)
    fid = "n/a" if metrics.fidelity is None else f"{metrics.fidelity:.6f}"
    print(
        f"wrote {args.out}: converged={report.converged} "
        f"iterations={report.iterations} fidelity={fid}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _write_csv(path: str, records: list[dict]) -> None:
    """A header of the first record's keys, then one line per record, its
    values in that order; floats at full precision. A cell that holds a comma
    or a quote, such as a failed cell's status, is quoted. ``records`` is
    never empty: ``SweepSpec`` rejects empty ``fractions`` and ``repeats``
    below 1."""

    def cell(x) -> str:
        return format_float(x) if isinstance(x, float) else str(x)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(records[0].keys())
        for rec in records:
            out.writerow([cell(x) for x in rec.values()])


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
    _write_csv(args.out, [vars(r) for r in rows])
    summary_path = args.summary or f"{args.out}.summary.csv"
    _write_csv(summary_path, summarize_sweep(rows))
    n_failed = sum(r.status != "ok" for r in rows)
    print(f"wrote {args.out} ({len(rows)} cells, {n_failed} failed) and {summary_path}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    rho = load_matrix(args.matrix)
    # every entry of m ± m†, every eigenvalue and every score is bounded by
    # Σ|m|² or its root, so a finite Σ|m|² keeps them finite, without overflow
    power = float(total_power(rho.ravel()))
    if not np.isfinite(power):
        raise SchemaError(f"{args.matrix}: matrix too large to score: sum |m|^2 = {power!r}")
    err = float(np.abs(rho - rho.conj().T).max())
    if err > _HERMITIAN_TOL:
        raise SchemaError(
            f"matrix is not Hermitian: max |m - m†| = {err:.3e} > {_HERMITIAN_TOL:.1e}"
        )
    eigs = np.linalg.eigvalsh(rho)  # their sum is the trace
    trace, least = float(eigs.sum()), float(eigs[0])
    if not abs(trace - 1.0) <= _DENSITY_TOL:
        raise SchemaError(f"{args.matrix}: not a density matrix: trace = {trace!r}, "
                          f"expected 1 within {_DENSITY_TOL:.1e}")
    if least < -_DENSITY_TOL:
        raise SchemaError(f"{args.matrix}: not a density matrix: least eigenvalue = "
                          f"{least!r} < -{_DENSITY_TOL:.1e}")

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
    m = summarize(rho, measurements=ms, target=target)
    print(json.dumps(_metrics_to_dict(m), sort_keys=True, allow_nan=False))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    moot = _moot_flag(args)
    if moot is not None:
        parser.error(moot)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
