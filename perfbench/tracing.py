"""Spans for the traced run and the per-layer metrics computed from them.

The benchmark installs a wrapper on each module attribute a caller looks up
(``cstomo.solver.kaczmarz_sweep``, ``cstomo.correction.reconstruct``, ...).
Nothing under ``src/`` is edited: each wrapper records one span (name, start,
end, parent) around the original call and returns its result unchanged.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children; the calls are sequential, so
the children never overlap. Summed over a whole op the self times add up to
the op's traced wall time.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from collections import defaultdict

import cstomo.cli
import cstomo.correction
import cstomo.experiments
import cstomo.metrics
import cstomo.solver

LAYERS = ("cli", "serialize", "solver", "linalg", "correction", "metrics",
          "simulate", "experiments")


def _orthogonalize_attrs(args, kwargs, result):
    m, n = args[0].shape
    # classical Gram-Schmidt with one reorthogonalization: two passes of
    # (coef = Q v, v -= coef Q) per row, 8 real flops per complex multiply-add,
    # counted as if no row were dropped
    return {"rows": m, "dropped": result.n_dropped, "flop": 16.0 * n * m * (m - 1)}


def _sweep_attrs(args, kwargs, result):
    return {"bytes": args[1].rows.nbytes}


def _reconstruct_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _corrected_attrs(args, kwargs, result):
    corr = result.correction
    return {"applied": bool(corr is not None and corr.applied)}


def _estimate_attrs(args, kwargs, result):
    return {"subsets": len(result.subset_converged),
            "subsets_ok": sum(result.subset_converged)}


def _correct_probs_attrs(args, kwargs, result):
    return {"clamped": result[1]}


def _load_attrs(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _save_attrs(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[1])}


def _simulate_attrs(args, kwargs, result):
    return {"measurements": len(result)}


def _cell_attrs(args, kwargs, result):
    return {"failed": result.status != "ok"}


# (module, attribute, span name, attribute hook); the span name's prefix is
# the layer the call belongs to, whichever module looks it up
WRAPPED = (
    (cstomo.cli, "load_measurement_set", "serialize.load", _load_attrs),
    (cstomo.cli, "report_to_dict", "serialize.report_to_dict", None),
    (cstomo.cli, "save_report", "serialize.save", _save_attrs),
    (cstomo.cli, "summarize", "metrics.summarize", None),
    (cstomo.cli, "reconstruct", "solver.reconstruct", _reconstruct_attrs),
    (cstomo.cli, "reconstruct_corrected", "correction.reconstruct_corrected", _corrected_attrs),
    (cstomo.correction, "reconstruct", "solver.reconstruct", _reconstruct_attrs),
    (cstomo.correction, "partition", "correction.partition", None),
    (cstomo.correction, "estimate_delta_rho", "correction.estimate", _estimate_attrs),
    (cstomo.correction, "correct_probabilities", "correction.correct_probabilities",
     _correct_probs_attrs),
    (cstomo.solver, "measurement_rows", "solver.measurement_rows", None),
    (cstomo.solver, "orthogonalize", "solver.orthogonalize", _orthogonalize_attrs),
    (cstomo.solver, "enforce_structure", "solver.enforce_structure", None),
    (cstomo.solver, "kaczmarz_sweep", "solver.kaczmarz_sweep", _sweep_attrs),
    (cstomo.solver, "eig_hermitian", "linalg.eigh", None),
    (cstomo.metrics, "residual", "metrics.residual", None),
    (cstomo.metrics, "fidelity_pure", "metrics.fidelity", None),
    (cstomo.experiments, "run_sweep_cell", "experiments.run_sweep_cell", _cell_attrs),
    (cstomo.experiments, "simulate_measurements", "simulate.simulate_measurements",
     _simulate_attrs),
    (cstomo.experiments, "make_max_entangled", "simulate.make_max_entangled", None),
    (cstomo.experiments, "reconstruct_corrected", "correction.reconstruct_corrected",
     _corrected_attrs),
    (cstomo.experiments, "reconstruct", "solver.reconstruct", _reconstruct_attrs),
    (cstomo.experiments, "fidelity_pure", "metrics.fidelity", None),
)


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op, attrs];
    ``op`` is the index of the root span (one per op) the span belongs to."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ops = 0
        self._restore: list[tuple] = []

    def span(self, name, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._ops
            self._ops += 1
        else:
            op = self.spans[parent][4]
        rec = [name, 0.0, 0.0, parent, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            rec[5] = hook(args, kwargs, result)
        return result

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name, hook in WRAPPED:
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn, hook))

    def uninstall(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _per_op(spans):
    """Aggregate spans into one dict of sums per op index."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    ops = defaultdict(lambda: defaultdict(float))
    corrected_solves = defaultdict(int)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        acc = ops[op]
        dur = end - start
        self_s = dur - child_time[i]
        acc["layer." + name.split(".", 1)[0]] += self_s
        acc["time." + name] += dur
        acc["calls." + name] += 1
        attrs = attrs or {}
        for key, value in attrs.items():
            acc[f"{name}.{key}"] += float(value)
        if parent is None:
            acc["op_s"] += dur
        if name == "solver.reconstruct":
            acc["solver.loop_self_s"] += self_s
            pname = spans[parent][0] if parent is not None else ""
            if pname == "correction.estimate":
                acc["subset.solves"] += 1
                acc["subset.iterations"] += attrs.get("iterations", 0)
            elif pname == "correction.reconstruct_corrected":
                role = "raw" if corrected_solves[parent] == 0 else "final"
                corrected_solves[parent] += 1
                acc[f"correction.{role}_solve_s"] += dur
    return ops


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, first_pass_ops: int, latencies: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics (per op) and the self-time table.

    Times are means over every traced op; counts and ratios are taken over
    the first ``first_pass_ops`` ops, the fixed pass every run completes, so
    they repeat exactly for one seed. ``latencies`` are the traced ops' wall
    times as the benchmark loop took them; the layer self times are checked
    against their sum.
    """
    ops = _per_op(spans)
    all_ops = sorted(ops)
    first = [o for o in all_ops if o < first_pass_ops]

    def t(key):  # mean seconds per op over all ops
        return sum(ops[o][key] for o in all_ops) / len(all_ops)

    def c(key):  # mean count per op over the first pass
        return sum(ops[o][key] for o in first) / len(first)

    m = {}
    m["solver.orthogonalize_s"] = t("time.solver.orthogonalize")
    m["solver.orthogonalize_calls"] = c("calls.solver.orthogonalize")
    m["solver.orthogonalize_rows"] = c("solver.orthogonalize.rows")
    m["solver.rows_dropped"] = c("solver.orthogonalize.dropped")
    m["solver.orthogonalize_gflop_computed"] = c("solver.orthogonalize.flop") / 1e9
    m["solver.rows_build_s"] = t("time.solver.measurement_rows")
    m["solver.solves"] = c("calls.solver.reconstruct")
    m["solver.iterations"] = c("solver.reconstruct.iterations")
    m["solver.converged_ratio"] = _ratio(c("solver.reconstruct.converged"), m["solver.solves"])
    m["solver.sweep_s"] = t("time.solver.kaczmarz_sweep")
    m["solver.sweep_calls"] = c("calls.solver.kaczmarz_sweep")
    m["solver.loop_self_s"] = t("solver.loop_self_s")
    m["solver.sweep_bytes_computed"] = c("solver.kaczmarz_sweep.bytes")
    m["solver.sweep_gbps_computed"] = _ratio(t("solver.kaczmarz_sweep.bytes"), m["solver.sweep_s"]) / 1e9
    m["solver.structure_s"] = t("time.solver.enforce_structure")
    m["linalg.eigh_s"] = t("time.linalg.eigh")
    m["linalg.eigh_calls"] = c("calls.linalg.eigh")
    m["correction.estimate_s"] = t("time.correction.estimate")
    m["correction.subset_solves"] = c("subset.solves")
    m["correction.subset_iterations"] = c("subset.iterations")
    m["correction.subset_converged_ratio"] = _ratio(
        c("correction.estimate.subsets_ok"), c("correction.estimate.subsets"))
    m["correction.raw_solve_s"] = t("correction.raw_solve_s")
    m["correction.final_solve_s"] = t("correction.final_solve_s")
    m["correction.correct_probabilities_s"] = t("time.correction.correct_probabilities")
    m["correction.clamped"] = c("correction.correct_probabilities.clamped")
    m["correction.applied_ratio"] = _ratio(
        c("correction.reconstruct_corrected.applied"),
        c("calls.correction.reconstruct_corrected"))
    m["metrics.summarize_s"] = t("time.metrics.summarize")
    m["metrics.residual_s"] = t("time.metrics.residual")
    m["metrics.fidelity_s"] = t("time.metrics.fidelity")
    m["serialize.load_s"] = t("time.serialize.load")
    m["serialize.save_s"] = t("time.serialize.report_to_dict") + t("time.serialize.save")
    m["serialize.bytes_read"] = c("serialize.load.bytes_read")
    m["serialize.bytes_written"] = c("serialize.save.bytes_written")
    m["simulate.s"] = (t("time.simulate.simulate_measurements")
                       + t("time.simulate.make_max_entangled"))
    m["simulate.measurements"] = c("simulate.simulate_measurements.measurements")
    # whole-pass totals: cells per op would always read 1
    m["experiments.cells"] = c("calls.experiments.run_sweep_cell") * len(first)
    m["experiments.cell_s"] = t("time.experiments.run_sweep_cell")
    m["experiments.failed_cells"] = c("experiments.run_sweep_cell.failed") * len(first)

    op_s = t("op_s")
    selfs = {layer: t("layer." + layer) for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    m["trace.op_s"] = op_s
    m["trace.op_p50_s"] = statistics.median(latencies)
    m["trace.self_sum_frac"] = _ratio(sum(selfs.values()) * len(all_ops), math.fsum(latencies))
    m["share.orthogonalize"] = _ratio(m["solver.orthogonalize_s"], op_s)
    m["share.sweep_loop"] = _ratio(m["solver.sweep_s"] + m["solver.loop_self_s"], op_s)
    m["share.estimate"] = _ratio(m["correction.estimate_s"], op_s)
    table = {"ops": len(all_ops), "first_pass_ops": len(first), "op_s": op_s,
             "op_wall_s": math.fsum(latencies) / len(latencies), "self_s": selfs,
             "row_matrix_bytes": max((span[5]["bytes"] for span in spans
                                      if span[0] == "solver.kaczmarz_sweep"), default=0)}
    return m, table


# share predictions stated before measuring: workload -> (metric, floor, text)
PREDICTIONS = {
    "raw-d7": ("share.orthogonalize", 0.5, "solver.orthogonalize >= 1/2 of op time"),
    "corrected-d7": ("share.estimate", 1 / 3, "correction.estimate_s >= 1/3 of op time"),
}


def format_table(workload: str, metrics: dict, table: dict, llc: str) -> str:
    op_s = table["op_wall_s"]
    lines = [f"per-layer self time, {workload}: {table['ops']} traced ops, "
             f"{op_s:.4f} s wall per op as the benchmark loop timed them"]
    for layer, s in sorted(table["self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {s:10.4f} s  {_ratio(s, op_s):7.2%}")
    total = sum(table["self_s"].values())
    lines.append(f"  {'sum':<12} {total:10.4f} s  {_ratio(total, op_s):7.2%} of the traced op wall time")
    lines.append(
        f"  solver.sweep_bytes_computed {metrics['solver.sweep_bytes_computed'] / 1e6:.1f} MB "
        f"per op and solver.sweep_gbps_computed {metrics['solver.sweep_gbps_computed']:.2f} GB/s "
        "are computed from array sizes, not measured traffic: the largest row matrix is "
        f"{table['row_matrix_bytes'] / 2**20:.1f} MiB against a last-level cache of {llc}")
    pred = PREDICTIONS.get(workload)
    if pred is not None:
        key, floor, text = pred
        share = metrics[key]
        verdict = "holds" if share >= floor else "is WRONG"
        lines.append(f"  prediction {text}: measured {share:.2%}, prediction {verdict}")
    return "\n".join(lines)
