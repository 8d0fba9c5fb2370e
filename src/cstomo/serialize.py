"""File formats: measurement-set JSON, report JSON, and CSV helpers.

Complex numbers serialize as two-element arrays [re, im] of doubles
everywhere; a complex array is written as one nested list of such pairs, in
the array's own shape. Writers are deterministic (sorted keys, fixed
separators, no timestamps) so identical inputs produce byte-identical files;
floats use Python's shortest round-trip repr in JSON and 17-significant-digit
scientific notation in CSV.

Every complex array a file holds (projectors, truth coefficients, a stored
matrix) is read by ``_cvecs``: one scan per nesting level, then one bulk
conversion of all its numbers, flattened. Only when a scan fails is its
first offence looked up, so that the error can name it. A file's format is
checked before its values, which ``MeasurementSet`` and ``TwoPhotonState``
check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable

import numpy as np

from .errors import SchemaError
from .metrics import MetricsSummary
from .simulate import MeasurementSet, TwoPhotonState, check_count
from .solver import ReconstructionReport

__all__ = [
    "save_measurement_set",
    "load_measurement_set",
    "measurement_set_to_dict",
    "measurement_set_from_dict",
    "report_to_dict",
    "save_report",
    "load_matrix",
    "dump_json",
    "format_float",
]


def format_float(x: float) -> str:
    """Full-precision scientific notation (17 significant digits)."""
    return f"{float(x):.16e}"


def _to_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] Python floats."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _all_of(items: Iterable, kinds) -> bool:
    """Every item is an instance of ``kinds`` and not a bool, decided once per
    distinct type rather than once per item."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, items)))


def _cvecs(vectors: list, d: int, name: Callable[[int], str]) -> np.ndarray:
    """Convert n lists of d [re, im] pairs into an (n, d) complex array: one
    type and length scan per nesting level, then one ``np.fromiter`` over all
    the numbers, flattened, then one finiteness check. When a scan fails,
    the SchemaError names its first offence, vector k as ``name(k)``."""
    if not _all_of(vectors, list):
        k = next(k for k, v in enumerate(vectors) if not isinstance(v, list))
        raise SchemaError(f"{name(k)}: expected a list of [re, im] pairs")
    if set(map(len, vectors)) - {d}:
        k = next(k for k, v in enumerate(vectors) if len(v) != d)
        raise SchemaError(f"{name(k)}: expected length {d}, got {len(vectors[k])}")
    pairs = list(chain.from_iterable(vectors))
    if not (_all_of(pairs, list) and set(map(len, pairs)) <= {2}
            and _all_of(chain.from_iterable(pairs), (int, float))):
        p = next(p for p, pair in enumerate(pairs) if not (
            isinstance(pair, list) and len(pair) == 2 and _all_of(pair, (int, float))))
        raise SchemaError(f"{name(p // d)}[{p % d}]: expected a [re, im] pair of numbers")
    try:
        parts = np.fromiter(chain.from_iterable(pairs), dtype=float, count=2 * len(pairs))
    except OverflowError as exc:  # an int beyond double range
        for p, pair in enumerate(pairs):
            try:
                complex(*pair)
            except OverflowError:
                raise SchemaError(f"{name(p // d)}[{p % d}]: {exc}") from exc
    if not np.isfinite(parts).all():
        k = np.flatnonzero(~np.isfinite(parts))[0] // (2 * d)
        raise SchemaError(f"{name(k)}: non-finite value")
    return parts.view(complex).reshape(len(vectors), d)


def _number_array(values: list, dtype, what: str) -> np.ndarray:
    """A list of JSON numbers as one array of ``dtype``; a SchemaError that
    names the list ``what`` if an entry is beyond the type's range."""
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError as exc:
        raise SchemaError(f"measurement set: {what}: {exc}") from exc


def dump_json(obj: Any, path: str) -> None:
    """Serialize deterministically and write atomically (temp file + rename);
    a failed open names ``path``; a failed write or rename removes the temp file."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def measurement_set_to_dict(ms: MeasurementSet) -> dict:
    doc: dict[str, Any] = {
        "d": int(ms.d),
        "projectors": [
            {"signal": sig, "idler": idl}
            for sig, idl in zip(_to_pairs(ms.signal), _to_pairs(ms.idler))
        ],
        "probs": ms.probs.tolist(),
    }
    if ms.seed is not None:
        doc["seed"] = ms.seed
    if ms.calibration is not None:
        doc["calibration"] = float(ms.calibration)
    if ms.counts is not None:
        doc["counts"] = ms.counts.tolist()
    if ms.truth is not None:
        doc["truth"] = {"coeffs": _to_pairs(ms.truth.coeffs)}
    return doc


def _parse_projectors(raw_projs: list, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (M, d) signal and idler arrays of every projector, read by one
    ``_cvecs`` call over their vectors in file order."""
    try:
        vectors = list(chain.from_iterable(map(itemgetter("signal", "idler"), raw_projs)))
    except (KeyError, TypeError):  # an entry that is not an object with both keys
        i = next(i for i, entry in enumerate(raw_projs) if not (
            isinstance(entry, dict) and "signal" in entry and "idler" in entry))
        raise SchemaError(
            f"projectors[{i}]: expected an object with 'signal' and 'idler'") from None
    amps = _cvecs(vectors, d, lambda k: f"projectors[{k // 2}].{('signal', 'idler')[k % 2]}")
    amps = amps.reshape(len(raw_projs), 2, d)
    return amps[:, 0].copy(), amps[:, 1].copy()


def measurement_set_from_dict(doc: Any) -> MeasurementSet:
    if not isinstance(doc, dict):
        raise SchemaError("measurement set: expected a JSON object")
    for key in ("d", "projectors", "probs"):
        if key not in doc:
            raise SchemaError(f"measurement set: missing required key '{key}'")
    try:
        d = check_count(doc["d"], "d")
    except ValueError:
        raise SchemaError("measurement set: 'd' must be a positive integer") from None
    raw_projs = doc["projectors"]
    raw_probs = doc["probs"]
    if not isinstance(raw_projs, list) or not isinstance(raw_probs, list):
        raise SchemaError("measurement set: 'projectors' and 'probs' must be lists")
    if len(raw_projs) != len(raw_probs):
        raise SchemaError(
            f"measurement set: {len(raw_projs)} projectors but {len(raw_probs)} probs"
        )
    if not _all_of(raw_probs, (int, float)):
        raise SchemaError("measurement set: probs must be numbers")

    try:
        signal, idler = _parse_projectors(raw_projs, d)
        counts = doc.get("counts")
        if counts is not None:
            if not isinstance(counts, list) or not _all_of(counts, int):
                raise SchemaError("measurement set: counts must be a list of integers")
        calibration = doc.get("calibration")
        if calibration is not None and not _all_of([calibration], (int, float)):
            raise SchemaError("measurement set: calibration must be a number")
        truth = doc.get("truth")
        if truth is not None:
            if not isinstance(truth, dict) or "coeffs" not in truth:
                raise SchemaError("measurement set: truth must be an object with 'coeffs'")
            truth = TwoPhotonState(_cvecs([truth["coeffs"]], d, lambda k: "truth.coeffs")[0])
        return MeasurementSet(
            d=d,
            signal=signal,
            idler=idler,
            probs=_number_array(raw_probs, float, "probs"),
            counts=None if counts is None else _number_array(counts, np.int64, "counts"),
            seed=doc.get("seed"),
            calibration=calibration,
            truth=truth,
        )
    except SchemaError:
        raise
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"measurement set: {exc}") from exc


def save_measurement_set(ms: MeasurementSet, path: str) -> None:
    dump_json(measurement_set_to_dict(ms), path)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:  # the decoder recurses once per level
            raise SchemaError(f"{path}: not valid JSON (nested too deeply)") from exc


def load_measurement_set(path: str) -> MeasurementSet:
    return measurement_set_from_dict(_load_json(path))


def _metrics_to_dict(metrics: MetricsSummary) -> dict:
    """The summary's fields, less those that are None."""
    return {k: v for k, v in dataclasses.asdict(metrics).items() if v is not None}


def report_to_dict(
    report: ReconstructionReport,
    *,
    metrics: MetricsSummary | None = None,
    raw_metrics: MetricsSummary | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "d": math.isqrt(len(report.rho)),  # ρ is D×D, D = d²
        "rho": _to_pairs(report.rho),
        "rho_pre_gamma": _to_pairs(report.rho_pre_gamma),
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "final_step": float(report.final_step),
        "final_step_tol": float(report.final_step_tol),
        "n_dropped_rows": int(report.n_dropped_rows),
        "per_iteration_steps": [float(s) for s in report.per_iteration_steps],
        "per_iteration_residuals": [float(r) for r in report.per_iteration_residuals],
    }
    if metrics is not None:
        doc["metrics"] = _metrics_to_dict(metrics)
    corr = report.correction
    if corr is not None:
        cdoc: dict[str, Any] = {
            "applied": bool(corr.applied),
            "n_subsets": int(corr.n_subsets),
            "subset_sizes": [int(s) for s in corr.subset_sizes],
            "subset_converged": [bool(b) for b in corr.subset_converged],
            "subset_delta_norms": [float(x) for x in corr.subset_delta_norms],
            "delta_norm": float(corr.delta_norm),
            "n_clamped": int(corr.n_clamped),
        }
        if corr.reason:
            cdoc["reason"] = corr.reason
        if corr.raw_report is not None:
            cdoc["raw"] = {
                "rho": _to_pairs(corr.raw_report.rho),
                "converged": bool(corr.raw_report.converged),
                "iterations": int(corr.raw_report.iterations),
                "final_step": float(corr.raw_report.final_step),
            }
            if raw_metrics is not None:
                cdoc["raw"]["metrics"] = _metrics_to_dict(raw_metrics)
        doc["correction"] = cdoc
    return doc


def save_report(report_doc: dict, path: str) -> None:
    dump_json(report_doc, path)


def _parse_cmat(rows: Any, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{what}: expected a non-empty list of rows")
    return _cvecs(rows, len(rows), lambda k: f"{what}[{k}]")


def load_matrix(path: str) -> np.ndarray:
    """Load a complex square matrix from either a report JSON (its 'rho'
    entry) or a bare nested [[re,im]] array file."""
    doc = _load_json(path)
    if isinstance(doc, dict):
        if "rho" not in doc:
            raise SchemaError(f"{path}: object has no 'rho' entry")
        return _parse_cmat(doc["rho"], "rho")
    return _parse_cmat(doc, "matrix")
