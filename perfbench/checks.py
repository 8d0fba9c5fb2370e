"""Output checks applied to every op of a benchmark run.

A reconstruction report passes when

* ``rho`` is Hermitian, positive semidefinite and has trace 1, each within
  ``STATE_TOL``; so is the raw solve's ``rho`` a corrected report carries;
* ``rho_pre_gamma`` meets the original measurement constraints, measured by
  ``cstomo.metrics.residual`` against the campaign as written. A raw solve
  must meet them within ``RAW_RESIDUAL_TOL``. A corrected solve meets the
  corrected probabilities instead, which differ from the measured ones by
  Re Tr[A_i Delta] for the displacement estimate Delta; since every
  projector has unit trace and rank 1, that shift is at most ||Delta||_F,
  the ``delta_norm`` the report carries, so the bound is
  ``delta_norm + RAW_RESIDUAL_TOL``. The report does not carry Delta, so
  this bound is loose: at d=7 ``delta_norm`` is a few times the residual a
  correct corrected solve leaves. It rejects a ``rho_pre_gamma`` that is
  far off the constraints (the maximally mixed state, say), not a small
  shift;
* its fidelity agrees with ``cstomo.metrics.fidelity_pure`` recomputed from
  ``rho`` and the campaign's truth state.

A sweep cell passes when its status is ``ok`` and its final fidelity (the
corrected one when correction was applied, else the raw one) lies in [0, 1].
"""

from __future__ import annotations

import json
import math

import numpy as np

from cstomo.metrics import fidelity_pure, residual

STATE_TOL = 1e-9
RAW_RESIDUAL_TOL = 1e-8
FIDELITY_TOL = 1e-9


def _cmat(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _state_problems(what: str, m: np.ndarray) -> list[str]:
    """Hermitian, PSD and trace-1 checks of one density matrix."""
    problems = []
    herm = float(np.abs(m - m.conj().T).max())
    if herm > STATE_TOL:
        problems.append(f"{what} not Hermitian: max |{what} - {what}^H| = {herm:.3e}")
    eig_min = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if eig_min < -STATE_TOL:
        problems.append(f"{what} not PSD: min eigenvalue {eig_min:.3e}")
    tr_err = abs(complex(np.trace(m)) - 1.0)
    if tr_err > STATE_TOL:
        problems.append(f"{what} trace off by {tr_err:.3e}")
    return problems


def constraint_residual(doc: dict, ms) -> tuple[float, float]:
    """``rho_pre_gamma``'s residual against the campaign, and its bound."""
    corr = doc.get("correction") or {}
    tol = RAW_RESIDUAL_TOL
    if corr.get("applied"):
        tol += float(corr.get("delta_norm", 0.0))
    return residual(ms, _cmat(doc["rho_pre_gamma"])), tol


def check_report(doc: dict, ms) -> list[str]:
    """Problems found in one report document (empty when it passes)."""
    try:
        rho = _cmat(doc["rho"])
        pre = _cmat(doc["rho_pre_gamma"])
        corr = doc.get("correction") or {}
        raw = _cmat(corr["raw"]["rho"]) if "raw" in corr else None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report has no readable rho/rho_pre_gamma ({exc})"]
    dim = ms.d**2
    shapes = [m.shape for m in (rho, pre, raw) if m is not None]
    if any(shape != (dim, dim) for shape in shapes):
        return [f"matrix shapes {shapes}, expected {(dim, dim)}"]
    if not all(np.isfinite(m).all() for m in (rho, pre, raw) if m is not None):
        return ["non-finite matrix entries"]

    problems = _state_problems("rho", rho)
    if raw is not None:
        problems += _state_problems("raw rho", raw)
    res, tol = constraint_residual(doc, ms)
    if not res <= tol:
        problems.append(
            f"rho_pre_gamma misses the measurement constraints: residual {res:.3e} > {tol:.3e}"
        )

    fid = (doc.get("metrics") or {}).get("fidelity")
    if ms.truth is not None:
        if not isinstance(fid, (int, float)) or not 0.0 <= fid <= 1.0:
            problems.append(f"report fidelity {fid!r} is not in [0, 1]")
        elif not problems:
            ref = fidelity_pure(rho, ms.truth)
            if abs(ref - fid) > FIDELITY_TOL:
                problems.append(f"report fidelity {fid!r} but rho gives {ref!r}")
    return problems


def check_report_file(path: str, ms) -> tuple[list[str], dict | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot read report {path}: {exc}"], None
    return check_report(doc, ms), doc


def sweep_cell_fidelity(row) -> float:
    """The cell's final fidelity: corrected when correction was applied."""
    return row.fidelity_raw if math.isnan(row.fidelity_corrected) else row.fidelity_corrected


def check_sweep_row(row) -> list[str]:
    if row.status != "ok":
        return [f"cell {row.fraction}/{row.repeat}: status {row.status!r}"]
    fid = sweep_cell_fidelity(row)
    if not 0.0 <= fid <= 1.0:
        return [f"cell {row.fraction}/{row.repeat}: fidelity {fid!r} not in [0, 1]"]
    return []
