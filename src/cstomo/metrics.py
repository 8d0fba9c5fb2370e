"""Quality measures for recovered density matrices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .simulate import (
    MeasurementSet,
    TwoPhotonState,
    expectations,
    joint_state_vector,
    joint_vectors,
)

__all__ = [
    "MetricsSummary",
    "fidelity_pure",
    "purity",
    "effective_rank",
    "residual",
    "summarize",
]

# effective_rank's cut, a fraction of the largest eigenvalue
RANK_REL_TOL = 1e-3


@dataclass
class MetricsSummary:
    fidelity: float | None
    purity: float
    effective_rank: int
    residual_inf: float | None


def fidelity_pure(rho: np.ndarray, target: TwoPhotonState) -> float:
    """Fidelity of a state with a pure target: sqrt(⟨Φ|ρ|Φ⟩).

    For a pure target the general mixed-state fidelity reduces exactly to
    this closed form, so no matrix square roots are needed. The input is
    symmetrized; matrices with eigenvalues below -1e-6 are rejected, and tiny
    negative quadratic forms are clamped to zero (warning beyond -1e-9).
    """
    rho = np.asarray(rho)
    h = (rho + rho.conj().T) / 2
    phi = joint_state_vector(target)
    if h.shape != (phi.size, phi.size):
        raise ValueError(f"matrix shape {h.shape} does not match D={phi.size}")
    eig_min = float(np.linalg.eigvalsh(h)[0])
    if eig_min < -1e-6:
        raise ValueError(
            f"matrix is significantly non-PSD (min eigenvalue {eig_min:.3e})"
        )
    q = float(np.vdot(phi, h @ phi).real)
    if q < 0.0:
        if q < -1e-9:
            warnings.warn(f"fidelity quadratic form clamped from {q:.3e} to 0")
        q = 0.0
    f = float(np.sqrt(q))
    if f > 1.0:
        if f > 1.0 + 1e-9:
            warnings.warn(f"fidelity clamped from {f!r} to 1")
        f = 1.0
    return f


def purity(rho: np.ndarray) -> float:
    """Tr(ρ²): 1 for pure states, 1/D for the maximally mixed state."""
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real)


def effective_rank(rho: np.ndarray) -> int:
    """Number of eigenvalues at or above RANK_REL_TOL × (largest eigenvalue)."""
    rho = np.asarray(rho)
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    lam_max = float(w[-1])
    if lam_max <= 0.0:
        return 0
    return int(np.count_nonzero(w >= RANK_REL_TOL * lam_max))


def residual(ms: MeasurementSet, rho: np.ndarray) -> float:
    """Worst constraint violation: max over i of |Tr[Â_i ρ] − p_i|."""
    t = expectations(joint_vectors(ms.signal, ms.idler), rho)
    return float(np.abs(t - ms.probs).max(initial=0.0))


def summarize(
    rho: np.ndarray,
    *,
    measurements: MeasurementSet | None = None,
    target: TwoPhotonState | None = None,
) -> MetricsSummary:
    """Bundle the standard metrics; fidelity and residual are only computed
    when a target state / measurement set is available."""
    return MetricsSummary(
        fidelity=None if target is None else fidelity_pure(rho, target),
        purity=purity(rho),
        effective_rank=effective_rank(rho),
        residual_inf=None if measurements is None else residual(measurements, rho),
    )
