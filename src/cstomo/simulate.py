"""Synthetic two-photon source and measurement apparatus.

Generates the ground truth (an entangled state over d orbital-angular-momentum
modes per photon, anti-correlated between the signal and idler arms), random
separable rank-1 projectors, ideal coincidence probabilities, and
Poisson-noisy counts. This replaces the physical downconversion/SLM/detector
chain with a statistical model; the only noise source is shot noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeVector",
    "TwoPhotonState",
    "Projector",
    "MeasurementSet",
    "ell_range",
    "make_max_entangled",
    "make_downconversion_state",
    "joint_state_vector",
    "state_to_density",
    "random_mode",
    "random_projector",
    "joint_vectors",
    "expectations",
    "simulate_counts",
    "counts_to_probs",
    "simulate_measurements",
]

_NORM_TOL = 1e-12


def _check_mode_count(d: int, require_odd: bool = False) -> int:
    d = int(d)
    if d < 1:
        raise ValueError(f"mode count d must be a positive integer, got {d}")
    if require_odd and d % 2 == 0:
        raise ValueError(f"mode count d must be odd (d = 2L+1), got {d}")
    return d


def ell_range(d: int) -> np.ndarray:
    """Mode indices ℓ = -L..L for d = 2L+1 modes (odd d only)."""
    d = _check_mode_count(d, require_odd=True)
    half = (d - 1) // 2
    return np.arange(-half, half + 1)


def _check_unit(amps: np.ndarray, what: str) -> np.ndarray:
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 1:
        raise ValueError(f"{what} amplitudes must be 1-D, got shape {amps.shape}")
    _check_mode_count(amps.size)
    power = float(np.sum(np.abs(amps) ** 2))
    if abs(power - 1.0) > _NORM_TOL:
        raise ValueError(f"{what} is not normalized: sum |a|^2 = {power!r}")
    return amps


@dataclass(eq=False)
class ModeVector:
    """Single-photon superposition over d modes (indexed ℓ = -L..L when d is
    odd); unit norm."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = _check_unit(self.amps, "mode vector")

    @property
    def d(self) -> int:
        return self.amps.size


@dataclass(eq=False)
class TwoPhotonState:
    """Pure anti-correlated two-photon state with one coefficient per
    signal/idler mode pair (c_ℓ on (-ℓ, ℓ) for odd d); unit norm."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _check_unit(self.coeffs, "two-photon state")

    @property
    def d(self) -> int:
        return self.coeffs.size


@dataclass(eq=False)
class Projector:
    """Separable rank-1 measurement operator built from one mode vector per arm.

    As an operator on the D = d² joint space it is Hermitian, PSD, rank 1,
    trace 1.
    """

    signal: ModeVector
    idler: ModeVector

    def __post_init__(self):
        if self.signal.d != self.idler.d:
            raise ValueError(
                f"signal and idler mode counts differ: {self.signal.d} vs {self.idler.d}"
            )

    @property
    def d(self) -> int:
        return self.signal.d

    def joint_vector(self) -> np.ndarray:
        """The D-dimensional joint-space vector; index of (ℓ_S, ℓ_I) is
        (ℓ_S + L)·d + (ℓ_I + L)."""
        return np.kron(self.signal.amps, self.idler.amps)

    def materialize(self) -> np.ndarray:
        """The full D×D operator |w⟩⟨w|. O(D²) memory; prefer
        ``expectations`` when only traces are needed."""
        w = self.joint_vector()
        return np.outer(w, w.conj())


@dataclass(eq=False)
class MeasurementSet:
    """A measurement campaign: projectors with measured probabilities.

    ``calibration`` is the mean total count at p = 1 used to normalize raw
    counts; the simulator records it (and the RNG seed) so files replay
    exactly. ``truth`` is simulation-only metadata enabling downstream
    fidelity checks; strip it to emulate blind reconstruction.
    """

    d: int
    projectors: list[Projector]
    probs: np.ndarray
    counts: np.ndarray | None = None
    seed: int | None = None
    calibration: float | None = None
    truth: TwoPhotonState | None = None

    def __post_init__(self):
        self.d = _check_mode_count(self.d)
        self.probs = np.asarray(self.probs, dtype=float)
        if len(self.projectors) != self.probs.size:
            raise ValueError(
                f"{len(self.projectors)} projectors but {self.probs.size} probabilities"
            )
        for a in self.projectors:
            if a.d != self.d:
                raise ValueError(f"projector has d={a.d}, expected {self.d}")
        if self.probs.size and (self.probs.min() < 0.0 or self.probs.max() > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.counts is not None:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.size != self.probs.size:
                raise ValueError("counts length differs from probabilities length")
            if self.counts.size and self.counts.min() < 0:
                raise ValueError("counts must be non-negative")
        if self.truth is not None and self.truth.d != self.d:
            raise ValueError(f"truth state has d={self.truth.d}, expected {self.d}")

    def __len__(self) -> int:
        return len(self.projectors)


def make_max_entangled(d: int) -> TwoPhotonState:
    """Maximally entangled target state: all d pair coefficients equal 1/sqrt(d)."""
    d = _check_mode_count(d, require_odd=True)
    return TwoPhotonState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def make_downconversion_state(d: int, spiral_width: float) -> TwoPhotonState:
    """Nonuniform source spectrum: c_ℓ ∝ exp(-ℓ²/(2·spiral_width²)), normalized.

    A configurable stand-in for a physical downconversion spectrum; large
    widths approach the maximally entangled state.
    """
    d = _check_mode_count(d, require_odd=True)
    spiral_width = float(spiral_width)
    if not spiral_width > 0:
        raise ValueError(f"spiral_width must be positive, got {spiral_width}")
    ells = ell_range(d).astype(float)
    c = np.exp(-(ells**2) / (2.0 * spiral_width**2))
    return TwoPhotonState((c / np.linalg.norm(c)).astype(complex))


def joint_state_vector(s: TwoPhotonState) -> np.ndarray:
    """The state as a D = d² joint-space vector.

    Coefficient i sits on the anti-correlated pair (signal mode d-1-i, idler
    mode i); for odd d that is exactly c_ℓ at the (signal -ℓ, idler ℓ)
    position with joint index (ℓ_S + L)·d + (ℓ_I + L).
    """
    d = s.d
    idx = np.arange(d)
    psi = np.zeros(d * d, dtype=complex)
    psi[(d - 1 - idx) * d + idx] = s.coeffs
    return psi


def state_to_density(s: TwoPhotonState) -> np.ndarray:
    """Rank-1, trace-1 density matrix |Ψ⟩⟨Ψ| on the joint space."""
    psi = joint_state_vector(s)
    return np.outer(psi, psi.conj())


def random_mode(d: int, rng: np.random.Generator) -> ModeVector:
    """Haar-uniform random mode superposition: i.i.d. standard complex
    Gaussian amplitudes, normalized. Deterministic for a fixed generator
    state."""
    d = _check_mode_count(d)
    while True:
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = np.linalg.norm(amps)
        if norm > 0:  # zero draw has probability zero but would divide by 0
            return ModeVector(amps / norm)


def random_projector(
    d: int, rng: np.random.Generator, identical_arms: bool = False
) -> Projector:
    """Random separable projector; arms drawn independently unless
    ``identical_arms`` (same random mode reused on both)."""
    signal = random_mode(d, rng)
    idler = signal if identical_arms else random_mode(d, rng)
    return Projector(signal, idler)


def joint_vectors(projectors: list[Projector], d: int) -> np.ndarray:
    """The M×D matrix W whose row i is the joint vector of projector i; the
    one representation of a measurement set's operators (D = d²).

    One broadcast over the stacked arm amplitudes: row i is the same product
    of entries as ``projectors[i].joint_vector()``, so the bits match."""
    sig = np.array([a.signal.amps for a in projectors], dtype=complex).reshape(-1, d)
    idl = np.array([a.idler.amps for a in projectors], dtype=complex).reshape(-1, d)
    return (sig[:, :, None] * idl[:, None, :]).reshape(len(projectors), d * d)


def expectations(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[Â_i ρ] = ⟨w_i|ρ|w_i⟩ for every row w_i of W, real part, without
    materializing any D×D operator: O(M·D²)."""
    rho = np.asarray(rho)
    if rho.shape != (w.shape[1],) * 2:
        raise ValueError(f"matrix shape {rho.shape} does not match D={w.shape[1]}")
    return ((w.conj() @ rho) * w).sum(axis=1).real


def simulate_counts(p: float, mean_total_counts: float, rng: np.random.Generator) -> int:
    """One Poisson coincidence count with mean p·mean_total_counts."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    mean_total_counts = float(mean_total_counts)
    if not mean_total_counts > 0:
        raise ValueError("mean_total_counts must be positive")
    return int(rng.poisson(p * mean_total_counts))


def counts_to_probs(counts, mean_total_counts: float) -> np.ndarray:
    """Normalize raw counts by the calibration constant, clamped to [0, 1]."""
    mean_total_counts = float(mean_total_counts)
    if not mean_total_counts > 0:
        raise ValueError("mean_total_counts must be positive")
    return np.clip(np.asarray(counts, dtype=float) / mean_total_counts, 0.0, 1.0)


def simulate_measurements(
    d: int,
    n_measurements: int,
    *,
    state: TwoPhotonState | None = None,
    seed: int = 0,
    mean_total_counts: float | None = None,
    identical_arms: bool = False,
) -> MeasurementSet:
    """Run a full simulated campaign and return a self-describing MeasurementSet.

    Draws ``n_measurements`` random separable projectors against ``state``
    (maximally entangled by default), computes ideal probabilities, and, when
    ``mean_total_counts`` is given, replaces them with Poisson-noisy
    normalized counts. All randomness flows from ``seed``.
    """
    d = _check_mode_count(d)
    n_measurements = int(n_measurements)
    if n_measurements < 1:
        raise ValueError(f"need at least one measurement, got {n_measurements}")
    if state is None:
        state = make_max_entangled(d)
    if state.d != d:
        raise ValueError(f"state has d={state.d}, expected {d}")
    rng = np.random.default_rng(seed)
    rho = state_to_density(state)
    projectors = [
        random_projector(d, rng, identical_arms=identical_arms)
        for _ in range(n_measurements)
    ]
    # valid density matrices stray outside [0, 1] only by rounding (≤ 1e-12)
    ideal = np.clip(expectations(joint_vectors(projectors, d), rho), 0.0, 1.0)
    if mean_total_counts is None:
        probs, counts, calibration = ideal, None, None
    else:
        calibration = float(mean_total_counts)
        if not calibration > 0:
            raise ValueError("mean_total_counts must be positive")
        counts = rng.poisson(ideal * calibration).astype(np.int64)
        probs = counts_to_probs(counts, calibration)
    return MeasurementSet(
        d=d,
        projectors=projectors,
        probs=probs,
        counts=counts,
        seed=seed,
        calibration=calibration,
        truth=state,
    )
