"""Synthetic two-photon source and measurement apparatus.

Generates the ground truth (an entangled state over d orbital-angular-momentum
modes per photon, anti-correlated between the signal and idler arms), random
separable rank-1 projectors, ideal coincidence probabilities, and
Poisson-noisy counts. This replaces the physical downconversion/SLM/detector
chain with a statistical model; the only noise source is shot noise.

A measurement set holds its M projectors as two (M, d) complex arrays, one
unit-norm mode vector per row for each arm (``signal`` and ``idler``).
Projector i is |w_i⟩⟨w_i| with w_i = signal[i] ⊗ idler[i]; ``joint_vectors``
forms every w_i in one broadcast, and ``expectations`` evaluates Tr[Â_i ρ]
from them.

A campaign's 2M modes come from one generator call, an (M, 2, 2, d) array
of standard normals indexed (projector, arm, real/imaginary part, mode),
and are normalized in one pass per arm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TwoPhotonState",
    "MeasurementSet",
    "ell_range",
    "make_max_entangled",
    "make_downconversion_state",
    "joint_state_vector",
    "state_to_density",
    "random_mode",
    "joint_vectors",
    "expectations",
    "simulate_measurements",
]

_NORM_TOL = 1e-12

# numpy's Poisson sampler rejects means above about 9.2e18 ("lam value too
# large"); a campaign's largest mean is the calibration itself (at p = 1)
MAX_MEAN_TOTAL_COUNTS = 1e18


def check_mean_total_counts(mean_total_counts, name: str) -> float:
    """The calibration as a float; a ValueError that names it ``name``
    unless it lies in (0, MAX_MEAN_TOTAL_COUNTS], which NaN does not."""
    value = float(mean_total_counts)
    if not 0 < value <= MAX_MEAN_TOTAL_COUNTS:
        raise ValueError(
            f"{name} must be positive and finite, at most {MAX_MEAN_TOTAL_COUNTS:g}"
        )
    return value


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
    if not abs(power - 1.0) <= _NORM_TOL:  # NaN and inf are bad too
        raise ValueError(f"{what} is not normalized: sum |a|^2 = {power!r}")
    return amps


def _check_rows(signal: np.ndarray, idler: np.ndarray) -> None:
    """Every row of both (M, d) arms is finite and of unit norm. The error
    names the first bad row, the signal arm before the idler arm."""
    power = np.stack([np.sum(np.abs(amps) ** 2, axis=1) for amps in (signal, idler)], axis=1)
    bad = np.argwhere(~(np.abs(power - 1.0) <= _NORM_TOL))  # NaN and inf are bad too
    if bad.size:
        i, k = bad[0]
        arm, amps = (("signal", signal), ("idler", idler))[k]
        if not np.isfinite(amps[i]).all():
            raise ValueError(f"projectors[{i}].{arm} has a non-finite amplitude")
        raise ValueError(
            f"projectors[{i}].{arm} is not normalized: sum |a|^2 = {float(power[i, k])!r}"
        )


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
class MeasurementSet:
    """A measurement campaign: projectors with measured probabilities.

    Projector i is the separable rank-1 operator of the mode vectors
    ``signal[i]`` and ``idler[i]``, rows of two (M, d) complex arrays; every
    row must be finite and of unit norm. ``calibration`` is the mean total
    count at p = 1 used to normalize raw counts, in the range that
    ``check_mean_total_counts`` allows; the simulator records it
    (and the RNG seed) so files replay exactly. ``truth`` is simulation-only
    metadata enabling downstream fidelity checks; strip it to emulate blind
    reconstruction.
    """

    d: int
    signal: np.ndarray
    idler: np.ndarray
    probs: np.ndarray
    counts: np.ndarray | None = None
    seed: int | None = None
    calibration: float | None = None
    truth: TwoPhotonState | None = None

    def __post_init__(self):
        self.d = _check_mode_count(self.d)
        self.probs = np.asarray(self.probs, dtype=float)
        shape = (self.probs.size, self.d)
        self.signal = np.asarray(self.signal, dtype=complex)
        self.idler = np.asarray(self.idler, dtype=complex)
        for arm, amps in (("signal", self.signal), ("idler", self.idler)):
            if amps.shape != shape:
                raise ValueError(
                    f"{arm} amplitudes have shape {amps.shape}, expected {shape}: "
                    f"one row of d={self.d} modes for each of {shape[0]} probabilities"
                )
        _check_rows(self.signal, self.idler)
        nonfinite = np.flatnonzero(~np.isfinite(self.probs))
        if nonfinite.size:  # NaN would pass the range check below
            raise ValueError(f"probs[{nonfinite[0]}] is not finite")
        if self.probs.size and (self.probs.min() < 0.0 or self.probs.max() > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.counts is not None:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.size != self.probs.size:
                raise ValueError("counts length differs from probabilities length")
            if self.counts.size and self.counts.min() < 0:
                raise ValueError("counts must be non-negative")
        if self.calibration is not None:
            self.calibration = check_mean_total_counts(self.calibration, "calibration")
        if self.truth is not None and self.truth.d != self.d:
            raise ValueError(f"truth state has d={self.truth.d}, expected {self.d}")

    def __len__(self) -> int:
        return self.probs.size


def make_max_entangled(d: int) -> TwoPhotonState:
    """Maximally entangled target state: all d pair coefficients equal 1/sqrt(d)."""
    d = _check_mode_count(d, require_odd=True)
    return TwoPhotonState(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def make_downconversion_state(d: int, spiral_width: float) -> TwoPhotonState:
    """Nonuniform source spectrum: c_ℓ ∝ exp(-ℓ²/(2·spiral_width²)), normalized.

    A configurable stand-in for a physical downconversion spectrum; large
    widths approach the maximally entangled state, small ones a product state.
    """
    d = _check_mode_count(d, require_odd=True)
    spiral_width = float(spiral_width)
    # spiral_width**2 overflows above about 1.3e154 and is 0 below about 1.6e-162;
    # from 1e154 up every c_ℓ is exp(-0) = 1
    two_var = 2.0 * min(spiral_width, 1e154) ** 2
    if not (spiral_width > 0 and two_var > 0):
        raise ValueError(f"spiral_width and its square must be positive, got {spiral_width}")
    ells = ell_range(d).astype(float)
    with np.errstate(over="ignore"):  # ℓ²/(2σ²) beyond the double range: c_ℓ = exp(-inf) = 0
        c = np.exp(-(ells**2) / two_var)
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


def _unit_modes(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The modes re + 1j·im, one per row of the last axis, each normalized.
    An all-zero mode, which a Gaussian draw gives with probability zero,
    raises ValueError: a redraw would shift every later draw of the
    stream."""
    # re + 1j·im, built in place: the bits of the expression with one
    # complex array instead of three
    modes = 1j * im
    modes += re
    # np.linalg.norm's sum, sqrt(re·re + im·im), with each dot a BLAS ddot
    # over the same strided views, so the same bits as calling it per mode
    re = modes.real[..., None, :]
    im = modes.imag[..., None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if not norm.all():
        raise ValueError("a random mode drew all-zero amplitudes")
    modes /= norm
    return modes


def random_mode(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random mode superposition: i.i.d. standard complex
    Gaussian amplitudes, the d real parts drawn before the d imaginary ones,
    normalized. Deterministic for a fixed generator state; an all-zero draw
    (probability zero) raises ValueError."""
    re, im = rng.standard_normal((2, _check_mode_count(d)))
    return _unit_modes(re, im)


def joint_vectors(signal: np.ndarray, idler: np.ndarray) -> np.ndarray:
    """The M×D matrix W whose row i is the joint vector signal[i] ⊗ idler[i]
    of projector i; the one representation of a measurement set's operators
    (D = d²). The index of (ℓ_S, ℓ_I) is (ℓ_S + L)·d + (ℓ_I + L); each entry
    is the same product as in ``np.kron(signal[i], idler[i])``."""
    m, d = signal.shape
    return (signal[:, :, None] * idler[:, None, :]).reshape(m, d * d)


def expectations(w: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[Â_i ρ] = ⟨w_i|ρ|w_i⟩ for every row w_i of W, real part, without
    materializing any D×D operator: O(M·D²)."""
    rho = np.asarray(rho)
    if rho.shape != (w.shape[1],) * 2:
        raise ValueError(f"matrix shape {rho.shape} does not match D={w.shape[1]}")
    return ((w.conj() @ rho) * w).sum(axis=1).real


def counts_to_probs(counts, mean_total_counts: float) -> np.ndarray:
    """Normalize raw counts by the calibration constant, clamped to [0, 1]."""
    mean_total_counts = check_mean_total_counts(mean_total_counts, "mean_total_counts")
    return np.clip(np.asarray(counts, dtype=float) / mean_total_counts, 0.0, 1.0)


def simulate_measurements(
    d: int,
    n_measurements: int,
    *,
    state: TwoPhotonState | None = None,
    seed: int = 0,
    mean_total_counts: float | None = None,
) -> MeasurementSet:
    """Run a full simulated campaign and return a self-describing MeasurementSet.

    Draws ``n_measurements`` random separable projectors against ``state``
    (maximally entangled by default), each the product of two independent
    random modes, computes ideal probabilities, and, when
    ``mean_total_counts`` is given, replaces them with Poisson-noisy
    normalized counts. All randomness flows from ``seed``: one draw of every
    mode, then one of the counts. An all-zero mode draw, which has
    probability zero, raises ValueError.
    """
    d = _check_mode_count(d)
    n_measurements = int(n_measurements)
    if n_measurements < 1:
        raise ValueError(f"need at least one measurement, got {n_measurements}")
    if state is None:
        state = make_max_entangled(d)
    if state.d != d:
        raise ValueError(f"state has d={state.d}, expected {d}")
    # checked before the draws, whose time grows with n_measurements
    calibration = None
    if mean_total_counts is not None:
        calibration = check_mean_total_counts(mean_total_counts, "mean_total_counts")
    rng = np.random.default_rng(seed)
    rho = state_to_density(state)
    # projector by projector, signal before idler, each mode's real parts
    # before its imaginary ones: the campaign a seed gives depends on this
    # order, the C order of the (M, arm, part, mode) draw
    draws = rng.standard_normal((n_measurements, 2, 2, d))
    signal = _unit_modes(draws[:, 0, 0], draws[:, 0, 1])
    idler = _unit_modes(draws[:, 1, 0], draws[:, 1, 1])
    del draws
    # valid density matrices stray outside [0, 1] only by rounding (≤ 1e-12)
    ideal = np.clip(expectations(joint_vectors(signal, idler), rho), 0.0, 1.0)
    if calibration is None:
        probs, counts = ideal, None
    else:
        counts = rng.poisson(ideal * calibration).astype(np.int64)
        probs = counts_to_probs(counts, calibration)
    return MeasurementSet(
        d=d,
        signal=signal,
        idler=idler,
        probs=probs,
        counts=counts,
        seed=seed,
        calibration=calibration,
        truth=state,
    )
