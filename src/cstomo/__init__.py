"""Compressive-sensing reconstruction of low-rank, sparse density matrices
from a small number of random projective measurements, with measurement
simulation, shot-noise correction, and fidelity benchmarking."""

from .correction import CorrectionDiagnostics, reconstruct_corrected
from .errors import (
    DegenerateIterateError,
    DegenerateSystemError,
    InvariantViolation,
    SchemaError,
    WorkerPoolError,
)
from .experiments import SweepRow, SweepSpec, run_sweep, run_sweep_cell, summarize_sweep
from .metrics import MetricsSummary, effective_rank, fidelity_pure, purity, residual, summarize
from .simulate import (
    MeasurementSet,
    TwoPhotonState,
    expectations,
    joint_state_vector,
    joint_vectors,
    make_downconversion_state,
    make_max_entangled,
    random_mode,
    simulate_measurements,
    state_to_density,
)
from .solver import (
    MeasurementOperator,
    ReconstructionConfig,
    ReconstructionReport,
    enforce_structure,
    reconstruct,
)

__version__ = "0.1.0"
