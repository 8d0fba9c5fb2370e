"""The projection stage, step by step.

Every measurement pins the state to one hyperplane Tr[Â_i ρ] = p_i. Because
each Â_i = |w_i⟩⟨w_i| is rank 1, the solver needs only the joint vectors w_i:
their Gram matrix G_ij = |⟨w_i|w_j⟩|² gives the orthogonal projection onto the
intersection of all hyperplanes in one step, ρ + Σ_i c_i Â_i with G c equal to
the constraint residual. The result meets every constraint, stays Hermitian,
and equals the sequential reference: Gram-Schmidt orthonormalization of the
vectorized rows followed by one Kaczmarz sweep over their hyperplanes.
"""

import numpy as np

from cstomo import MeasurementOperator, make_max_entangled, simulate_measurements
from cstomo.solver import kaczmarz_sweep, measurement_rows, orthogonalize

d = 3
ms = simulate_measurements(d, 12, state=make_max_entangled(d), seed=2)
op = MeasurementOperator(ms)
p = ms.probs[op.keep]  # the kept rows' probabilities
dim = d * d
print(f"{len(ms)} measurements on {dim}×{dim} density matrices "
      f"({dim**2} real unknowns); the operator keeps {op.w.shape[0]} joint "
      f"vectors of length {dim}")
# G = L·Lᵀ, so cond(G) = cond(L⁻¹)²
print(f"condition number of the Gram matrix: {np.linalg.cond(op.low_inv) ** 2:.2f}")

# start from the maximally mixed state and a random Hermitian matrix
rng = np.random.default_rng(0)
a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
starts = {"maximally mixed": np.eye(dim, dtype=complex) / dim,
          "random Hermitian": (a + a.conj().T) / 2}

reference = orthogonalize(measurement_rows(ms), ms.probs)
for name, start in starts.items():
    out = op.project(start, p)
    print(f"\nfrom the {name} matrix:")
    print(f"  worst constraint violation before: {np.abs(op.residual(start, p)).max():.2e}, "
          f"after: {np.abs(op.residual(out, p)).max():.2e}")
    print(f"  Hermiticity drift of the projection: {np.abs(out - out.conj().T).max():.2e}")
    print(f"  projecting again moves it by {np.abs(op.project(out, p) - out).max():.2e}")
    # the reference works on column-stacked matrices
    sweep_out = kaczmarz_sweep(start.reshape(-1, order="F"), reference).reshape(
        dim, dim, order="F")
    print(f"  Gram-Schmidt + Kaczmarz reference agrees to {np.abs(sweep_out - out).max():.2e}")
