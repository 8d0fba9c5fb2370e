"""The projection stage, step by step.

Every measurement pins the state to one hyperplane Tr[Â_i ρ] = p_i. Because
each Â_i = |w_i⟩⟨w_i| is rank 1, the solver needs only the joint vectors w_i:
their Gram matrix G_ij = |⟨w_i|w_j⟩|² gives the orthogonal projection onto the
intersection of all hyperplanes in one step, ρ + Σ_i c_i Â_i with G c equal to
the constraint residual. The result meets every constraint, stays Hermitian,
and equals the dense least-norm solution x + A⁺(p − A·x), where row i of the
M×D² matrix A maps the flattened matrix x to Tr[Â_i x]. The demo forms A from
the joint vectors itself and exits with status 1 if the two projections
differ anywhere by more than 1e-12.
"""

import sys

import numpy as np

from cstomo import MeasurementOperator, make_max_entangled, simulate_measurements

ORACLE_TOL = 1e-12

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

# Tr[Â_i x] = Σ_jk conj(w_ij) x_jk w_ik, so row i is conj(w_i) ⊗ w_i
rows = (op.w.conj()[:, :, None] * op.w[:, None, :]).reshape(len(op.w), dim * dim)
pinv = np.linalg.pinv(rows)
worst = 0.0
for name, start in starts.items():
    out = op.project(start, p)
    print(f"\nfrom the {name} matrix:")
    print(f"  worst constraint violation before: {np.abs(op.residual(start, p)).max():.2e}, "
          f"after: {np.abs(op.residual(out, p)).max():.2e}")
    print(f"  Hermiticity drift of the projection: {np.abs(out - out.conj().T).max():.2e}")
    print(f"  projecting again moves it by {np.abs(op.project(out, p) - out).max():.2e}")
    x = start.reshape(-1)
    oracle = (x + pinv @ (p - rows @ x)).reshape(dim, dim)
    err = np.abs(oracle - out).max()
    worst = max(worst, err)
    print(f"  dense least-norm oracle agrees to {err:.2e}")

if not worst <= ORACLE_TOL:
    print(f"error: the projection differs from the dense oracle by {worst:.2e} "
          f"> {ORACLE_TOL:.0e}", file=sys.stderr)
    sys.exit(1)
