"""Test-only physics: independent references that the package does not use.

Sessions and the binding attack read their Born probabilities off the sender's
operator ``states._sender_operator``. The tests check them against the
textbook route here: project one half of the pair, then normalize the
state left on the other half.
"""

from __future__ import annotations

import math

import numpy as np

from ebcommit.linalg import as_operator, eig_hermitian, is_psd, kron, partial_trace
from ebcommit.states import OUTCOME_EPS, DensityMatrix, ProjectiveBasis


def bell_psi_plus() -> np.ndarray:
    """Maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return np.array([math.sqrt(0.5), 0, 0, math.sqrt(0.5)], dtype=complex)


def projectors(basis: ProjectiveBasis) -> tuple[np.ndarray, np.ndarray]:
    """The rank-one projectors on the two vectors of ``basis``."""
    b0, b1 = basis.vectors()
    return np.outer(b0, b0.conj()), np.outer(b1, b1.conj())


def joint_outcome_decomposition(
    rho: DensityMatrix, side: str, basis: ProjectiveBasis
) -> tuple[tuple[float, DensityMatrix | None], ...]:
    """Both branches of a local measurement on half of a two-qubit state.

    Returns ``((p0, cond0), (p1, cond1))`` where ``p_j`` is the Born
    probability of outcome ``j`` on ``side`` and ``cond_j`` is the
    normalized state left on the other side. Branches with probability
    below ``OUTCOME_EPS`` carry ``None``. The unnormalized branch is
    validated at ``TOL``; dividing it by a small p would amplify its
    roundoff past ``TOL``, so it is normalized with its spectrum clipped
    at 0.
    """
    m = as_operator(rho, 4)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    other = "B" if side == "A" else "A"
    eye = np.eye(2)
    branches = []
    for proj in projectors(basis):
        full = kron(proj, eye) if side == "A" else kron(eye, proj)
        p = float(np.real(np.trace(full @ m)))
        if p < OUTCOME_EPS:
            branches.append((p, None))
            continue
        branch = partial_trace(full @ m @ full, keep=other)
        if not is_psd(branch):
            raise ValueError(f"not PSD (min eigenvalue {eig_hermitian(branch)[-1]:.3e})")
        w, v = eig_hermitian(branch, vectors=True)
        w = np.clip(w, 0.0, None)
        branches.append((p, DensityMatrix((v * (w / w.sum())) @ v.conj().T)))
    return tuple(branches)
