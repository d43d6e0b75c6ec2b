"""Entanglement quantification for two qubits.

Concurrence (Wootters) measures entanglement on [0, 1] and is read off
the singular values of a square-root factor of the state; positivity of
the partial transpose decides separability exactly at 2x2, of a state
and of a channel's Choi state alike, and one of its eigenvalues gives
the entanglement-breaking boundary of the depolarizing channel. The
product law checked by :func:`factorization_residual` says a local
channel degrades the concurrence of every pure input by one universal
factor, the concurrence of its Choi state, so a channel that
disentangles the Bell pair disentangles everything.

:func:`concurrence` and :func:`is_separable` take one state or a stack of
shape (..., 4, 4): a sweep runs one PPT test and one Wootters
evaluation over its whole stack of post-channel pairs, and a
single state is the stack with no leading axes.
"""

from __future__ import annotations

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, choi, lift_apply
from .linalg import PAULI_Y, as_stack, eig_hermitian, is_psd, partial_transpose
from .states import DensityMatrix

_YY = np.kron(PAULI_Y, PAULI_Y)


def concurrence(rho: DensityMatrix):
    """Wootters concurrence of a two-qubit state, a float, or of each state of a stack, an array.

    C = max(0, l1 - l2 - l3 - l4), the l_i the square roots, in
    descending order, of the eigenvalues of rho (Y x Y) conj(rho) (Y x Y).
    With rho = X X^dagger, X = V sqrt(w) from the eigendecomposition of
    rho (tiny negative w taken as 0), they are the singular values of the
    symmetric matrix X^T (Y x Y) X, so no square is formed and no small
    value is floored away. The PPT test runs first, so C is 0.0, with no
    roundoff residue, on every state it accepts; on every state it
    rejects, C >= N = 2|l| > 2 TOL for l the least partial-transpose
    eigenvalue (Verstraete et al., J. Phys. A 34, 10327 (2001)). Only
    the states it rejects are decomposed, each as it would be alone.
    """
    m = as_stack(rho, 4)
    entangled = ~np.asarray(is_separable(m))
    c = np.zeros(entangled.shape)
    if entangled.any():
        w, v = eig_hermitian(m[entangled], vectors=True)
        x = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
        lams = np.linalg.svd(x.swapaxes(-1, -2) @ _YY @ x, compute_uv=False)
        c[entangled] = np.maximum(0.0, lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3])
    return float(c) if c.ndim == 0 else c


def is_separable(rho: DensityMatrix):
    """Positive-partial-transpose test, exact at 2x2; a stack gets a bool array."""
    return is_psd(partial_transpose(rho))


def is_entanglement_breaking(c: KrausChannel | DepolarizingChannel) -> bool:
    """True iff the Choi state of c is separable (Horodecki, Shor and Ruskai, 2003)."""
    return is_separable(choi(c))


def factorization_residual(x, c: KrausChannel | DepolarizingChannel) -> float:
    """|C((I x c)[|x><x|]) - C(|x><x|) * C(choi(c))| for a pure input x.

    Both sides are evaluated independently: the left by pushing the state
    through the lifted channel, the right from the input and the Choi
    state alone.
    """
    rho = DensityMatrix.from_pure(x)
    left = concurrence(lift_apply(c, rho))
    right = concurrence(rho) * concurrence(choi(c))
    return abs(left - right)


def eb_threshold() -> float:
    """Entanglement-breaking boundary q* of the depolarizing channel.

    The partial transpose of the Choi state is linear in q,
    PT(choi(eps_q)) = q PT(choi(eps_1)) + (1-q) I/4, so its smallest
    eigenvalue crosses 0 at q* = 1/(1 - 4 lambda), lambda the smallest
    eigenvalue of PT(choi(eps_1)); that gives 1/3 exactly.
    """
    lam = float(eig_hermitian(partial_transpose(choi(DepolarizingChannel(1.0))))[-1])
    return 1.0 / (1.0 - 4.0 * lam)
