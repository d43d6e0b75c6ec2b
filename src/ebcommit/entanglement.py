"""Entanglement quantification for two qubits.

Concurrence (Wootters) measures entanglement on [0, 1] and is read off
the singular values of a square-root factor of the state; positivity of
the partial transpose decides separability exactly at 2x2, and one of
its eigenvalues gives the entanglement-breaking boundary of the
depolarizing channel. The product law checked by
:func:`factorization_residual` says a local channel degrades the
concurrence of every pure input by one universal factor, the
concurrence of its Choi state, so a channel that disentangles the Bell
pair disentangles everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, choi, lift_apply
from .linalg import PAULI_Y, as_operator, eig_hermitian, is_psd, kron, partial_transpose
from .states import DensityMatrix

_YY = kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the four sorted Wootters singular values."""

    value: float
    lambdas: tuple[float, float, float, float]


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state.

    The lambdas are the square roots of the eigenvalues of
    rho (Y x Y) conj(rho) (Y x Y). With rho = X X^dagger, X = V sqrt(w)
    from the eigendecomposition of rho (tiny negative w taken as 0), they
    are the singular values of the symmetric matrix X^T (Y x Y) X, so no
    square is formed and no small value is floored away. The value is
    exactly 0.0 on every state that :func:`is_separable` accepts, so no
    state the PPT test calls separable gets a roundoff residue as its
    concurrence.
    """
    m = as_operator(rho, 4)
    w, v = eig_hermitian(m, vectors=True)
    x = v * np.sqrt(np.maximum(w, 0.0))
    lams = np.linalg.svd(x.T @ _YY @ x, compute_uv=False)
    value = 0.0 if is_separable(m) else max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
    return ConcurrenceResult(value, tuple(float(x) for x in lams))


def is_separable(rho: DensityMatrix) -> bool:
    """Positive-partial-transpose test, necessary and sufficient at 2x2."""
    return is_psd(partial_transpose(rho))


def factorization_residual(x, c: KrausChannel | DepolarizingChannel) -> float:
    """|C((I x c)[|x><x|]) - C(|x><x|) * C(choi(c))| for a pure input x.

    Both sides are evaluated independently: the left by pushing the state
    through the lifted channel, the right from the input and the Choi
    state alone.
    """
    rho = DensityMatrix.from_pure(x)
    left = concurrence(lift_apply(c, rho)).value
    right = concurrence(rho).value * concurrence(choi(c)).value
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
