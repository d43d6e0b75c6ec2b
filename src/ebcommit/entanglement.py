"""Entanglement quantification for two qubits.

Concurrence (Wootters) measures entanglement on [0, 1] and is read off
the singular values of a square-root factor of the state; positivity of
the partial transpose decides separability at 2x2, of a state and of a
channel's Choi state alike, up to the tolerance ``TOL`` on its least
eigenvalue, and that eigenvalue gives the entanglement-breaking
boundary of the depolarizing channel.

A sweep calls neither :func:`concurrence` nor :func:`is_separable`: by
the product law (Konrad et al., Nat. Phys. 4, 99 (2008)) the
depolarizing channel eps_q on the B half of a pure pair of concurrence C
leaves concurrence C max(0, (3q - 1)/2), (3q - 1)/2 being that of its
Choi state, so a sweep reads both of its columns off that closed form,
with no tolerance.
"""

from __future__ import annotations

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, choi
from .linalg import PAULI_Y, as_operator, eig_hermitian, is_psd, partial_transpose

_YY = np.kron(PAULI_Y, PAULI_Y)


def concurrence(rho) -> float:
    """Wootters concurrence of one two-qubit state.

    C = max(0, l1 - l2 - l3 - l4), the l_i the square roots, in
    descending order, of the eigenvalues of rho (Y x Y) conj(rho) (Y x Y).
    With rho = X X^dagger, X = V sqrt(w) from the eigendecomposition of
    rho (tiny negative w taken as 0), they are the singular values of the
    symmetric matrix X^T (Y x Y) X, so no square is formed and no small
    value is floored away. The PPT test runs first, so C is 0.0, with no
    roundoff residue, on every state it accepts; on every state it
    rejects, C >= N = 2|l| > 2 TOL for l the least partial-transpose
    eigenvalue (Verstraete et al., J. Phys. A 34, 10327 (2001)).
    """
    m = as_operator(rho, 4)
    if is_separable(m):
        return 0.0
    w, v = eig_hermitian(m, vectors=True)
    x = v * np.sqrt(np.maximum(w, 0.0))
    lams = np.linalg.svd(x.T @ _YY @ x, compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def is_separable(rho) -> bool:
    """Positive-partial-transpose test of one two-qubit state at ``TOL``.

    It decides through ``is_psd``, so an entangled state whose least
    partial-transpose eigenvalue lies in [-``TOL``, 0) reads separable:
    a weakly entangled pair, whose eigenvalue scales as the square of
    its concurrence, can read separable far above q* = 1/3.
    """
    return is_psd(partial_transpose(as_operator(rho, 4)))


def is_entanglement_breaking(c: KrausChannel | DepolarizingChannel) -> bool:
    """True iff the Choi state of c is separable (Horodecki, Shor and Ruskai, 2003).

    It decides through the PPT test at ``TOL``: the least partial-transpose
    eigenvalue of the depolarizing channel's Choi state is (1 - 3q)/4, so
    eps_q reads entanglement breaking up to q = 1/3 + 4 TOL/3, not 1/3.
    """
    return is_separable(choi(c))


def eb_threshold() -> float:
    """Entanglement-breaking boundary q* of the depolarizing channel.

    The partial transpose of the Choi state is linear in q,
    PT(choi(eps_q)) = q PT(choi(eps_1)) + (1-q) I/4, so its smallest
    eigenvalue crosses 0 at q* = 1/(1 - 4 lambda), lambda the smallest
    eigenvalue of PT(choi(eps_1)); that gives 1/3 exactly.
    """
    lam = float(eig_hermitian(partial_transpose(choi(DepolarizingChannel(1.0))))[-1])
    return 1.0 / (1.0 - 4.0 * lam)
