"""Dense complex linear algebra for one- and two-qubit operators.

Operators are plain numpy arrays: square complex matrices of dimension 2
or 4. Two-qubit matrices use the row-major tensor index ``2*a + b`` of
``np.kron(A, B)``, sender's half A first, receiver's half B second; as
a (2, 2, 2, 2) tensor it is [a, b, a', b'], read only by ``_b_blocks``.
Higher-level wrappers in this package expose the raw matrix as
``.mat``; every function here accepts either form, of one operator: a
stack of matrices is refused with :func:`as_operator`'s ``ValueError``.
"""

from __future__ import annotations

import numpy as np

#: The tolerance of operators: Hermiticity defects, PSD and PPT tests,
#: unit trace and Kraus completeness are judged at it. Scalars have their
#: own: ``security.PURITY_TOL`` (a pure target) and ``SIGN_TOL`` (two equal
#: Helstrom eigenvalues), ``states.OUTCOME_EPS`` (an impossible outcome),
#: 1e-9 (a unit-norm state vector) and 1e-12 (a zero-norm cheat state) in
#: ``states``, and ``protocol._LAW_GRID`` (the grid of a session's laws).
TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_I.setflags(write=False)
PAULI_Y.setflags(write=False)


def as_operator(x, dim: int | None = None) -> np.ndarray:
    """Coerce an array-like or a ``.mat``-carrying wrapper to one square complex matrix.

    With ``dim``, the matrix must be ``dim`` x ``dim``: 2 for a qubit, 4
    for a pair.
    """
    m = np.asarray(getattr(x, "mat", x), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"expected a {dim}x{dim} operator, got shape {m.shape}")
    return m


def _hermitian_part(m) -> np.ndarray:
    """The one validation point for operators that must be Hermitian."""
    m = as_operator(m)
    # first: m - m† of an infinite entry would warn of an invalid value
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    mh = m.conj().T
    defect = np.abs(m - mh).max()
    if defect > TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {TOL:.1e})")
    return (m + mh) / 2


def eig_hermitian(m, vectors: bool = False):
    """Eigenvalues of one Hermitian matrix, sorted descending.

    The input is symmetrized before decomposition to absorb roundoff from
    channel-application chains; inputs with non-finite entries or a
    Hermiticity defect above ``TOL`` are rejected. With ``vectors=True``
    returns ``(w, V)`` where column ``V[:, i]`` belongs to ``w[i]`` and
    ``M = V diag(w) V†``.
    """
    h = _hermitian_part(m)
    if vectors:
        w, v = np.linalg.eigh(h)
        return w[::-1].copy(), v[:, ::-1].copy()
    return np.linalg.eigvalsh(h)[::-1].copy()


def is_psd(m) -> bool:
    """True iff the smallest eigenvalue of one Hermitian matrix is >= -TOL.

    The package's one positivity test: the validation of a density matrix
    given as a matrix and the separability and entanglement-breaking
    tests all decide through it.
    """
    return bool(eig_hermitian(m)[-1] >= -TOL)


def _b_blocks(m) -> np.ndarray:
    """A pair's operator as its B blocks x[a, a'] = rho[a, :, a', :], of shape (2, 2, 2, 2).

    A view where numpy can give one. The partial transpose, the channel
    lifts and the sender's operator all act on these blocks.
    """
    return as_operator(m, 4).reshape(2, 2, 2, 2).swapaxes(1, 2)


def _from_b_blocks(x) -> np.ndarray:
    """The inverse of :func:`_b_blocks`: the [a, a', b, b'] blocks as one 4x4 matrix."""
    return x.swapaxes(1, 2).reshape(4, 4)


def partial_transpose(m) -> np.ndarray:
    """Transpose each B block of a pair's operator; twice, it is the identity."""
    return _from_b_blocks(_b_blocks(m).swapaxes(2, 3))


def trace_distance(a, b) -> float:
    """Delta(a, b) = (1/2) sum_i |lambda_i(a - b)|, clipped to [0, 1] for states."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w = eig_hermitian(a - b)
    return min(1.0, float(np.abs(w).sum() / 2))
