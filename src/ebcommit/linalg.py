"""Dense complex linear algebra for one- and two-qubit operators.

Operators are plain numpy arrays: square complex matrices of dimension 2
or 4. Two-qubit matrices use the row-major tensor index ``2*a + b`` of
``np.kron(A, B)``, sender's half A first, receiver's half B second; as
a (2, 2, 2, 2) tensor it is [a, b, a', b'], read only by ``_b_blocks``.
Higher-level wrappers in this package expose the raw matrix as
``.mat``; every function here accepts either form. The eigen helpers,
the PSD test and the partial trace and transpose also take a stack of
shape (..., n, n) and act on each matrix of it, in one numpy call for
the whole stack; a single matrix is the stack with no leading axes, so
each formula is written once.
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


def as_stack(x, dim: int | None = None) -> np.ndarray:
    """Coerce array-likes or ``.mat``-carrying wrappers to a stack of square complex matrices.

    The result has shape (..., n, n); a single matrix has no leading
    axes. With ``dim``, n must be ``dim``: 2 for a qubit, 4 for a pair.
    """
    m = np.asarray(getattr(x, "mat", x), dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[-1] != dim:
        raise ValueError(f"expected a {dim}x{dim} operator, got shape {m.shape}")
    return m


def as_operator(x, dim: int | None = None) -> np.ndarray:
    """One square complex matrix, as :func:`as_stack` coerces it, with no leading axes."""
    m = as_stack(x, dim)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian_part(m) -> np.ndarray:
    """The one validation point for operators that must be Hermitian."""
    m = as_stack(m)
    # first: m - m† of an infinite entry would warn of an invalid value
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    mh = m.conj().swapaxes(-1, -2)
    defect = np.abs(m - mh).max(initial=0.0)
    if defect > TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {TOL:.1e})")
    return (m + mh) / 2


def eig_hermitian(m, vectors: bool = False):
    """Eigenvalues of a Hermitian matrix, or of each matrix of a stack, sorted descending.

    The input is symmetrized before decomposition to absorb roundoff from
    channel-application chains; inputs with non-finite entries or a
    Hermiticity defect above ``TOL`` are rejected. With ``vectors=True``
    returns ``(w, V)`` where column ``V[..., :, i]`` belongs to
    ``w[..., i]`` and ``M = V diag(w) V†``. numpy decomposes a stack
    matrix by matrix, so each result equals that of its matrix alone.
    """
    h = _hermitian_part(m)
    if vectors:
        w, v = np.linalg.eigh(h)
        return w[..., ::-1].copy(), v[..., ::-1].copy()
    return np.linalg.eigvalsh(h)[..., ::-1].copy()


def is_psd(m):
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -TOL.

    A stack gets a bool array, one verdict per matrix. The package's one
    positivity test: the validation of a density matrix given as a
    matrix and the separability and entanglement-breaking tests all
    decide through it.
    """
    psd = eig_hermitian(m)[..., -1] >= -TOL
    return bool(psd) if psd.ndim == 0 else psd


def _b_blocks(m) -> np.ndarray:
    """A pair's operator, or each of a stack, as its B blocks x[..., a, a'] = rho[a, :, a', :].

    A view where numpy can give one. The partial trace and transpose, the
    channel lifts and the sender's operator all act on these blocks.
    """
    m = as_stack(m, 4)
    return m.reshape(m.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2)


def _from_b_blocks(x) -> np.ndarray:
    """The inverse of :func:`_b_blocks`: a [..., a, a', b, b'] stack of blocks as (..., 4, 4)."""
    return x.swapaxes(-3, -2).reshape(x.shape[:-4] + (4, 4))


def partial_trace(m) -> np.ndarray:
    """Tr_B(M), the trace of each B block: the A marginal of a two-qubit operator or of a stack."""
    return np.trace(_b_blocks(m), axis1=-2, axis2=-1)


def partial_transpose(m) -> np.ndarray:
    """Transpose each B block of a pair's operator, or of a stack; twice, it is the identity."""
    return _from_b_blocks(_b_blocks(m).swapaxes(-1, -2))


def trace_distance(a, b) -> float:
    """Delta(a, b) = (1/2) sum_i |lambda_i(a - b)|, clipped to [0, 1] for states."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    w = eig_hermitian(a - b)
    return min(1.0, float(np.abs(w).sum() / 2))
