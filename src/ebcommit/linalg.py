"""Dense complex linear algebra for one- and two-qubit operators.

Operators are plain numpy arrays: square complex matrices of dimension 2
or 4. Two-qubit matrices use the row-major tensor index ``2*a + b`` with
subsystem A first and B second. Higher-level wrappers in this package
expose the raw matrix as ``.mat``; every function here accepts either
form.
"""

from __future__ import annotations

import numpy as np

#: The one numerical tolerance of the package: Hermiticity defects, PSD
#: and PPT tests, unit trace and Kraus completeness are all judged at it.
TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z):
    _p.setflags(write=False)
del _p


def as_operator(x, dim: int | None = None) -> np.ndarray:
    """Coerce array-likes or ``.mat``-carrying wrappers to a square complex matrix.

    With ``dim``, the matrix must be ``dim`` x ``dim``: 2 for a qubit, 4
    for a pair.
    """
    m = np.asarray(getattr(x, "mat", x), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} operator, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product, subsystem A left, B right."""
    return np.kron(as_operator(a), as_operator(b))


def hermiticity_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])|, zero iff M is exactly Hermitian."""
    m = as_operator(m)
    return float(np.abs(m - m.conj().T).max())


def _hermitian_part(m) -> np.ndarray:
    """The one validation point for operators that must be Hermitian."""
    m = as_operator(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {TOL:.1e})")
    return (m + m.conj().T) / 2


def eig_hermitian(m, vectors: bool = False):
    """Eigenvalues of a Hermitian matrix, sorted descending.

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


SPECTRUM_FLOOR = 1e-14


def clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues indistinguishable from 0 at roundoff scale.

    Square-rooting a spurious +1e-16 eigenvalue would inject a 1e-8
    error, so anything below ``SPECTRUM_FLOOR * max(1, w_max)`` is
    treated as an exact zero before a square root is taken.
    """
    w = np.clip(w, 0.0, None)
    cutoff = SPECTRUM_FLOOR * max(1.0, float(w.max()))
    w[w < cutoff] = 0.0
    return w


def sqrtm_psd(m) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues are clamped to 0."""
    w, v = eig_hermitian(m, vectors=True)
    w = clip_spectrum(w)
    return (v * np.sqrt(w)) @ v.conj().T


def is_psd(m) -> bool:
    """True iff the smallest eigenvalue of a Hermitian matrix is >= -TOL.

    The package's one positivity test: density-matrix validation and the
    separability and entanglement-breaking tests all decide through it.
    """
    return bool(eig_hermitian(m)[-1] >= -TOL)


def partial_trace(m, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    ``keep="A"`` returns Tr_B(M), ``keep="B"`` returns Tr_A(M).
    """
    t = as_operator(m, 4).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(m, on: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a two-qubit operator.

    Pure index permutation, so applying it twice restores the input
    exactly.
    """
    t = as_operator(m, 4).reshape(2, 2, 2, 2)
    if on == "B":
        return t.transpose(0, 3, 2, 1).reshape(4, 4)
    if on == "A":
        return t.transpose(2, 1, 0, 3).reshape(4, 4)
    raise ValueError(f"on must be 'A' or 'B', got {on!r}")


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def trace_distance(a, b) -> float:
    """Delta(a, b) = (1/2) sum_i |lambda_i(a - b)|, clipped to [0, 1] for states."""
    a, b = as_operator(a), as_operator(b)
    _same_dim(a, b)
    w = eig_hermitian(a - b)
    return min(1.0, float(np.abs(w).sum() / 2))


def fidelity(a, b) -> float:
    """F(a, b) = tr sqrt(sqrt(a) b sqrt(a)).

    For a pure state b, F^2 equals the overlap <b|a|b>. Note some texts
    call F^2 the fidelity; this package squares explicitly at call sites
    that need a probability.
    """
    a, b = as_operator(a), as_operator(b)
    _same_dim(a, b)
    s = sqrtm_psd(a)
    w = clip_spectrum(eig_hermitian(s @ b @ s))
    return min(1.0, float(np.sqrt(w).sum()))
