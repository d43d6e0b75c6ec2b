"""Dense complex linear algebra for one- and two-qubit operators.

Operators are plain numpy arrays: square complex matrices of dimension 2
or 4. Two-qubit matrices use the row-major tensor index ``2*a + b`` of
``np.kron(A, B)``, sender's half A first, receiver's half B second; as
a (2, 2, 2, 2) tensor it is [a, b, a', b'], read only by ``_b_blocks``.
Higher-level wrappers in this package expose the raw matrix as
``.mat``; every function here accepts either form, of one operator: a
stack of matrices is refused with :func:`as_operator`'s ``ValueError``.

A qubit operator is read in closed form, as its Bloch form (:func:`bloch`):
its spectrum, eigenbasis, positivity and trace distance take no LAPACK
call. LAPACK runs only on pair operators.
"""

from __future__ import annotations

import math

import numpy as np

#: The tolerance of operators: Hermiticity defects, PSD and PPT tests,
#: unit trace and Kraus completeness are judged at it. Scalars have their
#: own: ``security.PURITY_TOL`` (a pure target) and ``SIGN_TOL`` (the gap
#: q |b| of two equal Helstrom eigenvalues), ``states.OUTCOME_EPS`` (an
#: impossible outcome), 1e-9 (a unit-norm state vector) and 1e-12 (a
#: zero-norm cheat state) in ``states``, and ``protocol._LAW_GRID`` (the
#: grid of a session's laws).
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


def _hermitian_part(m: np.ndarray):
    """The one validation point for operators that must be Hermitian.

    Checks the operator ``m`` (from :func:`as_operator`) on its entries as
    Python scalars: finite, then Hermitian to within ``TOL``. Returns its
    Hermitian part h = (m + m†)/2: a qubit's as its Bloch form
    (a, bx, by, bz), h = (a I + bx X + by Y + bz Z)/2, with no numpy call
    past ``tolist``; any other's as a matrix.
    """
    rows = m.tolist()
    # first: m - m† of an infinite entry would be NaN
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for row in rows for z in row):
        raise ValueError("matrix has non-finite entries")
    n = len(rows)
    # hypot, not abs: abs of a complex raises OverflowError past the float range
    defect = max(math.hypot(d.real, d.imag) for d in
                 (rows[i][j] - rows[j][i].conjugate() for i in range(n) for j in range(i, n)))
    if defect > TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {TOL:.1e})")
    if n == 2:
        (m00, m01), (m10, m11) = rows
        return m00.real + m11.real, m01.real + m10.real, m10.imag - m01.imag, m00.real - m11.real
    return (m + m.conj().T) / 2


def bloch(m) -> tuple[float, float, float, float]:
    """The Bloch form (a, bx, by, bz) of one 2x2 Hermitian operator h.

    h = (a I + b.sigma)/2, so a = tr h, b_k = tr(h sigma_k), and the
    eigenvalues of h are (a +- |b|)/2. Validated as by :func:`eig_hermitian`.
    """
    return _hermitian_part(as_operator(m, 2))


def bloch_angles(bx: float, by: float, bz: float) -> tuple[float, float]:
    """The Bloch angles (theta, phi) of the direction of b, theta in [0, pi], phi in [0, 2 pi).

    theta = atan2(hypot(bx, by), bz) and phi = atan2(by, bx) mod 2 pi;
    adding +0.0 makes a signed zero +0, so b = 0 has the angles (0, 0) and
    b on the z axis has phi = 0.
    """
    theta = math.atan2(math.hypot(bx, by), bz + 0.0)
    phi = math.atan2(by + 0.0, bx + 0.0) % (2.0 * math.pi)
    if phi >= 2.0 * math.pi:  # a tiny negative angle rounds up to 2 pi
        phi = 0.0
    return theta, phi


def eig_hermitian(m, vectors: bool = False):
    """Eigenvalues of one Hermitian matrix, sorted descending.

    The input is symmetrized before decomposition to absorb roundoff from
    channel-application chains; inputs with non-finite entries or a
    Hermiticity defect above ``TOL`` are rejected. With ``vectors=True``
    returns ``(w, V)`` where column ``V[:, i]`` belongs to ``w[i]`` and
    ``M = V diag(w) V†``. A qubit is decomposed in closed form from its
    :func:`bloch` form: w = (a +- |b|)/2, and V's first column is the
    state of Bloch angles :func:`bloch_angles` of b, the second its
    orthogonal partner (the identity when b = 0). A pair goes to LAPACK.
    """
    m = as_operator(m)
    if m.shape[0] == 2:
        a, bx, by, bz = _hermitian_part(m)
        r = math.hypot(bx, by, bz)
        w = np.array([(a + r) / 2, (a - r) / 2])
        if not vectors:
            return w
        theta, phi = bloch_angles(bx, by, bz)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ph = complex(math.cos(phi), math.sin(phi))
        return w, np.array([[c, -s * ph.conjugate()], [s * ph, c]])
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
