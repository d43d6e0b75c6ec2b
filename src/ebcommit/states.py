"""State constructors and the sender's operator of a receiver outcome.

Encoding convention for the commitment scheme: bit 0 is carried by the
computational pair {|0>, |1>} (rectilinear), bit 1 by the diagonal pair
{|+>, |->}. Within a bit, ``variant`` selects which of the two states is
sent. Either pair averages to I/2, so the committed bit is invisible to
anyone holding a single unopened qubit.

Nothing in this module samples: outcomes are drawn in ``protocol`` from
the Born probabilities computed here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import TOL, _b_blocks, as_operator, eig_hermitian, is_psd

# Probability below which a measurement outcome is treated as impossible:
# a session's round class of lower probability is never drawn.
OUTCOME_EPS = 1e-12


# Inputs are type-checked here, once each. bool is an Integral and a Real
# too, but True is no count, bit or probability.
def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_real(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_bit(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


def _check_word(name: str, value) -> None:
    """A 64-bit unsigned word: a seed or a trial, one half of a Philox key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")


def _check_q(q) -> None:
    """The noise parameter q of the depolarizing channel and the isotropic family."""
    _check_real("q", q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")


def _check_dim(d: int) -> None:
    """The dimension of a density matrix: a qubit or a qubit pair."""
    if d not in (2, 4):
        raise ValueError(f"dimension must be 2 or 4, got {d}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator of a qubit or an A|B qubit pair.

    The dimension is 2 or 4. ``DensityMatrix(mat)`` validates ``mat`` in
    full and stores a read-only copy: a square matrix of dimension 2 or 4,
    finite, Hermitian, PSD (by :func:`is_psd`) and of unit trace, checked
    in that order. It is the package's one validation of a density matrix;
    a stack of them is no density matrix. :meth:`from_pure` and
    :func:`cheat_state` check their state vector instead and build its
    projector with :func:`_projector`, which needs no further check.
    That and the other states valid by construction, :func:`bb84_pair_mixture`
    and ``channels.choi``, are stored by :func:`_unchecked`, with no eigensolve.
    Equality is exact entrywise equality of the matrices.
    """

    mat: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    def __post_init__(self):
        m = np.array(as_operator(self.mat), dtype=complex)
        m.setflags(write=False)
        _check_dim(m.shape[0])
        # is_psd rejects non-finite and non-Hermitian matrices first
        if not is_psd(m):
            raise ValueError(f"not PSD (min eigenvalue {eig_hermitian(m)[-1]:.3e})")
        _check_trace(m)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, vec) -> "DensityMatrix":
        """Projector |v><v| of a normalized state vector of dimension 2 or 4.

        The norm check rejects a non-finite v and a norm off 1 by more than
        1e-9; that is all :func:`_projector` needs to form |v><v| unchecked.
        """
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = _norm(v)
        if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails this too
            raise ValueError(f"state vector norm {n!r} is not 1")
        return _projector(v / n)


def _check_trace(m: np.ndarray) -> None:
    tr = m.trace().real
    if abs(tr - 1.0) > TOL:
        raise ValueError(f"trace is {tr!r}, expected 1")


def _norm(v: np.ndarray):
    """The 2-norm of a complex vector: ``np.linalg.norm``'s, unless its squares overflow.

    ``np.linalg.norm`` sums the squares of the parts, which overflow past
    ~1.3e154. Wherever its value is finite it is returned bit for bit; a
    finite v on which it overflows is divided by its largest part first,
    so that its norm is inf only when the norm itself is past the largest
    float. No overflow warning is raised.
    """
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
        if n == math.inf and np.isfinite(v).all():
            top = np.maximum(abs(v.real), abs(v.imag)).max()
            n = top * np.linalg.norm(v / top)
    return n


def _projector(v: np.ndarray) -> DensityMatrix:
    """The read-only projector |v><v| of a finite state vector of unit norm, as a DensityMatrix.

    The caller checks v and divides it by its norm; only the dimension is
    checked here, since the checks of ``DensityMatrix(mat)`` could reject
    nothing more. With |v_i| <= 1, each entry of ``np.outer(v, v.conj())``
    is within a few ulps of v_i conj(v_j) (a fused complex product can leave
    ~1e-17 of imaginary part on the diagonal), so its Hermiticity defect,
    its most negative eigenvalue and the distance of its trace |v|^2 from 1
    are of order 1e-15, far inside ``TOL``. It is stored with no eigensolve.
    """
    _check_dim(v.shape[0])
    return _unchecked(np.outer(v, v.conj()))


def _unchecked(m: np.ndarray) -> DensityMatrix:
    """A fresh complex matrix, made read-only and stored as a DensityMatrix with no validation.

    For states valid by construction only: the caller guarantees that
    ``DensityMatrix(m)`` would accept ``m`` and store it bit for bit.
    """
    m.setflags(write=False)
    rho = object.__new__(DensityMatrix)  # skips __post_init__'s validation
    object.__setattr__(rho, "mat", m)
    return rho


def _as_angle(name: str, value) -> float:
    """A real angle as a float; one past the float range, such as 10**400, as +-inf."""
    _check_real(name, value)
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal qubit basis from the Bloch angles of its first vector.

    b0 = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, b1 is the
    orthogonal complement (phase fixed so theta=0 gives exactly
    {|0>, |1>}).
    """

    theta: float
    phi: float

    def __post_init__(self):
        # checked and stored as Python floats, as ProtocolConfig stores q: a
        # numpy angle would not serialize, and one checked at its own precision
        # could round past the range as a float (a float32 pi lies above pi)
        theta, phi = (_as_angle(name, getattr(self, name)) for name in ("theta", "phi"))
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= phi < 2 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        ph = complex(math.cos(self.phi), math.sin(self.phi))
        b0 = np.array([c, ph * s], dtype=complex)
        b1 = np.array([-s / ph, c], dtype=complex)
        return b0, b1


RECTILINEAR = ProjectiveBasis(0.0, 0.0)
DIAGONAL = ProjectiveBasis(math.pi / 2, 0.0)


def bb84_projector(bit: int, variant: int) -> np.ndarray:
    """Projector of the carrier state ``variant`` of ``bit``, with exact entries.

    The diagonal-pair projectors are built as (I +- X)/2 rather than an
    outer product of sqrt(1/2) amplitudes, so that mixing the two
    variants of either bit gives I/2 with no floating-point residue.
    """
    _check_bit("bit", bit)
    _check_bit("variant", variant)
    if bit == 0:
        p = np.zeros((2, 2), dtype=complex)
        p[variant, variant] = 1.0
        return p
    sign = 1.0 if variant == 0 else -1.0
    return np.array([[0.5, sign * 0.5], [sign * 0.5, 0.5]], dtype=complex)


def bb84_pair_mixture(bit: int) -> DensityMatrix:
    """Uniform mixture of the two variants of a bit; equals I/2 for both bits.

    The projectors' entries are exact, so the mixture is I/2 exactly and
    is stored with no eigensolve.
    """
    return _unchecked((bb84_projector(bit, 0) + bb84_projector(bit, 1)) / 2)


def encoding_basis(bit: int) -> ProjectiveBasis:
    """Measurement basis that resolves the two variants of a bit."""
    _check_bit("bit", bit)
    return RECTILINEAR if bit == 0 else DIAGONAL


# Exact projector of the Bell pair; entries are 0 or 1/2.
_BELL_PROJ = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        _BELL_PROJ[_i, _j] = 0.5
_BELL_PROJ.setflags(write=False)
del _i, _j


def isotropic(q: float) -> DensityMatrix:
    """Mixture q |psi+><psi+| + (1-q)/4 I of the Bell pair with white noise."""
    _check_q(q)
    return DensityMatrix(q * _BELL_PROJ + (1.0 - q) / 4.0 * np.eye(4))


@dataclass(frozen=True, eq=False)
class CheatStrategy:
    """Entangling amplitudes of the committed pair |a0>|0> + |a1>|1>.

    ``a0`` and ``a1`` are single-qubit state vectors.
    """

    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        for name in ("a0", "a1"):
            v = np.array(np.reshape(getattr(self, name), -1), dtype=complex)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a single-qubit state vector")
            n = _norm(v)
            if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails this too
                raise ValueError(f"{name} must be normalized, got norm {n!r}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def cheat_state(a0, a1) -> DensityMatrix:
    """Entangled commitment |a0>_A |0>_B + |a1>_A |1>_B, normalized.

    This is the generic state a cheating committer keeps half of: the B
    qubit goes to the receiver while the A register stays behind for
    later steering. a0 and a1 need not be normalized, only finite and of
    a finite joint norm of at least 1e-12; the joint vector is divided by
    that norm once, and :func:`_projector` forms its projector with no
    eigensolve.
    """
    a0 = np.asarray(a0, dtype=complex).reshape(-1)
    a1 = np.asarray(a1, dtype=complex).reshape(-1)
    if a0.shape != (2,) or a1.shape != (2,):
        raise ValueError("a0 and a1 must be single-qubit state vectors")
    joint = np.array([a0[0], a1[0], a0[1], a1[1]], dtype=complex)
    n = _norm(joint)
    if not 1e-12 <= n < math.inf:
        raise ValueError(f"joint vector has zero norm or a non-finite entry or norm (norm {n!r})")
    return _projector(joint / n)


def _sender_operator(rho, effects) -> np.ndarray:
    """x_E = tr_B[rho (I x E)]: the sender's half of a pair given a receiver effect E, unnormalized.

    One contraction x_E[a, a'] = tr(rho[a, :, a', :] E) over the pair's B
    blocks serves one 2x2 effect or a stack of shape (..., 2, 2), x_E in
    its place. For a projector E, tr x_E is the Born probability of the
    outcome and x_E / tr x_E the sender's conditional state. x_E is linear
    in E, so a receiver channel c enters as its adjoint on the effect:
    the operator of E on the pair (I x c)(rho) is that of c^dagger(E) on rho.
    """
    return np.einsum("ijkl,...lk->...ij", _b_blocks(rho), np.asarray(effects))
