"""State constructors, the sender's operator of a receiver outcome, and conditional states.

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

from .linalg import PAULI_I, TOL, as_operator, eig_hermitian, is_psd, kron, partial_trace

# Probability below which a measurement outcome is treated as impossible
# and never sampled.
OUTCOME_EPS = 1e-12


# Scalar inputs are type-checked here, once each. bool is an Integral and a
# Real too, but True is no count, bit or probability.
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


def _check_q(q) -> None:
    """The noise parameter q of the depolarizing channel and the isotropic family."""
    _check_real("q", q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator of a qubit or an A|B qubit pair.

    The dimension is 2 or 4. Validation happens on construction; the
    stored matrix is an immutable copy. Equality is exact entrywise
    equality of the matrices.
    """

    mat: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    def __post_init__(self):
        m = np.array(as_operator(self.mat), dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        if m.shape[0] not in (2, 4):
            raise ValueError(f"dimension must be 2 or 4, got {m.shape[0]}")
        # is_psd rejects non-finite and non-Hermitian matrices first
        if not is_psd(m):
            raise ValueError(f"not PSD (min eigenvalue {eig_hermitian(m)[-1]:.3e})")
        tr = m.trace().real
        if abs(tr - 1.0) > TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, vec) -> "DensityMatrix":
        """Projector |v><v| of a normalized state vector."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails this too
            raise ValueError(f"state vector norm {n!r} is not 1")
        v = v / n
        return cls(np.outer(v, v.conj()))


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
        _check_real("theta", self.theta)
        _check_real("phi", self.phi)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        ph = complex(math.cos(self.phi), math.sin(self.phi))
        b0 = np.array([c, ph * s], dtype=complex)
        b1 = np.array([-s / ph, c], dtype=complex)
        return b0, b1

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        b0, b1 = self.vectors()
        return np.outer(b0, b0.conj()), np.outer(b1, b1.conj())


RECTILINEAR = ProjectiveBasis(0.0, 0.0)
DIAGONAL = ProjectiveBasis(math.pi / 2, 0.0)

_SQRT_HALF = math.sqrt(0.5)


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
    """Uniform mixture of the two variants of a bit; equals I/2 for both bits."""
    mix = (bb84_projector(bit, 0) + bb84_projector(bit, 1)) / 2
    return DensityMatrix(mix)


def encoding_basis(bit: int) -> ProjectiveBasis:
    """Measurement basis that resolves the two variants of a bit."""
    _check_bit("bit", bit)
    return RECTILINEAR if bit == 0 else DIAGONAL


def bell_psi_plus() -> np.ndarray:
    """Maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return np.array([_SQRT_HALF, 0, 0, _SQRT_HALF], dtype=complex)


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
            v = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a single-qubit state vector")
            n = np.linalg.norm(v)
            if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails this too
                raise ValueError(f"{name} must be normalized, got norm {n!r}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def cheat_state(a0, a1) -> DensityMatrix:
    """Entangled commitment |a0>_A |0>_B + |a1>_A |1>_B, normalized.

    This is the generic state a cheating committer keeps half of: the B
    qubit goes to the receiver while the A register stays behind for
    later steering.
    """
    a0 = np.asarray(a0, dtype=complex).reshape(-1)
    a1 = np.asarray(a1, dtype=complex).reshape(-1)
    if a0.shape != (2,) or a1.shape != (2,):
        raise ValueError("a0 and a1 must be single-qubit state vectors")
    joint = np.array([a0[0], a1[0], a0[1], a1[1]], dtype=complex)
    n = np.linalg.norm(joint)
    if not 1e-12 <= n < math.inf:
        raise ValueError(f"joint vector has zero norm or non-finite entries (norm {n!r})")
    joint = joint / n
    return DensityMatrix(np.outer(joint, joint.conj()))


def _sender_operator(rho, effect) -> np.ndarray:
    """x_E = tr_B[rho (I x E)]: the sender's half of a pair given a receiver effect E, unnormalized.

    For a projector E, tr x_E is the Born probability of the outcome and
    x_E / tr x_E the sender's conditional state. x_E is linear in E.
    """
    return partial_trace(as_operator(rho, 4) @ kron(PAULI_I, effect), keep="A")


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
    at 0. Sessions read their Born tables off ``_sender_operator``
    instead, and the tests use this as the reference.
    """
    m = as_operator(rho, 4)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    other = "B" if side == "A" else "A"
    eye = np.eye(2)
    branches = []
    for proj in basis.projectors():
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
