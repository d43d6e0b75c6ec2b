"""State constructors and projective measurement.

Encoding convention for the commitment scheme: bit 0 is carried by the
computational pair {|0>, |1>} (rectilinear), bit 1 by the diagonal pair
{|+>, |->}. Within a bit, ``variant`` selects which of the two states is
sent. Either pair averages to I/2, so the committed bit is invisible to
anyone holding a single unopened qubit.

Measurement randomness is always an injected uniform value in [0, 1);
nothing in this module owns a generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_operator,
    eig_hermitian,
    hermiticity_defect,
    kron,
    partial_trace,
)

DENSITY_TOL = 1e-10

# Probability below which a measurement outcome is treated as impossible
# and never returned.
OUTCOME_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with subsystem structure.

    ``subsystems`` lists the local dimensions, e.g. ``(2,)`` for a qubit
    or ``(2, 2)`` for an A|B pair. Validation happens on construction;
    the stored matrix is an immutable copy. Equality is exact entrywise
    equality of the matrices.
    """

    mat: np.ndarray
    subsystems: tuple[int, ...] = (2,)

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.subsystems == other.subsystems and np.array_equal(self.mat, other.mat)

    def __post_init__(self):
        m = np.array(as_operator(self.mat), dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        subs = tuple(int(d) for d in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if math.prod(subs) != m.shape[0]:
            raise ValueError(f"subsystems {subs} do not multiply to dim {m.shape[0]}")
        defect = hermiticity_defect(m)
        if defect > DENSITY_TOL:
            raise ValueError(f"not Hermitian (defect {defect:.3e})")
        tr = m.trace().real
        if abs(tr - 1.0) > DENSITY_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        w = eig_hermitian(m)
        if w[-1] < -DENSITY_TOL:
            raise ValueError(f"not PSD (min eigenvalue {w[-1]:.3e})")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, vec, subsystems: tuple[int, ...] = (2,)) -> "DensityMatrix":
        """Projector |v><v| of a normalized state vector."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"state vector norm {n!r} is not 1")
        v = v / n
        return cls(np.outer(v, v.conj()), subsystems)


@dataclass(frozen=True)
class Bb84Symbol:
    """One committed symbol: the bit plus which of its two carrier states."""

    bit: int
    variant: int

    def __post_init__(self):
        if self.bit not in (0, 1) or self.variant not in (0, 1):
            raise ValueError(f"bit and variant must be 0 or 1, got {self}")


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


def bb84_state(symbol: Bb84Symbol) -> np.ndarray:
    """State vector sent for a symbol: bit 0 -> {|0>, |1>}, bit 1 -> {|+>, |->}."""
    if symbol.bit == 0:
        return np.array([1, 0], dtype=complex) if symbol.variant == 0 else np.array([0, 1], dtype=complex)
    sign = 1.0 if symbol.variant == 0 else -1.0
    return np.array([_SQRT_HALF, sign * _SQRT_HALF], dtype=complex)


def bb84_projector(symbol: Bb84Symbol) -> np.ndarray:
    """Projector of a symbol state with exact entries.

    The diagonal-pair projectors are built as (I +- X)/2 rather than an
    outer product of sqrt(1/2) amplitudes, so that mixing the two
    variants of either bit gives I/2 with no floating-point residue.
    """
    if symbol.bit == 0:
        p = np.zeros((2, 2), dtype=complex)
        p[symbol.variant, symbol.variant] = 1.0
        return p
    sign = 1.0 if symbol.variant == 0 else -1.0
    return np.array([[0.5, sign * 0.5], [sign * 0.5, 0.5]], dtype=complex)


def bb84_pair_mixture(bit: int) -> DensityMatrix:
    """Uniform mixture of the two variants of a bit; equals I/2 for both bits."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    mix = (bb84_projector(Bb84Symbol(bit, 0)) + bb84_projector(Bb84Symbol(bit, 1))) / 2
    return DensityMatrix(mix, (2,))


def encoding_basis(bit: int) -> ProjectiveBasis:
    """Measurement basis that resolves the two variants of a bit."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
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
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return DensityMatrix(q * _BELL_PROJ + (1.0 - q) / 4.0 * np.eye(4), (2, 2))


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
            if abs(n - 1.0) > 1e-9:
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
    if n < 1e-12:
        raise ValueError("joint vector has zero norm")
    joint = joint / n
    return DensityMatrix(np.outer(joint, joint.conj()), (2, 2))


def measure(rho: DensityMatrix, basis: ProjectiveBasis, rand: float) -> tuple[int, np.ndarray]:
    """Projective measurement of a single qubit by the Born rule.

    Outcome 0 is returned iff ``rand < <b0|rho|b0>``; the post-measurement
    state is the corresponding basis vector.
    """
    m = as_operator(rho)
    if m.shape != (2, 2):
        raise ValueError(f"expected a single-qubit state, got shape {m.shape}")
    b0, b1 = basis.vectors()
    p0 = float(np.real(b0.conj() @ m @ b0))
    if rand < p0:
        return 0, b0
    return 1, b1


def joint_outcome_decomposition(
    rho: DensityMatrix, side: str, basis: ProjectiveBasis
) -> tuple[tuple[float, DensityMatrix | None], ...]:
    """Both branches of a local measurement on half of a two-qubit state.

    Returns ``((p0, cond0), (p1, cond1))`` where ``p_j`` is the Born
    probability of outcome ``j`` on ``side`` and ``cond_j`` is the
    normalized state left on the other side. Branches with probability
    below ``OUTCOME_EPS`` carry ``None``.
    """
    m = as_operator(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {m.shape}")
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
        cond = partial_trace(full @ m @ full, keep=other) / p
        branches.append((p, DensityMatrix(cond, (2,))))
    return tuple(branches)


def measure_joint(
    rho: DensityMatrix, side: str, basis: ProjectiveBasis, rand: float
) -> tuple[int, DensityMatrix]:
    """Sample a local measurement on half of a two-qubit state.

    Outcomes with Born probability below ``OUTCOME_EPS`` are never
    returned.
    """
    (p0, cond0), (p1, cond1) = joint_outcome_decomposition(rho, side, basis)
    if cond0 is None:
        return 1, cond1
    if cond1 is None:
        return 0, cond0
    if rand < p0:
        return 0, cond0
    return 1, cond1
