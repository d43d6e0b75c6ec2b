"""Qubit channels, their two-qubit lifts, and entanglement-breaking tests.

The depolarizing channel eps(X) = q X + (1-q) tr[X] I/2 keeps a state
with probability q and replaces it with the maximally mixed state
otherwise. Lifted to half of a two-qubit state it is the noise applied
to incoming commitment qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_operator,
    eig_hermitian,
    kron,
    partial_transpose,
)
from .states import DensityMatrix, bell_psi_plus

COMPLETENESS_TOL = 1e-10
PPT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving qubit map given by Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = []
        for k in self.kraus_ops:
            k = np.array(as_operator(k), dtype=complex)
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got {k.shape}")
            k.setflags(write=False)
            ops.append(k)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        object.__setattr__(self, "kraus_ops", tuple(ops))
        total = sum(k.conj().T @ k for k in ops)
        defect = np.abs(total - np.eye(2)).max()
        if defect > COMPLETENESS_TOL:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class DepolarizingChannel:
    """eps(X) = q X + (1-q) tr[X] I/2."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")


def depolarize_apply(c: DepolarizingChannel, x) -> np.ndarray:
    """Apply the closed-form depolarizing map to any 2x2 operator."""
    x = as_operator(x)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {x.shape}")
    return c.q * x + (1.0 - c.q) * x.trace() * np.eye(2) / 2


def as_kraus(c: DepolarizingChannel) -> KrausChannel:
    """Pauli-twirl Kraus form of the depolarizing channel.

    {sqrt(q + (1-q)/4) I, sqrt((1-q)/4) X, sqrt((1-q)/4) Y,
    sqrt((1-q)/4) Z}; agreement with :func:`depolarize_apply` is a tested
    contract, not an assumption.
    """
    p = (1.0 - c.q) / 4.0
    weighted = (
        (np.sqrt(c.q + p), PAULI_I),
        (np.sqrt(p), PAULI_X),
        (np.sqrt(p), PAULI_Y),
        (np.sqrt(p), PAULI_Z),
    )
    return KrausChannel(tuple(w * op for w, op in weighted if w > 0.0))


def _kraus_of(c: KrausChannel | DepolarizingChannel) -> KrausChannel:
    if isinstance(c, KrausChannel):
        return c
    if isinstance(c, DepolarizingChannel):
        return as_kraus(c)
    raise TypeError(f"not a channel: {c!r}")


def channel_apply(c: KrausChannel | DepolarizingChannel, x) -> np.ndarray:
    """Apply a qubit channel to a 2x2 operator."""
    if isinstance(c, DepolarizingChannel):
        return depolarize_apply(c, x)
    x = as_operator(x)
    if x.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {x.shape}")
    return sum(k @ x @ k.conj().T for k in c.kraus_ops)


def lift_apply(c: KrausChannel | DepolarizingChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply (I x c) to a two-qubit state: noise on the B half only.

    The A marginal is untouched, which is the channel-level statement
    that the noise cannot signal to the sender.
    """
    m = as_operator(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {m.shape}")
    eye = np.eye(2)
    out = np.zeros((4, 4), dtype=complex)
    for k in _kraus_of(c).kraus_ops:
        lifted = kron(eye, k)
        out += lifted @ m @ lifted.conj().T
    return DensityMatrix(out, (2, 2))


def choi(c: KrausChannel | DepolarizingChannel) -> DensityMatrix:
    """Channel output on half of the Bell pair, (I x c)[|psi+><psi+|].

    This single state determines how the channel degrades any entangled
    input, which is what makes the separability test below decisive.
    """
    bell = DensityMatrix.from_pure(bell_psi_plus(), (2, 2))
    return lift_apply(c, bell)


def is_entanglement_breaking(c: KrausChannel | DepolarizingChannel, tol: float = PPT_TOL) -> bool:
    """True iff the channel output on half an entangled pair is separable.

    Decided by positivity of the partial transpose of the Choi state,
    which is exact for qubit pairs.
    """
    w = eig_hermitian(partial_transpose(choi(c).mat, on="B"))
    return bool(w[-1] >= -tol)
