"""Qubit channels, their two-qubit lifts, and entanglement-breaking tests.

The depolarizing channel eps(X) = q X + (1-q) tr[X] I/2 keeps a state
with probability q and replaces it with the maximally mixed state
otherwise. Lifted to half of a two-qubit state it is the noise applied
to incoming commitment qubits. Both apply functions use this closed form
for a :class:`DepolarizingChannel` and the Kraus sum for a
:class:`KrausChannel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TOL,
    as_operator,
    is_psd,
    kron,
    partial_trace,
    partial_transpose,
)
from .states import _BELL_PROJ, DensityMatrix, _check_q


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving qubit map given by Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = []
        for k in self.kraus_ops:
            k = np.array(as_operator(k, 2))
            if not np.isfinite(k).all():
                raise ValueError("Kraus operators must have finite entries")
            k.setflags(write=False)
            ops.append(k)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        object.__setattr__(self, "kraus_ops", tuple(ops))
        total = sum(k.conj().T @ k for k in ops)
        defect = np.abs(total - np.eye(2)).max()
        if defect > TOL:
            raise ValueError(f"Kraus completeness violated (defect {defect:.3e})")


@dataclass(frozen=True)
class DepolarizingChannel:
    """eps(X) = q X + (1-q) tr[X] I/2."""

    q: float

    def __post_init__(self):
        _check_q(self.q)


def as_kraus(c: DepolarizingChannel) -> KrausChannel:
    """Pauli-twirl Kraus form of the depolarizing channel.

    {sqrt(q + (1-q)/4) I, sqrt((1-q)/4) X, sqrt((1-q)/4) Y,
    sqrt((1-q)/4) Z}; agreement with the closed form is a tested
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


def _check_channel(c) -> None:
    if not isinstance(c, (KrausChannel, DepolarizingChannel)):
        raise TypeError(f"not a channel: {c!r}")


def channel_apply(c: KrausChannel | DepolarizingChannel, x) -> np.ndarray:
    """Apply a qubit channel to any 2x2 operator."""
    _check_channel(c)
    x = as_operator(x, 2)
    if isinstance(c, DepolarizingChannel):
        return c.q * x + (1.0 - c.q) * x.trace() * np.eye(2) / 2
    return sum(k @ x @ k.conj().T for k in c.kraus_ops)


def lift_apply(c: KrausChannel | DepolarizingChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply (I x c) to a two-qubit state: noise on the B half only.

    The depolarizing lift is q rho + (1-q) tr_B[rho] x I/2. The A marginal
    is untouched, which is the channel-level statement that the noise
    cannot signal to the sender.
    """
    _check_channel(c)
    m = as_operator(rho, 4)
    if isinstance(c, DepolarizingChannel):
        return DensityMatrix(c.q * m + (1.0 - c.q) * kron(partial_trace(m, "A"), np.eye(2) / 2))
    lifted = [kron(np.eye(2), k) for k in c.kraus_ops]
    return DensityMatrix(sum(k @ m @ k.conj().T for k in lifted))


def choi(c: KrausChannel | DepolarizingChannel) -> DensityMatrix:
    """Channel output on half of the Bell pair, (I x c)[|psi+><psi+|].

    This single state determines how the channel degrades any entangled
    input, which is what makes the separability test below decisive. The
    Bell projector is exact (entries 0 and 1/2), so the Choi state of the
    depolarizing channel is ``isotropic(q)`` bit for bit.
    """
    return lift_apply(c, _BELL_PROJ)


def is_entanglement_breaking(c: KrausChannel | DepolarizingChannel) -> bool:
    """True iff the channel output on half an entangled pair is separable.

    Decided by positivity of the partial transpose of the Choi state,
    which is exact for qubit pairs; this is ``is_separable(choi(c))``.
    """
    return is_psd(partial_transpose(choi(c)))
