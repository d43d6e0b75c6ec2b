"""Qubit channels, their two-qubit lifts, and their Choi states.

The depolarizing channel eps(X) = q X + (1-q) tr[X] I/2 keeps a state
with probability q and replaces it with the maximally mixed state
otherwise. :func:`channel_apply` is the one place a channel acts, on a
2x2 operator or a stack of them: this closed form for a
:class:`DepolarizingChannel`, the Kraus sum for a :class:`KrausChannel`.
A lift (I x c), the noise on incoming commitment qubits, is that map on
the pair's 2x2 blocks (``linalg._b_blocks``). Sessions do not lift their
pair: they apply the depolarizing map, which is self-adjoint, to the
receiver's four effects, for all their q at once with a vector q
broadcast over them (``_depolarize``). Nor does a sweep: its concurrence
column is the closed form C (3q - 1)/2 of the noiseless pair's
concurrence C, 0 where that is <= 0, and a row is separable iff it is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL, _b_blocks, _from_b_blocks, as_operator, as_stack
from .states import DensityMatrix, _check_q, _check_trace, _unchecked


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
        object.__setattr__(self, "q", float(self.q))  # a numpy float32 q would leak into reports


_HALF_I = np.eye(2) / 2
_HALF_I.setflags(write=False)


def _depolarize(q, x) -> np.ndarray:
    """q x + (1-q) tr[x] I/2 for each 2x2 operator of a stack; an array q broadcasts against it."""
    return q * x + (1.0 - q) * (x[..., 0, 0] + x[..., 1, 1])[..., None, None] * _HALF_I


def channel_apply(c: KrausChannel | DepolarizingChannel, x) -> np.ndarray:
    """Apply a qubit channel to a 2x2 operator, or to each operator of a (..., 2, 2) stack."""
    x = as_stack(x, 2)
    if isinstance(c, DepolarizingChannel):
        return _depolarize(c.q, x)
    if isinstance(c, KrausChannel):
        return sum(k @ x @ k.conj().T for k in c.kraus_ops)
    raise TypeError(f"not a channel: {c!r}")


def lift_apply(c: KrausChannel | DepolarizingChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply (I x c) to a two-qubit state: noise on the B half only.

    The depolarizing lift is q rho + (1-q) tr_B[rho] x I/2. The A marginal
    is untouched, which is the channel-level statement that the noise
    cannot signal to the sender.
    """
    return DensityMatrix(_from_b_blocks(channel_apply(c, _b_blocks(rho))))


# Exact projector of the Bell pair; entries are 0 or 1/2.
_BELL_PROJ = np.zeros((4, 4), dtype=complex)
for _i in (0, 3):
    for _j in (0, 3):
        _BELL_PROJ[_i, _j] = 0.5
_BELL_PROJ.setflags(write=False)
del _i, _j


def choi(c: KrausChannel | DepolarizingChannel) -> DensityMatrix:
    """Channel output on half of the Bell pair, (I x c)[|psi+><psi+|].

    This single state determines how the channel degrades any entangled
    input, which makes its separability decisive for
    ``entanglement.is_entanglement_breaking``. The Bell projector is exact
    (entries 0 and 1/2), so the Choi state of the depolarizing channel is
    the isotropic state q |psi+><psi+| + (1-q) I/4 bit for bit. It is
    stored with no eigensolve: a validated channel's Choi state is
    Hermitian and PSD up to roundoff. Its trace, half that of the
    channel's sum of K^dagger K, is within ``TOL`` of 1 by the Kraus
    completeness check, but only up to roundoff too, so it is checked as
    ``DensityMatrix`` checks it: a channel at the completeness bound can
    give a trace an ulp past ``TOL``.
    """
    m = _from_b_blocks(channel_apply(c, _b_blocks(_BELL_PROJ)))
    _check_trace(m)
    return _unchecked(m)
