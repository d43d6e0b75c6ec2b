"""Entanglement quantification for two qubits.

Concurrence (Wootters) measures entanglement on [0, 1]; positivity of
the partial transpose decides separability exactly at 2x2. The product
law checked by :func:`factorization_residual` says a local channel
degrades the concurrence of every pure input by one universal factor,
the concurrence of its Choi state, so a channel that disentangles the
Bell pair disentangles everything.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, choi, is_entanglement_breaking, lift_apply
from .linalg import (
    PAULI_Y,
    as_operator,
    clip_spectrum,
    eig_hermitian,
    kron,
    partial_transpose,
    sqrtm_psd,
)
from .states import DensityMatrix

SEPARABILITY_TOL = 1e-10

_YY = kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the four sorted Wootters singular values."""

    value: float
    lambdas: tuple[float, float, float, float]


def concurrence(rho: DensityMatrix) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit state.

    The lambdas are the square roots of the eigenvalues of
    rho (Y x Y) conj(rho) (Y x Y), computed through the Hermitian
    form sqrt(rho) (Y x Y) conj(rho) (Y x Y) sqrt(rho) so every
    eigensolve stays Hermitian. Eigenvalues indistinguishable from zero
    at roundoff scale (including tiny negatives, checked >= -1e-12) are
    clamped to 0 before the square root.
    """
    m = as_operator(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {m.shape}")
    s = sqrtm_psd(m)
    r = s @ _YY @ m.conj() @ _YY @ s
    w = eig_hermitian(r)
    if w[-1] < -1e-12:
        raise ValueError(f"spin-flipped product has eigenvalue {w[-1]:.3e} < -1e-12")
    lams = np.sqrt(clip_spectrum(w))
    value = max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
    return ConcurrenceResult(value, tuple(float(x) for x in lams))


def is_separable(rho: DensityMatrix, tol: float = SEPARABILITY_TOL) -> bool:
    """Positive-partial-transpose test, necessary and sufficient at 2x2."""
    m = as_operator(rho)
    if m.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {m.shape}")
    w = eig_hermitian(partial_transpose(m, on="B"))
    return bool(w[-1] >= -tol)


def factorization_residual(x, c: KrausChannel | DepolarizingChannel) -> float:
    """|C((I x c)[|x><x|]) - C(|x><x|) * C(choi(c))| for a pure input x.

    Both sides are evaluated independently: the left by pushing the state
    through the lifted channel, the right from the input and the Choi
    state alone.
    """
    rho = DensityMatrix.from_pure(x, (2, 2))
    left = concurrence(lift_apply(c, rho)).value
    right = concurrence(rho).value * concurrence(choi(c)).value
    return abs(left - right)


def eb_threshold(
    channel_family: Callable[[float], KrausChannel | DepolarizingChannel],
    lo: float,
    hi: float,
    width: float = 1e-9,
    tol: float = SEPARABILITY_TOL,
) -> float:
    """Bisect the entanglement-breaking boundary of a one-parameter family.

    ``channel_family(q)`` must classify differently at ``lo`` and ``hi``;
    the bracket is narrowed to ``width``, or until its midpoint is no
    longer representable between the endpoints, and its midpoint returned.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(width) and width > 0):
        raise ValueError(f"width must be finite and > 0, got {width}")
    eb_lo = is_entanglement_breaking(channel_family(lo), tol)
    eb_hi = is_entanglement_breaking(channel_family(hi), tol)
    if eb_lo == eb_hi:
        raise ValueError(
            f"no classification change on [{lo}, {hi}]: both are "
            f"{'EB' if eb_lo else 'non-EB'}"
        )
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if is_entanglement_breaking(channel_family(mid), tol) == eb_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
