"""Hiding and binding metrics for the noisy commitment.

Hiding: the receiver's best guess of an honestly committed bit succeeds
with probability 1/2 + max(D, D')/2 where D is the trace distance
between the two bit encodings and D' the same distance after the
channel. The scheme's encodings both average to I/2, so it is perfectly
hiding.

Binding: a cheating sender who committed half of an entangled pair picks
a measurement on her half to steer the receiver's state toward the bit
she now wants to open. Her figure of merit is the squared fidelity
between the receiver's conditional state and the announced carrier,
maximized over announcement after she sees each outcome. For a pure
target this is a two-hypothesis discrimination problem on the sender's
side, so the optimum over all steering bases is Helstrom's closed form
(Quantum Detection and Estimation Theory, 1976): one 2x2 eigensolve.
The receiver's depolarizing channel acts on his effect only as the
factor q, so that eigensolve is of the noiseless pair's Helstrom
operator: the objective is 1/2 + q times the sender's noiseless
advantage, and her best basis does not depend on q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, channel_apply
from .linalg import PAULI_I, eig_hermitian, trace_distance
from .states import (
    RECTILINEAR,
    CheatStrategy,
    DensityMatrix,
    ProjectiveBasis,
    _check_type,
    _sender_operator,
    cheat_state,
)

#: A target with tr(t^2) below 1 - PURITY_TOL is rejected as mixed.
PURITY_TOL = 1e-9

#: Eigenvalues of X_t - X_t' within this of each other count as equal, so
#: that roundoff on a flat objective cannot pick an arbitrary eigenvector.
SIGN_TOL = 1e-12


def bell_strategy() -> CheatStrategy:
    """The canonical attack: commit half of a maximally entangled pair."""
    return CheatStrategy(a0=np.array([1, 0], dtype=complex), a1=np.array([0, 1], dtype=complex))


@dataclass(frozen=True)
class HidingReport:
    delta_raw: float
    delta_channel: float
    p_bcheat: float


@dataclass(frozen=True)
class BindingReport:
    """Optimal steering basis and the steering objective it attains."""

    best_basis: ProjectiveBasis
    best_fidelity_sq: float


def bob_cheat_probability(
    sigma0: DensityMatrix, sigma1: DensityMatrix, channel: KrausChannel | DepolarizingChannel
) -> HidingReport:
    """Receiver's guessing probability 1/2 + max(D, D')/2 for the two encodings.

    Both distances are computed as written even though, by data
    processing, every channel can only contract them (D' <= D, and
    D' = q D for the depolarizing family), so the raw term decides.
    Raises TypeError for an encoding that is not a DensityMatrix and
    ValueError for one that is not a qubit state.
    """
    for name, sigma in (("sigma0", sigma0), ("sigma1", sigma1)):
        _check_type(name, sigma, DensityMatrix)
        if sigma.dim != 2:
            raise ValueError(f"{name} must be a qubit state, got dimension {sigma.dim}")
    delta_raw = trace_distance(sigma0, sigma1)
    delta_channel = trace_distance(
        channel_apply(channel, sigma0), channel_apply(channel, sigma1)
    )
    return HidingReport(
        delta_raw=delta_raw,
        delta_channel=delta_channel,
        p_bcheat=0.5 + max(delta_raw, delta_channel) / 2.0,
    )


def alice_binding_attack(
    strategy: CheatStrategy, channel: DepolarizingChannel, target: DensityMatrix
) -> BindingReport:
    """The sender's optimal steering measurement, in closed form.

    The objective at a basis is the outcome-weighted best squared
    fidelity between the receiver's conditional state and an
    announcement, where the sender may announce the pure target t or its
    orthogonal partner t' = I - t after seeing her outcome. This is the
    reading most generous to the sender. Its maximum over all bases is
    the Helstrom value (1 + ||X_t - X_t'||_1)/2 with
    X_T = tr_B[(I x T) rho_q], attained by the eigenbasis of X_t - X_t';
    outcome 0 (the eigenvector of the larger eigenvalue) announces t.

    The receiver's channel is read in the Heisenberg picture, on his
    effect, and the post-channel pair rho_q = (I x eps_q)(rho) is never
    formed: X_t - X_t' = tr_B[(I x eps_q(2t - I)) rho], since eps_q is
    self-adjoint under the trace inner product, and
    eps_q(2t - I) = q (2t - I) + (1 - q) tr(2t - I) I/2 = q (2t - I),
    because tr t = 1. So X_t - X_t' = q X, with X the noiseless pair's
    Helstrom operator, decomposed once: the value is (1 + q ||X||_1)/2
    and the best basis, X's eigenbasis, is the same at every q > 0. A
    general receiver channel c enters the same way, as its adjoint
    c^dagger(2t - I) on the effect; the pair is not lifted.

    The eigenbasis is reported whenever the two eigenvalues of q X differ
    by more than ``SIGN_TOL``; otherwise every basis attains the optimum
    and the computational basis (0, 0) is reported.
    Raises TypeError for a strategy that is not a CheatStrategy, a
    channel that is not a DepolarizingChannel or a target that is not a
    DensityMatrix, and ValueError for a target that is not a pure qubit
    state.
    """
    _check_type("strategy", strategy, CheatStrategy)
    _check_type("channel", channel, DepolarizingChannel)
    _check_type("target", target, DensityMatrix)
    if target.dim != 2:
        raise ValueError(f"target must be a qubit state, got dimension {target.dim}")
    purity = float(np.vdot(target.mat, target.mat).real)
    if purity < 1.0 - PURITY_TOL:
        raise ValueError(f"target must be a pure state, got tr(t^2) = {purity:.9g}")
    x = _sender_operator(cheat_state(strategy.a0, strategy.a1), 2.0 * target.mat - PAULI_I)
    w, v = eig_hermitian(x, vectors=True)  # X of the noiseless pair, for the effect 2t - I = t - t'
    best = (1.0 + channel.q * float(np.abs(w).sum())) / 2.0
    if channel.q * (w[0] - w[1]) <= SIGN_TOL:  # q X is about a multiple of I: no basis stands out
        return BindingReport(best_basis=RECTILINEAR, best_fidelity_sq=best)
    b0, b1 = v[:, 0]
    theta = 2.0 * math.atan2(abs(b1), abs(b0))
    phi = float(np.angle(b1 * b0.conjugate())) % (2.0 * math.pi)
    if phi >= 2.0 * math.pi:  # a tiny negative angle rounds up to 2 pi
        phi = 0.0
    return BindingReport(best_basis=ProjectiveBasis(theta, phi), best_fidelity_sq=best)
