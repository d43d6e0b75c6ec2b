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
(Quantum Detection and Estimation Theory, 1976), read off the Bloch form
(a I + b.sigma)/2 of the sender's 2x2 Helstrom operator X: the value
(1 + ||X||_1)/2 with ||X||_1 = max(|a|, |b|), and the basis whose first
state has b's direction. The receiver's depolarizing channel acts on his
effect only as the factor q, so X is the noiseless pair's: the objective
is 1/2 + q times the sender's noiseless advantage, and her best basis
does not depend on q. Both metrics are closed forms on qubits; neither
makes a LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DepolarizingChannel, KrausChannel, channel_apply
from .linalg import PAULI_I, bloch, bloch_angles, trace_distance
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

#: A bound on q |b|, the gap between the eigenvalues of X_t - X_t' = q X:
#: at or below it the two count as equal and the computational basis is
#: reported, so that roundoff on a flat objective cannot pick a basis.
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

    D is the trace distance of the encodings, and D' (``delta_channel``)
    that of their images under ``channel``: what the honest receiver's
    noisy apparatus sees. ``p_bcheat`` is for a cheating receiver, who
    can skip his own noise, so D decides: by data processing every
    channel can only contract the distance (D' <= D, and D' = q D for the
    depolarizing family). D' is still computed as written, to show that
    contraction. Raises TypeError for an encoding that is not a
    DensityMatrix and ValueError for one that is not a qubit state.
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


@dataclass(frozen=True)
class _Helstrom:
    """A Helstrom operator X, decomposed once and read at any scale q X.

    With X in its Bloch form (a I + b.sigma)/2, ``trace_norm`` is
    ||X||_1 = max(|a|, |b|), ``gap`` the difference |b| of its two
    eigenvalues and ``basis`` its eigenbasis, outcome 0 on the larger
    eigenvalue: the state whose Bloch vector points along b.
    """

    trace_norm: float
    gap: float
    basis: ProjectiveBasis

    def at(self, q: float) -> BindingReport:
        """The Helstrom value of q X and its basis.

        The value is (1 + q ||X||_1)/2. The basis is X's eigenbasis, or
        ``RECTILINEAR`` when q |b|, the gap of q X, is at most ``SIGN_TOL``.
        """
        best = (1.0 + q * self.trace_norm) / 2.0
        if q * self.gap <= SIGN_TOL:  # q X is about a multiple of I: no basis stands out
            return BindingReport(best_basis=RECTILINEAR, best_fidelity_sq=best)
        return BindingReport(best_basis=self.basis, best_fidelity_sq=best)


def _helstrom(x: np.ndarray) -> _Helstrom:
    """The 2x2 Hermitian Helstrom operator x, read off its Bloch form (a, b) in closed form."""
    a, bx, by, bz = bloch(x)
    gap = math.hypot(bx, by, bz)
    return _Helstrom(max(abs(a), gap), gap, ProjectiveBasis(*bloch_angles(bx, by, bz)))


def _binding_helstrom(strategy: CheatStrategy, target: DensityMatrix) -> _Helstrom:
    """The noiseless pair's Helstrom operator X for ``target``, decomposed.

    ``alice_binding_attack`` reads it at its channel's q. Raises
    ValueError for a target that is not a pure qubit state.
    """
    if target.dim != 2:
        raise ValueError(f"target must be a qubit state, got dimension {target.dim}")
    purity = float(np.vdot(target.mat, target.mat).real)
    if purity < 1.0 - PURITY_TOL:
        raise ValueError(f"target must be a pure state, got tr(t^2) = {purity:.9g}")
    # X of the noiseless pair, for the effect 2t - I = t - t'
    return _helstrom(_sender_operator(cheat_state(strategy.a0, strategy.a1),
                                      2.0 * target.mat - PAULI_I))


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
    c^dagger(2t - I) on the effect; the pair is not lifted. A q grid
    decomposes X once: ``_binding_helstrom(strategy, target).at(q)`` per q.

    The eigenbasis is reported whenever the two eigenvalues of q X differ
    by more than ``SIGN_TOL``, that is when q |b| > ``SIGN_TOL`` for X's
    Bloch vector b; otherwise every basis attains the optimum and the
    computational basis (0, 0) is reported.
    Raises TypeError for a strategy that is not a CheatStrategy, a
    channel that is not a DepolarizingChannel or a target that is not a
    DensityMatrix, and ValueError for a target that is not a pure qubit
    state.
    """
    _check_type("strategy", strategy, CheatStrategy)
    _check_type("channel", channel, DepolarizingChannel)
    _check_type("target", target, DensityMatrix)
    return _binding_helstrom(strategy, target).at(channel.q)
