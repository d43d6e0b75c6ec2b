"""Bit-commitment simulation over entanglement-breaking depolarizing channels.

Layers, bottom up: ``linalg`` (dense two-qubit operator algebra),
``states`` and ``channels`` (the protocol's physics), ``entanglement``
(concurrence, separability of states and channels, the boundary q*),
``protocol`` (prepared commitment sessions plus a seeded Monte Carlo harness),
``security`` (hiding and binding bounds), ``cli`` (experiment runner).
"""

__version__ = "0.1.0"

from .channels import (
    DepolarizingChannel,
    KrausChannel,
    channel_apply,
    choi,
    lift_apply,
)
from .entanglement import (
    concurrence,
    eb_threshold,
    is_entanglement_breaking,
    is_separable,
)
from .linalg import (
    eig_hermitian,
    is_psd,
    partial_transpose,
    trace_distance,
)
from .protocol import (
    EprAlice,
    HonestAlice,
    MonteCarloSummary,
    ProtocolConfig,
    Transcript,
    VerificationReport,
    run_session,
    sweep,
    verify,
)
from .security import (
    BindingReport,
    CheatStrategy,
    HidingReport,
    alice_binding_attack,
    bell_strategy,
    bob_cheat_probability,
)
from .states import (
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
)

__all__ = [
    "__version__",
    "BindingReport",
    "CheatStrategy",
    "DensityMatrix",
    "DepolarizingChannel",
    "EprAlice",
    "HidingReport",
    "HonestAlice",
    "KrausChannel",
    "MonteCarloSummary",
    "ProjectiveBasis",
    "ProtocolConfig",
    "RECTILINEAR",
    "Transcript",
    "VerificationReport",
    "alice_binding_attack",
    "bb84_pair_mixture",
    "bb84_projector",
    "bell_strategy",
    "bob_cheat_probability",
    "channel_apply",
    "cheat_state",
    "choi",
    "concurrence",
    "eb_threshold",
    "eig_hermitian",
    "is_entanglement_breaking",
    "is_psd",
    "is_separable",
    "lift_apply",
    "partial_transpose",
    "run_session",
    "sweep",
    "trace_distance",
    "verify",
]
