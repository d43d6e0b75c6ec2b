"""Bit-commitment simulation over entanglement-breaking depolarizing channels.

Layers, bottom up: ``linalg`` (dense two-qubit operator algebra),
``states`` and ``channels`` (the protocol's physics), ``entanglement``
(concurrence, separability of states and channels, the factorization law),
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
    factorization_residual,
    is_entanglement_breaking,
    is_separable,
)
from .linalg import (
    eig_hermitian,
    is_psd,
    partial_trace,
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
    DIAGONAL,
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
    encoding_basis,
    isotropic,
)

__all__ = [
    "__version__",
    "BindingReport",
    "CheatStrategy",
    "DIAGONAL",
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
    "encoding_basis",
    "factorization_residual",
    "is_entanglement_breaking",
    "is_psd",
    "is_separable",
    "isotropic",
    "lift_apply",
    "partial_trace",
    "partial_transpose",
    "run_session",
    "sweep",
    "trace_distance",
    "verify",
]
