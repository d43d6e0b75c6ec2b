"""Bit-commitment simulation over entanglement-breaking depolarizing channels.

Layers, bottom up: ``linalg`` (dense two-qubit operator algebra),
``states`` and ``channels`` (the protocol's physics), ``entanglement``
(concurrence, separability, the channel factorization law), ``protocol``
(prepared commitment sessions plus a seeded Monte Carlo harness), ``security``
(hiding and binding bounds), ``cli`` (experiment runner).
"""

__version__ = "0.1.0"

from .channels import (
    DepolarizingChannel,
    KrausChannel,
    as_kraus,
    channel_apply,
    choi,
    is_entanglement_breaking,
    lift_apply,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence,
    eb_threshold,
    factorization_residual,
    is_separable,
)
from .linalg import (
    eig_hermitian,
    fidelity,
    is_psd,
    kron,
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
    derive_rng,
    monte_carlo,
    run_session,
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
    bell_psi_plus,
    cheat_state,
    encoding_basis,
    isotropic,
)

__all__ = [
    "__version__",
    "BindingReport",
    "CheatStrategy",
    "ConcurrenceResult",
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
    "as_kraus",
    "bb84_pair_mixture",
    "bb84_projector",
    "bell_psi_plus",
    "bell_strategy",
    "bob_cheat_probability",
    "channel_apply",
    "cheat_state",
    "choi",
    "concurrence",
    "derive_rng",
    "eb_threshold",
    "eig_hermitian",
    "encoding_basis",
    "factorization_residual",
    "fidelity",
    "is_entanglement_breaking",
    "is_psd",
    "is_separable",
    "isotropic",
    "kron",
    "lift_apply",
    "monte_carlo",
    "partial_trace",
    "partial_transpose",
    "run_session",
    "trace_distance",
    "verify",
]
