"""Bit-commitment simulation over entanglement-breaking depolarizing channels.

Layers, bottom up: ``linalg`` (dense two-qubit operator algebra),
``states`` and ``channels`` (the protocol's physics), ``entanglement``
(concurrence, separability of states and channels, the boundary q*),
``protocol`` (prepared commitment sessions plus a seeded Monte Carlo harness),
``security`` (hiding and binding bounds), ``cli`` (experiment runner).

Importing the package loads none of them: each exported name, and each
layer as an attribute, loads its layer on first use (PEP 562). So a CLI
command loads only the layers it runs: ``run`` and ``sweep`` load
``protocol``, ``threshold`` loads ``entanglement``, and ``hiding`` and
``binding`` load ``security``, each over ``channels``, ``states`` and
``linalg`` (see :mod:`ebcommit.cli`).
"""

import importlib

__version__ = "0.1.0"

# each layer that the package exports from, with the names it exports
_EXPORTS = {
    "channels": ("DepolarizingChannel", "KrausChannel", "channel_apply", "choi", "lift_apply"),
    "entanglement": ("concurrence", "eb_threshold", "is_entanglement_breaking", "is_separable"),
    "linalg": ("eig_hermitian", "is_psd", "partial_transpose", "trace_distance"),
    "protocol": ("EprAlice", "HonestAlice", "MonteCarloSummary", "ProtocolConfig", "Transcript",
                 "VerificationReport", "run_session", "sweep", "verify"),
    "security": ("BindingReport", "HidingReport", "alice_binding_attack", "bell_strategy",
                 "bob_cheat_probability"),
    "states": ("RECTILINEAR", "CheatStrategy", "DensityMatrix", "ProjectiveBasis",
               "bb84_pair_mixture", "bb84_projector", "cheat_state"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_LAYER_OF)]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a layer binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here, so that a name rebound in its layer reads the same here
    return getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
