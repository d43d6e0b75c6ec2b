"""The public surface: what a CLI command, a claim of the paper or the README uses.

Physics that only the tests use lives in ``tests/reference.py``.
"""

import dataclasses

import ebcommit
from ebcommit import entanglement, linalg, states

import reference

PUBLIC_NAMES = [
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
    "__version__",
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

TEST_ONLY = [
    (linalg, "partial_trace"),
    (states, "DIAGONAL"),
    (states, "encoding_basis"),
    (states, "isotropic"),
    (entanglement, "factorization_residual"),
]


def test_public_names_are_pinned():
    assert sorted(ebcommit.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(ebcommit, name), name


#: A sweep's summary holds its statistics only, no per-trial column.
SUMMARY_FIELDS = [
    "trials",
    "match_fraction_mean",
    "match_fraction_std",
    "acceptance_rate",
    "separable_fraction",
    "mean_concurrence",
    "no_sifted_trials",
]


def test_monte_carlo_summary_holds_seven_statistics():
    assert [f.name for f in dataclasses.fields(ebcommit.MonteCarloSummary)] == SUMMARY_FIELDS


def test_linalg_has_one_coercer():
    # the linear algebra takes one operator, so as_operator is its only coercer
    assert hasattr(linalg, "as_operator")
    assert not hasattr(linalg, "as_stack")


def test_test_only_names_live_in_the_references():
    for module, name in TEST_ONLY:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(ebcommit, name), name
        assert hasattr(reference, name), name
