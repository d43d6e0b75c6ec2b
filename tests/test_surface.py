"""The public surface: what a CLI command, a claim of the paper or the README uses.

Physics that only the tests use lives in ``tests/reference.py``.
"""

import dataclasses
import importlib

import pytest

import ebcommit
from ebcommit import entanglement, linalg, states

import reference
from conftest import fresh_python

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


def test_public_names_are_their_layers_objects():
    for name in PUBLIC_NAMES:
        value = getattr(ebcommit, name)
        if name != "__version__":
            layer = importlib.import_module(value.__module__)
            assert layer.__name__.startswith("ebcommit."), name
            assert getattr(layer, name) is value, name


def test_package_names_follow_their_layers(monkeypatch):
    # the package reads a name from its layer on each use, so a name rebound
    # there, as a tracer or a test does, reads the same through the package
    sentinel = object()
    monkeypatch.setattr(states, "cheat_state", sentinel)
    assert ebcommit.cheat_state is sentinel


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from ebcommit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ebcommit' has no attribute 'as_stack'$"):
        ebcommit.as_stack


def test_importing_the_package_loads_no_layer():
    # the layers load on first use, through the package's names or as its attributes
    code = """import sys, ebcommit
print(*sorted(name for name in sys.modules if name.split(".")[0] == "ebcommit"))
print(*sorted(set(ebcommit.__all__) - set(dir(ebcommit))))
print(ebcommit.states.CheatStrategy is ebcommit.CheatStrategy)"""
    assert fresh_python(code) == "ebcommit\n\nTrue\n"


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
