import numpy as np
import pytest

from ebcommit.channels import (
    DepolarizingChannel,
    KrausChannel,
    as_kraus,
    channel_apply,
    choi,
    depolarize_apply,
    is_entanglement_breaking,
    lift_apply,
)
from ebcommit.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron, partial_trace
from ebcommit.states import DensityMatrix, bell_psi_plus, isotropic

from conftest import random_density_matrix

I2 = np.eye(2)


def test_depolarizing_channel_validation():
    with pytest.raises(ValueError):
        DepolarizingChannel(-0.01)
    with pytest.raises(ValueError):
        DepolarizingChannel(1.01)


def test_depolarize_identity_and_full_noise(rng):
    rho = random_density_matrix(rng, 2)
    assert np.abs(depolarize_apply(DepolarizingChannel(1.0), rho) - rho).max() < 1e-15
    assert np.abs(depolarize_apply(DepolarizingChannel(0.0), rho) - I2 / 2).max() < 1e-15


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9])
def test_depolarize_zero_projector(q):
    out = depolarize_apply(DepolarizingChannel(q), np.diag([1.0, 0.0]))
    assert np.abs(out - np.diag([(1 + q) / 2, (1 - q) / 2])).max() < 1e-15


def test_depolarize_preserves_trace_of_operators(rng):
    c = DepolarizingChannel(0.37)
    for _ in range(10):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(depolarize_apply(c, x).trace() - x.trace()) < 1e-12


def test_depolarize_rejects_wrong_dim():
    with pytest.raises(ValueError):
        depolarize_apply(DepolarizingChannel(0.5), np.eye(4))


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((PAULI_X / 2,))


def test_as_kraus_endpoints():
    assert len(as_kraus(DepolarizingChannel(1.0)).kraus_ops) == 1
    assert np.array_equal(as_kraus(DepolarizingChannel(1.0)).kraus_ops[0], PAULI_I)
    ops = as_kraus(DepolarizingChannel(0.0)).kraus_ops
    expected = (PAULI_I / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2)
    assert len(ops) == 4
    for op, want in zip(ops, expected):
        assert np.abs(op - want).max() < 1e-15


def test_as_kraus_matches_closed_form(rng):
    # dual route: Pauli-twirl operators vs the channel equation
    for q in np.linspace(0.0, 1.0, 6):
        c = DepolarizingChannel(q)
        k = as_kraus(c)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            assert np.abs(channel_apply(k, rho) - depolarize_apply(c, rho)).max() < 1e-12


def test_lift_on_bell_gives_isotropic():
    bell = DensityMatrix.from_pure(bell_psi_plus(), (2, 2))
    for q in np.linspace(0.0, 1.0, 11):
        out = lift_apply(DepolarizingChannel(q), bell)
        assert np.abs(out.mat - isotropic(q).mat).max() < 1e-12


def test_lift_identity_channel():
    bell = DensityMatrix.from_pure(bell_psi_plus(), (2, 2))
    assert np.abs(lift_apply(DepolarizingChannel(1.0), bell).mat - bell.mat).max() < 1e-15


def test_lift_product_factorizes(rng):
    c = DepolarizingChannel(0.42)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    joint = DensityMatrix(kron(rho_a, rho_b), (2, 2))
    expected = kron(rho_a, depolarize_apply(c, rho_b))
    assert np.abs(lift_apply(c, joint).mat - expected).max() < 1e-12


def test_lift_preserves_sender_marginal(rng):
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / m.trace().real, (2, 2))
        out = lift_apply(DepolarizingChannel(rng.uniform()), rho)
        assert np.abs(partial_trace(out.mat, "A") - partial_trace(rho.mat, "A")).max() < 1e-10


def test_lift_rejects_single_qubit():
    with pytest.raises(ValueError):
        lift_apply(DepolarizingChannel(0.5), DensityMatrix(I2 / 2))


def test_choi_identity_and_depolarizing():
    ident = KrausChannel((PAULI_I,))
    bell = DensityMatrix.from_pure(bell_psi_plus(), (2, 2))
    assert np.abs(choi(ident).mat - bell.mat).max() < 1e-15
    for q in (0.0, 0.3, 0.8):
        assert np.abs(choi(DepolarizingChannel(q)).mat - isotropic(q).mat).max() < 1e-12


def test_entanglement_breaking_classification():
    assert is_entanglement_breaking(DepolarizingChannel(0.3))
    assert is_entanglement_breaking(DepolarizingChannel(1 / 3))
    assert not is_entanglement_breaking(DepolarizingChannel(0.4))
    assert not is_entanglement_breaking(DepolarizingChannel(1.0))


def test_classification_flips_once_on_grid():
    flags = [is_entanglement_breaking(DepolarizingChannel(q)) for q in np.linspace(0, 1, 101)]
    flips = sum(a != b for a, b in zip(flags, flags[1:]))
    assert flips == 1
