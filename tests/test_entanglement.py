import math

import numpy as np
import pytest

from ebcommit.channels import DepolarizingChannel, KrausChannel, lift_apply
from ebcommit.entanglement import (
    concurrence,
    eb_threshold,
    factorization_residual,
    is_separable,
)
from ebcommit.linalg import PAULI_I, kron
from ebcommit.states import DensityMatrix, bell_psi_plus, cheat_state, isotropic

from conftest import random_density_matrix, random_pure_state


def test_concurrence_bell_is_one():
    res = concurrence(DensityMatrix.from_pure(bell_psi_plus(), (2, 2)))
    assert abs(res.value - 1.0) < 1e-12
    assert np.allclose(res.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_concurrence_product_states_vanish(rng):
    for _ in range(20):
        joint = DensityMatrix(
            kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)), (2, 2)
        )
        assert concurrence(joint).value == 0.0


@pytest.mark.parametrize("q", np.linspace(0.0, 1.0, 11))
def test_concurrence_isotropic_closed_form(q):
    # oracle is the full 4x4 eigencomputation; closed form from the spectrum
    assert abs(concurrence(isotropic(q)).value - max(0.0, (3 * q - 1) / 2)) < 1e-10


def test_concurrence_isotropic_monotone():
    values = [concurrence(isotropic(q)).value for q in np.linspace(0, 1, 101)]
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


def test_concurrence_of_partially_entangled_cheat_state():
    # |0>|0> + (cos d |0> + sin d |1>)|1> has concurrence sin(d)
    for d in (0.0, 0.1, 0.5, 1.0, np.pi / 2):
        rho = cheat_state([1, 0], [np.cos(d), np.sin(d)])
        assert abs(concurrence(rho).value - np.sin(d)) < 1e-12


def test_concurrence_continuous_near_product():
    for eps in (1e-3, 1e-5, 1e-7):
        a1 = np.array([1.0, eps]) / np.sqrt(1 + eps * eps)
        value = concurrence(cheat_state([1, 0], a1)).value
        assert value < 2 * eps


def test_concurrence_result_invariant(rng):
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        res = concurrence(DensityMatrix(m / m.trace().real, (2, 2)))
        l1, l2, l3, l4 = res.lambdas
        assert abs(res.value - max(0.0, l1 - l2 - l3 - l4)) < 1e-12
        assert 0.0 <= res.value <= 1.0 + 1e-12


def test_concurrence_rejects_single_qubit():
    with pytest.raises(ValueError):
        concurrence(DensityMatrix(np.eye(2) / 2))


def test_separability_isotropic_family():
    assert is_separable(isotropic(1 / 3))
    assert not is_separable(isotropic(0.5))
    assert is_separable(isotropic(0.0))


def test_separability_products(rng):
    for _ in range(10):
        joint = DensityMatrix(
            kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)), (2, 2)
        )
        assert is_separable(joint)


def test_concurrence_and_ppt_agree_on_pure_and_isotropic(rng):
    for _ in range(20):
        rho = DensityMatrix.from_pure(random_pure_state(rng, 4), (2, 2))
        assert (concurrence(rho).value < 1e-10) == is_separable(rho)
    for q in np.linspace(0, 1, 21):
        rho = isotropic(q)
        assert (concurrence(rho).value < 1e-10) == is_separable(rho)


def test_factorization_trivial_cases():
    assert factorization_residual(bell_psi_plus(), DepolarizingChannel(0.5)) < 1e-12
    sep = np.kron([1, 0], [0.6, 0.8])
    assert factorization_residual(sep, DepolarizingChannel(0.7)) < 1e-12


def test_factorization_random_sweep(rng):
    for _ in range(50):
        x = random_pure_state(rng, 4)
        for q in np.linspace(0, 1, 6):
            assert factorization_residual(x, DepolarizingChannel(q)) <= 1e-9


def test_factorization_holds_for_generic_kraus_channel(rng):
    # the law is channel-generic for pure inputs, not depolarizing-specific
    flip = KrausChannel((np.sqrt(0.7) * PAULI_I, np.sqrt(0.3) * np.array([[0, 1], [1, 0]])))
    for _ in range(10):
        assert factorization_residual(random_pure_state(rng, 4), flip) <= 1e-9


def test_eb_threshold_locates_one_third():
    q_star = eb_threshold(DepolarizingChannel, 0.0, 1.0)
    assert abs(q_star - 1 / 3) <= 1e-9


def test_eb_threshold_coarser_width():
    q_star = eb_threshold(DepolarizingChannel, 0.0, 1.0, width=1e-6)
    assert abs(q_star - 1 / 3) <= 1e-6


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
def test_eb_threshold_rejects_bad_width(width):
    with pytest.raises(ValueError, match="width"):
        eb_threshold(DepolarizingChannel, 0.0, 1.0, width=width)


def test_eb_threshold_stops_at_float_resolution():
    # a width below the spacing of floats near 1/3 cannot be reached
    q_star = eb_threshold(DepolarizingChannel, 0.0, 1.0, width=5e-324)
    assert abs(q_star - 1 / 3) <= 1e-9


def test_eb_threshold_requires_sign_change():
    with pytest.raises(ValueError, match="no classification change"):
        eb_threshold(DepolarizingChannel, 0.0, 0.2)
    with pytest.raises(ValueError, match="no classification change"):
        eb_threshold(DepolarizingChannel, 0.34, 1.0)


def test_disentangling_below_threshold(rng):
    for _ in range(20):
        rho = cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
        for q in (0.1, 0.25, 1 / 3):
            out = lift_apply(DepolarizingChannel(q), rho)
            assert concurrence(out).value <= 1e-10
            assert is_separable(out)
