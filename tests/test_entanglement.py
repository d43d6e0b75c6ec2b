import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebcommit.channels import (
    DepolarizingChannel,
    KrausChannel,
    channel_apply,
    is_entanglement_breaking,
    lift_apply,
)
from ebcommit.entanglement import (
    concurrence,
    eb_threshold,
    factorization_residual,
    is_separable,
)
from ebcommit.linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron
from ebcommit.states import DensityMatrix, bell_psi_plus, cheat_state, isotropic

from conftest import random_density_matrix, random_pure_state


def test_concurrence_bell_is_one():
    res = concurrence(DensityMatrix.from_pure(bell_psi_plus()))
    assert abs(res.value - 1.0) < 1e-12
    assert np.allclose(res.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_concurrence_product_states_vanish(rng):
    for _ in range(20):
        joint = DensityMatrix(
            kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
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


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7])
def test_concurrence_resolves_small_values(eps):
    # |0>|0> + (|0> + eps|1>)|1> has concurrence 2 eps / (2 + eps^2); its
    # largest Wootters value squared, about eps^2, is below SPECTRUM_FLOOR
    exact = 2 * eps / (2 + eps * eps)
    assert abs(concurrence(cheat_state([1, 0], [1, eps])).value - exact) <= 1e-6 * exact


def test_concurrence_result_invariant(rng):
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        res = concurrence(DensityMatrix(m / m.trace().real))
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
            kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        )
        assert is_separable(joint)


def test_concurrence_and_ppt_agree_on_pure_and_isotropic(rng):
    for _ in range(20):
        rho = DensityMatrix.from_pure(random_pure_state(rng, 4))
        assert (concurrence(rho).value < 1e-10) == is_separable(rho)
    for q in np.linspace(0, 1, 21):
        rho = isotropic(q)
        assert (concurrence(rho).value < 1e-10) == is_separable(rho)


@settings(max_examples=80, deadline=None)
@given(q=st.one_of(st.just(1 / 3), st.floats(0.0, 1.0)), seed=st.integers(0, 2**32 - 1))
@example(q=1 / 3, seed=1)
def test_concurrence_is_zero_exactly_on_ppt_states(q, seed):
    # At q = 1/3 the lifted cheat state sits on the separability boundary,
    # where the Wootters difference is 0 up to roundoff of either sign.
    rng = np.random.default_rng(seed)
    rho = lift_apply(
        DepolarizingChannel(q), cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
    )
    assert is_separable(rho) == (concurrence(rho).value == 0.0)


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
    assert eb_threshold() == 1 / 3


def _bloch_weight(q):
    """Sum of |lambda_i| over the Bloch contraction factors tr[s_i eps_q(s_i)]/2.

    Ruskai's criterion (Rev. Math. Phys. 15, 643 (2003)): a unital qubit
    channel is entanglement breaking iff this sum is at most 1.
    """
    c = DepolarizingChannel(q)
    return sum(abs(np.trace(s @ channel_apply(c, s)).real) / 2 for s in (PAULI_X, PAULI_Y, PAULI_Z))


# the PPT test works at TOL, so a q up to 4 TOL / 3 above 1/3 is still
# classified entanglement breaking; a 1e-9 gap keeps the draws clear of that
@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 1.0).filter(lambda q: abs(q - 1 / 3) > 1e-9))
def test_eb_threshold_matches_ruskai_criterion(q):
    eb = _bloch_weight(q) <= 1
    assert is_entanglement_breaking(DepolarizingChannel(q)) == eb
    assert (q <= eb_threshold()) == eb
    # the weight is linear in q and 0 at q = 0, so it reaches 1 at 1 / weight(1)
    assert eb_threshold() == 1 / _bloch_weight(1.0)


def test_disentangling_below_threshold(rng):
    for _ in range(20):
        rho = cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
        for q in (0.1, 0.25, 1 / 3):
            out = lift_apply(DepolarizingChannel(q), rho)
            assert concurrence(out).value <= 1e-10
            assert is_separable(out)
