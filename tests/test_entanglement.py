import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ebcommit.channels import (
    DepolarizingChannel,
    KrausChannel,
    channel_apply,
    lift_apply,
)
from ebcommit.entanglement import (
    concurrence,
    eb_threshold,
    is_entanglement_breaking,
    is_separable,
)
from ebcommit.linalg import PAULI_I, PAULI_Y, TOL, eig_hermitian, partial_transpose
from ebcommit.states import DensityMatrix, cheat_state

from conftest import random_density_matrix, random_pure_state
from reference import (
    PAULI_X,
    PAULI_Z,
    bell_psi_plus,
    factorization_residual,
    isotropic,
    wootters_concurrence,
)


def test_concurrence_bell_is_one():
    assert abs(concurrence(DensityMatrix.from_pure(bell_psi_plus())) - 1.0) < 1e-12


def test_concurrence_product_states_vanish(rng):
    for _ in range(20):
        joint = DensityMatrix(
            np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        )
        assert concurrence(joint) == 0.0


@pytest.mark.parametrize("q", np.linspace(0.0, 1.0, 11))
def test_concurrence_isotropic_closed_form(q):
    # oracle is the full 4x4 eigencomputation; closed form from the spectrum
    assert abs(concurrence(isotropic(q)) - max(0.0, (3 * q - 1) / 2)) < 1e-10


def test_concurrence_isotropic_monotone():
    values = [concurrence(isotropic(q)) for q in np.linspace(0, 1, 101)]
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


def test_concurrence_of_partially_entangled_cheat_state():
    # |0>|0> + (cos d |0> + sin d |1>)|1> has concurrence sin(d)
    for d in (0.0, 0.1, 0.5, 1.0, np.pi / 2):
        rho = cheat_state([1, 0], [np.cos(d), np.sin(d)])
        assert abs(concurrence(rho) - np.sin(d)) < 1e-12


def test_concurrence_continuous_near_product():
    for eps in (1e-3, 1e-5, 1e-7):
        a1 = np.array([1.0, eps]) / np.sqrt(1 + eps * eps)
        value = concurrence(cheat_state([1, 0], a1))
        assert value < 2 * eps


@pytest.mark.parametrize("eps", [1e-9, 1e-8, 1e-7])
def test_concurrence_resolves_small_values(eps):
    # |0>|0> + (|0> + eps|1>)|1> has concurrence 2 eps / (2 + eps^2); its
    # largest Wootters value squared, about eps^2, is below reference.SPECTRUM_FLOOR
    exact = 2 * eps / (2 + eps * eps)
    assert abs(concurrence(cheat_state([1, 0], [1, eps])) - exact) <= 1e-6 * exact


def test_concurrence_matches_textbook_wootters(rng):
    for _ in range(10):
        rho = DensityMatrix(random_density_matrix(rng, 4))
        value = concurrence(rho)
        assert abs(value - wootters_concurrence(rho)) < 1e-12
        assert 0.0 <= value <= 1.0 + 1e-12


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
            np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        )
        assert is_separable(joint)


def test_concurrence_and_ppt_agree_on_pure_and_isotropic(rng):
    for _ in range(20):
        rho = DensityMatrix.from_pure(random_pure_state(rng, 4))
        assert (concurrence(rho) < 1e-10) == is_separable(rho)
    for q in np.linspace(0, 1, 21):
        rho = isotropic(q)
        assert (concurrence(rho) < 1e-10) == is_separable(rho)


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
    assert is_separable(rho) == (concurrence(rho) == 0.0)


def _least_pt_eigenvalue(rho) -> float:
    return float(eig_hermitian(partial_transpose(rho))[-1])


# Offsets from a point of a family, from roundoff up to 1e-6, either side.
_OFFSETS = [s * 10.0**-k for s in (-1, 1) for k in range(6, 17)]


def _isotropic_near_boundary(rng):
    # PT(isotropic(q)) has least eigenvalue (1 - 3q)/4: 0 at q = 1/3, and
    # -TOL, the PPT test's cut, at q = 1/3 + 4 TOL/3
    for center in (1 / 3, 1 / 3 + 4 * TOL / 3):
        for d in _OFFSETS:
            yield isotropic(center + d)


def _cheat_pairs_near_boundary(rng):
    # every entangled pure pair loses its entanglement at q = 1/3; near
    # there the least PT eigenvalue falls linearly in q, at a slope of the
    # pair's own, which puts its cut at 1/3 + TOL/slope
    for _ in range(60):
        pair = cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
        slope = -_least_pt_eigenvalue(lift_apply(DepolarizingChannel(1 / 3 + 1e-6), pair)) / 1e-6
        for center in (1 / 3, 1 / 3 + TOL / slope):
            for d in _OFFSETS:
                yield lift_apply(DepolarizingChannel(center + d), pair)


def _mixtures_near_boundary(rng):
    # PT(p rho + (1 - p) I/4) has least eigenvalue p mu + (1 - p)/4, mu that
    # of PT(rho): 0 at p = 1/(1 - 4 mu) and -TOL at p = (1 + 4 TOL)/(1 - 4 mu)
    made = 0
    while made < 60:
        rho = random_density_matrix(rng, 4)
        mu = _least_pt_eigenvalue(rho)
        if mu > -0.01:  # separable, or too weakly entangled to tune
            continue
        made += 1
        for center in (1 / (1 - 4 * mu), (1 + 4 * TOL) / (1 - 4 * mu)):
            for d in _OFFSETS:
                p = center + d
                yield DensityMatrix(p * rho + (1 - p) * np.eye(4) / 4)


@pytest.mark.parametrize("family", [
    _isotropic_near_boundary, _cheat_pairs_near_boundary, _mixtures_near_boundary,
], ids=["isotropic", "depolarized-cheat-pairs", "noise-tuned-mixtures"])
def test_concurrence_is_zero_exactly_on_ppt_states_near_the_boundary(rng, family):
    # C >= N = 2|l| for l the least PT eigenvalue, so a state the PPT test
    # rejects (l < -TOL) has C > 2 TOL, far above roundoff; one it accepts
    # gets exactly 0.0. sweep's separability column relies on both.
    states = list(family(rng))
    verdicts = [is_separable(rho) for rho in states]
    wrong = [(_least_pt_eigenvalue(rho), concurrence(rho)) for rho, sep in zip(states, verdicts)
             if (concurrence(rho) == 0.0) != sep]
    assert wrong == []
    assert any(verdicts) and not all(verdicts)
    near = sum(abs(_least_pt_eigenvalue(rho)) < 1e-8 for rho in states)
    assert near >= 0.8 * len(states)


def test_ppt_test_and_concurrence_take_one_state(rng):
    # the boundary families, where the PPT verdict and the 0.0 are decided
    # at roundoff, and random states either side of it, one call per state
    near = [rho.mat for family in (_isotropic_near_boundary, _cheat_pairs_near_boundary,
                                   _mixtures_near_boundary) for rho in family(rng)]
    ginibre = [random_density_matrix(rng, 4) for _ in range(40)]
    separable = [is_separable(m) for m in near + ginibre]
    values = [concurrence(m) for m in near + ginibre]
    assert {type(s) for s in separable} == {bool} and {type(c) for c in values} == {float}
    assert any(separable) and not all(separable)
    reference = [wootters_concurrence(m) for m in ginibre]
    assert np.abs(np.array(values[len(near):]) - reference).max() < 1e-12
    # a stack of states is no state
    for f in (is_separable, concurrence):
        with pytest.raises(ValueError, match="expected a square matrix"):
            f(np.array(near + ginibre))


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


# A Pauli channel with weights p_i and Kraus operators sqrt(p_i) s_i scales
# the Bloch axis i by lambda_i = p_0 + p_i - p_j - p_k = 2 (p_0 + p_i) - 1.
# The PPT test works at TOL, so draws within 1e-9 of the boundary are skipped.
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ruskai_criterion_on_pauli_channels(seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(4))
    weight = np.abs(2 * (p[0] + p[1:]) - 1).sum()
    assume(abs(weight - 1) > 1e-9)
    paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    channel = KrausChannel(tuple(np.sqrt(w) * s for w, s in zip(p, paulis)))
    assert is_entanglement_breaking(channel) == (weight <= 1)


def test_disentangling_below_threshold(rng):
    for _ in range(20):
        rho = cheat_state(random_pure_state(rng, 2), random_pure_state(rng, 2))
        for q in (0.1, 0.25, 1 / 3):
            out = lift_apply(DepolarizingChannel(q), rho)
            assert concurrence(out) <= 1e-10
            assert is_separable(out)
