import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ebcommit.channels import (
    DepolarizingChannel,
    KrausChannel,
    channel_apply,
    choi,
    lift_apply,
)
from ebcommit.entanglement import is_entanglement_breaking, is_separable
from ebcommit.linalg import PAULI_I, PAULI_Y, TOL, partial_trace
from ebcommit.protocol import HonestAlice
from ebcommit.states import (
    RECTILINEAR,
    DensityMatrix,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
    encoding_basis,
    _sender_operator,
    isotropic,
)

from conftest import random_density_matrix, random_hermitian
from reference import (
    PAULI_X,
    PAULI_Z,
    as_kraus,
    bell_psi_plus,
    channel_adjoint,
    joint_outcome_decomposition,
    kraus_lift,
    lifted_round_law,
)

I2 = np.eye(2)


def amplitude_damping(gamma: float) -> KrausChannel:
    return KrausChannel(
        (
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]]),
        )
    )


def bit_flip(p: float) -> KrausChannel:
    return KrausChannel((math.sqrt(1.0 - p) * PAULI_I, math.sqrt(p) * PAULI_X))


# At gamma = 1 amplitude damping resets to |0> and breaks entanglement. Below
# that, the smallest eigenvalue of its Choi state's partial transpose is
# -(1 - gamma)/2, so gamma <= 1 - 1e-6 keeps it well clear of the tolerance.
_DAMPING = st.floats(0.0, 1.0 - 1e-6)
_CHANNELS = st.one_of(
    st.floats(0.0, 1.0).map(DepolarizingChannel),
    _DAMPING.map(amplitude_damping),
    st.floats(0.0, 1.0).map(bit_flip),
)


def random_kraus(rng: np.random.Generator, n: int) -> KrausChannel:
    """n Kraus operators cut from a random 2n x 2 isometry V, so sum K^dagger K = V^dagger V = I."""
    v, _ = np.linalg.qr(rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2)))
    return KrausChannel(tuple(v[2 * i:2 * i + 2] for i in range(n)))


_RANDOM_KRAUS = st.builds(
    lambda n, seed: random_kraus(np.random.default_rng(seed), n),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)


def test_depolarizing_channel_validation():
    with pytest.raises(ValueError):
        DepolarizingChannel(-0.01)
    with pytest.raises(ValueError):
        DepolarizingChannel(1.01)


def test_depolarize_identity_and_full_noise(rng):
    rho = random_density_matrix(rng, 2)
    assert np.abs(channel_apply(DepolarizingChannel(1.0), rho) - rho).max() < 1e-15
    assert np.abs(channel_apply(DepolarizingChannel(0.0), rho) - I2 / 2).max() < 1e-15


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9])
def test_depolarize_zero_projector(q):
    out = channel_apply(DepolarizingChannel(q), np.diag([1.0, 0.0]))
    assert np.abs(out - np.diag([(1 + q) / 2, (1 - q) / 2])).max() < 1e-15


def test_depolarize_preserves_trace_of_operators(rng):
    c = DepolarizingChannel(0.37)
    for _ in range(10):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(channel_apply(c, x).trace() - x.trace()) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    channel=st.one_of(st.just(DepolarizingChannel(0.37)), _RANDOM_KRAUS),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_apply_on_a_stack_equals_each_operator(channel, seed):
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(3, 5, 2, 2)) + 1j * rng.normal(size=(3, 5, 2, 2))
    out = channel_apply(channel, stack)
    assert out.shape == stack.shape
    for i, j in np.ndindex(3, 5):
        assert np.array_equal(out[i, j], channel_apply(channel, stack[i, j]))


def test_depolarize_rejects_wrong_dim():
    with pytest.raises(ValueError):
        channel_apply(DepolarizingChannel(0.5), np.eye(4))


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
            assert np.abs(channel_apply(k, rho) - channel_apply(c, rho)).max() < 1e-12


def test_lift_on_bell_gives_isotropic():
    bell = DensityMatrix.from_pure(bell_psi_plus())
    for q in np.linspace(0.0, 1.0, 11):
        out = lift_apply(DepolarizingChannel(q), bell)
        assert np.abs(out.mat - isotropic(q).mat).max() < 1e-12


def test_lift_identity_channel():
    bell = DensityMatrix.from_pure(bell_psi_plus())
    assert np.abs(lift_apply(DepolarizingChannel(1.0), bell).mat - bell.mat).max() < 1e-15


def test_lift_product_factorizes(rng):
    c = DepolarizingChannel(0.42)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    joint = DensityMatrix(np.kron(rho_a, rho_b))
    expected = np.kron(rho_a, channel_apply(c, rho_b))
    assert np.abs(lift_apply(c, joint).mat - expected).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(channel=_CHANNELS, seed=st.integers(0, 2**32 - 1))
def test_lift_preserves_sender_marginal(channel, seed):
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(seed), 4))
    out = lift_apply(channel, rho)
    assert np.abs(partial_trace(out.mat) - partial_trace(rho.mat)).max() < 1e-10


def test_lift_rejects_single_qubit():
    with pytest.raises(ValueError):
        lift_apply(DepolarizingChannel(0.5), DensityMatrix(I2 / 2))


def test_choi_identity_and_depolarizing():
    ident = KrausChannel((PAULI_I,))
    bell = DensityMatrix.from_pure(bell_psi_plus())
    assert np.abs(choi(ident).mat - bell.mat).max() < 1e-15
    # the closed-form lift of the exact Bell projector is the isotropic state
    for q in (*np.linspace(0.0, 1.0, 11), 1 / 3, 0.8):
        assert np.array_equal(choi(DepolarizingChannel(q)).mat, isotropic(q).mat)


def assert_valid_by_construction(rho: DensityMatrix) -> None:
    """rho, stored with no validation, is read-only and passes it: the check stores the same bits."""
    assert not rho.mat.flags.writeable
    checked = DensityMatrix(rho.mat)
    assert checked.mat.dtype == rho.mat.dtype
    assert checked.mat.tobytes() == rho.mat.tobytes()


@pytest.mark.parametrize("make", [
    *(lambda bit=bit: bb84_pair_mixture(bit) for bit in (0, 1)),
    *(lambda q=q: choi(DepolarizingChannel(q)) for q in (0.0, 1 / 3, 0.5, 1.0)),
], ids=["bb84-0", "bb84-1", "choi-q0", "choi-q1/3", "choi-q0.5", "choi-q1"])
def test_states_valid_by_construction_pass_validation(make):
    assert_valid_by_construction(make())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       defects=st.tuples(st.floats(-TOL, TOL), st.floats(-TOL, TOL)))
@example(n=4, seed=12, defects=(-TOL, TOL))  # at the bound, a valid Choi state
@example(n=1, seed=38, defects=(TOL, TOL))  # at the bound, a Choi trace an ulp past TOL
def test_choi_of_a_kraus_channel_passes_validation(n, seed, defects):
    # scaling column j of the isometry by sqrt(1 + d_j) makes sum K^dagger K
    # diag(1 + d_0, 1 + d_1): a completeness defect of up to TOL
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2)))
    v = v * np.sqrt(1.0 + np.array(defects))
    try:
        channel = KrausChannel(tuple(v[2 * i:2 * i + 2] for i in range(n)))
    except ValueError:  # roundoff took the defect past TOL
        assume(False)
    try:
        rho = choi(channel)
    except ValueError as exc:
        # at the bound, roundoff can take the Choi state's trace an ulp past
        # TOL too; choi rejects it as the validating lift does
        assert str(exc).startswith("trace is ")
        assert max(map(abs, defects)) > 0.99 * TOL
        with pytest.raises(ValueError) as lifted:
            lift_apply(channel, isotropic(1.0).mat)
        assert str(lifted.value) == str(exc)
        return
    assert_valid_by_construction(rho)


def test_lift_still_validates_a_raw_matrix():
    # the identity lift of a non-PSD matrix of unit trace: choi skips the
    # check, since its input is the exact Bell projector, but lift_apply's
    # caller may pass any matrix
    with pytest.raises(ValueError, match="not PSD"):
        lift_apply(DepolarizingChannel(1.0), np.diag([1.2, 0, 0, -0.2]))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_closed_form_lift_matches_kraus_sum(q, seed):
    c = DepolarizingChannel(q)
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(seed), 4))
    assert np.abs(lift_apply(c, rho).mat - lift_apply(as_kraus(c), rho).mat).max() < 1e-12


# the textbook lift, each K lifted to I x K by np.kron, is the reference for
# the package's, which applies each K to the pair's 2x2 B blocks
@settings(max_examples=100, deadline=None)
@given(channel=st.one_of(_CHANNELS, _RANDOM_KRAUS), seed=st.integers(0, 2**32 - 1))
def test_lift_matches_the_kron_lifted_kraus_sum(channel, seed):
    kraus = as_kraus(channel) if isinstance(channel, DepolarizingChannel) else channel
    rho = DensityMatrix(random_density_matrix(np.random.default_rng(seed), 4))
    assert np.abs(lift_apply(kraus, rho).mat - kraus_lift(kraus, rho)).max() <= 1e-15


# The receiver's channel acts on the receiver's effect: the sender's operator
# of the lifted pair for E is that of the pair itself for c^dagger(E). With E
# the receiver's projectors, this is the README's receiver-side no-go for
# every pair, not only the Bell pair. It checks the two readers of the pair's
# B blocks, the lift and the sender's operator, against each other.
@settings(max_examples=200, deadline=None)
@given(channel=st.one_of(_CHANNELS, _RANDOM_KRAUS), seed=st.integers(0, 2**32 - 1))
def test_receiver_channel_acts_on_the_receiver_effect(channel, seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(random_density_matrix(rng, 4))
    effect = random_hermitian(rng, 2)
    x = _sender_operator(lift_apply(channel, rho), effect)
    assert np.abs(x - _sender_operator(rho, channel_adjoint(channel, effect))).max() <= 1e-14


@pytest.mark.parametrize("bad", [None, 0.5, "depolarizing", (PAULI_I,)])
def test_apply_rejects_non_channel(bad):
    with pytest.raises(TypeError, match="not a channel"):
        channel_apply(bad, I2 / 2)
    with pytest.raises(TypeError, match="not a channel"):
        lift_apply(bad, DensityMatrix(np.eye(4) / 4))


def test_known_classifications():
    assert is_entanglement_breaking(amplitude_damping(1.0))
    assert is_entanglement_breaking(DepolarizingChannel(0.3))
    assert is_entanglement_breaking(DepolarizingChannel(1 / 3))
    assert not is_entanglement_breaking(DepolarizingChannel(0.4))
    assert not is_entanglement_breaking(DepolarizingChannel(1.0))


@settings(max_examples=60, deadline=None)
@given(channel=_CHANNELS)
def test_entanglement_breaking_classification(channel):
    # a qubit channel is EB iff its Choi state is separable (Horodecki-Shor-Ruskai)
    assert is_entanglement_breaking(channel) == is_separable(choi(channel))


@settings(max_examples=60, deadline=None)
@given(gamma=_DAMPING)
def test_amplitude_damping_is_never_entanglement_breaking(gamma):
    assert not is_entanglement_breaking(amplitude_damping(gamma))


def test_classification_flips_once_on_grid():
    flags = [is_entanglement_breaking(DepolarizingChannel(q)) for q in np.linspace(0, 1, 101)]
    flips = sum(a != b for a, b in zip(flags, flags[1:]))
    assert flips == 1


# The Bell cheater measures her half in the opened bit's basis and announces
# her outcome as the variant. That measurement commutes with any channel on
# the receiver's half, so it prepares the honest carrier at a distance: per
# round she matches exactly as often as an honest sender, whatever the
# channel. Born values are compared before the OUTCOME_EPS clamp, which is a
# sampling rule, not physics.
@settings(max_examples=60, deadline=None)
@given(channel=_CHANNELS, target=st.sampled_from((0, 1)))
def test_bell_cheater_matches_like_honest_sender(channel, target):
    basis = encoding_basis(target)
    e = basis.vectors()
    joint = lift_apply(channel, cheat_state([1, 0], [0, 1]))
    branches = joint_outcome_decomposition(joint, "B", basis)
    cheater = sum(p * (e[j].conj() @ cond.mat @ e[j]).real for j, (p, cond) in enumerate(branches))
    p0 = [(e[0].conj() @ channel_apply(channel, bb84_projector(target, v)) @ e[0]).real
          for v in (0, 1)]
    honest = (p0[0] + 1 - p0[1]) / 2
    assert abs(cheater - honest) <= 1e-12


# The same remote preparation, for the whole round law: steered in the opened
# bit's encoding basis, the Bell cheater's receiver law and 8-entry law equal
# those of the honest sender's classical-quantum pair, under any channel.
@settings(max_examples=100, deadline=None)
@given(channel=st.one_of(_CHANNELS, _RANDOM_KRAUS), target=st.sampled_from((0, 1)))
def test_bell_cheater_round_law_equals_the_honest_law(channel, target):
    bell = lift_apply(channel, cheat_state([1, 0], [0, 1]))
    honest = lift_apply(channel, HonestAlice(target).pair)
    cheater_laws = lifted_round_law(bell, encoding_basis(target))
    honest_laws = lifted_round_law(honest, RECTILINEAR)
    for cheater, sender in zip(cheater_laws, honest_laws):
        assert np.abs(cheater - sender).max() <= 1e-15
