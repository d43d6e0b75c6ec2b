import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebcommit.channels import DepolarizingChannel, lift_apply
from ebcommit.linalg import PAULI_I
from ebcommit.security import (
    SIGN_TOL,
    CheatStrategy,
    alice_binding_attack,
    bell_strategy,
    bob_cheat_probability,
)
from ebcommit.states import (
    RECTILINEAR,
    DensityMatrix,
    ProjectiveBasis,
    bb84_pair_mixture,
    cheat_state,
)

from conftest import random_density_matrix
from reference import (
    as_kraus,
    fidelity,
    isotropic,
    joint_outcome_decomposition,
    receiver_marginal,
    sender_operator,
)

ZERO = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
ONE = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
HALF = DepolarizingChannel(0.5)


class TestCheatStrategy:
    def test_resolves_from_every_namespace(self):
        import ebcommit
        import ebcommit.states

        assert ebcommit.CheatStrategy is CheatStrategy is ebcommit.states.CheatStrategy

    def test_requires_normalized_amplitudes(self):
        with pytest.raises(ValueError, match="normalized"):
            CheatStrategy(a0=np.array([1.0, 1.0]), a1=np.array([0.0, 1.0]))

    def test_bell_strategy_amplitudes(self):
        s = bell_strategy()
        assert np.array_equal(s.a0, [1, 0])
        assert np.array_equal(s.a1, [0, 1])

    def test_copies_its_inputs(self):
        a0 = np.array([1, 0], dtype=complex)
        a1 = np.array([0, 1], dtype=complex)
        s = CheatStrategy(a0, a1)
        a0[0], a1[1] = 5, 5  # the caller's arrays stay writable
        assert np.array_equal(s.a0, [1, 0])
        assert np.array_equal(s.a1, [0, 1])
        assert not s.a0.flags.writeable and not s.a1.flags.writeable


class TestHiding:
    def test_bb84_encodings_perfectly_hiding(self):
        report = bob_cheat_probability(
            bb84_pair_mixture(0), bb84_pair_mixture(1), DepolarizingChannel(0.5)
        )
        assert report.delta_raw <= 1e-12
        assert report.delta_channel <= 1e-12
        assert report.p_bcheat == 0.5

    def test_orthogonal_states_fully_distinguishable(self):
        report = bob_cheat_probability(ZERO, ONE, DepolarizingChannel(1.0))
        assert abs(report.p_bcheat - 1.0) < 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7])
    def test_depolarizing_scales_distance_by_q(self, q):
        report = bob_cheat_probability(ZERO, ONE, DepolarizingChannel(q))
        assert abs(report.delta_raw - 1.0) < 1e-12
        assert abs(report.delta_channel - q) < 1e-12
        assert abs(report.p_bcheat - 1.0) < 1e-12  # raw term dominates

    def test_channel_contractivity(self, rng):
        c = DepolarizingChannel(0.6)
        for _ in range(20):
            a = DensityMatrix(random_density_matrix(rng, 2))
            b = DensityMatrix(random_density_matrix(rng, 2))
            report = bob_cheat_probability(a, b, c)
            assert report.delta_channel <= report.delta_raw + 1e-10
            assert abs(report.delta_channel - 0.6 * report.delta_raw) < 1e-10
            assert abs(report.p_bcheat - (0.5 + report.delta_raw / 2)) < 1e-12

    # the trace distance of two non-states can reach 1 and bound nothing
    @pytest.mark.parametrize("sigma0, sigma1, error, message", [
        (np.eye(2), 5 * np.eye(2), TypeError, "sigma0 must be a DensityMatrix"),
        (ZERO, np.diag([1, -1]), TypeError, "sigma1 must be a DensityMatrix"),
        (isotropic(0.5), ZERO, ValueError, "sigma0 must be a qubit state"),
        (ZERO, isotropic(0.5), ValueError, "sigma1 must be a qubit state"),
    ], ids=["sigma0-array", "sigma1-array", "sigma0-pair", "sigma1-pair"])
    def test_mistyped_encodings_rejected(self, sigma0, sigma1, error, message):
        with pytest.raises(error, match=f"^{message}"):
            bob_cheat_probability(sigma0, sigma1, DepolarizingChannel(0.5))


SMALL_GRID = (17, 16)  # includes theta = 0, so the computational basis is on the grid


def _steering_objective(rho_out, basis, announcements):
    """Outcome-weighted best squared fidelity over the announcements, as a reference."""
    return sum(
        p * max(fidelity(cond, t) ** 2 for t in announcements)
        for p, cond in joint_outcome_decomposition(rho_out, "A", basis)
        if cond is not None
    )


def _orthogonal(target):
    return DensityMatrix(np.eye(2) - target.mat)


def _grid_objective(strategy, q, target, n_theta, n_phi):
    """Reference objective over a theta-major (theta, phi) grid of steering bases."""
    rho_out = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
    announcements = (target, _orthogonal(target))
    return np.array([
        _steering_objective(rho_out, ProjectiveBasis(float(theta), float(phi)), announcements)
        for theta in np.linspace(0.0, math.pi, n_theta)
        for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    ])


def _grid_slack(n_theta, n_phi):
    """Most the grid optimum can fall short of the true one.

    A Bloch direction lies within half a step of a grid point on each axis;
    the angle a between them obeys 1 - cos a <= (1 - cos dtheta/2) +
    (1 - cos dphi/2), and the objective falls by at most (1 - cos a)/2.
    """
    half_theta = math.pi / (n_theta - 1) / 2
    half_phi = math.pi / n_phi
    return (2.0 - math.cos(half_theta) - math.cos(half_phi)) / 2


class TestBinding:
    def test_fully_depolarized_objective_is_flat_half(self):
        report = alice_binding_attack(bell_strategy(), DepolarizingChannel(0.0), ZERO)
        assert abs(report.best_fidelity_sq - 0.5) <= 1e-12
        assert report.best_basis == RECTILINEAR  # every basis ties
        grid = _grid_objective(bell_strategy(), 0.0, ZERO, *SMALL_GRID)
        assert np.abs(grid - 0.5).max() <= 1e-10

    def test_noiseless_bell_steering_is_perfect(self):
        report = alice_binding_attack(bell_strategy(), DepolarizingChannel(1.0), ZERO)
        assert abs(report.best_fidelity_sq - 1.0) <= 1e-12

    @pytest.mark.parametrize("q", [0.2, 1 / 3, 0.6, 0.9])
    def test_bell_strategy_objective_closed_form(self, q):
        # best basis is the target's encoding; the value is (1+q)/2
        report = alice_binding_attack(bell_strategy(), DepolarizingChannel(q), ZERO)
        assert abs(report.best_fidelity_sq - (1 + q) / 2) <= 1e-12
        assert report.best_basis == RECTILINEAR

    def test_entanglement_breaking_regime_strictly_worse_than_noiseless(self):
        low = alice_binding_attack(bell_strategy(), DepolarizingChannel(1 / 3), ZERO)
        high = alice_binding_attack(bell_strategy(), DepolarizingChannel(1.0), ZERO)
        assert low.best_fidelity_sq < high.best_fidelity_sq - 0.2

    def test_report_invariants(self):
        report = alice_binding_attack(bell_strategy(), DepolarizingChannel(0.5), ZERO)
        grid = _grid_objective(bell_strategy(), 0.5, ZERO, 9, 8)
        assert grid.shape == (72,)
        assert np.all(grid >= -1e-12)
        assert np.all(grid <= 1.0 + 1e-12)
        # theta = 0 is on the grid, so the grid attains the optimum here
        assert abs(report.best_fidelity_sq - grid.max()) <= 1e-12

    def test_curve_endpoints_and_monotonicity(self):
        values = [
            alice_binding_attack(bell_strategy(), DepolarizingChannel(q), ZERO).best_fidelity_sq
            for q in np.linspace(0, 1, 11)
        ]
        assert abs(values[0] - 0.5) <= 1e-9
        assert abs(values[-1] - 1.0) <= 1e-9
        assert all(b - a >= -1e-10 for a, b in zip(values, values[1:]))

    def test_weighted_conditionals_equal_marginal_on_grid(self):
        # the no-signalling ceiling: steering only redistributes, never shifts
        for q in (0.2, 1 / 3):
            rho = lift_apply(
                DepolarizingChannel(q), cheat_state([1, 0], [0, 1])
            )
            marginal = receiver_marginal(rho.mat)
            for theta in np.linspace(0, math.pi, 9):
                for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                    basis = ProjectiveBasis(float(theta), float(phi))
                    avg = np.zeros((2, 2), dtype=complex)
                    for p, cond in joint_outcome_decomposition(rho, "A", basis):
                        if cond is not None:
                            avg += p * cond.mat
                    assert np.abs(avg - marginal).max() < 1e-10

    def test_partial_entanglement_steers_partially(self):
        a1 = np.array([math.sin(0.4), math.cos(0.4)])
        strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=a1)
        weak = alice_binding_attack(strategy, DepolarizingChannel(1.0), ZERO)
        full = alice_binding_attack(bell_strategy(), DepolarizingChannel(1.0), ZERO)
        assert 0.5 < weak.best_fidelity_sq < full.best_fidelity_sq

    @pytest.mark.parametrize("strategy, channel, target, error, message", [
        (bell_strategy().a0, HALF, ZERO, TypeError, "strategy must be a CheatStrategy"),
        (bell_strategy(), HALF, ZERO.mat, TypeError, "target must be a DensityMatrix"),
        (bell_strategy(), HALF, DensityMatrix.from_pure([1, 0, 0, 0]), ValueError,
         "target must be a qubit"),
        (bell_strategy(), as_kraus(HALF), ZERO, TypeError,
         r"channel must be a DepolarizingChannel, got KrausChannel\("),
        (bell_strategy(), 0.5, ZERO, TypeError, r"channel must be a DepolarizingChannel, got 0\.5$"),
    ], ids=["strategy-array", "target-array", "target-pair", "channel-kraus", "channel-float"])
    def test_mistyped_arguments_rejected(self, strategy, channel, target, error, message):
        with pytest.raises(error, match=f"^{message}"):
            alice_binding_attack(strategy, channel, target)

    def test_best_basis_at_tiny_q_is_the_noiseless_one(self):
        # `binding --a0 zero --a1 plus --target 1.2,0.7`: roundoff in a lifted
        # pair would tilt the q = 3e-12 row's basis by about 4e-15/q
        strategy = CheatStrategy(a0=np.array([1.0, 0.0]), a1=np.array([1.0, 1.0]) / math.sqrt(2))
        target = DensityMatrix.from_pure(ProjectiveBasis(1.2, 0.7).vectors()[0])
        expected = ProjectiveBasis(0.6614369223605915, 5.362582158188986)
        for q in (3e-12, 0.5):
            report = alice_binding_attack(strategy, DepolarizingChannel(q), target)
            assert report.best_basis == expected

    def test_product_strategy_objective_is_exact(self):
        # a0 = a1 = |0> sends |+> itself, so the best match with |+> is (1 + q)/2
        zero = np.array([1.0, 0.0])
        plus = DensityMatrix.from_pure(np.array([1.0, 1.0]) / math.sqrt(2))
        report = alice_binding_attack(CheatStrategy(a0=zero, a1=zero), HALF, plus)
        assert report.best_fidelity_sq == 0.75

    @pytest.mark.parametrize("bit", [0, 1])
    def test_mixed_target_rejected(self, bit):
        with pytest.raises(ValueError, match="pure"):
            alice_binding_attack(bell_strategy(), DepolarizingChannel(0.5), bb84_pair_mixture(bit))


_ANGLES = st.tuples(
    st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True)
)
PROPERTY_GRID = (9, 8)


def _pure(angles):
    return ProjectiveBasis(*angles).vectors()[0]


@settings(max_examples=40, deadline=None)
@given(a0=_ANGLES, a1=_ANGLES, t=_ANGLES, q=st.floats(0.0, 1.0))
def test_closed_form_is_the_steering_optimum(a0, a1, t, q):
    strategy = CheatStrategy(a0=_pure(a0), a1=_pure(a1))
    target = DensityMatrix.from_pure(_pure(t))
    report = alice_binding_attack(strategy, DepolarizingChannel(q), target)
    exact = report.best_fidelity_sq
    grid = _grid_objective(strategy, q, target, *PROPERTY_GRID).max()
    assert exact >= grid - 1e-12
    assert exact - grid <= _grid_slack(*PROPERTY_GRID)
    assert exact <= 1.0
    # the reported basis attains the optimum under the reference objective
    rho_out = lift_apply(DepolarizingChannel(q), cheat_state(strategy.a0, strategy.a1))
    attained = _steering_objective(rho_out, report.best_basis, (target, _orthogonal(target)))
    assert abs(attained - exact) <= 1e-9
    bell = alice_binding_attack(bell_strategy(), DepolarizingChannel(q), target)
    assert abs(bell.best_fidelity_sq - (1 + q) / 2) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(a0=_ANGLES, a1=_ANGLES, t=_ANGLES, q=st.floats(1e-10, 1.0))
def test_best_basis_does_not_depend_on_q(a0, a1, t, q):
    # the channel scales the Helstrom operator X of the noiseless pair by q,
    # so the basis is X's at every q where q X has two distinct eigenvalues,
    # and the objective is 1/2 + q times the noiseless advantage
    strategy = CheatStrategy(a0=_pure(a0), a1=_pure(a1))
    target = DensityMatrix.from_pure(_pure(t))
    x = sender_operator(cheat_state(strategy.a0, strategy.a1), 2.0 * target.mat - PAULI_I)
    w = np.linalg.eigvalsh(x)
    assume(q * (w[1] - w[0]) > 2 * SIGN_TOL)
    noisy = alice_binding_attack(strategy, DepolarizingChannel(q), target)
    noiseless = alice_binding_attack(strategy, DepolarizingChannel(1.0), target)
    assert noisy.best_basis == noiseless.best_basis
    advantage = noiseless.best_fidelity_sq - 0.5
    assert abs((noisy.best_fidelity_sq - 0.5) - q * advantage) <= 4.5e-16
