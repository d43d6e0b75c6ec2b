import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ebcommit import linalg
from ebcommit.channels import DepolarizingChannel, lift_apply
from ebcommit.protocol import _EFFECTS, EprAlice, ProtocolConfig, run_session
from ebcommit.states import (
    OUTCOME_EPS,
    RECTILINEAR,
    CheatStrategy,
    DensityMatrix,
    ProjectiveBasis,
    _sender_operator,
    bb84_pair_mixture,
    bb84_projector,
    cheat_state,
)

from conftest import count_calls, random_density_matrix
from reference import (
    DIAGONAL,
    bell_psi_plus,
    encoding_basis,
    hermiticity_defect,
    isotropic,
    joint_outcome_decomposition,
    projectors,
    receiver_marginal,
    sender_operator,
)

I2 = np.eye(2)


class TestDensityMatrix:
    def test_valid_construction(self):
        dm = DensityMatrix(I2 / 2)
        assert dm.dim == 2
        assert not dm.mat.flags.writeable

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(I2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_pair_needs_no_subsystem_tuple(self):
        assert DensityMatrix(np.eye(4) / 4).dim == 4
        assert DensityMatrix.from_pure([1, 0, 0, 0]).dim == 4

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_rejects_dimension_other_than_2_or_4(self, dim):
        with pytest.raises(ValueError, match=f"dimension must be 2 or 4, got {dim}"):
            DensityMatrix(np.eye(dim) / dim)

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_from_pure_rejects_dimension_other_than_2_or_4(self, dim):
        with pytest.raises(ValueError, match=f"dimension must be 2 or 4, got {dim}"):
            DensityMatrix.from_pure(np.full(dim, 1 / math.sqrt(dim)))

    def test_from_pure_requires_normalization(self):
        with pytest.raises(ValueError, match="norm"):
            DensityMatrix.from_pure([1.0, 1.0])

    def test_equality_is_exact(self):
        assert DensityMatrix(I2 / 2) == DensityMatrix(I2 / 2)
        assert DensityMatrix(I2 / 2) != isotropic(0.0)


def test_bb84_symbol_validation():
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        bb84_projector(2, 0)
    with pytest.raises(ValueError, match="variant must be 0 or 1"):
        bb84_projector(0, -1)


def test_bb84_states_paper_mapping():
    # bit 0 -> {|0>, |1>}, bit 1 -> {|+>, |->}, with exact entries
    assert np.array_equal(bb84_projector(0, 0), [[1, 0], [0, 0]])
    assert np.array_equal(bb84_projector(0, 1), [[0, 0], [0, 1]])
    assert np.array_equal(bb84_projector(1, 0), [[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(bb84_projector(1, 1), [[0.5, -0.5], [-0.5, 0.5]])


def test_bb84_projectors_match_states():
    s = math.sqrt(0.5)
    states = {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [s, s], (1, 1): [s, -s]}
    for (bit, variant), v in states.items():
        v = np.array(v, dtype=complex)
        assert np.abs(bb84_projector(bit, variant) - np.outer(v, v.conj())).max() < 1e-15


def test_bb84_pair_mixtures_are_exactly_maximally_mixed():
    # the hiding property rests on this being exact, not approximate
    assert np.array_equal(bb84_pair_mixture(0).mat, I2 / 2)
    assert np.array_equal(bb84_pair_mixture(1).mat, I2 / 2)


def test_encoding_basis():
    assert encoding_basis(0) == RECTILINEAR
    assert encoding_basis(1) == DIAGONAL
    with pytest.raises(ValueError):
        encoding_basis(2)


def test_projective_basis_orthonormal(rng):
    for _ in range(50):
        basis = ProjectiveBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        b0, b1 = basis.vectors()
        assert abs(np.linalg.norm(b0) - 1) < 1e-12
        assert abs(np.linalg.norm(b1) - 1) < 1e-12
        assert abs(b0.conj() @ b1) < 1e-12


def test_projective_basis_range_validation():
    with pytest.raises(ValueError):
        ProjectiveBasis(-0.1, 0.0)
    with pytest.raises(ValueError):
        ProjectiveBasis(0.0, 2 * math.pi)


@pytest.mark.parametrize(
    "theta, phi, name",
    [(True, 0.0, "theta"), ("1", 0.0, "theta"), (None, 0.0, "theta"), (1j, 0.0, "theta"),
     (0.0, True, "phi"), (0.0, "0", "phi")],
)
def test_projective_basis_rejects_non_real_angles(theta, phi, name):
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        ProjectiveBasis(theta, phi)


def test_projective_basis_accepts_integer_and_numpy_angles():
    assert ProjectiveBasis(0, 0) == RECTILINEAR
    assert ProjectiveBasis(np.float32(0.0), np.int64(0)) == RECTILINEAR


def test_projective_basis_checks_a_numpy_angle_as_the_float_it_stores():
    # float32 pi rounds up to 3.1415927410125732 > pi, and float32 2 pi up past 2 pi
    with pytest.raises(ValueError, match="^theta must lie in"):
        ProjectiveBasis(np.float32(math.pi), 0.0)
    with pytest.raises(ValueError, match="^phi must lie in"):
        ProjectiveBasis(0.0, np.float32(2 * math.pi))
    # float32 values that stay in range as floats are kept, as those floats
    basis = ProjectiveBasis(np.float32(3.1415925), np.float32(6.2831850))
    assert (basis.theta, basis.phi) == (float(np.float32(3.1415925)), float(np.float32(6.2831850)))


@pytest.mark.parametrize(
    "theta, phi, name",
    [(10**400, 0.0, "theta"), (-(10**400), 0.0, "theta"), (0.0, 10**400, "phi"),
     (0.0, -(10**400), "phi"), (Fraction(10**400, 3), 0.0, "theta")],
)
def test_projective_basis_names_an_angle_past_the_float_range(theta, phi, name):
    with pytest.raises(ValueError, match=f"^{name} must lie in .*, got -?[0-9]+"):
        ProjectiveBasis(theta, phi)


def test_projective_basis_stores_python_floats():
    # a numpy angle would make the basis fail to serialize
    basis = ProjectiveBasis(np.float32(1.0), np.int64(2))
    assert (type(basis.theta), type(basis.phi)) == (float, float)
    assert json.loads(json.dumps(dataclasses.asdict(basis))) == {"theta": 1.0, "phi": 2.0}


def test_rectilinear_and_diagonal_projectors():
    p0, p1 = projectors(RECTILINEAR)
    assert np.array_equal(p0, np.diag([1.0, 0.0]))
    assert np.array_equal(p1, np.diag([0.0, 1.0]))
    d0, d1 = projectors(DIAGONAL)
    assert np.abs(d0 - bb84_projector(1, 0)).max() < 1e-15
    assert np.abs(d1 - bb84_projector(1, 1)).max() < 1e-15


def test_bell_psi_plus():
    v = bell_psi_plus()
    s = math.sqrt(0.5)
    assert np.array_equal(v, [s, 0, 0, s])
    rho = DensityMatrix.from_pure(v)
    assert np.abs(receiver_marginal(rho.mat) - I2 / 2).max() < 1e-15


def test_isotropic_endpoints_and_range():
    assert np.abs(isotropic(1.0).mat - np.outer(bell_psi_plus(), bell_psi_plus())).max() < 1e-15
    assert np.array_equal(isotropic(0.0).mat, np.eye(4) / 4)
    with pytest.raises(ValueError):
        isotropic(1.2)
    with pytest.raises(ValueError):
        isotropic(-0.1)


def test_cheat_state_bell_case():
    rho = cheat_state([1, 0], [0, 1])
    assert np.abs(rho.mat - DensityMatrix.from_pure(bell_psi_plus()).mat).max() < 1e-15


def test_cheat_state_product_case():
    # |0>_A |0>_B + |0>_A |1>_B normalizes to |0> x |+>
    rho = cheat_state([1, 0], [1, 0])
    plus = np.full((2, 2), 0.5)
    expected = np.kron(np.diag([1.0, 0.0]), plus)
    assert np.abs(rho.mat - expected).max() < 1e-15


def test_cheat_state_zero_norm():
    with pytest.raises(ValueError, match="zero norm"):
        cheat_state([0, 0], [0, 0])


def _assert_is_the_checked_projector(rho, v):
    # the projector of v / |v|, bit for bit, read-only, Hermitian to within
    # ulps (a fused complex product leaves ~1e-17 on the diagonal), and
    # accepted by the full validation that DensityMatrix(mat) runs
    w = v / np.linalg.norm(v)
    assert np.array_equal(rho.mat, np.outer(w, w.conj()))
    assert not rho.mat.flags.writeable
    assert hermiticity_defect(rho.mat) <= 4 * np.finfo(float).eps
    assert np.array_equal(DensityMatrix(rho.mat).mat, rho.mat)


_ENTRIES = st.floats(-1e6, 1e6)


def _complex_vector(dim):
    return st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=dim, max_size=dim).map(
        lambda xs: np.array([complex(re, im) for re, im in xs]))


@given(raw=st.one_of(_complex_vector(2), _complex_vector(4)))
@example(raw=np.array([1.0, 1.0, 1.0, 1e-300j]))
def test_from_pure_of_a_unit_vector_passes_the_full_check(raw):
    n = np.linalg.norm(raw)
    assume(0.0 < n < math.inf)
    v = raw / n
    assume(abs(np.linalg.norm(v) - 1.0) <= 1e-9)  # from_pure's own norm check
    _assert_is_the_checked_projector(DensityMatrix.from_pure(v), v)


@given(a0=_complex_vector(2), a1=_complex_vector(2),
       norm=st.one_of(st.just(1e-12), st.floats(1e-12, 2e-12), st.floats(1e-3, 1e3)))
@example(a0=np.array([1.0, 0.0]), a1=np.array([0.0, 1.0]), norm=1.0)
@example(a0=np.array([1e-12, 0.0]), a1=np.array([0.0, 0.0]), norm=1e-12)  # on the floor
def test_cheat_state_passes_the_full_check(a0, a1, norm):
    # the joint vector scaled to a norm near or at the 1e-12 floor, or far above it
    n0 = np.linalg.norm(np.concatenate([a0, a1]))
    assume(0.0 < n0 < math.inf)
    a0, a1 = a0 * (norm / n0), a1 * (norm / n0)
    joint = np.array([a0[0], a1[0], a0[1], a1[1]])
    assume(1e-12 <= np.linalg.norm(joint) < math.inf)
    _assert_is_the_checked_projector(cheat_state(a0, a1), joint)


# The sum of squares behind np.linalg.norm overflows past ~1.3e154, with a
# RuntimeWarning that the suite turns into an error; a joint vector of a
# finite norm above that is still accepted, and its projector is the one
# of the same direction at unit scale, to roundoff
@given(a0=_complex_vector(2), a1=_complex_vector(2), scale=st.floats(1e154, 1e307))
@example(a0=np.array([1.0, 0.0]), a1=np.array([0.0, 0.0]), scale=1e160)
@example(a0=np.array([1.0, 1.0]), a1=np.array([1.0, 0.0]), scale=1e308)  # norm 1.7e308
@example(a0=np.array([0j, 0j]), a1=np.array([0j, 2.22507386e-313j]), scale=1e154)  # subnormal top
def test_cheat_state_of_amplitudes_whose_squares_overflow(a0, a1, scale):
    top = np.abs(np.concatenate([a0, a1])).max()
    assume(top > 0.0)
    # the parts are divided one by one: numpy divides a complex array by a
    # subnormal through its reciprocal, which overflows
    a0, a1 = (a.real / top + 1j * (a.imag / top) for a in (a0, a1))
    huge = cheat_state(a0 * scale, a1 * scale)
    assert np.abs(huge.mat - cheat_state(a0, a1).mat).max() <= 1e-15
    assert np.array_equal(DensityMatrix(huge.mat).mat, huge.mat)
    assert np.array_equal(cheat_state([1e160, 0], [0, 0]).mat, cheat_state([1, 0], [0, 0]).mat)


def test_a_vector_whose_squares_overflow_is_judged_by_its_norm():
    # rejected by the norm check itself, with the norm in the message, and
    # no overflow warning; a joint norm past the largest float is not finite
    with pytest.raises(ValueError, match=r"norm .*1e\+200"):
        DensityMatrix.from_pure([1e200, 0])
    with pytest.raises(ValueError, match=r"a0 must be normalized, got norm .*1e\+200"):
        CheatStrategy([1e200, 0], [0, 1])
    with pytest.raises(ValueError, match=r"a1 must be normalized, got norm .*1e\+200"):
        CheatStrategy([1, 0], [0, 1e200j])
    with pytest.raises(ValueError, match=r"non-finite .*\(norm .*inf\)"):
        cheat_state([1.7e308, 1.7e308], [0, 0])


def test_pure_states_make_no_eigensolve(monkeypatch):
    # a checked unit vector's projector needs no eigensolve; a mixture does
    eigensolves = count_calls(monkeypatch, linalg, "eig_hermitian")
    DensityMatrix.from_pure([0.6, 0.8j])
    DensityMatrix.from_pure(bell_psi_plus())
    cheat_state([1, 0], [0.6, 0.8])
    cheat_state([2.0, 1j], [0.0, 3.0])
    assert eigensolves == []
    DensityMatrix(np.eye(2) / 2)
    assert len(eigensolves) == 1


def test_measure_joint_bell_correlations():
    bell = DensityMatrix.from_pure(bell_psi_plus())
    (p0, cond0), (p1, cond1) = joint_outcome_decomposition(bell, "A", RECTILINEAR)
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
    assert np.abs(cond0.mat - np.diag([1.0, 0.0])).max() < 1e-12
    assert np.abs(cond1.mat - np.diag([0.0, 1.0])).max() < 1e-12


def test_measure_joint_product_state_no_steering(rng):
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    joint = DensityMatrix(np.kron(rho_a, rho_b))
    for theta, phi in [(0.0, 0.0), (1.0, 2.0), (2.5, 4.0)]:
        for p, cond in joint_outcome_decomposition(joint, "A", ProjectiveBasis(theta, phi)):
            assert np.abs(cond.mat - rho_b).max() < 1e-10


def test_measure_joint_impossible_outcome_never_returned():
    joint = DensityMatrix(np.kron(np.diag([1.0, 0.0]), I2 / 2))
    # outcome 1 on side A has probability exactly 0, so its branch is empty
    (p0, cond0), (p1, cond1) = joint_outcome_decomposition(joint, "A", RECTILINEAR)
    assert p0 == 1.0 and cond0 is not None
    assert p1 == 0.0 and cond1 is None
    # and the protocol's sampler never draws it: |0>|+> never reads |-> on B
    config = ProtocolConfig(q=1.0, rounds=2000, seed=5)
    t, _ = run_session(config, EprAlice(strategy=CheatStrategy([1, 0], [1, 0])))
    diagonal = t.classes[t.classes >> 2 == 1]
    assert diagonal.size > 0
    assert not ((diagonal >> 1) & 1).any()


def test_measure_joint_constructs_every_branch_of_small_probability():
    # a1 close to a0 = |0> leaves branches of probability down to ~1e-11;
    # dividing such a branch by p amplified its roundoff past TOL
    for q in (0.5, 0.9, 1.0):
        for theta in np.geomspace(1e-5, 2e-2, 60):
            a1 = ProjectiveBasis(theta, 0.0).vectors()[0]
            joint = lift_apply(DepolarizingChannel(q), cheat_state([1, 0], a1))
            for side in ("A", "B"):
                for bit in (0, 1):
                    basis = encoding_basis(bit)
                    branches = joint_outcome_decomposition(joint, side, basis)
                    for (p, cond), proj in zip(branches, projectors(basis)):
                        assert (cond is None) == (p < OUTCOME_EPS)
                        if side == "B" and cond is not None:
                            # both carry roundoff of about 1e-16 per entry,
                            # so they are compared before dividing it by p
                            x = _sender_operator(joint, proj)
                            assert np.abs(p * cond.mat - x).max() <= 1e-15


def test_sender_operator_of_a_stack_of_effects(rng):
    # the receiver's four effects in one contraction give each x[b, o] bit
    # for bit as its own call does; any effect agrees with the textbook
    # route (lift to I x E, multiply, trace out B) to roundoff
    for _ in range(200):
        joint = random_density_matrix(rng, 4)
        x = _sender_operator(joint, _EFFECTS)
        assert x.shape == (2, 2, 2, 2)
        for b in (0, 1):
            for o in (0, 1):
                assert np.array_equal(x[b, o], _sender_operator(joint, _EFFECTS[b, o]))
                assert np.abs(x[b, o] - sender_operator(joint, _EFFECTS[b, o])).max() <= 1e-15
        effects = np.array([random_density_matrix(rng, 2) for _ in range(3)])
        for e, x_e in zip(effects, _sender_operator(joint, effects)):
            assert np.abs(x_e - sender_operator(joint, e)).max() <= 1e-15


def test_density_matrix_rejects_each_malformed_matrix_and_a_stack(rng):
    # the one validation of a density matrix: each check raises its own
    # message, and a stack of valid matrices is no density matrix
    stack = np.array([random_density_matrix(rng, 4) for _ in range(4)])
    for m in stack:
        valid = DensityMatrix(m).mat
        assert np.array_equal(valid, m) and not valid.flags.writeable
        assert valid is not m
    for bad, message in [
        (np.diag([1.5, -0.5, 0.0, 0.0]), r"^not PSD \(min eigenvalue -5\.000e-01\)$"),
        (np.eye(4) / 2, r"^trace is (np\.float64\()?2\.0\)?, expected 1$"),  # numpy 2 reprs np.float64
        (np.triu(np.ones((4, 4))) / 4, r"^matrix is not Hermitian \(defect 2\.500e-01 > 1\.0e-10\)$"),
        (np.full((4, 4), np.nan), "^matrix has non-finite entries$"),
        (np.eye(3) / 3, "^dimension must be 2 or 4, got 3$"),
    ]:
        with pytest.raises(ValueError, match=message):
            DensityMatrix(bad)
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 4, 4\)$"):
        DensityMatrix(stack[:2])


def test_measure_joint_rejects_a_branch_that_is_not_psd():
    # Hermitian and unit trace, but outcome 0 on A leaves diag(1.5, -0.5) on B
    with pytest.raises(ValueError, match="not PSD"):
        joint_outcome_decomposition(np.diag([1.5, -0.5, 0.0, 0.0]), "A", RECTILINEAR)


def test_no_signalling_average_of_conditionals(rng):
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / m.trace().real)
        basis = ProjectiveBasis(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        marginal = receiver_marginal(rho.mat)
        avg = np.zeros((2, 2), dtype=complex)
        for p, cond in joint_outcome_decomposition(rho, "A", basis):
            if cond is not None:
                avg += p * cond.mat
        assert np.abs(avg - marginal).max() < 1e-10
