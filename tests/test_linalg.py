import numpy as np
import pytest

from ebcommit.linalg import (
    as_operator,
    eig_hermitian,
    is_psd,
    partial_transpose,
    trace_distance,
)
from ebcommit.channels import KrausChannel
from ebcommit.states import CheatStrategy, DensityMatrix, cheat_state

from conftest import random_density_matrix, random_hermitian
from reference import (
    PAULI_X,
    PAULI_Z,
    bell_psi_plus,
    fidelity,
    hermiticity_defect,
    isotropic,
    partial_trace,
    sqrtm_psd,
)

I2 = np.eye(2)
I4 = np.eye(4)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
BELL = np.outer(bell_psi_plus(), bell_psi_plus().conj())
PLUS = np.full((2, 2), 0.5, dtype=complex)


# np.kron puts A left and B right, the index order every two-qubit
# einsum of the package assumes
def test_kron_identities():
    assert np.array_equal(np.kron(I2, I2), I4)
    assert np.array_equal(np.kron(P0, P0), np.diag([1.0, 0, 0, 0]))
    assert np.array_equal(np.kron(P0, P1), np.diag([0.0, 1, 0, 0]))  # index 2a + b


def test_kron_pauli_x():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.array_equal(np.kron(PAULI_X, PAULI_X), expected)


def test_partial_trace_product_factorization(rng):
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs(partial_trace(np.kron(a, b)) - a * b.trace()).max() < 1e-12


def test_partial_trace_bell_is_maximally_mixed():
    assert np.abs(partial_trace(BELL) - I2 / 2).max() < 1e-15


def test_partial_trace_basis_projector():
    assert np.array_equal(partial_trace(np.diag([1.0, 0, 0, 0])), P0)


def test_partial_trace_preserves_trace_and_hermiticity(rng):
    for _ in range(20):
        m = random_hermitian(rng, 4)
        r = partial_trace(m)
        assert abs(r.trace() - m.trace()) < 1e-12
        assert hermiticity_defect(r) < 1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(I2)


def test_partial_transpose_product_case(rng):
    a = random_density_matrix(rng, 2)
    b = random_density_matrix(rng, 2)
    assert np.abs(partial_transpose(np.kron(a, b)) - np.kron(a, b.T)).max() < 1e-15


def test_partial_transpose_bell_spectrum():
    w = eig_hermitian(partial_transpose(BELL))
    assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_identity_invariant():
    assert np.array_equal(partial_transpose(I4 / 4), I4 / 4)


def test_partial_transpose_is_exact_involution(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(partial_transpose(partial_transpose(m)), m)


def test_partial_transpose_errors():
    with pytest.raises(ValueError):
        partial_transpose(I2)


def test_eig_hermitian_fixed_spectra():
    assert np.array_equal(eig_hermitian(I4), np.ones(4))
    assert np.array_equal(eig_hermitian(PAULI_Z), [1.0, -1.0])


@pytest.mark.parametrize("q", np.linspace(0.0, 1.0, 11))
def test_eig_hermitian_isotropic_pt_spectrum(q):
    # hand diagonalization: (1+q)/4 three times, then (1-3q)/4
    w = eig_hermitian(partial_transpose(isotropic(q).mat))
    expected = sorted([(1 + q) / 4] * 3 + [(1 - 3 * q) / 4], reverse=True)
    assert np.allclose(w, expected, atol=1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_reconstruction(rng):
    for _ in range(50):
        m = random_hermitian(rng, 4)
        w, v = eig_hermitian(m, vectors=True)
        assert np.abs(m - (v * w) @ v.conj().T).max() <= 1e-10
        assert abs(w.sum() - m.trace().real) <= 1e-10
        assert np.all(np.diff(w) <= 1e-15)


def test_sqrtm_psd_squares_back(rng):
    for dim in (2, 4):
        rho = random_density_matrix(rng, dim)
        s = sqrtm_psd(rho)
        assert np.abs(s @ s - rho).max() < 1e-12


def test_trace_distance_cases():
    rho = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(P0, P1) - 1.0) < 1e-15
    # eigenvalues of P0 - |+><+| are +-1/sqrt(2) by hand
    assert abs(trace_distance(P0, PLUS) - 1 / np.sqrt(2)) < 1e-12


def test_trace_distance_symmetric(rng):
    a = random_density_matrix(rng, 4)
    b = random_density_matrix(rng, 4)
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError):
        trace_distance(I2 / 2, I4 / 4)


def test_fidelity_cases(rng):
    rho = random_density_matrix(rng, 2)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert fidelity(P0, P1) < 1e-12
    assert abs(fidelity(I2 / 2, P0) ** 2 - 0.5) < 1e-12


def test_fidelity_symmetric_and_pure_shortcut(rng):
    for _ in range(10):
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        pure = np.outer(v, v.conj())
        assert abs(fidelity(a, pure) ** 2 - np.real(v.conj() @ a @ v)) < 1e-10


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity(I2 / 2, I4 / 4)


def test_is_psd():
    assert is_psd(I4)
    assert not is_psd(PAULI_Z)
    assert is_psd(partial_transpose(isotropic(1 / 3).mat))


def test_fuchs_van_de_graaf_sandwich(rng):
    for dim in (2, 4):
        for _ in range(100):
            a = random_density_matrix(rng, dim)
            b = random_density_matrix(rng, dim)
            d = trace_distance(a, b)
            f = fidelity(a, b)
            assert 1 - f <= d + 1e-9
            assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


def test_stack_forms_equal_the_single_matrix_calls(rng):
    # each matrix of a stack is decided and decomposed as it would be alone
    stack = np.array([random_hermitian(rng, 4) for _ in range(6)] + [random_density_matrix(rng, 4)])
    w, v = eig_hermitian(stack, vectors=True)
    for m, w_m, v_m in zip(stack, w, v):
        w_alone, v_alone = eig_hermitian(m, vectors=True)
        assert np.array_equal(w_m, w_alone) and np.array_equal(v_m, v_alone)
    assert np.array_equal(eig_hermitian(stack), [eig_hermitian(m) for m in stack])
    assert is_psd(stack[-1])
    for f in (partial_trace, partial_transpose):
        assert np.array_equal(f(stack), [f(m) for m in stack])
    assert hermiticity_defect(stack) == max(hermiticity_defect(m) for m in stack)
    # leading axes of any shape, none at all included
    assert eig_hermitian(stack[:6].reshape(2, 3, 4, 4)).shape == (2, 3, 4)
    assert eig_hermitian(stack[:0]).shape == (0, 4) and hermiticity_defect(stack[:0]) == 0.0
    # the PSD test takes one matrix
    for f in (as_operator, is_psd):
        with pytest.raises(ValueError, match="expected a square matrix"):
            f(stack)


# A NaN fails every comparison, so each check must be written to fail closed.
_NON_FINITE_INPUTS = {
    "DensityMatrix": lambda x: DensityMatrix(np.full((2, 2), x)),
    "DensityMatrix.from_pure": lambda x: DensityMatrix.from_pure([x, 0.0]),
    "KrausChannel": lambda x: KrausChannel((np.diag([x, x]),)),
    "CheatStrategy": lambda x: CheatStrategy([x, 0.0], [0.0, 1.0]),
    "cheat_state": lambda x: cheat_state([x, 0.0], [0.0, 1.0]),
    "eig_hermitian": lambda x: eig_hermitian(np.full((2, 2), x)),
    "trace_distance": lambda x: trace_distance(np.full((2, 2), x), I2 / 2),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_INPUTS))
def test_non_finite_input_is_rejected(call, value):
    with pytest.raises(ValueError):
        _NON_FINITE_INPUTS[call](value)


_MALFORMED_INPUTS = {
    "as_operator": (lambda: as_operator(np.zeros((2, 3))), "expected a square matrix"),
    "KrausChannel": (lambda: KrausChannel(()), "at least one Kraus operator"),
    "CheatStrategy": (lambda: CheatStrategy([1, 0, 0], [0, 1]),
                      "a0 must be a single-qubit state vector"),
    "cheat_state": (lambda: cheat_state([1, 0], [0, 1, 0]), "single-qubit state vectors"),
}


@pytest.mark.parametrize("call", sorted(_MALFORMED_INPUTS))
def test_malformed_input_is_rejected(call):
    build, message = _MALFORMED_INPUTS[call]
    with pytest.raises(ValueError, match=message):
        build()
