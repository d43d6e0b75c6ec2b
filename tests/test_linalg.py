import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebcommit.linalg import (
    TOL,
    as_operator,
    bloch,
    bloch_angles,
    eig_hermitian,
    is_psd,
    partial_transpose,
    trace_distance,
)
from ebcommit.channels import KrausChannel
from ebcommit.states import CheatStrategy, DensityMatrix, cheat_state

from conftest import lapack_calls, qubit_operators, random_density_matrix, random_hermitian
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


def test_one_operator_functions_refuse_a_stack(rng):
    # the linear algebra takes one operator: a stack of valid matrices, with
    # leading axes of any shape, or a single matrix in a stack of one, is
    # refused with as_operator's error, while each of its matrices passes
    stack = np.array([random_density_matrix(rng, 4) for _ in range(6)])
    for f in (as_operator, is_psd, eig_hermitian, partial_transpose,
              lambda m: eig_hermitian(m, vectors=True)):
        for m in (stack, stack.reshape(2, 3, 4, 4), stack[:1]):
            with pytest.raises(ValueError, match="^expected a square matrix, got shape"):
                f(m)
        f(stack[0])
    assert is_psd(stack[0])


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


@pytest.mark.parametrize("dim", [2, 4])
def test_invalid_operators_keep_their_messages(dim):
    # the entries are checked as Python scalars, with numpy's messages: the
    # finiteness first, then the largest |m - m†| entry; a defect past the
    # float range reads inf, as numpy's would, not an OverflowError
    cases = (
        (np.full((dim, dim), np.nan), "matrix has non-finite entries"),
        (np.diag([1.0] * (dim - 1) + [np.inf]), "matrix has non-finite entries"),
        (np.eye(dim, k=1), "matrix is not Hermitian (defect 1.000e+00 > 1.0e-10)"),
        (np.eye(dim) + 1.5e-10j * np.eye(dim, k=1),
         "matrix is not Hermitian (defect 1.500e-10 > 1.0e-10)"),
        (np.eye(dim) * (1 + 2e-10j), "matrix is not Hermitian (defect 4.000e-10 > 1.0e-10)"),
        (1.7e308 * (np.eye(dim, k=1) - np.eye(dim, k=-1)),
         "matrix is not Hermitian (defect inf > 1.0e-10)"),
    )
    for m, message in cases:
        for call in (eig_hermitian, is_psd, lambda m: eig_hermitian(m, vectors=True)):
            with pytest.raises(ValueError) as info:
                call(m)
            assert str(info.value) == message
    assert is_psd(np.eye(dim) + 0.5e-10j * np.eye(dim, k=1))  # a defect within TOL


def test_qubit_operators_make_no_lapack_call(monkeypatch, rng):
    # a qubit is read off its Bloch form: LAPACK runs only on pair operators
    shapes = lapack_calls(monkeypatch)
    rho, sigma = random_density_matrix(rng, 2), random_density_matrix(rng, 2)
    eig_hermitian(rho)
    eig_hermitian(rho, vectors=True)
    assert is_psd(rho) and not is_psd(-rho)
    trace_distance(rho, sigma)
    DensityMatrix(rho)
    bloch(rho)
    assert shapes == []
    eig_hermitian(random_density_matrix(rng, 4))
    assert shapes == [(4, 4)]


def test_bloch_form():
    a, bx, by, bz = 0.5, -0.25, 0.125, 2.0
    h = np.array([[a + bz, bx - 1j * by], [bx + 1j * by, a - bz]]) / 2
    assert bloch(h) == (a, bx, by, bz)
    assert bloch(np.eye(2)) == (2.0, 0.0, 0.0, 0.0)
    # a signed zero is no direction: b = 0 has the angles (0, 0) and the identity as eigenbasis
    assert bloch_angles(-0.0, -0.0, -0.0) == (0.0, 0.0)
    assert bloch_angles(0.0, 0.0, -1.0) == (math.pi, 0.0)
    zero = np.diag([-0.0, 0.0]).astype(complex)
    assert bloch(zero)[3] == 0.0 and math.copysign(1.0, bloch(zero)[3]) == -1.0
    w, v = eig_hermitian(zero, vectors=True)
    assert np.array_equal(w, [0.0, 0.0]) and np.array_equal(v, np.eye(2))
    with pytest.raises(ValueError, match=r"expected a 2x2 operator, got shape \(4, 4\)"):
        bloch(np.eye(4))


EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(h=qubit_operators())
def test_qubit_spectrum_agrees_with_lapack(h):
    ref = np.linalg.eigvalsh(h)[::-1]
    norm = np.abs(ref).max()
    w, v = eig_hermitian(h, vectors=True)
    assert np.array_equal(eig_hermitian(h), w)
    assert np.abs(w - ref).max() <= 8 * EPS * norm
    assert np.abs((v * w) @ v.conj().T - h).max() <= 8 * EPS * norm
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 4 * EPS
    if h[0, 1] == 0 and h[0, 0] == h[1, 1]:  # a multiple of I: exact, in the computational basis
        assert np.array_equal(w, [h[0, 0].real] * 2) and np.array_equal(v, np.eye(2))


def _qubit_state(r, theta, phi) -> np.ndarray:
    """(I + n.sigma)/2 for the Bloch vector n of length r and angles (theta, phi)."""
    n = r * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                      math.cos(theta)])
    return np.array([[1 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1 - n[2]]]) / 2


_ANGLES = (st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))
#: least eigenvalue (1 - r)/2: r anywhere in [0, 1.5] or near the -TOL edge
_UNIT_TRACE_QUBITS = st.builds(
    _qubit_state, st.one_of(st.floats(0.0, 1.5), st.floats(1 - 4 * TOL, 1 + 8 * TOL)), *_ANGLES)


@settings(max_examples=300, deadline=None)
@given(h=st.one_of(qubit_operators(), _UNIT_TRACE_QUBITS))
def test_qubit_positivity_agrees_with_lapack(h):
    least = np.linalg.eigvalsh(h)[0]
    assume(abs(least + TOL) > 1e-15)  # outside the rounding band around the -TOL edge
    assert is_psd(h) == (least >= -TOL)
    if abs(h.trace() - 1) <= TOL:
        if least >= -TOL:
            assert np.array_equal(DensityMatrix(h).mat, h)
        else:
            with pytest.raises(ValueError, match="^not PSD"):
                DensityMatrix(h)


_BLOCH_VECTORS = st.tuples(st.floats(0.0, 1.0), *_ANGLES)


@settings(max_examples=300, deadline=None)
@given(x=_BLOCH_VECTORS, y=_BLOCH_VECTORS, nearby=st.integers(0, 16))
def test_qubit_trace_distance_agrees_with_lapack(x, y, nearby):
    # y is either drawn on its own or x moved by up to 10^-nearby
    if nearby:
        y = tuple(u + v * 10.0 ** -nearby for u, v in zip(x, y))
        assume(0.0 <= y[0] <= 1.0)
    rho, sigma = _qubit_state(*x), _qubit_state(*y)
    ref = min(1.0, float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum() / 2))
    assert abs(trace_distance(rho, sigma) - ref) <= 1e-15
