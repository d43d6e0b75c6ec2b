import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import ebcommit


def random_density_matrix(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Ginibre-distributed density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_pure_state(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_hermitian(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


@st.composite
def qubit_operators(draw) -> np.ndarray:
    """A 2x2 Hermitian s (a I + b.sigma)/2, s from 1e-150 to 1e150.

    b is generic, near-degenerate (|b| down to 1e-16 |a|) or 0: an exact
    multiple of I. Each part of a and b is 0 or at least 1e-6 in size, so
    that no entry is subnormal, where rounding is no longer relative.
    """
    part = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) >= 1e-6 else 0.0)
    s = 10.0 ** draw(st.integers(-150, 150))
    a = draw(part)
    b = np.array([draw(part) for _ in range(3)])
    kind = draw(st.sampled_from(("generic", "near-degenerate", "multiple of I")))
    if kind == "near-degenerate":
        b *= 10.0 ** -draw(st.integers(6, 16))
    elif kind == "multiple of I":
        b[:] = 0.0
    return s / 2 * np.array([[a + b[2], b[0] - 1j * b[1]], [b[0] + 1j * b[1], a - b[2]]])


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``, through each ebcommit binding."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ebcommit" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def lapack_calls(monkeypatch) -> list:
    """The shapes that numpy's ``eigh``, ``eigvalsh`` and ``svd`` are called on, in call order."""
    shapes = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counting(a, *args, _lapack=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _lapack(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes


def refuse_rows(monkeypatch, rows: int) -> None:
    """Make ``np.empty`` refuse any array of ``rows`` rows, as a host short of memory would.

    Smaller arrays, such as numpy's own buffers, are still allocated.
    """
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.ndim(shape) == 1 and len(shape) > 1 and shape[0] == rows:
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)


def fresh_python(code: str, *args: str) -> str:
    """The stdout of ``python -c code *args`` run in a fresh process on this ebcommit."""
    src = os.path.dirname(os.path.dirname(ebcommit.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
