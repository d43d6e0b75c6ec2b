import sys

import numpy as np
import pytest


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
