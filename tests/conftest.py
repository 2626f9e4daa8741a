import numpy as np
import pytest

from capspec.patterns import CosetPattern


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ruler18():
    """The length-17 minimal circular sparse ruler used throughout."""
    return CosetPattern(18, (0, 1, 4, 7, 9))


def random_identifiable_pattern(rng, n_max=11):
    """Rejection-sample a pattern whose difference set is complete."""
    from oracles import is_circular_sparse_ruler

    while True:
        n = int(rng.integers(4, n_max))
        size = int(rng.integers(2, n + 1))
        marks = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        pattern = CosetPattern(n, marks)
        if is_circular_sparse_ruler(pattern):
            return pattern


def random_pattern(rng, n_max=11):
    n = int(rng.integers(1, n_max))
    size = int(rng.integers(1, n + 1))
    marks = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
    return CosetPattern(n, marks)
