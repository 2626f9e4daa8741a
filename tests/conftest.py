import numpy as np
import pytest

from capspec.analysis import _mc_run
from capspec.patterns import CosetPattern
from capspec.runner import _sweep_cells


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


def sweep_scores(config, sweep, seed, run) -> dict:
    """Run ``run`` of an nmse-sweep of ``sweep`` on ``config``, through the
    Monte Carlo worker on the sweep's cells: (pattern, tau, level) -> NMSE."""
    cells, reduce = _sweep_cells(config, sweep)
    rows = _mc_run(tuple(cells), reduce, True, seed, run)
    return {(pattern, cell.sensors_per_cluster, cell.noise_dbm): float(score)
            for cell, row in zip(cells, rows) for pattern, score in zip(sweep.patterns, row)}
