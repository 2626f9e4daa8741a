"""Reference implementations for the tests.

The library keeps its designs in index form (see ``capspec.structure``);
the dense builders here materialize the matrices of the model, so that
tests can check the index forms, the estimators and the synthesis
against plain linear algebra.  The ruler test and the exhaustive ruler
search are the plain definitions that the library's identifiability
test and branch-and-bound search are checked against.  The per-run ROC
synthesizes every configuration on its own, as the roc harness did
before configurations shared a run's synthesis.
"""

import itertools

import numpy as np

from capspec.analysis import detection_blocks, roc_from_scores
from capspec.estimator import estimate_multicluster
from capspec.patterns import CosetPattern, PatternFamily
from capspec.sensing import synthesize_observations


def build_repetition_matrix(n: int) -> np.ndarray:
    """Read-only N^2 x N binary matrix T mapping circulant lags to
    vectorized entries.

    Row q carries a single one in column ((q - floor(q/N)) mod N): the
    vectorized entry at (row r, column c) equals lag (r - c) mod N.
    """
    q = np.arange(n * n)
    lag = (q - q // n) % n
    matrix = np.zeros((n * n, n))
    matrix[q, lag] = 1.0
    matrix.setflags(write=False)
    return matrix


def build_selection_matrix(pattern: CosetPattern) -> np.ndarray:
    """Dense M x N row-selection matrix for the active cosets."""
    c = np.zeros((pattern.size, pattern.period))
    c[np.arange(pattern.size), list(pattern.marks)] = 1.0
    return c


def dense_rc(pattern: CosetPattern) -> np.ndarray:
    """Materialize Rc = (C kron C) T; M^2 x N."""
    c = build_selection_matrix(pattern)
    t = build_repetition_matrix(pattern.period)
    return np.kron(c, c) @ t


def dense_psi(family: PatternFamily) -> np.ndarray:
    """Materialize Psi by stacking C_z kron C_z; M^2 Z x N^2."""
    blocks = [
        np.kron(build_selection_matrix(p), build_selection_matrix(p))
        for p in family.patterns
    ]
    return np.vstack(blocks)


def is_circular_sparse_ruler(pattern: CosetPattern) -> bool:
    """True iff the modular differences of the marks cover 0..N-1."""
    n = pattern.period
    return len({(a - b) % n for a in pattern.marks for b in pattern.marks}) == n


def exhaustive_minimal_ruler(n: int) -> CosetPattern:
    """Plain enumeration oracle: smallest cardinality, lexicographically first.

    Enumerates 0-anchored mark sets in lexicographic order for each
    cardinality (any complete set can be rotated to contain 0, so this
    loses no solutions).  Intended for modest periods; cost grows as
    C(n-1, M-1).
    """
    if n < 1:
        raise ValueError(f"period must be positive, got {n}")
    for size in range(1, n + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            pattern = CosetPattern(n, (0,) + rest)
            if is_circular_sparse_ruler(pattern):
                return pattern
    raise AssertionError("unreachable: the full mark set is always complete")


def per_run_roc(config, detector, runs: int, seed: int):
    """ROC of ``config`` alone: each run (seed, run) synthesizes it, and its
    CAP's block means are the run's statistics."""
    active_blocks, quiet_blocks = detection_blocks(detector, config.grid_size)
    active, quiet = [], []
    for run in range(runs):
        _, cap = estimate_multicluster(synthesize_observations(config, seed=(seed, run)).sets)
        active.append(cap.values[active_blocks].mean(axis=1))
        quiet.append(cap.values[quiet_blocks].mean(axis=1))
    return roc_from_scores(np.array(active), np.array(quiet))
