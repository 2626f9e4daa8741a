"""Reference implementations for the tests.

The library keeps its designs in index form (see ``capspec.structure``);
the dense builders here materialize the matrices of the model, so that
tests can check the index forms, the estimators and the synthesis
against plain linear algebra.  The ruler test and the exhaustive ruler
search are the plain definitions that the library's identifiability
test and branch-and-bound search are checked against.  The per-run ROC
synthesizes every configuration on its own, as the roc harness did
before configurations shared a run's synthesis.  The expected power per
grid point is the mean that a group's NAP and an unbiased CAP are checked
against.  The Gaussian variance
chain carries a bin covariance through the fourth moments of the sample
coset covariance to per-bin CAP variance, the general form that Monte
Carlo CAP variance and the white-noise closed form are checked against.
"""

import itertools

import numpy as np

from capspec.analysis import detection_blocks, roc_from_scores
from capspec.estimator import estimate_multicluster
from capspec.patterns import CosetPattern, PatternFamily
from capspec.sensing import (
    band_grid_indices,
    bandpass_response,
    dbm_to_linear,
    synthesize_observations,
)
from capspec.structure import SystemMatrix


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


def expected_power(config, group: int) -> np.ndarray:
    """E|X_i|^2 / n at each grid point i of ``config``'s group ``group``:
    sigma2 + sum_k PL_k rho_k |shape_k(i)|^2, with the path loss of column
    ``group`` (uncorrelated bins) or 0 (correlated bins), as synthesis
    reads them."""
    n_grid, uncorrelated = config.grid_size, config.bin_mode == "uncorrelated"
    want = np.full(n_grid, dbm_to_linear(config.noise_dbm))
    for user in config.users:
        power = dbm_to_linear(user.path_loss_db[group if uncorrelated else 0])
        power *= dbm_to_linear(user.power_dbm)
        if uncorrelated:
            want += power * np.abs(bandpass_response(user.band, n_grid)) ** 2
        else:
            want[band_grid_indices(user.band, n_grid)] += power
    return want


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


def analytical_gaussian_covariance(
    bin_covariance: np.ndarray, pattern: CosetPattern, tau: int
) -> np.ndarray:
    """Covariance of the entries of the averaged coset covariance.

    Every sensor's per-bin spectra X have the N x N bin covariance
    ``bin_covariance``, E[X_{t,i} X*_{t,b}] for bin indices i, b in
    0..N-1; distinct sensors are uncorrelated, E[X_{t,i} X*_{tp,b}] = 0
    for t != tp; and all are circular: E[X_{t,i} X_{tp,b}] is zero, so
    the pseudo-covariance term of the fourth moment vanishes.  White
    noise of variance sigma2 on n_grid samples has the bin covariance
    n_grid * sigma2 * I.

    Evaluates the fourth-moment expansion of these circular Gaussian
    spectra over all bin pairs and sensor pairs: entry (M*mp + m, M*ap + a)
    of the returned M^2 x M^2 matrix is Cov[cov_entry(m, mp), cov_entry(a, ap)].
    Of the tau^2 sensor pairs only the tau pairs of a sensor with itself
    contribute, each the same term, so the cost does not grow with tau.
    """
    n = pattern.period
    m_cnt = pattern.size
    marks = np.asarray(pattern.marks)
    bins = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(marks, bins) / n)      # (M, N)
    f1 = w @ bin_covariance @ w.conj().T
    term = tau * np.einsum("ma,bc->mabc", f1, f1.conj())    # [m, a, mp, ap]
    sigma = term.transpose(2, 0, 3, 1)
    return sigma.reshape(m_cnt * m_cnt, m_cnt * m_cnt) / (n**4 * tau**2)


def propagate_variance(
    sigma_ry: np.ndarray, sysmat: SystemMatrix, samples_per_coset: int
) -> np.ndarray:
    """Per-bin periodogram variance implied by a covariance of the
    vectorized coset covariance estimate.

    Chains the LS solve (the system matrix's averaging operator), the
    circulant expansion, and the de-modulation, whose diagonal reduces to
    a quadratic form in the lag-domain covariance.  The solve is applied
    in index form on both sides; a lag that no slot observes gets zero.
    """
    n, m = sysmat.design.period, sysmat.design.size
    if sigma_ry.shape != (m * m, m * m):
        raise ValueError(f"expected {(m * m, m * m)} covariance, got {sigma_ry.shape}")
    # slot M*row + col is entry M*col + row of the column-major vectorization
    vec = sysmat.slots % m * m + sysmat.slots // m
    weighted = sigma_ry[np.ix_(vec, vec)] * np.outer(sysmat.weights, sysmat.weights)
    observed = np.diff(sysmat.starts, append=vec.size) > 0
    starts = sysmat.starts[observed]
    sigma_lag = np.zeros((n, n), dtype=weighted.dtype)
    by_row_lag = np.add.reduceat(weighted, starts, axis=0)
    sigma_lag[np.ix_(observed, observed)] = np.add.reduceat(by_row_lag, starts, axis=1)
    bins = np.arange(n)
    phase = np.exp(2j * np.pi * np.outer(bins, bins) / n)   # phase[i, k]
    n_grid = n * samples_per_coset
    quad = np.einsum("ik,kl,il->i", phase.conj(), sigma_lag, phase)
    return np.real(quad) * (n / n_grid) ** 2
