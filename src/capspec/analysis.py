"""Baselines, statistical performance formulas, and Monte Carlo harnesses.

Provides the Nyquist-rate averaged periodogram, the NMSE figure of
merit, the fourth-moment covariance of the sample coset covariance for
jointly Gaussian signals together with its propagation to per-bin
periodogram variance, the white-noise closed forms, and drivers for
Monte Carlo reconstruction and threshold-detection experiments.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimator import NAP, Periodogram, estimate_multicluster
from .patterns import CosetPattern
from .sensing import (
    ScenarioConfig,
    _check_band,
    _unwrapped,
    band_grid_indices,
    dbm_to_linear,
    synthesize_observations,
)
from .structure import SystemMatrixRc, build_system_matrix


def spectral_ap(spectra: np.ndarray) -> Periodogram:
    """Averaged periodogram of spectra X (sensors x grid points, the DFTs
    of full-rate records): mean |X|^2 over sensors, divided by the grid size."""
    n_grid = spectra.shape[1]
    return Periodogram(
        values=np.mean(np.abs(spectra) ** 2, axis=0) / n_grid,
        estimator=NAP,
    )


def nyquist_ap(records: np.ndarray) -> Periodogram:
    """Averaged periodogram of full-rate records (sensors x grid points)."""
    return spectral_ap(np.fft.fft(np.atleast_2d(records), axis=1))


def nmse(estimate, reference) -> float:
    """Sum-of-squares error ratio over the full frequency grid; sums that
    are not finite (powers that overflow once squared) raise ValueError."""
    est = estimate.values if isinstance(estimate, Periodogram) else np.asarray(estimate)
    ref = reference.values if isinstance(reference, Periodogram) else np.asarray(reference)
    if est.shape != ref.shape:
        raise ValueError(f"grids disagree: {est.shape} vs {ref.shape}")
    with np.errstate(all="ignore"):
        denom = float(np.sum(ref**2))
        num = float(np.sum((est - ref) ** 2))
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValueError(f"NMSE sums are not finite (error {num}, reference {denom})")
    if denom == 0.0:
        raise ValueError("reference periodogram is identically zero")
    return num / denom


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
    sigma_ry: np.ndarray, sysmat: SystemMatrixRc, samples_per_coset: int
) -> np.ndarray:
    """Per-bin periodogram variance implied by a covariance of the
    vectorized coset covariance estimate.

    Chains the LS solve (the system matrix's averaging operator), the
    circulant expansion, and the de-modulation, whose diagonal reduces to
    a quadratic form in the lag-domain covariance.  The solve is applied
    in index form on both sides; a lag that no slot observes gets zero.
    """
    n, m = sysmat.pattern.period, sysmat.pattern.size
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


def whitenoise_variance_closed_form(pattern: CosetPattern, sigma2: float, tau: int) -> float:
    """Closed-form per-bin periodogram variance under pure white Gaussian
    noise: sigma^4/(M tau) + (sigma^4/tau) sum_k 1/gamma_k over nonzero lags.

    A pattern missing some modular difference has a zero gamma entry and
    an unbounded variance; that case is reported as +inf rather than an
    error.  The matching analytical NMSE against the flat sigma^2 truth
    is variance / sigma2**2.
    """
    sysmat = build_system_matrix(pattern)
    if not sysmat.identifiable:
        return math.inf
    gamma = sysmat.gamma.astype(float)
    return sigma2**2 / tau * float(np.sum(1.0 / gamma))


_pool = None    # the warm pool: (creating PID, worker count, executor)


def _close_pool() -> None:
    global _pool    # a pool inherited from a parent process is dropped, not shut down
    pool, _pool = _pool, None
    if pool is not None and pool[0] == os.getpid():
        pool[2].shutdown()


def dispatch_runs(one, runs: int, workers: int = 1) -> list:
    """Return ``[one(run) for run in range(runs)]``, in run order.

    Runs go to a pool of worker processes when more than one worker is
    usable: at most ``workers``, one per run and one per CPU this process
    may run on.  ``one`` and its results must then pickle, so bind a
    module-level function with ``functools.partial``.  Each run is keyed
    by its index, so the results do not depend on the worker count.  The
    first failing run, in run order, raises in the caller, and the runs
    not yet started are dropped.  The workers, forked by the first call that
    needs them, keep that moment's module state and serve later calls until
    the process exits; another worker count or a dead worker replaces them.
    """
    global _pool
    workers = min(workers, runs, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [one(run) for run in range(runs)]
    # imported here, so that ``import capspec`` does not load multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing.util import Finalize

    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        _pool = (os.getpid(), workers, ProcessPoolExecutor(max_workers=workers))
        # run at exit, and in a worker before it joins its own children
        Finalize(None, _close_pool, exitpriority=0)
    try:
        return list(_pool[2].map(one, range(runs)))
    except BrokenProcessPool:
        _close_pool()
        raise


def _mc_run(config: ScenarioConfig, seed: int, run: int) -> np.ndarray:
    """Run ``run`` of ``mc_caps``: its averaged CAP, refused if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sensed = synthesize_observations(config, seed=(seed, run))
        _, averaged = estimate_multicluster(sensed.sets)
    averaged.require_finite()
    return averaged.values


def mc_caps(
    config: ScenarioConfig, runs: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Monte Carlo reconstructions: one averaged periodogram per run.

    Returns the (runs, grid) array of CAP values.  Runs are independently
    seeded by (seed, run) and dispatched to ``threads`` worker processes
    (see ``dispatch_runs``), so results are identical for any worker count.
    The workers, forked on the first multi-worker call, keep the module
    state of that moment and live until the process exits.
    """
    return np.array(dispatch_runs(partial(_mc_run, config, seed), runs, threads))


@dataclass
class VarianceReport:
    """Analytical vs Monte Carlo per-bin variance for one configuration."""

    analytical_variance: float
    analytical_nmse: float
    empirical_by_theta: np.ndarray = field(repr=False)
    empirical_nmse: float

    @property
    def thetas(self) -> np.ndarray:
        n_grid = self.empirical_by_theta.size
        return np.arange(n_grid) / n_grid

    @property
    def empirical_variance(self) -> float:
        return float(np.mean(self.empirical_by_theta))

    @property
    def relative_gap(self) -> float:
        return abs(self.empirical_variance - self.analytical_variance) / self.analytical_variance


def whitenoise_variance_report(
    config: ScenarioConfig, runs: int, seed: int, threads: int = 1
) -> VarianceReport:
    """Monte Carlo check of the white-noise variance closed form."""
    if config.users:
        raise ValueError("variance check expects a noise-only scenario")
    sigma2 = dbm_to_linear(config.noise_dbm)
    tau = config.sensors_per_cluster
    closed = whitenoise_variance_closed_form(config.pattern, sigma2, tau)
    caps = mc_caps(config, runs, seed, threads=threads)
    empirical = np.var(caps, axis=0, ddof=1)
    emp_nmse = float(np.mean((caps - sigma2) ** 2) / sigma2**2)
    return VarianceReport(
        analytical_variance=closed,
        analytical_nmse=closed / sigma2**2,
        empirical_by_theta=empirical,
        empirical_nmse=emp_nmse,
    )


@dataclass(frozen=True)
class DetectorSpec:
    """Block-averaging threshold detector over designated bands.

    The periodogram is averaged over ``avg_width`` consecutive grid
    points (non-overlapping blocks); detection events are counted on
    blocks inside the active bands, false alarms on blocks inside the
    quiet bands.  ``points_per_band`` trims each active band to a fixed
    number of centered grid points (a multiple of ``avg_width``).  A band
    holds the grid points of [lo, hi), 0 <= lo < 1, 0 <= hi <= 1; lo > hi
    wraps around 1.
    """

    active_bands: tuple[tuple[float, float], ...]
    quiet_bands: tuple[tuple[float, float], ...]
    avg_width: int = 11
    points_per_band: int | None = None
    quiet_points: int | None = None

    def __post_init__(self):
        if self.avg_width < 1:
            raise ValueError(f"avg_width must be positive, got {self.avg_width}")
        for key in ("points_per_band", "quiet_points"):
            points = getattr(self, key)
            if points is not None and points < 1:
                raise ValueError(f"{key} must be positive, got {points}")
        for key in ("active_bands", "quiet_bands"):
            for band in getattr(self, key):
                _check_band(key, band)
        for active in self.active_bands:
            for quiet in self.quiet_bands:
                if any(
                    max(lo, qlo) < min(hi, qhi)
                    for lo, hi in _unwrapped(active)
                    for qlo, qhi in _unwrapped(quiet)
                ):
                    raise ValueError(f"active band {active} overlaps quiet band {quiet}")


def _band_blocks(
    band: tuple[float, float], n_grid: int, width: int, points: int | None
) -> np.ndarray:
    points_in_band = band_grid_indices(band, n_grid)
    count = points_in_band.size
    usable = (count // width) * width
    if points is not None:
        if points % width:
            raise ValueError(f"points_per_band {points} not a multiple of {width}")
        usable = min(usable, points)
    if usable < width:
        raise ValueError(f"band {band} holds no full {width}-point block")
    start = (count - usable) // 2
    return points_in_band[start : start + usable].reshape(-1, width)


def detection_blocks(
    spec: DetectorSpec, n_grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-index blocks (rows of avg_width points) for active/quiet bands."""
    active = np.vstack(
        [_band_blocks(b, n_grid, spec.avg_width, spec.points_per_band)
         for b in spec.active_bands]
    )
    quiet = np.vstack(
        [_band_blocks(b, n_grid, spec.avg_width, spec.quiet_points)
         for b in spec.quiet_bands]
    )
    return active, quiet


@dataclass
class RocCurve:
    """Detection vs false-alarm probability over a threshold sweep."""

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray

    @property
    def auc(self) -> float:
        order = np.argsort(self.pfa, kind="stable")
        return float(np.trapezoid(self.pd[order], self.pfa[order]))


def roc_from_scores(active: np.ndarray, quiet: np.ndarray) -> RocCurve:
    """Exact ROC over the pooled block statistics."""
    thresholds = np.unique(np.concatenate([active.ravel(), quiet.ravel()]))
    # share of each side's scores above each threshold, counted in its sorted scores
    pd, pfa = (
        (s.size - np.searchsorted(np.sort(s, axis=None), thresholds, side="right")) / s.size
        for s in (active, quiet)
    )
    # endpoints: threshold below/above everything
    thresholds = np.concatenate(([-np.inf], thresholds))
    pd = np.concatenate(([1.0], pd))
    pfa = np.concatenate(([1.0], pfa))
    return RocCurve(thresholds=thresholds, pfa=pfa, pd=pd)


def roc_harness(
    config: ScenarioConfig,
    detector: DetectorSpec,
    runs: int,
    seed: int,
    threads: int = 1,
) -> RocCurve:
    """Monte Carlo detection experiment on the reconstructed periodogram:
    each run's statistics are the block means of its ``mc_caps`` row."""
    active_blocks, quiet_blocks = detection_blocks(detector, config.grid_size)
    caps = mc_caps(config, runs, seed, threads=threads)
    # row by row: a 3-D mean over all runs at once sums in another order
    return roc_from_scores(
        np.array([cap[active_blocks].mean(axis=1) for cap in caps]),
        np.array([cap[quiet_blocks].mean(axis=1) for cap in caps]),
    )
