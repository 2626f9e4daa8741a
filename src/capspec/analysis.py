"""Baselines, statistical performance formulas, and Monte Carlo harnesses.

Provides the Nyquist-rate averaged periodogram of full-rate records
(the NAP formula itself is ``sensing.nap_values``), the NMSE figure of
merit, the white-noise variance closed form, and drivers for Monte Carlo
reconstruction, variance-check and threshold-detection experiments.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .estimator import NAP, Periodogram, assemble_cap, average_periodograms, ls_reconstruct_rbar
from .estimator import sample_covariance
from .patterns import CosetPattern
from .sensing import (
    ScenarioConfig,
    _check_band,
    _unwrapped,
    band_grid_indices,
    dbm_to_linear,
    nap_values,
    synthesize_observations,
)
from .structure import build_system_matrix


def nyquist_ap(records: np.ndarray) -> Periodogram:
    """Averaged periodogram of full-rate records (sensors x grid points):
    ``sensing.nap_values`` of their DFTs, the one NAP formula."""
    spectra = np.fft.fft(np.atleast_2d(records), axis=1)
    return Periodogram(values=nap_values(spectra), estimator=NAP)


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


def whitenoise_variance_closed_form(pattern: CosetPattern, sigma2: float, tau: int) -> float:
    """Closed-form per-bin periodogram variance of one cluster's CAP under
    pure white Gaussian noise: sigma^4/(M tau) + (sigma^4/tau) sum_k
    1/gamma_k over nonzero lags.  The average over C independent clusters
    has 1/C of it.

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
        # runs not yet started, as after an interrupt, are dropped
        pool[2].shutdown(cancel_futures=True)


def usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the
    platform cannot say (``os.sched_getaffinity`` is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def dispatch_runs(one, runs: int, workers: int = 1) -> list:
    """Return ``[one(run) for run in range(runs)]``, in run order.

    Runs go to a pool of worker processes when more than one worker is
    usable: at most ``workers``, one per run and one per CPU this process
    may run on.  ``one`` and its results must then pickle, so bind a
    module-level function with ``functools.partial``.  Each run is keyed
    by its index, so the results do not depend on the worker count.  The
    first failing run, in run order, raises in the caller, and the runs
    not yet started are dropped.  The workers, started by the first call
    that needs them, serve later calls until the process exits; another
    worker count or a dead worker replaces them.  On Linux they are forked,
    whatever the default start method, and keep that moment's module state
    and one thread; elsewhere the platform's default method starts them.
    """
    global _pool
    workers = min(workers, runs)
    if workers > 1:
        workers = min(workers, usable_cpus())
    if workers <= 1:
        return [one(run) for run in range(runs)]
    # imported here, so that ``import capspec`` does not load multiprocessing
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing.util import Finalize

    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        context = multiprocessing.get_context("fork") if sys.platform == "linux" else None
        _pool = (os.getpid(), workers, ProcessPoolExecutor(workers, mp_context=context))
        # run at exit, and in a worker before it joins its own children
        Finalize(None, _close_pool, exitpriority=0)
    try:
        return list(_pool[2].map(one, range(runs)))
    except BrokenProcessPool:
        _close_pool()
        raise


def cap_values(config: ScenarioConfig, stacks, nap=None) -> np.ndarray:
    """The default reducer of ``mc_caps``: the values of the average of the
    CAPs of the clusters' covariance ``stacks``, refused if not finite."""
    cap = average_periodograms([assemble_cap(ls_reconstruct_rbar(stack)) for stack in stacks])
    cap.require_finite()
    return cap.values


# a worker process does not run under its caller's errstate
@np.errstate(over="ignore", invalid="ignore")
def _mc_run(configs: tuple[ScenarioConfig, ...], reduce, nap: bool, seed: int, run: int):
    """Run ``run`` of one group of ``mc_caps`` configs: ``reduce(config,
    stacks, nap)`` of each config, one row per config.

    One synthesis serves the group: at its largest tau, with its distinct
    (sync mode, noise level) pairs as its ``runs`` and, if ``nap``, its
    taus as the NAP's stops.  A config reads its pair's run: ``stacks`` are
    its clusters' ``sample_covariance``s over their first tau sensors, and
    ``nap`` their mean NAP, or None; both are bit for bit those of its own
    synthesis, since a group's first tau sensors do not depend on its
    sensor count.
    """
    pairs = list(dict.fromkeys((config.sync, config.noise_dbm) for config in configs))
    stops = sorted({config.sensors_per_cluster for config in configs}) if nap else []
    widest = max(configs, key=lambda config: config.sensors_per_cluster)
    sensed = synthesize_observations(widest, seed=(seed, run), runs=pairs, nap=stops)
    rows = []
    for config in configs:
        tau = config.sensors_per_cluster
        sets = sensed[pairs.index((config.sync, config.noise_dbm))].sets
        stacks = [sample_covariance(replace(s, dtft=s.dtft[:tau])) for s in sets]
        mean_nap = np.mean([s.nap[stops.index(tau)] for s in sets], axis=0) if nap else None
        rows.append(reduce(config, stacks, mean_nap))
    return np.array(rows)


def mc_caps(
    configs: Sequence[ScenarioConfig], runs: int, seed: int, threads: int = 1,
    reduce=cap_values, nap: bool = False,
) -> np.ndarray:
    """Monte Carlo runs, each reduced where it is made: the (configs, runs,
    ...) array of ``reduce(config, stacks, nap)`` (see ``_mc_run``), by
    default the (configs, runs, grid) CAP values.  ``reduce`` must pickle.

    Configs, all uncorrelated-bins, that differ only in sensor count, noise
    level and sync mode form a group, and within a run a group shares one
    synthesis, one of its runs per distinct (sync mode, noise level) pair,
    so comparisons within it are paired, as the nmse-sweep's taus and levels
    and the roc's settings are: its modes share the fading and noise draws.
    Every config's rows equal those of a call with it alone.  Each group
    makes one dispatch of its ``runs`` (at least one), seeded by (seed,
    run), to ``threads`` worker processes (see ``dispatch_runs``), so results
    are identical for any worker count; only the reduced rows come back.
    """
    configs = tuple(configs)
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if any(config.bin_mode != "uncorrelated" for config in configs):
        raise ValueError("Monte Carlo CAP-UB runs need uncorrelated-bins configs")
    groups = {}
    for config in configs:
        key = replace(config, sensors_per_cluster=1, noise_dbm=0.0, sync="synchronized")
        groups.setdefault(key, []).append(config)
    rows = {}
    for group in groups.values():
        # group by group: interleaving their runs cost 36% more page faults (table4 roc)
        one = partial(_mc_run, tuple(group), reduce, nap, seed)
        rows.update(zip(group, np.stack(dispatch_runs(one, runs, threads), axis=1)))
    return np.array([rows[config] for config in configs])


@dataclass
class VarianceReport:
    """Analytical vs Monte Carlo per-bin variance for one configuration."""

    analytical_variance: float
    analytical_nmse: float
    empirical_by_theta: np.ndarray = field(repr=False)
    empirical_nmse: float

    @property
    def empirical_variance(self) -> float:
        return float(np.mean(self.empirical_by_theta))

    @property
    def relative_gap(self) -> float:
        return abs(self.empirical_variance - self.analytical_variance) / self.analytical_variance


def whitenoise_variance_report(
    configs: Sequence[ScenarioConfig], runs: int, seed: int, threads: int = 1
) -> list[VarianceReport]:
    """Monte Carlo check of the white-noise closed form for the average over
    clusters, one report per config, from one ``mc_caps`` call over all of them."""
    if any(config.users for config in configs):
        raise ValueError("variance check expects a noise-only scenario")
    if runs < 2:
        raise ValueError(f"the variance check needs runs >= 2, got {runs}")
    reports = []
    for config, caps in zip(configs, mc_caps(configs, runs, seed, threads=threads)):
        sigma2, tau = dbm_to_linear(config.noise_dbm), config.sensors_per_cluster
        closed = whitenoise_variance_closed_form(config.pattern, sigma2, tau) / config.clusters
        reports.append(VarianceReport(
            analytical_variance=closed,
            analytical_nmse=closed / sigma2**2,
            empirical_by_theta=np.var(caps, axis=0, ddof=1),
            empirical_nmse=float(np.mean((caps - sigma2) ** 2) / sigma2**2),
        ))
    return reports


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
            if not getattr(self, key):
                raise ValueError(f"{key} lists no band")
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
        """Area under the step curve (tied pfa in ascending pd): the
        Mann-Whitney statistic, ties counted one half."""
        order = np.lexsort((self.pd, self.pfa))
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


def _block_means(blocks: np.ndarray, config: ScenarioConfig, stacks, nap) -> np.ndarray:
    """The roc reducer: the mean of the averaged CAP over each row of
    ``blocks``, refused if not finite."""
    return cap_values(config, stacks, nap)[blocks].mean(axis=1)


def roc_harness(
    configs: Sequence[ScenarioConfig],
    detector: DetectorSpec,
    runs: int,
    seed: int,
    threads: int = 1,
) -> list[RocCurve]:
    """Monte Carlo detection experiment on the reconstructed periodogram,
    one curve per config, from one ``mc_caps`` call over all the configs,
    so each curve equals that of a call with its config alone.  Each run
    keeps only its active then quiet block means (see ``_block_means``)."""
    active, quiet = detection_blocks(detector, configs[0].grid_size)
    reduce = partial(_block_means, np.vstack([active, quiet]))
    return [roc_from_scores(means[:, : len(active)], means[:, len(active) :])
            for means in mc_caps(configs, runs, seed, threads, reduce)]
