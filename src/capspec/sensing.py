"""Scenario synthesis and multi-coset acquisition.

Generates multiband user signals over fading channels at clusters of
sensors, adds white noise, and reduces each sensor's Nyquist-grid record
to the per-bin DTFT values of its active cosets.  All
randomness is drawn from counter-style keyed generators so that any
sensor's record is reproducible independently of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .patterns import CosetPattern, PatternFamily

FILTER_TAPS = 200

SYNC_MODES = ("synchronized", "unsynchronized")
BIN_MODES = ("uncorrelated", "correlated")

# role codes for RNG keying
_R_SIGNAL, _R_SHARED_SIGNAL, _R_FADING, _R_NOISE, _R_SYMBOL, _R_SHARED_SYMBOL = range(1, 7)


def dbm_to_linear(dbm: float) -> float:
    """0 dBm maps to linear power 1.0; -inf dBm maps to 0."""
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class UserSpec:
    """One active user: an occupied band and its transmit power density.

    ``band`` is (lo, hi) in normalized frequency on [0, 1); lo > hi means
    the band wraps around 1.  ``power_dbm`` is the in-band power density
    per unit normalized frequency.  ``path_loss_db`` holds one gain per
    cluster.
    """

    band: tuple[float, float]
    power_dbm: float
    path_loss_db: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))
        object.__setattr__(
            self, "path_loss_db", tuple(float(p) for p in self.path_loss_db)
        )
        if self.width <= 0.0:
            raise ValueError(f"band {self.band} has zero width")

    @property
    def width(self) -> float:
        lo, hi = self.band
        raw = hi - lo
        return raw if raw > 0 else raw % 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one acquisition scenario.

    Uncorrelated-bins mode uses ``pattern`` at every sensor, organized as
    ``clusters`` clusters of ``sensors_per_cluster`` sensors.  Correlated
    bins mode assigns one family pattern per group of ``sensors_per_group``
    sensors.  The total grid size is period * samples_per_coset.
    """

    period: int
    samples_per_coset: int
    users: tuple[UserSpec, ...]
    noise_dbm: float
    pattern: CosetPattern | None = None
    family: PatternFamily | None = None
    clusters: int = 1
    sensors_per_cluster: int = 1
    sensors_per_group: int = 1
    sync: str = "unsynchronized"
    bin_mode: str = "uncorrelated"
    seed: int = 0

    def __post_init__(self):
        if self.period < 1 or self.samples_per_coset < 1:
            raise ValueError("period and samples_per_coset must be positive")
        if self.sync not in SYNC_MODES:
            raise ValueError(f"sync must be one of {SYNC_MODES}")
        if self.bin_mode not in BIN_MODES:
            raise ValueError(f"bin_mode must be one of {BIN_MODES}")
        if self.bin_mode == "uncorrelated":
            if self.pattern is None:
                raise ValueError("uncorrelated-bins scenario needs a pattern")
            if self.pattern.period != self.period:
                raise ValueError("pattern period disagrees with scenario period")
            if self.clusters < 1 or self.sensors_per_cluster < 1:
                raise ValueError("need at least one cluster of one sensor")
        else:
            if self.family is None:
                raise ValueError("correlated-bins scenario needs a pattern family")
            if self.family.period != self.period:
                raise ValueError("family period disagrees with scenario period")
            if self.sensors_per_group < 1:
                raise ValueError("need at least one sensor per group")
        for user in self.users:
            n_gains = len(user.path_loss_db)
            if self.bin_mode == "uncorrelated" and n_gains != self.clusters:
                raise ValueError(
                    f"user has {n_gains} path-loss entries for {self.clusters} clusters"
                )
            if self.bin_mode == "correlated" and n_gains < 1:
                raise ValueError("correlated-bins users need one path-loss entry")

    @property
    def grid_size(self) -> int:
        return self.period * self.samples_per_coset

    def bin_width_violations(self) -> tuple[UserSpec, ...]:
        """Users whose band exceeds the bin width 1/period."""
        limit = 1.0 / self.period
        return tuple(u for u in self.users if u.width > limit + 1e-12)


@dataclass
class CosetObservationSet:
    """Per-sensor coset DTFT values for one cluster/group.

    ``dtft[t, m, l]`` is the DTFT of the samples of coset
    ``pattern.marks[m]`` at sensor t, at theta = l / grid_size.
    """

    pattern: CosetPattern
    dtft: np.ndarray
    label: int = 0
    full_rate: np.ndarray | None = None

    @property
    def count(self) -> int:
        return self.dtft.shape[0]


@dataclass
class SensingRun:
    config: ScenarioConfig
    sets: list[CosetObservationSet]
    warnings: list[str] = field(default_factory=list)


def _rng(*key) -> np.random.Generator:
    flat: list[int] = []
    for part in key:
        if isinstance(part, (tuple, list)):
            flat.extend(int(p) for p in part)
        else:
            flat.append(int(part))
    return np.random.default_rng(flat)


def _crandn(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@lru_cache(maxsize=128)
def bandpass_response(
    band: tuple[float, float], n_grid: int, taps: int = FILTER_TAPS
) -> np.ndarray:
    """Frequency response of the user-band shaping filter on the full grid.

    Windowed-sinc (Hamming) lowpass of ``taps`` coefficients, cutoff
    ``width / 2`` and unit DC gain, modulated to the band center, applied
    circularly, normalized to unit peak gain.
    """
    lo, hi = band
    width = hi - lo if hi > lo else (hi - lo) % 1.0
    if width <= 0.0:
        raise ValueError(f"band {band} has zero width")
    if width >= 1.0 - 2.0 / n_grid:
        return np.ones(n_grid, dtype=complex)
    m = np.arange(taps) - (taps - 1) / 2
    # 1 - 0.54 (not 0.46) keeps the coefficients equal to the usual
    # firwin(taps, width / 2, window="hamming", fs=1) to the last bit.
    window = 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, taps))
    lowpass = width * np.sinc(width * m) * window
    lowpass /= np.sum(lowpass)
    center = (lo + width / 2.0) % 1.0
    taps_idx = np.arange(taps)
    response = np.fft.fft(lowpass * np.exp(2j * np.pi * center * taps_idx), n_grid)
    response /= np.max(np.abs(response))
    response.setflags(write=False)
    return response


def band_grid_indices(band: tuple[float, float], n_grid: int) -> np.ndarray:
    """Grid points k with k / n_grid inside [lo, hi), wrap-aware."""
    lo, hi = band
    k = np.arange(n_grid)
    theta = k / n_grid
    if lo <= hi:
        mask = (theta >= lo) & (theta < hi)
    else:
        mask = (theta >= lo) | (theta < hi)
    return k[mask]


def generate_user_signal(
    spec: UserSpec, length: int, rng: np.random.Generator
) -> np.ndarray:
    """Bandlimited complex Gaussian user signal of ``length`` samples.

    White circular Gaussian noise with variance equal to the target
    in-band density, shaped by the unit-gain band filter via circular
    convolution; in-band power density then matches ``spec.power_dbm``.
    """
    density = dbm_to_linear(spec.power_dbm)
    if density == 0.0:
        return np.zeros(length, dtype=complex)
    driving = _crandn(rng, length, density)
    response = bandpass_response(spec.band, length)
    return np.fft.ifft(np.fft.fft(driving) * response)


def extract_coset_observations(
    x: np.ndarray, pattern: CosetPattern, label: int = 0, keep_full_rate: bool = False
) -> CosetObservationSet:
    """Reduce full-rate records ``x`` (sensors x grid) to active cosets."""
    x = np.atleast_2d(x)
    n, l_per = pattern.period, x.shape[1] // pattern.period
    if n * l_per != x.shape[1]:
        raise ValueError("record length is not a multiple of the period")
    marks = list(pattern.marks)
    samples = x.reshape(x.shape[0], l_per, n)[:, :, marks].transpose(0, 2, 1)
    l = np.arange(l_per)
    phase = np.exp(-2j * np.pi * l[None, :] * np.asarray(marks)[:, None] / (n * l_per))
    dtft = np.fft.fft(samples, axis=2) * phase[None, :, :]
    return CosetObservationSet(
        pattern=pattern,
        dtft=dtft,
        label=label,
        full_rate=x if keep_full_rate else None,
    )


def synthesize_observations(
    config: ScenarioConfig,
    seed=None,
    keep_full_rate: bool = False,
) -> SensingRun:
    """Simulate acquisition for ``config``; one observation set per cluster
    (uncorrelated bins) or per group (correlated bins).

    ``seed`` overrides ``config.seed`` and may be a tuple, which lets
    Monte Carlo drivers key whole runs.  Synchronized sensors share one
    realization of each user signal; unsynchronized sensors draw
    independent realizations.  Fading is one complex Gaussian gain per
    (user, sensor), flat across the user's band, with variance equal to
    the linear path loss of the sensor's cluster.
    """
    key = config.seed if seed is None else seed
    warnings: list[str] = []
    if config.bin_mode == "uncorrelated":
        offenders = config.bin_width_violations()
        if offenders:
            warnings.append(
                f"{len(offenders)} user band(s) exceed the bin width "
                f"1/{config.period}; the uncorrelated-bins model is violated"
            )
        sets = _synthesize_uncorrelated(config, key, keep_full_rate)
    else:
        sets = _synthesize_correlated(config, key, keep_full_rate)
    return SensingRun(config=config, sets=sets, warnings=warnings)


def _shared_signals(config: ScenarioConfig, key) -> list[np.ndarray]:
    n_grid = config.grid_size
    return [
        generate_user_signal(user, n_grid, _rng(key, _R_SHARED_SIGNAL, k))
        for k, user in enumerate(config.users)
    ]


def _synthesize_uncorrelated(
    config: ScenarioConfig, key, keep_full_rate: bool
) -> list[CosetObservationSet]:
    n_grid = config.grid_size
    noise_var = dbm_to_linear(config.noise_dbm)
    shared = _shared_signals(config, key) if config.sync == "synchronized" else None
    sets = []
    for d in range(config.clusters):
        x = np.empty((config.sensors_per_cluster, n_grid), dtype=complex)
        for t in range(config.sensors_per_cluster):
            rec = _crandn(_rng(key, _R_NOISE, d, t), n_grid, noise_var)
            for k, user in enumerate(config.users):
                if shared is not None:
                    component = shared[k]
                else:
                    component = generate_user_signal(
                        user, n_grid, _rng(key, _R_SIGNAL, d, t, k)
                    )
                gain = _crandn(
                    _rng(key, _R_FADING, d, t, k),
                    1,
                    dbm_to_linear(user.path_loss_db[d]),
                )[0]
                rec = rec + gain * component
            x[t] = rec
        sets.append(
            extract_coset_observations(
                x, config.pattern, label=d, keep_full_rate=keep_full_rate
            )
        )
    return sets


def _correlated_component(
    user: UserSpec, n_grid: int, symbol: complex
) -> np.ndarray:
    """Time-domain signal carrying one symbol on every occupied grid point."""
    idx = band_grid_indices(user.band, n_grid)
    if idx.size == 0:
        raise ValueError(f"band {user.band} covers no grid point at {n_grid} points")
    density = dbm_to_linear(user.power_dbm)
    spectrum = np.zeros(n_grid, dtype=complex)
    spectrum[idx] = math.sqrt(n_grid * density) * symbol
    return np.fft.ifft(spectrum)


def _synthesize_correlated(
    config: ScenarioConfig, key, keep_full_rate: bool
) -> list[CosetObservationSet]:
    n_grid = config.grid_size
    noise_var = dbm_to_linear(config.noise_dbm)
    shared_symbols = None
    if config.sync == "synchronized":
        shared_symbols = [
            _crandn(_rng(key, _R_SHARED_SYMBOL, k), 1, 1.0)[0]
            for k in range(len(config.users))
        ]
    sets = []
    for z, pattern in enumerate(config.family.patterns):
        x = np.empty((config.sensors_per_group, n_grid), dtype=complex)
        for p in range(config.sensors_per_group):
            rec = _crandn(_rng(key, _R_NOISE, z, p), n_grid, noise_var)
            for k, user in enumerate(config.users):
                if shared_symbols is not None:
                    symbol = shared_symbols[k]
                else:
                    symbol = _crandn(_rng(key, _R_SYMBOL, z, p, k), 1, 1.0)[0]
                gain = _crandn(
                    _rng(key, _R_FADING, z, p, k),
                    1,
                    dbm_to_linear(user.path_loss_db[0]),
                )[0]
                rec = rec + gain * _correlated_component(user, n_grid, symbol)
            x[p] = rec
        sets.append(
            extract_coset_observations(
                x, pattern, label=z, keep_full_rate=keep_full_rate
            )
        )
    return sets
