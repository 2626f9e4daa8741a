"""Scenario synthesis and multi-coset acquisition.

Generates multiband user signals over fading channels at groups of
sensors, adds white noise, and reduces each sensor's Nyquist-grid record
to the per-bin DTFT values of its active cosets.  Uncorrelated and
correlated bins share this acquisition model and one synthesis loop;
they differ only in how a user's component is drawn.  All randomness is
drawn from counter-style keyed generators so that any sensor's record
is reproducible independently of evaluation order.
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


def _check_level(name: str, dbm: float) -> None:
    """A level in dB may be -inf (zero power), never NaN or +inf."""
    if math.isnan(dbm) or dbm == math.inf:
        raise ValueError(f"{name} must be finite or -inf, got {dbm}")


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
        if not all(map(math.isfinite, self.band)):
            raise ValueError(f"band {self.band} has a non-finite edge")
        _check_level("power_dbm", self.power_dbm)
        for loss in self.path_loss_db:
            _check_level("path_loss_db", loss)
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
        _check_level("noise_dbm", self.noise_dbm)
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


@dataclass
class SensingRun:
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


def _unit_crandn(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real and imaginary parts from two ``standard_normal`` calls, in order."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _crandn(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    return math.sqrt(variance / 2.0) * _unit_crandn(rng, n)


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
    """Grid points k with k / n_grid inside [lo, hi), in band order.

    A band that wraps around 1 (lo > hi) lists [lo, 1) and then [0, hi).
    """
    lo, hi = band
    k = np.arange(n_grid)
    theta = k / n_grid
    if lo <= hi:
        return k[(theta >= lo) & (theta < hi)]
    return np.concatenate([k[theta >= lo], k[theta < hi]])


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
    noise_levels=None,
) -> SensingRun | list[SensingRun]:
    """Simulate acquisition for ``config``; one observation set per cluster
    (uncorrelated bins) or per group (correlated bins).

    ``seed`` overrides ``config.seed`` and may be a tuple, which lets
    Monte Carlo drivers key whole runs.  One loop serves both bin modes:
    sensor t of group g records white noise plus, per user, a complex
    Gaussian fading gain (variance: the linear path loss in the group's
    column, flat across the band) times the user's component, and keeps
    the cosets of the group's pattern.  The mode sets only the groups,
    the RNG roles and the per-user draw: clusters d of ``config.pattern``
    with column d and a bandlimited Gaussian signal (uncorrelated bins),
    or groups z of ``family.patterns[z]`` with column 0 and one symbol
    times the user's fixed in-band waveform (correlated bins, so a user's
    occupied grid points are fully coherent).  Synchronized sensors share
    one draw per user; unsynchronized sensors draw their own.

    ``noise_levels`` (dBm, in place of ``config.noise_dbm``) returns a list
    of runs, one per level.  No stream is keyed by the noise level, so each
    sensor's unit noise, user components and fading gains are drawn once
    and added to every level's record; each run is bit-identical to a
    call with its level as ``noise_dbm``.
    """
    levels = (config.noise_dbm,) if noise_levels is None else tuple(noise_levels)
    for level in levels:
        _check_level("noise_dbm", level)
    key = config.seed if seed is None else seed
    n_grid = config.grid_size
    warnings: list[str] = []
    if config.bin_mode == "uncorrelated":
        offenders = config.bin_width_violations()
        if offenders:
            warnings.append(
                f"{len(offenders)} user band(s) exceed the bin width "
                f"1/{config.period}; the uncorrelated-bins model is violated"
            )
        groups = [
            (d, config.pattern, config.sensors_per_cluster, d)
            for d in range(config.clusters)
        ]
        own_role, shared_role = _R_SIGNAL, _R_SHARED_SIGNAL

        def draw(k, rng):
            return generate_user_signal(config.users[k], n_grid, rng)

    else:
        groups = [
            (z, pattern, config.sensors_per_group, 0)
            for z, pattern in enumerate(config.family.patterns)
        ]
        own_role, shared_role = _R_SYMBOL, _R_SHARED_SYMBOL
        waveforms = []
        for user in config.users:
            idx = band_grid_indices(user.band, n_grid)
            if idx.size == 0:
                raise ValueError(
                    f"band {user.band} covers no grid point at {n_grid} points"
                )
            spectrum = np.zeros(n_grid, dtype=complex)
            spectrum[idx] = math.sqrt(n_grid * dbm_to_linear(user.power_dbm))
            waveforms.append(np.fft.ifft(spectrum))

        def draw(k, rng):
            return _crandn(rng, 1, 1.0)[0] * waveforms[k]

    shared = None
    if config.sync == "synchronized":
        shared = [draw(k, _rng(key, shared_role, k)) for k in range(len(config.users))]
    # _crandn's factor, so that each level's noise is bit-identical to its own draw
    scales = [math.sqrt(dbm_to_linear(level) / 2.0) for level in levels]
    sets = [[] for _ in levels]
    for label, pattern, sensors, column in groups:
        x = np.empty((len(levels), sensors, n_grid), dtype=complex)
        for t in range(sensors):
            unit = _unit_crandn(_rng(key, _R_NOISE, label, t), n_grid)
            x[:, t] = [scale * unit for scale in scales]
            for k, user in enumerate(config.users):
                if shared is not None:
                    component = shared[k]
                else:
                    component = draw(k, _rng(key, own_role, label, t, k))
                gain = _crandn(
                    _rng(key, _R_FADING, label, t, k),
                    1,
                    dbm_to_linear(user.path_loss_db[column]),
                )[0]
                x[:, t] += gain * component
        for level_sets, records in zip(sets, x):
            level_sets.append(
                extract_coset_observations(
                    records, pattern, label=label, keep_full_rate=keep_full_rate
                )
            )
    runs = [SensingRun(sets=level_sets, warnings=list(warnings)) for level_sets in sets]
    return runs[0] if noise_levels is None else runs
