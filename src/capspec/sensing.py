"""Scenario synthesis and multi-coset acquisition.

Each sensor's Nyquist-grid spectrum is white noise plus, per user, a
fading gain times a random draw times the user's fixed spectral shape;
the active cosets' DTFT values follow through the aliasing map C B.
Every draw is a sensors-by-width block from a generator keyed by (run,
group, role[, user]), so a group's spectra are reproducible from its keys
alone and its first tau sensors do not depend on its sensor count.
Synthesis keeps the spectra on request and derives full-rate records from
them only when read; recorded ones go through ``extract_coset_observations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .patterns import CosetPattern, PatternFamily
from .structure import build_modulation_matrix, build_selection_matrix

FILTER_TAPS = 200

SYNC_MODES = ("synchronized", "unsynchronized")
BIN_MODES = ("uncorrelated", "correlated")

# role codes for RNG keying
_R_SIGNAL, _R_SHARED_SIGNAL, _R_FADING, _R_NOISE, _R_SYMBOL, _R_SHARED_SYMBOL = range(1, 7)


def dbm_to_linear(dbm: float) -> float:
    """0 dBm maps to linear power 1.0; -inf dBm maps to 0."""
    return 10.0 ** (dbm / 10.0)


def _check_level(name: str, dbm: float) -> None:
    """A level in dB may be -inf (zero power), never NaN, +inf or so high
    that its linear power overflows a float."""
    try:
        power = dbm_to_linear(dbm)
    except OverflowError:
        power = math.inf
    if math.isnan(power) or power == math.inf:
        raise ValueError(f"{name} must be -inf or a level of finite power, got {dbm}")


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
    ``spectra``, when kept, is the sensors x grid DFT of the full-rate
    records; ``full_rate`` derives the records from it on each read.
    """

    pattern: CosetPattern
    dtft: np.ndarray
    label: int = 0
    spectra: np.ndarray | None = None

    @property
    def full_rate(self) -> np.ndarray | None:
        """Full-rate records (sensors x grid), the inverse DFT of ``spectra``."""
        return None if self.spectra is None else np.fft.ifft(self.spectra, axis=1)


@dataclass
class SensingRun:
    sets: list[CosetObservationSet]
    warnings: list[str] = field(default_factory=list)


def _rng(key, *path: int) -> np.random.Generator:
    """Generator keyed by the seed ``key`` (an int or a sequence of ints) and ``path``."""
    return np.random.default_rng([*(key if isinstance(key, (tuple, list)) else (key,)), *path])


def _standard_block(rng: np.random.Generator, rows: int, cols: int, buffer=None) -> np.ndarray:
    """``standard_normal((rows, cols, 2))`` viewed as rows x cols CN(0, 2)
    entries, drawn into the head of the float64 ``buffer`` if given."""
    if buffer is None:
        buffer = np.empty(rows * cols * 2)
    pairs = buffer[: rows * cols * 2].reshape(rows, cols, 2)
    rng.standard_normal(out=pairs)
    return pairs.view(complex)[..., 0]


def _cn_scale(power: float) -> float:
    """Factor that turns a standard block into CN(0, power) entries."""
    return math.sqrt(power / 2.0)


def bandpass_response(band: tuple[float, float], n_grid: int) -> np.ndarray:
    """Frequency response of the user-band shaping filter on the full grid.

    Windowed-sinc (Hamming) lowpass of ``FILTER_TAPS`` coefficients, cutoff
    ``width / 2`` and unit DC gain, modulated to the band center, applied
    circularly, normalized to unit peak gain.
    """
    lo, hi = band
    width = hi - lo if hi > lo else (hi - lo) % 1.0
    if width <= 0.0:
        raise ValueError(f"band {band} has zero width")
    if width >= 1.0 - 2.0 / n_grid:
        return np.ones(n_grid, dtype=complex)
    m = np.arange(FILTER_TAPS) - (FILTER_TAPS - 1) / 2
    # 1 - 0.54 (not 0.46) keeps the coefficients equal to the usual
    # firwin(FILTER_TAPS, width / 2, window="hamming", fs=1) to the last bit.
    window = 0.54 + (1 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, FILTER_TAPS))
    lowpass = width * np.sinc(width * m) * window
    lowpass /= np.sum(lowpass)
    center = (lo + width / 2.0) % 1.0
    taps_idx = np.arange(FILTER_TAPS)
    response = np.fft.fft(lowpass * np.exp(2j * np.pi * center * taps_idx), n_grid)
    return response / np.max(np.abs(response))


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


def _user_shape(spec: UserSpec, n_grid: int, bin_mode: str) -> np.ndarray:
    """A user's spectrum per CN(0, 1) draw: sqrt(n_grid * density) times
    ``bandpass_response`` (uncorrelated bins), or on ``band_grid_indices``
    and zero elsewhere (correlated bins)."""
    level = math.sqrt(n_grid * dbm_to_linear(spec.power_dbm))
    if bin_mode == "uncorrelated":
        return level * bandpass_response(spec.band, n_grid)
    idx = band_grid_indices(spec.band, n_grid)
    if idx.size == 0:
        raise ValueError(f"band {spec.band} covers no grid point at {n_grid} points")
    shape = np.zeros(n_grid, dtype=complex)
    shape[idx] = level
    return shape


def coset_dtft(spectra: np.ndarray, pattern: CosetPattern) -> np.ndarray:
    """Coset DTFT values of sensors x grid spectra X, as in
    ``CosetObservationSet.dtft``: C B times X's bin vector at each point."""
    coset_map = build_selection_matrix(pattern) @ build_modulation_matrix(pattern.period)
    return coset_map @ spectra.reshape(spectra.shape[0], pattern.period, -1)


def extract_coset_observations(
    x: np.ndarray, pattern: CosetPattern, label: int = 0
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
    return CosetObservationSet(pattern=pattern, dtft=dtft, label=label)


def synthesize_observations(
    config: ScenarioConfig,
    seed=None,
    keep_full_rate: bool = False,
    noise_levels=None,
) -> SensingRun | list[SensingRun]:
    """Simulate acquisition for ``config``: one observation set per cluster
    d of ``config.pattern`` with path-loss column d (uncorrelated bins), or
    per group z of ``family.patterns[z]`` with column 0 (correlated bins).

    ``seed`` overrides ``config.seed`` and may be a tuple, which lets Monte
    Carlo drivers key whole runs.  A group's sensors x grid spectra are
    X = sqrt(n sigma2) W + sum_k G_k D_k shape_k, the same in distribution
    as the time-domain model because the FFT of white CN(0, p) samples is
    white CN(0, n p).  W (noise), G_k (fading, one per sensor, times the
    root of the linear path loss) and D_k (one per grid point, or one
    symbol per sensor for correlated bins; one row for all sensors when
    synchronized) are CN(0, 1) blocks, each one ``standard_normal((sensors,
    width, 2))`` viewed as complex, keyed by (seed, role, group[, k]) or
    (seed, shared role, k).  ``dtft`` is ``coset_dtft`` of X.
    ``keep_full_rate`` keeps X as ``spectra``, from which ``full_rate``
    derives the records.  ``noise_levels`` (dBm, in place of
    ``config.noise_dbm``) returns one run per level, each adding its scaled
    W to the same user part, bit-identical to a call at that level.
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
        groups = [(d, config.pattern, d) for d in range(config.clusters)]
        sensors, width = config.sensors_per_cluster, n_grid
        own_role, shared_role = _R_SIGNAL, _R_SHARED_SIGNAL
    else:
        groups = [(z, pattern, 0) for z, pattern in enumerate(config.family.patterns)]
        sensors, width = config.sensors_per_group, 1
        own_role, shared_role = _R_SYMBOL, _R_SHARED_SYMBOL
    # each of the two CN(0, 2) blocks in a user's product carries one 1/sqrt(2)
    shapes = [
        _cn_scale(1.0) * _user_shape(user, n_grid, config.bin_mode) for user in config.users
    ]
    shared = None
    if config.sync == "synchronized":
        shared = [_standard_block(_rng(key, shared_role, k), 1, width) for k in range(len(shapes))]
    scales = [_cn_scale(n_grid * dbm_to_linear(level)) for level in levels]
    # every group's draws are made into one buffer and shaped in place
    work = np.empty((sensors, n_grid), dtype=complex)
    buffer = work.view(float).reshape(-1)
    sets = [[] for _ in levels]
    for label, pattern, column in groups:
        signal = np.zeros((sensors, n_grid), dtype=complex)
        for k, user in enumerate(config.users):
            gain = _standard_block(_rng(key, _R_FADING, label, k), sensors, 1)
            gain *= _cn_scale(dbm_to_linear(user.path_loss_db[column]))
            if shared is None:
                draw = _standard_block(_rng(key, own_role, label, k), sensors, width, buffer)
            else:
                draw = shared[k]
            np.multiply(draw, shapes[k], out=work)
            work *= gain
            signal += work
        noise = _standard_block(_rng(key, _R_NOISE, label), sensors, n_grid, buffer)
        for i, (scale, level_sets) in enumerate(zip(scales, sets)):
            last = i == len(scales) - 1
            # the last level may consume the user part and the noise draw
            spectra = signal if last else signal.copy()
            spectra += np.multiply(noise, scale, out=noise if last else None)
            dtft = coset_dtft(spectra, pattern)
            kept = spectra if keep_full_rate else None
            level_sets.append(CosetObservationSet(pattern, dtft, label, spectra=kept))
    runs = [SensingRun(sets=level_sets, warnings=list(warnings)) for level_sets in sets]
    return runs[0] if noise_levels is None else runs
