"""Scenario synthesis and multi-coset acquisition.

Each sensor's Nyquist-grid spectrum is white noise plus, per user, a
fading gain times a random draw times the user's fixed spectral shape;
the active cosets' DTFT values follow through the aliasing map C B.
Every draw is a sensors-by-width block from a generator keyed by (run,
group, role[, user]), so a group's outputs are reproducible from its keys
alone and its first tau sensors do not depend on its sensor count.
Synthesis makes only what the coset DTFTs read, the noise at the marks
and K user rows times per-sensor values, except for the one full-grid
draw that unsynchronized users on uncorrelated bins share per group.
Spectra are built on request, and records are derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .patterns import CosetPattern, PatternFamily
from .structure import build_modulation_matrix

FILTER_TAPS = 200

SYNC_MODES = ("synchronized", "unsynchronized")
BIN_MODES = ("uncorrelated", "correlated")

# role codes for RNG keying
_R_SIGNAL, _R_SHARED_SIGNAL, _R_FADING, _R_NOISE, _R_SYMBOL, _R_SHARED_SYMBOL = range(1, 7)
_R_OFF_MARK_NOISE = 7


def dbm_to_linear(dbm: float) -> float:
    """0 dBm maps to linear power 1.0; -inf dBm maps to 0."""
    return 10.0 ** (dbm / 10.0)


def _check_level(name: str, dbm: float, scale: float = 1.0, where: str = "") -> None:
    """A level in dB may be -inf (zero power), never NaN, +inf or so high
    that its linear power, times ``scale``, overflows a float.  Synthesis
    multiplies powers by the grid size (and a user's by its path loss), so
    a level is checked at that scale before anything is drawn."""
    try:
        power = scale * dbm_to_linear(dbm)
    except OverflowError:
        power = math.inf
    if not math.isfinite(power):
        raise ValueError(f"{name} must be -inf or a level of finite power{where}, got {dbm}")


def _check_grid_levels(n_grid: int, name: str, dbm: float, losses=()) -> None:
    """``_check_level`` at grid scale: n_grid times the linear power, and
    that times each of the path losses ``losses``."""
    where = f" at {n_grid} grid points"
    _check_level(name, dbm, n_grid, where)
    scale = n_grid * dbm_to_linear(dbm)
    for loss in losses:
        _check_level("path_loss_db", loss, scale, f"{where} with {name} {dbm}")


def _unwrapped(band: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    """A band as intervals within [0, 1]: a wrapped one is [lo, 1) and [0, hi)."""
    lo, hi = band
    return ((lo, hi),) if lo <= hi else ((lo, 1.0), (0.0, hi))


def _band_width(band: tuple[float, float]) -> float:
    """Width of a band, wrapped around 1 when lo > hi; 0 for lo == hi."""
    raw = band[1] - band[0]
    return raw if raw > 0 else raw % 1.0


def _check_band(name: str, band: tuple[float, float]) -> None:
    """Refuse a band whose edges leave [0, 1]: only lo > hi wraps around 1."""
    lo, hi = band
    if not (0.0 <= lo < 1.0 and 0.0 <= hi <= 1.0):
        raise ValueError(
            f"{name} {band} needs 0 <= lo < 1 and 0 <= hi <= 1 (lo > hi wraps around 1)"
        )


@dataclass(frozen=True)
class UserSpec:
    """One active user: an occupied band and its transmit power density.

    ``band`` is (lo, hi) in normalized frequency, 0 <= lo < 1 and
    0 <= hi <= 1; lo > hi means the band wraps around 1.  ``power_dbm`` is
    the in-band power density per unit normalized frequency.
    ``path_loss_db`` holds one gain per cluster.
    """

    band: tuple[float, float]
    power_dbm: float
    path_loss_db: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))
        object.__setattr__(
            self, "path_loss_db", tuple(float(p) for p in self.path_loss_db)
        )
        _check_band("band", self.band)
        _check_level("power_dbm", self.power_dbm)
        for loss in self.path_loss_db:
            _check_level("path_loss_db", loss)
        if self.width <= 0.0:
            raise ValueError(f"band {self.band} has zero width")

    @property
    def width(self) -> float:
        return _band_width(self.band)


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

    def __post_init__(self):
        if self.period < 1 or self.samples_per_coset < 1:
            raise ValueError("period and samples_per_coset must be positive")
        _check_grid_levels(self.grid_size, "noise_dbm", self.noise_dbm)
        for user in self.users:
            _check_grid_levels(self.grid_size, "power_dbm", user.power_dbm, user.path_loss_db)
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
    width = _band_width(band)
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
    center = (band[0] + width / 2.0) % 1.0
    taps_idx = np.arange(FILTER_TAPS)
    response = np.fft.fft(lowpass * np.exp(2j * np.pi * center * taps_idx), n_grid)
    return response / np.max(np.abs(response))


def band_grid_indices(band: tuple[float, float], n_grid: int) -> np.ndarray:
    """Grid points k with k / n_grid inside [lo, hi), in band order.

    A band that wraps around 1 (lo > hi) lists [lo, 1) and then [0, hi).
    """
    k = np.arange(n_grid)
    theta = k / n_grid
    return np.concatenate([k[(theta >= lo) & (theta < hi)] for lo, hi in _unwrapped(band)])


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
    ``CosetObservationSet.dtft``: C B times X's bin vector at each point,
    with C B taken as the rows of B at the marks."""
    coset_map = build_modulation_matrix(pattern.period)[list(pattern.marks)]
    sensors, n_grid = spectra.shape
    return coset_map @ spectra.reshape(sensors, pattern.period, n_grid // pattern.period)


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


def _plus_scaled(part: np.ndarray, noise: np.ndarray, scale: float, last: bool) -> np.ndarray:
    """part + noise * scale, made in ``part`` and ``noise`` for the last level."""
    scaled = np.multiply(noise, scale, out=noise if last else None)
    return np.add(part, scaled, out=part if last else scaled)


def synthesize_observations(
    config: ScenarioConfig,
    seed,
    keep_full_rate: bool = False,
    noise_levels=None,
) -> SensingRun | list[SensingRun]:
    """Simulate acquisition for ``config``: one observation set per cluster
    d of ``config.pattern`` with path-loss column d (uncorrelated bins), or
    per group z of ``family.patterns[z]`` with column 0 (correlated bins).

    ``seed`` is an int or a tuple, which lets Monte Carlo drivers key whole
    runs.  A group's sensors x grid spectra are X = sqrt(n sigma2) W +
    sum_k G_k D_k shape_k: G_k (fading, one per
    sensor, times the root of the linear path loss) and D_k (one per grid
    point, or one symbol per sensor for correlated bins; one row for all
    sensors when synchronized) are CN(0, 1) blocks ``standard_normal((rows,
    width, 2))`` keyed by (seed, role, group[, k]) or (seed, shared role, k).
    Unsynchronized users on uncorrelated bins share one block keyed (seed,
    signal role, group), times sqrt(sum_k |G_k shape_k|^2), which has the
    law of their sum given the gains.  Every other user part is sum_k c_k
    r_k, one value c_k per sensor times a row r_k, so its coset DTFT is
    sum_k c_k ``coset_dtft``(r_k).  The noise is drawn as z = B W, white
    CN(0, L sigma2) since B B^H = I / N: ``dtft`` adds its marks, one
    sensors x M x L block keyed (seed, noise role, group), to the user
    part's coset DTFT, alike whether or not spectra are kept.
    ``keep_full_rate`` draws z's other cosets, keyed (seed, off-mark role,
    group), and keeps X, with W = fft(z) along the cosets, as ``spectra``.
    ``noise_levels`` (dBm, in place of ``config.noise_dbm``) returns one
    run per level, each adding its scaled noise to the same user part,
    bit-identical to a call at that level.  Levels are checked at grid
    scale before anything is drawn.
    """
    levels = (config.noise_dbm,) if noise_levels is None else tuple(noise_levels)
    n_grid, period, l_per = config.grid_size, config.period, config.samples_per_coset
    for level in levels:
        _check_grid_levels(n_grid, "noise_dbm", level)
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
        shared = [_standard_block(_rng(seed, shared_role, k), 1, width) for k in range(len(shapes))]
    # unsynchronized users on uncorrelated bins: one draw for all of a group's users
    merged = bool(shapes) and shared is None and config.bin_mode == "uncorrelated"
    if merged:
        powers = [np.abs(shape) ** 2 for shape in shapes]
    else:
        rows = [shape if shared is None else shared[k] * shape for k, shape in enumerate(shapes)]
        rows = np.array(rows, dtype=complex).reshape(len(shapes), n_grid)
    scales = [_cn_scale(l_per * dbm_to_linear(level)) for level in levels]
    # scratch: a merged variance (two float halves), a user's term, the noise
    work = np.empty((sensors, n_grid), dtype=complex)
    buffer = work.view(float).reshape(-1)
    z = np.empty((sensors, period, l_per), dtype=complex) if keep_full_rate else None
    sets = [[] for _ in levels]
    for label, pattern, column in groups:
        gains = [
            _standard_block(_rng(seed, _R_FADING, label, k), sensors, 1)
            * _cn_scale(dbm_to_linear(user.path_loss_db[column]))
            for k, user in enumerate(config.users)
        ]
        if merged:
            # sum_k G_k D_k shape_k given the gains is CN(0, sum_k |G_k shape_k|^2)
            variance, term = buffer.reshape(2, sensors, n_grid)
            np.multiply(np.abs(gains[0]) ** 2, powers[0], out=variance)
            for gain, power in zip(gains[1:], powers[1:]):
                np.multiply(np.abs(gain) ** 2, power, out=term)
                variance += term
            np.sqrt(variance, out=variance)
            signal = _standard_block(_rng(seed, own_role, label), sensors, n_grid)
            signal *= variance
            signal_dtft = coset_dtft(signal, pattern)
        else:
            # sum_k c_k rows[k]: c_k = G_k D_k, one symbol per sensor, or G_k
            if shared is None:
                gains = [
                    gain * _standard_block(_rng(seed, own_role, label, k), sensors, 1)
                    for k, gain in enumerate(gains)
                ]
            signal_dtft = np.zeros((sensors, pattern.size, l_per), dtype=complex)
            for coeff, row_dtft in zip(gains, coset_dtft(rows, pattern)):
                signal_dtft += coeff[:, :, None] * row_dtft
            if keep_full_rate:
                signal = np.zeros((sensors, n_grid), dtype=complex)
                for coeff, row in zip(gains, rows):
                    signal += np.multiply(coeff, row, out=work)
        marks = list(pattern.marks)
        noise = _standard_block(_rng(seed, _R_NOISE, label), sensors, len(marks) * l_per, buffer)
        noise = noise.reshape(sensors, len(marks), l_per)
        if keep_full_rate:
            off = [c for c in range(period) if c not in pattern.marks]
            z[:, marks] = noise
            z[:, off] = _standard_block(
                _rng(seed, _R_OFF_MARK_NOISE, label), sensors, len(off) * l_per,
                buffer[2 * noise.size :],
            ).reshape(sensors, len(off), l_per)
            # W = fft(z) along the cosets, one length-N transform per point
            noise_spectra = np.fft.fft(z, axis=1, out=z).reshape(sensors, n_grid)
        for i, (scale, level_sets) in enumerate(zip(scales, sets)):
            last = i == len(scales) - 1
            dtft = _plus_scaled(signal_dtft, noise, scale, last)
            kept = _plus_scaled(signal, noise_spectra, scale, last) if keep_full_rate else None
            level_sets.append(CosetObservationSet(pattern, dtft, label, spectra=kept))
    runs = [SensingRun(sets=level_sets, warnings=list(warnings)) for level_sets in sets]
    return runs[0] if noise_levels is None else runs
