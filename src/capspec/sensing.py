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
Each group is built a block of consecutive sensors at a time, so only
outputs grow with the sensor count.  Spectra are built on request: kept,
one sensors x grid array per group and level, records derived from them;
or, for the Nyquist baseline alone, in block scratch added to a running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

    @property
    def sensors_per_set(self) -> int:
        """Sensors per cluster (uncorrelated bins) or per group (correlated bins)."""
        return self.sensors_per_group if self.bin_mode == "correlated" else self.sensors_per_cluster

    @property
    def warnings(self) -> list[str]:
        """What a run on this scenario reports of its model: on uncorrelated
        bins, user bands wider than the bin width 1/period."""
        wide = [u for u in self.users if u.width > 1.0 / self.period + 1e-12]
        if self.bin_mode != "uncorrelated" or not wide:
            return []
        return [f"{len(wide)} user band(s) exceed the bin width 1/{self.period}; "
                "the uncorrelated-bins model is violated"]


@dataclass
class CosetObservationSet:
    """Per-sensor coset DTFT values for one cluster/group.

    ``dtft[t, m, l]`` is the DTFT of the samples of coset
    ``pattern.marks[m]`` at sensor t, at theta = l / grid_size.
    ``spectra``, when kept, is the sensors x grid DFT of the full-rate
    records; ``full_rate`` derives the records from it on each read.
    ``nap``, when asked for, holds one row per stop: ``nap_values`` of the
    first ``stop`` sensors' spectra.
    """

    pattern: CosetPattern
    dtft: np.ndarray
    label: int = 0
    spectra: np.ndarray | None = None
    nap: np.ndarray | None = None

    @property
    def full_rate(self) -> np.ndarray | None:
        """Full-rate records (sensors x grid), the inverse DFT of ``spectra``."""
        return None if self.spectra is None else np.fft.ifft(self.spectra, axis=1)


@dataclass
class SensingRun:
    sets: list[CosetObservationSet]


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
    taps = lowpass * np.exp(2j * np.pi * center * np.arange(FILTER_TAPS))
    # circularly, taps m and m + n_grid act alike: pad the taps to whole
    # grids and fold those onto one
    folded = np.zeros(-(-FILTER_TAPS // n_grid) * n_grid, dtype=complex)
    folded[:FILTER_TAPS] = taps
    response = np.fft.fft(folded.reshape(-1, n_grid).sum(axis=0))
    return response / np.max(np.abs(response))


def band_grid_indices(band: tuple[float, float], n_grid: int) -> np.ndarray:
    """Grid points k with k / n_grid inside [lo, hi), in band order.

    A band that wraps around 1 (lo > hi) lists [lo, 1) and then [0, hi).
    """
    k = np.arange(n_grid)
    theta = k / n_grid
    return np.concatenate([k[(theta >= lo) & (theta < hi)] for lo, hi in _unwrapped(band)])


@lru_cache(maxsize=64)
def _user_shape(spec: UserSpec, n_grid: int, bin_mode: str) -> np.ndarray:
    """A user's spectrum per CN(0, 1) draw: sqrt(n_grid * density) times
    ``bandpass_response`` (uncorrelated bins), or on ``band_grid_indices``
    and zero elsewhere (correlated bins); read-only, built once per process."""
    level = math.sqrt(n_grid * dbm_to_linear(spec.power_dbm))
    if bin_mode == "uncorrelated":
        shape = level * bandpass_response(spec.band, n_grid)
    else:
        idx = band_grid_indices(spec.band, n_grid)
        if idx.size == 0:
            raise ValueError(f"band {spec.band} covers no grid point at {n_grid} points")
        shape = np.zeros(n_grid, dtype=complex)
        shape[idx] = level
    shape.setflags(write=False)
    return shape


# OpenBLAS (0.3.31, Haswell) may split a complex product of this many
# multiply-adds or more over a helper thread, which would then compete
# with the other worker processes for the cores
BLAS_SPLIT_SIZE = 65536

# Bytes of one block's sensors x grid rows (one sensor at least).  On table2's
# nmse-sweep synthesis (100 x 3060, 2 vCPUs) 256 KiB to 1 MiB took 56 ms of CPU
# per call, 128 KiB 61 ms and one block per group 60 ms; 512 KiB read lowest,
# and it keeps less scratch resident than 1 MiB.
BLOCK_BYTES = 1 << 19


def coset_dtft(spectra: np.ndarray, pattern: CosetPattern, out=None) -> np.ndarray:
    """Coset DTFT values of sensors x grid spectra X, as in
    ``CosetObservationSet.dtft``, made in ``out`` if given: C B times X's
    bin vector at each point, with C B taken as the rows of B at the marks.
    Each product takes as many points as keep it below ``BLAS_SPLIT_SIZE``."""
    coset_map = build_modulation_matrix(pattern.period)[list(pattern.marks)]
    sensors, n_grid = spectra.shape
    bins = spectra.reshape(sensors, pattern.period, n_grid // pattern.period)
    out = np.empty((sensors, pattern.size, bins.shape[2]), dtype=complex) if out is None else out
    step = max(1, (BLAS_SPLIT_SIZE - 1) // coset_map.size)
    for lo in range(0, bins.shape[2], step):
        np.matmul(coset_map, bins[..., lo : lo + step], out=out[..., lo : lo + step])
    return out


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


def nap_values(spectra: np.ndarray) -> np.ndarray:
    """Nyquist averaged periodogram of spectra X (sensors x grid points, the
    DFTs of full-rate records): the sum of |X|^2 over the sensors in order,
    divided by the sensor count and then by the grid size.  No sensors are
    refused."""
    if not len(spectra):
        raise ValueError(f"no sensors to average: spectra of shape {spectra.shape}")
    return np.add.reduce(np.abs(spectra) ** 2, axis=0) / len(spectra) / spectra.shape[1]


def synthesize_observations(
    config: ScenarioConfig,
    seed,
    keep_full_rate: bool = False,
    runs=None,
    nap=(),
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
    ``nap``, ascending sensor counts ("stops"), stores each set's ``nap``,
    one row per stop, ``nap_values`` of X's first ``stop`` rows.  Each group
    is built in blocks of consecutive sensors, at most ``BLOCK_BYTES`` of
    sensors x grid rows and ending at each stop, in scratch made once per
    call: each generator draws its next rows and each run's sum of |X|^2
    runs on, so no output depends on the block size.
    Only outputs grow with the sensors: ``dtft``, sensors x M x L x 16 B per
    group and run, and kept spectra, sensors x grid x 16 B.
    ``runs``, (sync mode, noise dBm) pairs in place of (``config.sync``,
    ``config.noise_dbm``), gives a list of one run per pair, bit-identical
    to a call at its mode and level: fading and noise are drawn once and
    each distinct mode's user part once, into block scratch, and each run
    writes its scaled noise plus its mode's part into its own outputs,
    which no other run uses as scratch; spectra not kept go to scratch.
    Modes, levels, at grid scale, and stops are checked before anything is
    drawn, and an empty ``runs`` is refused.
    """
    pairs = [(config.sync, config.noise_dbm)] if runs is None else list(runs)
    if not pairs or not {mode for mode, _ in pairs} <= set(SYNC_MODES):
        raise ValueError(f"runs must be one or more (sync, noise_dbm) pairs with sync in "
                         f"{SYNC_MODES}, got {runs}")
    n_grid, period, l_per = config.grid_size, config.period, config.samples_per_coset
    for _, level in pairs:
        _check_grid_levels(n_grid, "noise_dbm", level)
    sensors, stops = config.sensors_per_set, tuple(nap)
    steps = zip((0, *stops), stops)
    if not all(np.issubdtype(type(b), np.integer) and a < b <= sensors for a, b in steps):
        raise ValueError(f"nap stops must ascend strictly within [1, {sensors}], got {nap}")
    if config.bin_mode == "uncorrelated":
        groups = [(d, config.pattern, d) for d in range(config.clusters)]
        width = n_grid
        own_role, shared_role = _R_SIGNAL, _R_SHARED_SIGNAL
    else:
        groups = [(z, pattern, 0) for z, pattern in enumerate(config.family.patterns)]
        width = 1
        own_role, shared_role = _R_SYMBOL, _R_SHARED_SYMBOL
    # each of the two CN(0, 2) blocks in a user's product carries one 1/sqrt(2)
    shapes = [
        _cn_scale(1.0) * _user_shape(user, n_grid, config.bin_mode) for user in config.users
    ]
    modes = [mode for mode, _ in pairs]
    distinct = list(dict.fromkeys(modes))
    # unsynchronized users on uncorrelated bins: one draw for all of a group's users
    merged = bool(shapes) and config.bin_mode == "uncorrelated" and "unsynchronized" in modes
    powers = [np.abs(shape) ** 2 for shape in shapes]
    rows = {    # each other mode's user rows r_k, times one shared row if synchronized
        mode: np.array([
            _standard_block(_rng(seed, shared_role, k), 1, width) * shape
            if mode == "synchronized" else shape for k, shape in enumerate(shapes)
        ], dtype=complex).reshape(len(shapes), n_grid)
        for mode in distinct if mode == "synchronized" or not merged
    }
    # each run's user part, and the factor of its noise
    own_parts = [distinct.index(mode) for mode in modes]
    scales = [_cn_scale(l_per * dbm_to_linear(level)) for _, level in pairs]
    with_spectra = keep_full_rate or bool(stops)
    # block scratch: a merged variance (two float halves), a user's term, the noise draws and,
    # unless kept, a run's spectra; the noise cosets z; each mode's user DTFT and signal
    block = max(1, min(sensors, BLOCK_BYTES // (16 * n_grid)))
    work = np.empty((block, n_grid), dtype=complex)
    buffer = work.view(float).reshape(-1)
    z_rows = np.empty((block, period, l_per), dtype=complex) if with_spectra else None
    part_dtfts = np.empty((len(distinct), block, groups[0][1].size, l_per), dtype=complex)
    signal_rows = np.empty((len(distinct), block, n_grid), dtype=complex)
    sums = np.empty((len(pairs), n_grid))    # each run's running NAP sum
    # the outputs, one array per kind for all runs and groups: the allocator keeps so large a
    # block for the next call (a table2 nmse-sweep run faults in no page; 3363 with one per group)
    outputs = (len(pairs), len(groups), sensors)
    dtfts = np.empty((*outputs, groups[0][1].size, l_per), dtype=complex)
    kept = np.empty((*outputs, n_grid), dtype=complex) if keep_full_rate else None
    sets = [[] for _ in pairs]
    for label, pattern, column in groups:
        gains = [
            _standard_block(_rng(seed, _R_FADING, label, k), sensors, 1)
            * _cn_scale(dbm_to_linear(user.path_loss_db[column]))
            for k, user in enumerate(config.users)
        ]
        signal_rng = _rng(seed, own_role, label) if merged else None
        # sum_k c_k rows[k]: c_k = G_k D_k, one symbol per sensor, or G_k when synchronized
        coeffs = {mode: [
            gain if mode == "synchronized"
            else gain * _standard_block(_rng(seed, own_role, label, k), sensors, 1)
            for k, gain in enumerate(gains)
        ] for mode in rows}
        row_dtfts = {mode: coset_dtft(mode_rows, pattern) for mode, mode_rows in rows.items()}
        marks = list(pattern.marks)
        off = [c for c in range(period) if c not in pattern.marks]
        noise_rng = _rng(seed, _R_NOISE, label)
        off_rng = _rng(seed, _R_OFF_MARK_NOISE, label) if with_spectra else None
        naps = [np.empty((len(stops), n_grid)) if stops else None for _ in pairs]
        # blocks of consecutive sensors that end at every stop; each generator draws its next rows
        bounds = sorted({*range(0, sensors, block), *stops, sensors})
        for lo, hi in zip(bounds, bounds[1:]):
            part, count = slice(lo, hi), hi - lo
            for j, mode in enumerate(distinct):
                signal_dtft, signal = part_dtfts[j, :count], signal_rows[j, :count]
                if mode not in rows:
                    # sum_k G_k D_k shape_k given the gains is CN(0, sum_k |G_k shape_k|^2)
                    variance, term = buffer[: 2 * signal.size].reshape(2, count, n_grid)
                    np.multiply(np.abs(gains[0][part]) ** 2, powers[0], out=variance)
                    for gain, power in zip(gains[1:], powers[1:]):
                        np.multiply(np.abs(gain[part]) ** 2, power, out=term)
                        variance += term
                    np.sqrt(variance, out=variance)
                    _standard_block(signal_rng, count, n_grid, signal.view(float).reshape(-1))
                    signal *= variance
                    coset_dtft(signal, pattern, out=signal_dtft)
                else:
                    signal_dtft.fill(0)
                    for coeff, row_dtft in zip(coeffs[mode], row_dtfts[mode]):
                        signal_dtft += coeff[part, :, None] * row_dtft
                    if with_spectra:
                        signal.fill(0)
                        for coeff, row in zip(coeffs[mode], rows[mode]):
                            signal += np.multiply(coeff[part], row, out=work[:count])
            noise = _standard_block(noise_rng, count, len(marks) * l_per, buffer)
            noise = noise.reshape(count, len(marks), l_per)
            # each run: its scaled noise plus its mode's part, in its own outputs
            for i, (j, scale) in enumerate(zip(own_parts, scales)):
                own = np.multiply(noise, scale, out=dtfts[i, label, part])
                own += part_dtfts[j, :count]
            if with_spectra:
                z = z_rows[:count]
                z[:, marks] = noise
                z[:, off] = _standard_block(
                    off_rng, count, len(off) * l_per, buffer[2 * noise.size :]
                ).reshape(count, len(off), l_per)
                # W = fft(z) along the cosets, one length-N transform per point
                noise_spectra = np.fft.fft(z, axis=1, out=z).reshape(count, n_grid)
                # each run's spectra alike; unless kept, in work, as the noise draws are spent
                for i, (j, scale) in enumerate(zip(own_parts, scales)):
                    spectra = kept[i, label, part] if keep_full_rate else work[:count]
                    np.multiply(noise_spectra, scale, out=spectra)
                    spectra += signal_rows[j, :count]
                    if stops and lo < stops[-1]:
                        # the run's running sum of |X|^2 from the group's first sensor, with
                        # one float block alive: squared in place, and gone before the next
                        power = np.abs(spectra)
                        power **= 2
                        if lo:
                            power[0] += sums[i]
                        np.add.reduce(power, axis=0, out=sums[i])
                        del power
                        if hi in stops:
                            naps[i][stops.index(hi)] = sums[i] / hi / n_grid
        kept_rows = kept[:, label] if keep_full_rate else [None for _ in pairs]
        for run_sets, dtft, spectra, nap_rows in zip(sets, dtfts[:, label], kept_rows, naps):
            run_sets.append(CosetObservationSet(pattern, dtft, label, spectra, nap_rows))
    return SensingRun(sets[0]) if runs is None else [SensingRun(run_sets) for run_sets in sets]
