import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capspec
from capspec.analysis import nyquist_ap
from capspec.patterns import CosetPattern, PatternFamily
from capspec.scenarios import load_fixture
from capspec.sensing import (
    _R_FADING,
    _R_NOISE,
    _R_OFF_MARK_NOISE,
    _R_SHARED_SIGNAL,
    _R_SHARED_SYMBOL,
    _R_SIGNAL,
    _R_SYMBOL,
    BIN_MODES,
    FILTER_TAPS,
    SYNC_MODES,
    ScenarioConfig,
    UserSpec,
    _cn_scale,
    _rng,
    _standard_block,
    _user_shape,
    band_grid_indices,
    bandpass_response,
    coset_dtft,
    dbm_to_linear,
    extract_coset_observations,
    synthesize_observations,
)
from capspec.structure import build_modulation_matrix, build_selection_matrix

GRID = 3060


def full_rate_bin_vectors(x, period):
    """theta-indexed bin vectors x(theta_l)[i] from the full-rate DFT."""
    n_grid = x.size
    per_coset = n_grid // period
    spectrum = np.fft.fft(x)
    return spectrum.reshape(period, per_coset).T  # [l, i] at grid index i*L + l


class TestUserSignal:
    # A user's spectrum is a CN(0, 1) draw per grid point times its shape,
    # so its expected periodogram |shape|^2 / n is checked directly, with no
    # realization in between.

    @staticmethod
    def expected_periodogram(spec):
        return np.abs(_user_shape(spec, GRID, "uncorrelated")) ** 2 / GRID

    def test_full_band_passthrough_variance(self):
        spec = UserSpec(band=(0.0, 1.0), power_dbm=0.0, path_loss_db=(0.0,))
        psd = self.expected_periodogram(spec)
        assert np.max(np.abs(psd - dbm_to_linear(0.0))) / dbm_to_linear(0.0) < 0.05

    def test_inband_density_matches_request(self):
        spec = UserSpec(band=(0.205, 0.245), power_dbm=12.0, path_loss_db=(0.0,))
        psd = self.expected_periodogram(spec)
        theta = np.arange(GRID) / GRID
        core = (theta >= 0.21) & (theta <= 0.24)
        assert abs(psd[core].mean() - dbm_to_linear(12.0)) / dbm_to_linear(12.0) < 0.1

    def test_band_energy_concentrated(self):
        spec = UserSpec(band=(0.205, 0.245), power_dbm=10.0, path_loss_db=(0.0,))
        spectrum = self.expected_periodogram(spec)
        theta = np.arange(GRID) / GRID
        transition = 3.3 / 200  # Hamming window main-lobe width
        inside = (theta >= 0.205 - transition) & (theta < 0.245 + transition)
        assert spectrum[inside].sum() / spectrum.sum() >= 0.95

    def test_wrapped_band(self):
        spec = UserSpec(band=(0.97, 0.03), power_dbm=0.0, path_loss_db=(0.0,))
        spectrum = self.expected_periodogram(spec)
        theta = np.arange(GRID) / GRID
        transition = 3.3 / 200
        inside = (theta >= 0.97 - transition) | (theta < 0.03 + transition)
        assert spectrum[inside].sum() / spectrum.sum() >= 0.95

    def test_filter_matches_scipy_firwin_bit_for_bit(self):
        signal = pytest.importorskip("scipy.signal")
        bands = {((0.1, 0.1 + w), GRID) for w in (0.001, 0.0123, 0.25, 0.5, 0.9)}
        bands.add(((0.97, 0.03), GRID))
        for name in ("table2.ini", "table4.ini", "table5.ini"):
            config = load_fixture(name)
            bands |= {(user.band, config.grid_size) for user in config.users}
        taps = np.arange(FILTER_TAPS)
        for band, n_grid in sorted(bands):
            lo, hi = band
            width = hi - lo if hi > lo else (hi - lo) % 1.0
            lowpass = signal.firwin(FILTER_TAPS, width / 2.0, window="hamming", fs=1.0)
            center = (lo + width / 2.0) % 1.0
            want = np.fft.fft(lowpass * np.exp(2j * np.pi * center * taps), n_grid)
            want /= np.max(np.abs(want))
            assert np.array_equal(bandpass_response(band, n_grid), want), band

    def test_zero_power_gives_zeros(self):
        spec = UserSpec(band=(0.1, 0.2), power_dbm=-np.inf, path_loss_db=(0.0,))
        assert np.all(_user_shape(spec, GRID, "uncorrelated") == 0)

    def test_zero_width_band_rejected(self):
        with pytest.raises(ValueError):
            UserSpec(band=(0.3, 0.3), power_dbm=0.0, path_loss_db=(0.0,))
        with pytest.raises(ValueError):
            bandpass_response((0.3, 0.3), GRID)


class TestCosetDtft:
    def test_zeros(self):
        obs = extract_coset_observations(np.zeros(64, dtype=complex), CosetPattern(4, (3,)))
        assert np.all(obs.dtft == 0)
        assert obs.spectra is None and obs.full_rate is None

    def test_unit_impulse_phase_ramp(self):
        # impulse at the first coset sample: transform is the pure phase ramp
        period, l_per, coset = 5, 12, 3
        x = np.zeros(period * l_per, dtype=complex)
        x[coset] = 1.0
        out = extract_coset_observations(x, CosetPattern(period, (coset,))).dtft[0, 0]
        l = np.arange(l_per)
        want = np.exp(-2j * np.pi * l * coset / (period * l_per))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_coset_observations(np.zeros(7), CosetPattern(3, (0,)))

    def test_aliasing_identity(self, rng):
        # stacked coset DTFTs equal C B x(theta) built from the full-rate DFT
        period, l_per = 6, 50
        pattern = CosetPattern(period, (0, 2, 3, 5))
        b = build_modulation_matrix(period)
        c = build_selection_matrix(pattern)
        for _ in range(20):
            x = rng.standard_normal(period * l_per) + 1j * rng.standard_normal(period * l_per)
            obs = extract_coset_observations(x, pattern)
            bins = full_rate_bin_vectors(x, period)          # (L, N)
            want = bins @ (c @ b).T                          # (L, M)
            assert np.max(np.abs(obs.dtft[0].T - want)) < 1e-9

    def test_parseval_energy(self, rng):
        x = rng.standard_normal(GRID) + 1j * rng.standard_normal(GRID)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(np.fft.fft(x)) ** 2) / GRID
        assert abs(time_energy - freq_energy) / time_energy < 1e-6


def noise_only_config(tau=100, noise_dbm=3.0):
    return ScenarioConfig(
        period=18,
        samples_per_coset=170,
        users=(),
        noise_dbm=noise_dbm,
        pattern=CosetPattern(18, (0, 1, 4, 7, 9)),
        sensors_per_cluster=tau,
    )


class TestSynthesize:
    def test_noise_only_variance(self):
        run = synthesize_observations(noise_only_config(), seed=1, keep_full_rate=True)
        x = run.sets[0].full_rate
        sigma2 = dbm_to_linear(3.0)
        assert abs(np.var(x) - sigma2) / sigma2 < 0.03

    def test_received_band_level(self):
        # in-band periodogram level ~ density * mean path loss + noise floor
        user = UserSpec(band=(0.055, 0.095), power_dbm=34.0, path_loss_db=(-12.0, -10.0))
        config = ScenarioConfig(
            period=18, samples_per_coset=170, users=(user,), noise_dbm=7.0,
            pattern=CosetPattern(18, (0, 1, 4, 7, 9)),
            clusters=2, sensors_per_cluster=100,
        )
        run = synthesize_observations(config, seed=4, keep_full_rate=True)
        x = np.vstack([s.full_rate for s in run.sets])
        psd = np.mean(np.abs(np.fft.fft(x, axis=1)) ** 2, axis=0) / x.shape[1]
        theta = np.arange(x.shape[1]) / x.shape[1]
        core = (theta >= 0.06) & (theta <= 0.09)
        mean_pl = (dbm_to_linear(-12.0) + dbm_to_linear(-10.0)) / 2
        want = dbm_to_linear(34.0) * mean_pl + dbm_to_linear(7.0)
        assert abs(psd[core].mean() - want) / want < 0.15

    def test_synchronized_sensors_share_user_component(self):
        user = UserSpec(band=(0.1, 0.15), power_dbm=0.0, path_loss_db=(0.0,))
        config = ScenarioConfig(
            period=4, samples_per_coset=50, users=(user,), noise_dbm=-np.inf,
            pattern=CosetPattern(4, (0, 1, 2, 3)),
            sensors_per_cluster=3, sync="synchronized",
        )
        run = synthesize_observations(config, seed=2, keep_full_rate=True)
        x = run.sets[0].full_rate
        # noiseless flat fading of a shared signal: records are collinear
        s = np.linalg.svd(x, compute_uv=False)
        assert s[1] / s[0] < 1e-12

    def test_unsynchronized_sensors_decorrelated(self):
        user = UserSpec(band=(0.1, 0.14), power_dbm=0.0, path_loss_db=(0.0,))
        config = ScenarioConfig(
            period=18, samples_per_coset=170, users=(user,), noise_dbm=-np.inf,
            pattern=CosetPattern(18, (0, 1, 4, 7, 9)),
            sensors_per_cluster=200, sync="unsynchronized",
        )
        run = synthesize_observations(config, seed=3, keep_full_rate=True)
        x = run.sets[0].full_rate
        rho = []
        for t in range(0, 200, 2):
            a, b = x[t], x[t + 1]
            rho.append(
                abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            )
        assert np.mean(rho) < 0.1

    def test_correlated_bins_full_coherence(self):
        user = UserSpec(band=(0.2, 0.5), power_dbm=0.0, path_loss_db=(0.0,))
        family = PatternFamily(5, (CosetPattern(5, (0, 1, 2)), CosetPattern(5, (2, 3, 4))))
        config = ScenarioConfig(
            period=5, samples_per_coset=20, users=(user,), noise_dbm=-np.inf,
            family=family, bin_mode="correlated", sensors_per_group=4,
        )
        run = synthesize_observations(config, seed=5, keep_full_rate=True)
        x = run.sets[0].full_rate
        spectra = np.fft.fft(x, axis=1)
        theta = np.arange(x.shape[1]) / x.shape[1]
        occupied = np.flatnonzero((theta >= 0.2) & (theta < 0.5))
        i, j = occupied[0], occupied[-1]
        num = abs(np.vdot(spectra[:, i], spectra[:, j]))
        den = np.linalg.norm(spectra[:, i]) * np.linalg.norm(spectra[:, j])
        assert abs(num / den - 1.0) < 1e-12

    def test_oversized_band_warns(self):
        wide = UserSpec(band=(0.1, 0.3), power_dbm=0.0, path_loss_db=(0.0,))
        config = ScenarioConfig(
            period=18, samples_per_coset=10, users=(wide,), noise_dbm=0.0,
            pattern=CosetPattern(18, (0, 1, 4, 7, 9)),
        )
        run = synthesize_observations(config, seed=0)
        assert run.warnings

    def test_seeded_reproducibility(self):
        a = synthesize_observations(noise_only_config(tau=3), seed=(9, 1))
        b = synthesize_observations(noise_only_config(tau=3), seed=(9, 1))
        assert np.array_equal(a.sets[0].dtft, b.sets[0].dtft)

    @pytest.mark.parametrize("sync", SYNC_MODES)
    @pytest.mark.parametrize("bin_mode", BIN_MODES)
    def test_mean_nap_matches_closed_form(self, bin_mode, sync):
        # E|X_i|^2 / n = sigma2 + sum_k PL_k rho_k |shape_k(i)|^2, whatever the
        # random streams; a spectrum off by a factor n or 2 fails by far.
        # Runs are independent, sensors of a synchronized run are not, so
        # the standard errors come from the per-run averages.  A synchronized
        # correlated-bins run draws one symbol per user for every point and
        # sensor, so its per-run averages are skewed like an exponential, and
        # so is their t statistic: the aggregate bound is 4 standard errors.
        users = (
            UserSpec(band=(0.2, 0.35), power_dbm=6.0, path_loss_db=(-2.0, -5.0)),
            UserSpec(band=(0.9, 0.05), power_dbm=3.0, path_loss_db=(-4.0, 1.0)),
        )
        if bin_mode == "uncorrelated":
            layout = dict(pattern=CosetPattern(6, (0, 1, 3)), clusters=2, sensors_per_cluster=8)
        else:
            patterns = (CosetPattern(6, (0, 1, 3)), CosetPattern(6, (1, 2, 4)))
            layout = dict(family=PatternFamily(6, patterns), sensors_per_group=8)
        config = ScenarioConfig(
            period=6, samples_per_coset=20, users=users, noise_dbm=-1.0,
            sync=sync, bin_mode=bin_mode, **layout,
        )
        n_grid, runs = config.grid_size, 300
        naps = np.array([
            [nyquist_ap(s.full_rate).values for s in
             synthesize_observations(config, seed=(31, r), keep_full_rate=True).sets]
            for r in range(runs)
        ])                                                   # (runs, groups, grid)
        for g in range(naps.shape[1]):
            want = np.full(n_grid, dbm_to_linear(config.noise_dbm))
            for user in users:
                power = dbm_to_linear(user.path_loss_db[g if bin_mode == "uncorrelated" else 0])
                power *= dbm_to_linear(user.power_dbm)
                if bin_mode == "uncorrelated":
                    want += power * np.abs(bandpass_response(user.band, n_grid)) ** 2
                else:
                    want[band_grid_indices(user.band, n_grid)] += power
            per_point = naps[:, g]
            z = (per_point.mean(axis=0) - want) / (per_point.std(axis=0, ddof=1) / np.sqrt(runs))
            assert np.max(np.abs(z)) < 5.0, (g, np.max(np.abs(z)))
            level = per_point.mean(axis=1)                   # one average per run
            agg_z = (level.mean() - want.mean()) / (level.std(ddof=1) / np.sqrt(runs))
            assert abs(agg_z) < 4.0, (g, agg_z)

    def test_fourth_moments_match_gaussian_fading(self):
        # Unsynchronized sensors on uncorrelated bins: given the fading gains,
        # X_i is CN(0, V_i) with V_i = sum_k |G_k|^2 |shape_k(i)|^2 + c, and
        # |G_k|^2 is exponential, so with a_k(i) = E|X_i|^2 from user k,
        # A_i = sum_k a_k(i) and c the noise part,
        #   E|X_i|^2 |X_j|^2 = (1 + [i = j]) ((A_i + c)(A_j + c) + sum_k a_k(i) a_k(j)).
        # At i = j this is E|X_i|^4 = 2 ((A_i + c)^2 + sum_k a_k(i)^2).  One
        # point alone has the same law whether a gain is drawn per sensor or
        # per grid point; the products across points of one band (the sum_k
        # term) tell the two apart, and those across two bands check that the
        # users fade independently.  Sensors are independent, so the standard
        # errors come from the per-sensor values.  Seed (43, 0) and a bound of
        # 5 standard errors on every statistic were fixed before any result.
        users = (
            UserSpec(band=(0.2, 0.35), power_dbm=6.0, path_loss_db=(-2.0,)),
            UserSpec(band=(0.9, 0.05), power_dbm=3.0, path_loss_db=(-4.0,)),
        )
        config = ScenarioConfig(
            period=6, samples_per_coset=20, users=users, noise_dbm=-1.0,
            pattern=CosetPattern(6, (0, 1, 3)), sensors_per_cluster=4000,
        )
        n_grid = config.grid_size
        run = synthesize_observations(config, seed=(43, 0), keep_full_rate=True)
        power = np.abs(run.sets[0].spectra) ** 2                 # (sensors, grid)
        sensors = power.shape[0]
        a = np.array([
            dbm_to_linear(u.path_loss_db[0])
            * np.abs(_user_shape(u, n_grid, "uncorrelated")) ** 2
            for u in users
        ])                                                       # (users, grid)
        total = a.sum(axis=0) + n_grid * dbm_to_linear(config.noise_dbm)
        product = np.outer(total, total) + a.T @ a               # E|X_i|^2 |X_j|^2, i != j

        def z_score(samples, want):
            return (samples.mean() - want) / (samples.std(ddof=1) / np.sqrt(sensors))

        diagonal = [z_score(power[:, i] ** 2, 2 * product[i, i]) for i in range(n_grid)]
        assert np.max(np.abs(diagonal)) < 5.0, np.max(np.abs(diagonal))
        bands = [np.flatnonzero(row >= 0.5 * row.max()) for row in a]
        for band in bands:
            in_band = power[:, band]
            pairs = in_band.sum(axis=1) ** 2 - (in_band**2).sum(axis=1)
            block = product[np.ix_(band, band)]
            z = z_score(pairs, block.sum() - np.trace(block))
            assert abs(z) < 5.0, z
        across = power[:, bands[0]].sum(axis=1) * power[:, bands[1]].sum(axis=1)
        z = z_score(across, product[np.ix_(bands[0], bands[1])].sum())
        assert abs(z) < 5.0, z


def rebuilt_group(config, key, g, scale):
    """Group g's coset DTFTs and sensors x grid spectra straight from its
    block streams, in the arithmetic order of the synthesis; no other group
    is synthesized.  Unsynchronized users on uncorrelated bins share one
    draw, scaled by the root of the sum of their |gain * shape|^2; every
    other signal is sum_k coeff_k row_k, and its coset DTFT is sum_k coeff_k
    times the coset DTFT of row_k.  The noise is z, a standard block at the
    marks and another at the other cosets, times ``scale``: the DTFTs add
    its marks, the spectra its fft along the cosets."""
    n_grid, period, l_per = config.grid_size, config.period, config.samples_per_coset
    if config.bin_mode == "uncorrelated":
        sensors, width, column = config.sensors_per_cluster, n_grid, g
        own_role, shared_role = _R_SIGNAL, _R_SHARED_SIGNAL
        pattern = config.pattern
    else:
        sensors, width, column = config.sensors_per_group, 1, 0
        own_role, shared_role = _R_SYMBOL, _R_SHARED_SYMBOL
        pattern = config.family.patterns[g]
    marks = list(pattern.marks)
    coset_map = build_selection_matrix(pattern) @ build_modulation_matrix(period)
    merged = config.sync == "unsynchronized" and config.bin_mode == "uncorrelated"
    signal = np.zeros((sensors, n_grid), dtype=complex)
    signal_dtft = np.zeros((sensors, len(marks), l_per), dtype=complex)
    variance = np.zeros((sensors, n_grid))
    for k, user in enumerate(config.users):
        gain = _standard_block(_rng(key, _R_FADING, g, k), sensors, 1)
        gain = gain * _cn_scale(dbm_to_linear(user.path_loss_db[column]))
        shape = _cn_scale(1.0) * _user_shape(user, n_grid, config.bin_mode)
        if merged:
            variance = variance + np.abs(gain) ** 2 * np.abs(shape) ** 2
            continue
        if config.sync == "synchronized":
            coeff = gain
            row = _standard_block(_rng(key, shared_role, k), 1, width) * shape
        else:
            coeff = gain * _standard_block(_rng(key, own_role, g, k), sensors, width)
            row = shape
        row_dtft = coset_map @ row.reshape(period, l_per)
        signal_dtft = signal_dtft + coeff[:, :, None] * row_dtft
        signal = signal + coeff * row
    if merged and config.users:
        signal = _standard_block(_rng(key, own_role, g), sensors, n_grid) * np.sqrt(variance)
        signal_dtft = coset_map @ signal.reshape(sensors, period, l_per)
    off = [c for c in range(period) if c not in marks]
    z = np.empty((sensors, period, l_per), dtype=complex)
    z[:, marks] = _standard_block(_rng(key, _R_NOISE, g), sensors, len(marks) * l_per).reshape(
        sensors, len(marks), l_per
    )
    z[:, off] = _standard_block(_rng(key, _R_OFF_MARK_NOISE, g), sensors, len(off) * l_per).reshape(
        sensors, len(off), l_per
    )
    dtft = signal_dtft + z[:, marks] * scale
    spectra = signal + np.fft.fft(z, axis=1).reshape(sensors, n_grid) * scale
    return dtft, spectra


@st.composite
def small_scenarios(draw):
    period = draw(st.integers(2, 6))
    per_coset = draw(st.integers(2, 8))
    n_grid = period * per_coset
    bin_mode = draw(st.sampled_from(BIN_MODES))
    groups = draw(st.integers(1, 3))
    sensors = draw(st.integers(1, 3))
    # correlated bins read only column 0 of however many entries there are
    columns = groups if bin_mode == "uncorrelated" else draw(st.integers(1, 3))
    level = st.floats(-10.0, 10.0)
    users = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.floats(0.0, 1.0, exclude_max=True))
        # at least 1.5 grid spacings wide, so a correlated band covers a point
        width = draw(st.floats(1.5 / n_grid, 0.9))
        users.append(
            UserSpec(
                band=(lo, (lo + width) % 1.0),
                power_dbm=draw(level),
                path_loss_db=tuple(draw(level) for _ in range(columns)),
            )
        )
    marks = tuple(draw(st.sets(st.integers(0, period - 1), min_size=1)))
    if bin_mode == "uncorrelated":
        layout = dict(
            pattern=CosetPattern(period, marks), clusters=groups, sensors_per_cluster=sensors
        )
    else:
        shifted = (
            CosetPattern(period, tuple((m + z) % period for m in marks)) for z in range(groups)
        )
        layout = dict(family=PatternFamily(period, tuple(shifted)), sensors_per_group=sensors)
    return ScenarioConfig(
        period=period,
        samples_per_coset=per_coset,
        users=tuple(users),
        noise_dbm=draw(st.one_of(st.just(-math.inf), level)),
        sync=draw(st.sampled_from(SYNC_MODES)),
        bin_mode=bin_mode,
        **layout,
    )


class TestOneSynthesisLoop:
    @settings(max_examples=80, deadline=None)
    @given(config=small_scenarios(), key=st.tuples(st.integers(0, 99), st.integers(0, 9)))
    def test_any_sensor_rebuilds_from_its_keyed_streams(self, config, key):
        run = synthesize_observations(config, seed=key, keep_full_rate=True)
        scale = _cn_scale(config.samples_per_coset * dbm_to_linear(config.noise_dbm))
        for g, obs in enumerate(run.sets):
            assert obs.label == g
            dtft, spectra = rebuilt_group(config, key, g, scale)
            assert np.array_equal(obs.dtft, dtft), g
            assert np.array_equal(obs.spectra, spectra), g
            assert np.array_equal(obs.full_rate, np.fft.ifft(spectra, axis=1)), g
            # the kept spectra alias into the DTFTs: B fft(z) = z at the marks
            aliased = coset_dtft(spectra, obs.pattern)
            assert np.max(np.abs(aliased - dtft)) <= 1e-12 * max(np.max(np.abs(dtft)), 1e-300), g

    @settings(max_examples=60, deadline=None)
    @given(
        config=small_scenarios(),
        key=st.tuples(st.integers(0, 99), st.integers(0, 9)),
        levels=st.lists(
            st.one_of(st.just(-math.inf), st.floats(-10.0, 10.0)), min_size=1, max_size=3
        ),
    )
    def test_dtft_does_not_depend_on_keep_full_rate(self, config, key, levels):
        kept = synthesize_observations(config, seed=key, keep_full_rate=True, noise_levels=levels)
        lean = synthesize_observations(config, seed=key, noise_levels=levels)
        for with_spectra, without in zip(kept, lean, strict=True):
            for got, want in zip(with_spectra.sets, without.sets, strict=True):
                assert want.spectra is None
                assert np.array_equal(got.dtft, want.dtft)

    @settings(max_examples=60, deadline=None)
    @given(
        config=small_scenarios(),
        key=st.tuples(st.integers(0, 99), st.integers(0, 9)),
        levels=st.lists(
            st.one_of(st.just(-math.inf), st.floats(-10.0, 10.0)), min_size=1, max_size=3
        ),
    )
    def test_each_noise_level_matches_its_own_call(self, config, key, levels):
        runs = synthesize_observations(
            config, seed=key, keep_full_rate=True, noise_levels=levels
        )
        assert len(runs) == len(levels)
        for level, run in zip(levels, runs):
            alone = synthesize_observations(
                replace(config, noise_dbm=level), seed=key, keep_full_rate=True
            )
            assert run.warnings == alone.warnings
            assert len(run.sets) == len(alone.sets)
            for got, want in zip(run.sets, alone.sets):
                assert np.array_equal(got.full_rate, want.full_rate), level
                assert np.array_equal(got.dtft, want.dtft), level

    @settings(max_examples=60, deadline=None)
    @given(
        config=small_scenarios(),
        key=st.tuples(st.integers(0, 99), st.integers(0, 9)),
        extra=st.integers(1, 5),
    )
    def test_fewer_sensors_give_the_leading_rows(self, config, key, extra):
        if config.bin_mode == "uncorrelated":
            more = replace(config, sensors_per_cluster=config.sensors_per_cluster + extra)
        else:
            more = replace(config, sensors_per_group=config.sensors_per_group + extra)
        few = synthesize_observations(config, seed=key, keep_full_rate=True)
        many = synthesize_observations(more, seed=key, keep_full_rate=True)
        for got, full in zip(few.sets, many.sets, strict=True):
            tau = got.dtft.shape[0]
            assert np.array_equal(got.dtft, full.dtft[:tau])
            assert np.array_equal(got.full_rate, full.full_rate[:tau])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_noise_levels_reject_nan_and_plus_inf(self, bad):
        with pytest.raises(ValueError, match="noise_dbm"):
            synthesize_observations(noise_only_config(tau=1), seed=0, noise_levels=(0.0, bad))

    def test_correlated_band_between_grid_points_rejected(self):
        user = UserSpec(band=(0.01, 0.05), power_dbm=0.0, path_loss_db=(0.0,))
        config = ScenarioConfig(
            period=5, samples_per_coset=2, users=(user,), noise_dbm=0.0,
            family=PatternFamily(5, (CosetPattern(5, (0, 1, 2)),)), bin_mode="correlated",
        )
        with pytest.raises(ValueError, match="covers no grid point"):
            synthesize_observations(config, seed=0)


class TestBandGridIndices:
    def test_plain_band_is_half_open(self):
        assert band_grid_indices((0.2, 0.3), 10).tolist() == [2]

    def test_wrapped_band_in_band_order(self):
        assert band_grid_indices((0.8, 0.2), 10).tolist() == [8, 9, 0, 1]


class TestScenarioValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_levels_reject_nan_and_plus_inf(self, bad):
        with pytest.raises(ValueError, match="power_dbm"):
            UserSpec(band=(0.1, 0.2), power_dbm=bad, path_loss_db=(0.0,))
        with pytest.raises(ValueError, match="path_loss_db"):
            UserSpec(band=(0.1, 0.2), power_dbm=0.0, path_loss_db=(0.0, bad))
        with pytest.raises(ValueError, match="noise_dbm"):
            noise_only_config(tau=1, noise_dbm=bad)

    def test_minus_inf_level_means_zero_power(self):
        UserSpec(band=(0.1, 0.2), power_dbm=-math.inf, path_loss_db=(-math.inf,))
        noise_only_config(tau=1, noise_dbm=-math.inf)

    def test_band_edges_must_be_finite(self):
        with pytest.raises(ValueError):
            UserSpec(band=(math.nan, 0.2), power_dbm=0.0, path_loss_db=(0.0,))

    def test_pattern_required_for_uncorrelated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(period=4, samples_per_coset=10, users=(), noise_dbm=0.0)

    def test_path_loss_entries_must_match_clusters(self):
        user = UserSpec(band=(0.1, 0.2), power_dbm=0.0, path_loss_db=(0.0,))
        with pytest.raises(ValueError):
            ScenarioConfig(
                period=4, samples_per_coset=10, users=(user,), noise_dbm=0.0,
                pattern=CosetPattern(4, (0, 1)), clusters=2, sensors_per_cluster=2,
            )

    def test_bad_sync_mode(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                period=4, samples_per_coset=10, users=(), noise_dbm=0.0,
                pattern=CosetPattern(4, (0, 1)), sync="sometimes",
            )


def modules_loaded_by_import(prefix):
    """Modules under ``prefix`` that a fresh ``import capspec`` loads."""
    src = str(Path(capspec.__file__).resolve().parents[1])
    code = f"import sys, capspec; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    assert modules_loaded_by_import("scipy") == "[]"


def test_import_does_not_load_multiprocessing():
    # worker processes are started only when a run asks for more than one
    assert modules_loaded_by_import("multiprocessing") == "[]"
