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
from capspec.patterns import CosetPattern, PatternFamily
from capspec.scenarios import load_fixture
from capspec.sensing import (
    _R_FADING,
    _R_NOISE,
    _R_SHARED_SIGNAL,
    _R_SHARED_SYMBOL,
    _R_SIGNAL,
    _R_SYMBOL,
    BIN_MODES,
    FILTER_TAPS,
    SYNC_MODES,
    ScenarioConfig,
    UserSpec,
    _crandn,
    _rng,
    band_grid_indices,
    bandpass_response,
    dbm_to_linear,
    extract_coset_observations,
    generate_user_signal,
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
    def test_full_band_passthrough_variance(self, rng):
        spec = UserSpec(band=(0.0, 1.0), power_dbm=0.0, path_loss_db=(0.0,))
        x = generate_user_signal(spec, GRID, rng)
        assert abs(np.var(x) - dbm_to_linear(0.0)) / dbm_to_linear(0.0) < 0.05

    def test_inband_density_matches_request(self, rng):
        spec = UserSpec(band=(0.205, 0.245), power_dbm=12.0, path_loss_db=(0.0,))
        x = generate_user_signal(spec, GRID, rng)
        psd = np.abs(np.fft.fft(x)) ** 2 / GRID
        theta = np.arange(GRID) / GRID
        core = (theta >= 0.21) & (theta <= 0.24)
        assert abs(psd[core].mean() - dbm_to_linear(12.0)) / dbm_to_linear(12.0) < 0.1

    def test_band_energy_concentrated(self, rng):
        spec = UserSpec(band=(0.205, 0.245), power_dbm=10.0, path_loss_db=(0.0,))
        x = generate_user_signal(spec, GRID, rng)
        spectrum = np.abs(np.fft.fft(x)) ** 2
        theta = np.arange(GRID) / GRID
        transition = 3.3 / 200  # Hamming window main-lobe width
        inside = (theta >= 0.205 - transition) & (theta < 0.245 + transition)
        assert spectrum[inside].sum() / spectrum.sum() >= 0.95

    def test_wrapped_band(self, rng):
        spec = UserSpec(band=(0.97, 0.03), power_dbm=0.0, path_loss_db=(0.0,))
        x = generate_user_signal(spec, GRID, rng)
        spectrum = np.abs(np.fft.fft(x)) ** 2
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

    def test_zero_power_gives_zeros(self, rng):
        spec = UserSpec(band=(0.1, 0.2), power_dbm=-np.inf, path_loss_db=(0.0,))
        assert np.all(generate_user_signal(spec, GRID, rng) == 0)

    def test_zero_width_band_rejected(self):
        with pytest.raises(ValueError):
            UserSpec(band=(0.3, 0.3), power_dbm=0.0, path_loss_db=(0.0,))
        with pytest.raises(ValueError):
            bandpass_response((0.3, 0.3), GRID)


class TestCosetDtft:
    def test_zeros(self):
        obs = extract_coset_observations(np.zeros(64, dtype=complex), CosetPattern(4, (3,)))
        assert np.all(obs.dtft == 0)

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


def rebuilt_record(config, key, g, t):
    """Sensor t of group g straight from its keyed streams: noise plus, per
    user, fading gain times component; no other sensor is synthesized."""
    n_grid = config.grid_size
    uncorrelated = config.bin_mode == "uncorrelated"
    shared = config.sync == "synchronized"
    rec = _crandn(_rng(key, _R_NOISE, g, t), n_grid, dbm_to_linear(config.noise_dbm))
    for k, user in enumerate(config.users):
        if uncorrelated:
            rng = _rng(key, _R_SHARED_SIGNAL, k) if shared else _rng(key, _R_SIGNAL, g, t, k)
            component = generate_user_signal(user, n_grid, rng)
        else:
            rng = _rng(key, _R_SHARED_SYMBOL, k) if shared else _rng(key, _R_SYMBOL, g, t, k)
            spectrum = np.zeros(n_grid, dtype=complex)
            level = math.sqrt(n_grid * dbm_to_linear(user.power_dbm))
            spectrum[band_grid_indices(user.band, n_grid)] = level * _crandn(rng, 1, 1.0)[0]
            component = np.fft.ifft(spectrum)
        loss = user.path_loss_db[g if uncorrelated else 0]
        gain = _crandn(_rng(key, _R_FADING, g, t, k), 1, dbm_to_linear(loss))[0]
        rec = rec + gain * component
    return rec


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
        for g, obs in enumerate(run.sets):
            assert obs.label == g
            for t, got in enumerate(obs.full_rate):
                want = rebuilt_record(config, key, g, t)
                if config.bin_mode == "uncorrelated":
                    assert np.array_equal(got, want), (g, t)
                else:
                    # symbol * ifft(s) rounds unlike ifft(symbol * s)
                    err = np.max(np.abs(got - want), initial=0.0)
                    assert err <= 1e-12 * np.max(np.abs(want), initial=0.0), (g, t)
                assert np.array_equal(
                    obs.dtft[t], extract_coset_observations(got, obs.pattern).dtft[0]
                )

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_noise_levels_reject_nan_and_plus_inf(self, bad):
        with pytest.raises(ValueError, match="noise_dbm"):
            synthesize_observations(noise_only_config(tau=1), noise_levels=(0.0, bad))

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
