"""Qualitative behavior of the shipped experiment scenarios."""

import numpy as np
from dataclasses import replace

from capspec.analysis import (
    nmse,
    nyquist_ap,
    whitenoise_variance_closed_form,
    whitenoise_variance_report,
)
from capspec.patterns import CosetPattern, design_pair_cover_family
from capspec.scenarios import extend_pattern, load_fixture
from capspec.runner import SweepSpec, _nmse_run
from capspec.sensing import (
    CosetObservationSet,
    ScenarioConfig,
    UserSpec,
    coset_dtft,
    dbm_to_linear,
    extract_coset_observations,
    nap_values,
    synthesize_observations,
)
from capspec.estimator import (
    NAP,
    Periodogram,
    average_periodograms,
    estimate_correlated_bins,
    estimate_multicluster,
)
from oracles import is_circular_sparse_ruler

# Two fixture sets of (base ruler, activation order of extra cosets) per period.
PATTERN_SETS = {
    1: {
        18: ((0, 1, 4, 7, 9), (17, 2, 13, 12, 15, 6)),
        14: ((0, 1, 2, 4, 7), (10, 6, 12, 5)),
        10: ((0, 1, 3, 5), (8, 4)),
    },
    2: {
        18: ((0, 1, 4, 7, 9), (5, 2, 6, 17, 15, 14)),
        14: ((0, 1, 2, 4, 7), (12, 10, 13, 11)),
        10: ((0, 1, 3, 5), (4, 6)),
    },
}

# Extra-coset orders used by the white-noise variance study at period 18.
VARIANCE_EXTRA_PATTERNS = {
    "pattern1": (17, 11, 2, 6),
    "pattern2": (3, 5, 6, 8),
    "pattern3": (2, 3, 5, 6),
}

# Fixed single-pattern baseline for the correlated-bins comparison at N=40.
CORRELATED_UB_BASELINE = (0, 1, 2, 3, 4, 9, 10, 15, 16, 18, 20, 30, 33, 37)


def band_mask(thetas, lo, hi):
    return (thetas >= lo) & (thetas < hi)


class TestMultibandScenario:
    def test_cap_tracks_nap_with_elevated_bands(self):
        config = load_fixture("table2.ini")
        sensed = synthesize_observations(config, seed=(42, 0), keep_full_rate=True)
        _, cap = estimate_multicluster(sensed.sets)
        nap = average_periodograms([nyquist_ap(s.full_rate) for s in sensed.sets])
        assert nmse(cap, nap) < 0.05
        sigma2 = dbm_to_linear(config.noise_dbm)
        thetas = np.arange(cap.values.size) / cap.values.size
        for user in config.users:
            mask = band_mask(thetas, user.band[0] + 0.005, user.band[1] - 0.005)
            mean_pl = np.mean([dbm_to_linear(p) for p in user.path_loss_db])
            expected = dbm_to_linear(user.power_dbm) * mean_pl
            assert expected > 5 * sigma2  # occupied bands sit well above the floor
            assert cap.values[mask].mean() > 4 * sigma2
            assert 0.5 < cap.values[mask].mean() / (expected + sigma2) < 2.0
        quiet = band_mask(thetas, 0.45, 0.55)
        assert cap.values[quiet].mean() < 5 * sigma2

    def test_some_leakage_but_no_negative_blowup(self):
        config = load_fixture("table2.ini")
        sensed = synthesize_observations(config, seed=(42, 1))
        _, cap = estimate_multicluster(sensed.sets)
        assert cap.negative_count < cap.values.size * 0.5
        assert cap.values.min() > -np.max(cap.values)


class TestWidebandCorrelatedScenario:
    def test_pair_cover_estimator_beats_circulant_assumption(self):
        config = load_fixture("table5.ini")
        config = replace(config, sensors_per_group=8)  # desk scale
        sensed = synthesize_observations(config, seed=(7, 0), keep_full_rate=True)
        cap_cb = estimate_correlated_bins(sensed.sets)
        nap = average_periodograms([nyquist_ap(s.full_rate) for s in sensed.sets])

        full = np.vstack([s.full_rate for s in sensed.sets])
        ub_pattern = CosetPattern(40, CORRELATED_UB_BASELINE)
        _, cap_ub = estimate_multicluster([extract_coset_observations(full, ub_pattern)])

        err_cb = nmse(cap_cb, nap)
        err_ub = nmse(cap_ub, nap)
        assert err_cb < 0.2
        assert err_ub > 10 * err_cb


class TestPatternSetFixtures:
    def test_bases_are_minimal_rulers_and_extensions_stay_identifiable(self):
        from capspec.patterns import minimal_circular_sparse_ruler
        from capspec.structure import build_system_matrix

        for pattern_set in PATTERN_SETS.values():
            for period, (base_marks, extras) in pattern_set.items():
                base = CosetPattern(period, base_marks)
                assert is_circular_sparse_ruler(base)
                assert base.size == minimal_circular_sparse_ruler(period).pattern.size
                for count in range(1, len(extras) + 1):
                    pattern = extend_pattern(base, extras, count)
                    assert build_system_matrix(pattern).identifiable


# each shipped fixture's scenario, pinned: how scenario files are read may
# change, what the fixtures describe may not
FIXTURE_CONFIGS = {
    "table2.ini": ScenarioConfig(
        period=18, samples_per_coset=170, noise_dbm=7.0,
        users=(
            UserSpec((0.655, 0.695), 38.0, (-17.0, -19.0)),
            UserSpec((0.755, 0.795), 40.0, (-20.0, -18.0)),
            UserSpec((0.055, 0.095), 34.0, (-12.0, -10.0)),
            UserSpec((0.155, 0.195), 34.0, (-16.0, -18.0)),
            UserSpec((0.205, 0.245), 32.0, (-14.0, -12.0)),
            UserSpec((0.355, 0.395), 35.0, (-18.0, -20.0)),
        ),
        pattern=CosetPattern(18, (0, 1, 4, 7, 9)), clusters=2, sensors_per_cluster=100,
        sensors_per_group=1, sync="unsynchronized", bin_mode="uncorrelated",
    ),
    "table4.ini": ScenarioConfig(
        period=18, samples_per_coset=170, noise_dbm=11.0,
        users=(
            UserSpec((0.205, 0.245), 25.0, (-12.0, -13.0, -14.0)),
            UserSpec((0.155, 0.195), 25.0, (-14.5, -13.0, -11.5)),
            UserSpec((0.105, 0.145), 25.0, (-13.5, -13.0, -12.5)),
        ),
        pattern=CosetPattern(18, (0, 1, 4, 7, 9)), clusters=3, sensors_per_cluster=30,
        sensors_per_group=1, sync="unsynchronized", bin_mode="uncorrelated",
    ),
    # the family's marks are pinned in test_patterns
    "table5.ini": ScenarioConfig(
        period=40, samples_per_coset=77, noise_dbm=7.0,
        users=(UserSpec((0.56, 0.9), 22.0, (-6.0,)), UserSpec((0.075, 0.46), 25.0, (-7.0,))),
        family=design_pair_cover_family(40, 14), clusters=1, sensors_per_cluster=1,
        sensors_per_group=25, sync="unsynchronized", bin_mode="correlated",
    ),
}


class TestScenarioFiles:
    def test_fixtures_read_as_pinned(self):
        for name, config in FIXTURE_CONFIGS.items():
            assert load_fixture(name) == config, name

    def test_explicit_family_key(self, tmp_path):
        from capspec.scenarios import load_scenario

        path = tmp_path / "cb.ini"
        path.write_text(
            "[scenario]\nperiod = 5\nsamples_per_coset = 8\nnoise_dbm = 0\n"
            "bin_mode = correlated\nsensors_per_group = 3\n"
            "family = 0,1,2 | 0,3,4 | 1,3,4 | 2,3,4\n"
            "[user.1]\nband = 0.1,0.25\npower_dbm = 10\npath_loss_db = -5\n",
            encoding="utf-8",
        )
        config = load_scenario(path)
        assert config.family.size == 4
        assert config.family.patterns[0].size == 3
        sensed = synthesize_observations(config, seed=1)
        cap = estimate_correlated_bins(sensed.sets)
        assert cap.values.size == 40


class TestVariancePatternFixtures:
    def test_equal_rate_patterns_have_distinct_ordered_nmse(self):
        # three ways to reach 9 of 18 cosets: the lag-count spread differs,
        # and the Monte Carlo error follows the closed form for each
        base = CosetPattern(18, (0, 1, 4, 7, 9))
        sigma2, tau, runs = dbm_to_linear(7.0), 20, 400
        analytical, empirical = [], []
        for extras in VARIANCE_EXTRA_PATTERNS.values():
            pattern = extend_pattern(base, extras, 4)
            assert pattern.size == 9
            closed = whitenoise_variance_closed_form(pattern, sigma2, tau)
            config = ScenarioConfig(
                period=18, samples_per_coset=170, users=(), noise_dbm=7.0,
                pattern=pattern, sensors_per_cluster=tau,
            )
            (report,) = whitenoise_variance_report([config], runs=runs, seed=88)
            assert report.relative_gap < 0.1
            analytical.append(closed / sigma2**2)
            empirical.append(report.empirical_nmse)
        assert len(set(np.round(analytical, 12))) == 3
        assert np.argsort(analytical).tolist() == np.argsort(empirical).tolist()


class TestSweepAgainstRecords:
    # The sweep reads what synthesis built over the union of its patterns'
    # marks; this reference goes the long way, through the kept spectra or
    # the records and the time-domain entry points.
    # The FFT round trip moves each value by a few ulps, so scores agree to
    # a relative 1e-12 and no closer is asked.
    RTOL = 1e-12

    def test_nmse_run_matches_the_time_domain_reference(self):
        users = (
            UserSpec(band=(0.1, 0.16), power_dbm=9.0, path_loss_db=(-2.0, -4.0)),
            UserSpec(band=(0.95, 0.02), power_dbm=6.0, path_loss_db=(-5.0, 0.0)),
        )
        base = CosetPattern(6, (0, 1, 3))
        sweep = SweepSpec(
            taus=(2, 5), sigmas_dbm=(0.0, 4.0), patterns=(base, CosetPattern(6, (0, 1, 2, 3)))
        )
        config = ScenarioConfig(
            period=6, samples_per_coset=20, users=users, noise_dbm=0.0,
            pattern=base, clusters=2, sensors_per_cluster=max(sweep.taus),
        )
        combos = [
            (p, tau, sigma)
            for p in sweep.patterns
            for tau in sweep.taus
            for sigma in sweep.sigmas_dbm
        ]
        got = _nmse_run(config, sweep, combos, 13, 1)

        # the sweep senses the union of its patterns' marks
        union = replace(config, pattern=CosetPattern(6, (0, 1, 2, 3)))
        levels = synthesize_observations(
            union, seed=(13, 1), keep_full_rate=True, noise_levels=sweep.sigmas_dbm
        )
        want = {}
        for sigma, sensed in zip(sweep.sigmas_dbm, levels):
            records = [s.full_rate for s in sensed.sets]
            for tau in sweep.taus:
                nap = average_periodograms([nyquist_ap(x[:tau]) for x in records])
                for p in sweep.patterns:
                    obs = [
                        extract_coset_observations(x[:tau], p, label=d)
                        for d, x in enumerate(records)
                    ]
                    want[p, tau, sigma] = nmse(estimate_multicluster(obs)[1], nap)
        np.testing.assert_allclose(got, [want[c] for c in combos], rtol=self.RTOL, atol=0)

    def test_shared_sweep_matches_the_per_combination_path(self):
        # the sweep takes one covariance over the union of its marks per
        # level, tau and cluster; the reference solves every (pattern, tau) on
        # its own slice, as one estimate_multicluster call.  Neither pattern
        # holds the other, the scenario's own is one of them, and the taus
        # are listed unsorted.
        users = (UserSpec(band=(0.3, 0.37), power_dbm=8.0, path_loss_db=(-1.0, -3.0)),)
        own, other = CosetPattern(6, (0, 1, 3)), CosetPattern(6, (1, 2, 4))
        sweep = SweepSpec(taus=(5, 2), sigmas_dbm=(0.0, 3.0), patterns=(own, other))
        config = ScenarioConfig(
            period=6, samples_per_coset=20, users=users, noise_dbm=0.0,
            pattern=own, clusters=2, sensors_per_cluster=max(sweep.taus),
        )
        combos = [
            (p, tau, sigma)
            for p in sweep.patterns
            for tau in sweep.taus
            for sigma in sweep.sigmas_dbm
        ]
        got = _nmse_run(config, sweep, combos, 21, 0)

        union = replace(config, pattern=CosetPattern(6, (0, 1, 2, 3, 4)))
        levels = synthesize_observations(
            union, seed=(21, 0), keep_full_rate=True, noise_levels=sweep.sigmas_dbm
        )
        want = {}
        for sigma, sensed in zip(sweep.sigmas_dbm, levels):
            for tau in sweep.taus:
                nap = np.mean([nap_values(s.spectra[:tau]) for s in sensed.sets], axis=0)
                for p in sweep.patterns:
                    obs = [
                        CosetObservationSet(
                            p,
                            s.dtft[:tau] if p == s.pattern else coset_dtft(s.spectra[:tau], p),
                            label=d,
                        )
                        for d, s in enumerate(sensed.sets)
                    ]
                    want[p, tau, sigma] = nmse(estimate_multicluster(obs)[1], nap)
        np.testing.assert_allclose(got, [want[c] for c in combos], rtol=self.RTOL, atol=0)

    def test_spectral_nap_matches_the_records_periodogram(self):
        spectra = np.random.default_rng(5).standard_normal((2, 7, 60, 2)).view(complex)[..., 0]
        for x in spectra:
            want = nyquist_ap(np.fft.ifft(x, axis=1))
            got = Periodogram(nap_values(x), NAP)
            np.testing.assert_allclose(got.values, want.values, rtol=self.RTOL, atol=0)
            assert got.values.shape == want.values.shape and got.estimator == want.estimator
