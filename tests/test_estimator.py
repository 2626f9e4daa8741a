import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capspec.estimator import (
    CovarianceStack,
    IdentifiabilityError,
    assemble_cap,
    covariance_means,
    estimate_correlated_bins,
    estimate_multicluster,
    ls_reconstruct_rbar,
    sample_covariance,
)
from capspec.patterns import CosetPattern, design_pair_cover_family
from capspec.sensing import (
    BLAS_SPLIT_SIZE,
    CosetObservationSet,
    ScenarioConfig,
    synthesize_observations,
)
from capspec.structure import build_modulation_matrix
from conftest import random_identifiable_pattern
from oracles import build_repetition_matrix, build_selection_matrix, dense_psi, dense_rc


def population_stack(pattern, rx_diags):
    """Exact coset covariances for diagonal bin covariances, one per point."""
    n = pattern.period
    b = build_modulation_matrix(n)
    c = build_selection_matrix(pattern)
    mats = np.array([c @ (b @ np.diag(d) @ b.conj().T) @ c.T for d in rx_diags])
    return CovarianceStack(matrices=mats, count=1, pattern=pattern)


def observations_from_vectors(pattern, vectors, l_pts=4):
    """Constant-in-theta DTFT snapshots with prescribed sensor vectors."""
    dtft = np.repeat(np.asarray(vectors)[:, :, None], l_pts, axis=2)
    return CosetObservationSet(pattern=pattern, dtft=dtft)


def random_observations(rng, pattern, tau=6, l_pts=5):
    m = pattern.size
    dtft = rng.standard_normal((tau, m, l_pts)) + 1j * rng.standard_normal((tau, m, l_pts))
    return CosetObservationSet(pattern=pattern, dtft=dtft)


class TestSampleCovariance:
    def test_single_sensor_rank_one(self, rng, ruler18):
        obs = random_observations(rng, ruler18, tau=1)
        stack = sample_covariance(obs)
        y = obs.dtft[0, :, 0]
        assert np.allclose(stack.matrices[0], np.outer(y, y.conj()))
        assert abs(np.trace(stack.matrices[0]) - np.sum(np.abs(y) ** 2)) < 1e-12

    def test_constant_vectors_give_exact_outer_product(self, ruler18):
        v = np.arange(1, 6) + 1j * np.arange(5)
        obs = observations_from_vectors(ruler18, [v, v, v])
        stack = sample_covariance(obs)
        assert np.allclose(stack.matrices, np.outer(v, v.conj()), atol=1e-13)

    def test_empty_rejected(self, ruler18):
        obs = CosetObservationSet(pattern=ruler18, dtft=np.empty((0, 5, 3), complex))
        with pytest.raises(ValueError):
            sample_covariance(obs)

    def test_hermitian_and_psd(self, rng, ruler18):
        stack = sample_covariance(random_observations(rng, ruler18, tau=8))
        m = stack.matrices
        assert np.max(np.abs(m - m.conj().transpose(0, 2, 1))) < 1e-12
        assert np.min(np.linalg.eigvalsh(m)) > -1e-10


def check_covariance_means(dtft, stops):
    """Each stop's mean against the einsum mean of y y^H over its first
    ``stop`` sensors; a call at the last stop alone against ``sample_covariance``."""
    means = covariance_means(dtft, stops)
    assert len(means) == len(stops)
    for stop, got in zip(stops, means):
        want = np.einsum("tml,tnl->lmn", dtft[:stop], dtft[:stop].conj()) / stop
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    pattern = CosetPattern(dtft.shape[1], tuple(range(dtft.shape[1])))
    alone = covariance_means(dtft, stops[-1:])[0]
    stack = sample_covariance(CosetObservationSet(pattern, dtft[: stops[-1]]))
    assert np.array_equal(alone, stack.matrices)


class TestCovarianceMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        l_pts=st.integers(1, 4),
        stops=st.sets(st.integers(1, 12), min_size=1, max_size=4).map(sorted),
    )
    def test_each_stop_is_the_mean_of_its_prefix(self, seed, m, l_pts, stops):
        rng = np.random.default_rng(seed)
        check_covariance_means(crandn(rng, stops[-1] + 2, m, l_pts), stops)

    def test_stops_past_one_blas_chunk(self, rng):
        # a chunk holds 2621 sensors at M = 5, so the sensors from 7 on take two
        chunk = (BLAS_SPLIT_SIZE - 1) // 25
        check_covariance_means(crandn(rng, chunk + 40, 5, 2), [7, chunk + 31])


class TestLsReconstruction:
    def test_exact_recovery_from_population_covariance(self, rng, ruler18):
        diags = rng.random((20, 18)) * 4.0
        stack = population_stack(ruler18, diags)
        rbar = ls_reconstruct_rbar(stack)
        b = build_modulation_matrix(18)
        for l, d in enumerate(diags):
            rxbar = b @ np.diag(d) @ b.conj().T
            assert np.max(np.abs(rbar[l] - rxbar[:, 0])) < 1e-10

    def test_full_pattern_is_modular_diagonal_mean(self, rng):
        n = 6
        pattern = CosetPattern(n, tuple(range(n)))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = (a + a.conj().T) / 2
        stack = CovarianceStack(matrices=herm[None], count=1, pattern=pattern)
        rbar = ls_reconstruct_rbar(stack)[0]
        for k in range(n):
            entries = [herm[r, c] for r in range(n) for c in range(n) if (r - c) % n == k]
            assert abs(rbar[k] - np.mean(entries)) < 1e-12

    def test_zero_input_zero_output(self, ruler18):
        stack = CovarianceStack(
            matrices=np.zeros((2, 5, 5), complex),
            count=1,
            pattern=ruler18,
        )
        out = ls_reconstruct_rbar(stack)
        assert np.all(out == 0)

    def test_fast_path_equals_dense_pseudoinverse(self, rng):
        for _ in range(50):
            pattern = random_identifiable_pattern(rng)
            m = pattern.size
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            herm = (a + a.conj().T) / 2
            stack = CovarianceStack(matrices=herm[None], count=1, pattern=pattern)
            fast = ls_reconstruct_rbar(stack)[0]
            dense = np.linalg.pinv(dense_rc(pattern)) @ herm.T.reshape(-1)
            assert np.max(np.abs(fast - dense)) < 1e-10

    def test_nonidentifiable_pattern_names_missing_lags(self):
        pattern = CosetPattern(6, (0, 1, 2))
        stack = CovarianceStack(
            matrices=np.zeros((1, 3, 3), complex),
            count=1,
            pattern=pattern,
        )
        with pytest.raises(IdentifiabilityError) as err:
            ls_reconstruct_rbar(stack)
        assert err.value.missing == (3,)
        assert "3" in str(err.value)


class TestAssembleCap:
    def test_lag_zero_only_is_flat(self, ruler18):
        l_pts = 10
        values = np.zeros((l_pts, 18), complex)
        values[:, 0] = 2.5
        cap = assemble_cap(values)
        assert np.allclose(cap.values, 2.5 / l_pts, atol=1e-13)

    def test_end_to_end_exact_recovery(self, rng, ruler18):
        # population covariances in, diag(Rx)/grid out, to numerical precision
        l_pts = 6
        diags = rng.random((l_pts, 18)) + 0.5
        stack = population_stack(ruler18, diags)
        cap = assemble_cap(ls_reconstruct_rbar(stack))
        n_grid = 18 * l_pts
        want = diags.T.reshape(-1) / n_grid
        assert np.max(np.abs(cap.values - want)) < 1e-10
        assert cap.max_imag_ratio < 1e-9

    def test_realness_on_sample_covariances(self, rng, ruler18):
        obs = random_observations(rng, ruler18, tau=7, l_pts=9)
        cap = assemble_cap(ls_reconstruct_rbar(sample_covariance(obs)))
        assert cap.max_imag_ratio < 1e-9

    def test_matches_dense_modulation_chain(self, rng, ruler18):
        # oracle: expand lags to the circulant, demodulate densely, read the
        # diagonal; the transform shortcut must agree
        n, l_pts = 18, 4
        lags = np.empty((l_pts, n), dtype=complex)
        lags[:, 0] = rng.random(l_pts)
        for k in range(1, n // 2 + 1):
            if k == n - k:
                lags[:, k] = rng.standard_normal(l_pts)  # mid lag must be real
            else:
                lags[:, k] = rng.standard_normal(l_pts) + 1j * rng.standard_normal(l_pts)
                lags[:, n - k] = lags[:, k].conj()
        cap = assemble_cap(lags)
        b = build_modulation_matrix(n)
        t = build_repetition_matrix(n)
        n_grid = n * l_pts
        for l in range(l_pts):
            rxbar = (t @ lags[l]).reshape(n, n, order="F")
            diag = np.diag(n**2 * b.conj().T @ rxbar @ b) / n_grid
            got = cap.values[np.arange(n) * l_pts + l]
            assert np.max(np.abs(got - diag.real)) < 1e-12
            assert np.max(np.abs(diag.imag)) < 1e-12

    def test_exact_hermitian_input_gives_conjugate_lags(self, rng, ruler18):
        stack = sample_covariance(random_observations(rng, ruler18, tau=4))
        rbar = ls_reconstruct_rbar(stack)
        n = 18
        for k in range(n):
            assert np.max(np.abs(rbar[:, k] - rbar[:, (n - k) % n].conj())) < 1e-12


class TestMulticluster:
    def test_single_cluster_matches_plain_pipeline(self, rng, ruler18):
        obs = random_observations(rng, ruler18, tau=5)
        caps, averaged = estimate_multicluster([obs])
        direct = assemble_cap(ls_reconstruct_rbar(sample_covariance(obs)))
        assert np.array_equal(caps[0].values, direct.values)
        assert np.array_equal(averaged.values, direct.values)

    def test_average_commutes_with_assembly(self, rng, ruler18):
        obs = [random_observations(rng, ruler18, tau=5) for _ in range(3)]
        caps, averaged = estimate_multicluster(obs)
        # averaging lag vectors then assembling equals averaging the caps
        stacks = [ls_reconstruct_rbar(sample_covariance(o)) for o in obs]
        mean_lags = np.mean(stacks, axis=0)
        alt = assemble_cap(mean_lags)
        assert np.max(np.abs(alt.values - averaged.values)) < 1e-12

    def test_cluster_averaging_reduces_variance(self, ruler18):
        config = ScenarioConfig(
            period=18, samples_per_coset=10, users=(), noise_dbm=0.0,
            pattern=ruler18, clusters=2, sensors_per_cluster=10,
        )
        single, averaged = [], []
        for run in range(120):
            sensed = synthesize_observations(config, seed=(31, run))
            caps, avg = estimate_multicluster(sensed.sets)
            single.append(caps[0].values)
            averaged.append(avg.values)
        var_single = np.var(np.array(single), axis=0).mean()
        var_avg = np.var(np.array(averaged), axis=0).mean()
        assert var_avg < 0.75 * var_single

    def test_empty_and_mismatched_rejected(self, rng, ruler18):
        with pytest.raises(ValueError):
            estimate_multicluster([])
        other = CosetPattern(18, (0, 2, 3, 7, 8))
        with pytest.raises(ValueError):
            estimate_multicluster(
                [random_observations(rng, ruler18), random_observations(rng, other)]
            )


class TestCorrelatedBins:
    def family_observations(self, family, rxbar, sensors=None, l_pts=3):
        """Snapshots whose per-group sample covariances equal Cz Rxbar Cz^T."""
        obs = []
        for z, pattern in enumerate(family.patterns):
            c = build_selection_matrix(pattern)
            ryz = c @ rxbar @ c.T
            w, v = np.linalg.eigh(ryz)
            w = np.clip(w, 0.0, None)
            p = len(w)
            vectors = (v * np.sqrt(w * p)).T
            o = observations_from_vectors(pattern, vectors, l_pts=l_pts)
            o.label = z
            obs.append(o)
        return obs

    def test_exact_recovery_full_hermitian(self, rng):
        n = 8
        family = design_pair_cover_family(n, 3)
        b = build_modulation_matrix(n)
        for _ in range(10):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rx = a @ a.conj().T
            obs = self.family_observations(family, b @ rx @ b.conj().T)
            cap = estimate_correlated_bins(obs)
            l_pts = 3
            want = np.repeat(np.real(np.diag(rx)), l_pts) / (n * l_pts)
            assert np.max(np.abs(cap.values - want)) < 1e-10

    def test_single_full_group_matches_direct_inversion(self, rng):
        n = 5
        from capspec.patterns import PatternFamily

        family = PatternFamily(n, (CosetPattern(n, tuple(range(n))),))
        b = build_modulation_matrix(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rx = a @ a.conj().T
        obs = self.family_observations(family, b @ rx @ b.conj().T, l_pts=2)
        cap = estimate_correlated_bins(obs)
        want = np.repeat(np.real(np.diag(rx)), 2) / (n * 2)
        assert np.max(np.abs(cap.values - want)) < 1e-10

    def test_single_full_group_equals_cap_ub(self, rng):
        # with every coset observed, both designs average each modular
        # diagonal of the same matrix, circulant or not
        pattern = CosetPattern(7, tuple(range(7)))
        obs = random_observations(rng, pattern, tau=4, l_pts=6)
        cb = estimate_correlated_bins([obs])
        ub = assemble_cap(ls_reconstruct_rbar(sample_covariance(obs)))
        scale = np.max(np.abs(ub.values))
        assert np.max(np.abs(cb.values - ub.values)) < 1e-12 * scale
        assert cb.estimator == "CAP-CB" and ub.estimator == "CAP-UB"

    def test_uncovered_pair_is_reported(self, rng):
        from capspec.patterns import PatternFamily

        family = PatternFamily(5, (CosetPattern(5, (0, 1, 2)),))
        obs = [random_observations(rng, family.patterns[0], tau=3, l_pts=2)]
        with pytest.raises(IdentifiabilityError) as err:
            estimate_correlated_bins(obs)
        assert (3, 4) in err.value.missing


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestProperties:
    """Exactness and linearity of the LS pipeline on random designs."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), l_pts=st.integers(1, 4))
    def test_cap_ub_recovers_circulant_lags(self, seed, l_pts):
        rng = np.random.default_rng(seed)
        pattern = random_identifiable_pattern(rng)
        n = pattern.period
        lags = crandn(rng, l_pts, n)
        c = build_selection_matrix(pattern)
        diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
        mats = np.array([c @ lag[diff] @ c.T for lag in lags])
        stack = CovarianceStack(matrices=mats, count=1, pattern=pattern)
        got = ls_reconstruct_rbar(stack)
        pinv = np.linalg.pinv(dense_rc(pattern))
        dense = np.array([pinv @ m.T.reshape(-1) for m in mats])
        scale = np.max(np.abs(lags))
        assert np.max(np.abs(got - lags)) < 1e-12 * scale
        assert np.max(np.abs(got - dense)) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 9),
        m_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        l_pts=st.integers(1, 3),
    )
    def test_cap_cb_recovers_bin_covariance(self, n, m_frac, seed, l_pts):
        rng = np.random.default_rng(seed)
        family = design_pair_cover_family(n, 2 + round(m_frac * (n - 2)))
        b = build_modulation_matrix(n)
        # n sensors per group: sample covariance C_z B Rx B^H C_z^T exactly
        a = crandn(rng, l_pts, n, n)
        rx = a @ a.conj().transpose(0, 2, 1) / n
        obs = []
        for pattern in family.patterns:
            y = build_selection_matrix(pattern) @ b @ a     # (L, M, n)
            obs.append(CosetObservationSet(pattern=pattern, dtft=y.transpose(2, 1, 0)))
        cap = estimate_correlated_bins(obs)
        want = np.real(np.diagonal(rx, axis1=1, axis2=2)).T.reshape(-1) / (n * l_pts)
        # dense oracle: LS through pinv(Psi), then each modular diagonal's mean
        vec = np.concatenate(
            [sample_covariance(o).matrices.transpose(0, 2, 1).reshape(l_pts, -1) for o in obs],
            axis=1,
        )
        lags = vec @ np.linalg.pinv(dense_psi(family)).T @ build_repetition_matrix(n) / n
        scale = np.max(np.abs(want))
        assert np.max(np.abs(cap.values - want)) < 1e-10 * scale
        assert np.max(np.abs(cap.values - assemble_cap(lags).values)) < 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l_pts=st.integers(1, 4),
        hundredths=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    )
    def test_pipeline_is_linear_in_the_covariance_stack(self, seed, l_pts, hundredths):
        rng = np.random.default_rng(seed)
        pattern = random_identifiable_pattern(rng)
        m = pattern.size

        def cap(mats):
            stack = CovarianceStack(matrices=mats, count=1, pattern=pattern)
            return assemble_cap(ls_reconstruct_rbar(stack)).values

        s1, s2 = crandn(rng, l_pts, m, m), crandn(rng, l_pts, m, m)
        a, b = hundredths[0] / 100, hundredths[1] / 100
        got = cap(a * s1 + b * s2)
        want = a * cap(s1) + b * cap(s2)
        scale = (abs(a) + abs(b)) * max(np.max(np.abs(s1)), np.max(np.abs(s2)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
