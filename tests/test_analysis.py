import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from capspec import analysis
from capspec.analysis import (
    DetectorSpec,
    RocCurve,
    VarianceReport,
    _mc_run,
    detection_blocks,
    dispatch_runs,
    mc_caps,
    nmse,
    nyquist_ap,
    roc_from_scores,
    roc_harness,
    usable_cpus,
    whitenoise_variance_closed_form,
    whitenoise_variance_report,
)
from capspec.estimator import (
    IdentifiabilityError,
    assemble_cap,
    estimate_correlated_bins,
    ls_reconstruct_rbar,
    sample_covariance,
)
from capspec.patterns import CosetPattern, PatternFamily
from capspec.runner import SweepSpec, _nmse_run
from capspec.scenarios import EXPERIMENT1_EXTRA_COSETS, extend_pattern, load_fixture
from capspec.sensing import (
    CosetObservationSet,
    ScenarioConfig,
    UserSpec,
    coset_dtft,
    dbm_to_linear,
    synthesize_observations,
)
from capspec.structure import build_modulation_matrix, build_system_matrix
from oracles import (
    analytical_gaussian_covariance,
    build_repetition_matrix,
    dense_rc,
    per_run_roc,
    propagate_variance,
)


class TestNyquistAp:
    def test_pure_tone_level(self):
        n_grid = 240
        k0, amp = 17, 1.5
        x = amp * np.exp(2j * np.pi * k0 * np.arange(n_grid) / n_grid)
        ap = nyquist_ap(x)
        assert abs(ap.values[k0] - amp**2 * n_grid) < 1e-9
        others = np.delete(ap.values, k0)
        assert np.max(np.abs(others)) < 1e-9

    def test_zero_signal(self):
        ap = nyquist_ap(np.zeros((3, 64), complex))
        assert np.all(ap.values == 0)

    def test_white_noise_level(self, rng):
        sigma2 = 2.0
        x = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((100, 3060)) + 1j * rng.standard_normal((100, 3060))
        )
        ap = nyquist_ap(x)
        assert abs(ap.values.mean() - sigma2) / sigma2 < 0.02


class TestNmse:
    def test_identical_is_zero(self, rng):
        v = rng.random(50)
        assert nmse(v, v) == 0.0

    def test_double_is_one(self, rng):
        v = rng.random(50) + 0.1
        assert abs(nmse(2 * v, v) - 1.0) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones(5), np.zeros(5))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones(5), np.ones(6))

    @pytest.mark.parametrize("scale", [1e160, np.inf])
    def test_sums_that_are_not_finite_raise(self, scale):
        # 1e160 squared overflows float64; no RuntimeWarning escapes either way
        ref = np.array([1.0, 2.0]) * scale
        with pytest.raises(ValueError, match="not finite"):
            nmse(ref * 1.5, ref)


class TestGaussianCovariance:
    def test_white_noise_reduces_to_diagonal(self, ruler18):
        # for pure noise the covariance collapses to (L sigma^2)^2/tau * I
        n, l_per, tau = 18, 7, 4
        sigma2 = 1.7
        sigma = analytical_gaussian_covariance(
            n * l_per * sigma2 * np.eye(n), ruler18, tau
        )
        want = l_per**2 * sigma2**2 / tau * np.eye(25)
        scale = l_per**2 * sigma2**2 / tau
        assert np.max(np.abs(sigma - want)) / scale < 1e-12

    @pytest.mark.parametrize("tau", [1, 3, 10])
    def test_matches_the_sum_over_all_sensor_pairs(self, rng, tau):
        # the reference sums the fourth-moment term over all tau^2 sensor
        # pairs, the cross moments of distinct sensors being zero
        pattern = CosetPattern(6, (0, 1, 3))
        n, m_cnt = pattern.period, pattern.size
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        moments = a @ a.conj().T

        def cross(t, tp):
            return moments if t == tp else np.zeros((n, n))

        w = np.exp(2j * np.pi * np.outer(pattern.marks, np.arange(n)) / n)
        term = np.zeros((m_cnt,) * 4, dtype=complex)
        for t in range(tau):
            for tp in range(tau):
                f1 = w @ cross(t, tp) @ w.conj().T
                term += np.einsum("ma,bc->mabc", f1, f1.conj())
        want = term.transpose(2, 0, 3, 1).reshape(m_cnt**2, m_cnt**2) / (n**4 * tau**2)
        got = analytical_gaussian_covariance(moments, pattern, tau)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_tau_scaling(self, ruler18):
        moments = 18 * 5 * 1.0 * np.eye(18)
        s1 = analytical_gaussian_covariance(moments, ruler18, 2)
        s2 = analytical_gaussian_covariance(moments, ruler18, 4)
        assert np.max(np.abs(s1 - 2 * s2)) < 1e-12 * np.max(np.abs(s1))

    def test_single_bin_against_monte_carlo(self, rng):
        # empirical covariance of the sample-covariance entries, 3 sigma check
        n, tau, trials = 4, 3, 20000
        pattern = CosetPattern(n, (0, 1, 3))
        m = pattern.size
        bin_index, variance = 2, 2.0
        analytical = analytical_gaussian_covariance(
            np.diag(np.eye(n)[bin_index] * variance),
            pattern,
            tau,
        )
        marks = np.asarray(pattern.marks)
        steer = np.exp(2j * np.pi * marks * bin_index / n) / n
        entries = np.empty((trials, m * m), dtype=complex)
        for trial in range(trials):
            x = np.sqrt(variance / 2) * (
                rng.standard_normal(tau) + 1j * rng.standard_normal(tau)
            )
            y = np.outer(x, steer)                   # (tau, m)
            cov = np.einsum("tm,tn->mn", y, y.conj()) / tau
            entries[trial] = cov.T.reshape(-1)
        centered = entries - entries.mean(axis=0)
        empirical = centered.conj().T @ centered / (trials - 1)
        empirical = empirical.T  # E[d d^H] ordering to match vec . vec^H
        se = np.abs(analytical).max() * np.sqrt(8.0 / trials)
        assert np.max(np.abs(empirical - analytical)) < 3 * se


class TestPropagateVariance:
    def test_white_noise_matches_closed_form(self, ruler18):
        sigma2, tau, l_per = 2.0, 5, 7
        sysm = build_system_matrix(ruler18)
        sigma = analytical_gaussian_covariance(
            18 * l_per * sigma2 * np.eye(18), ruler18, tau
        )
        per_bin = propagate_variance(sigma, sysm, l_per)
        closed = whitenoise_variance_closed_form(ruler18, sigma2, tau)
        assert np.max(np.abs(per_bin - closed)) / closed < 1e-12

    def test_zero_covariance(self, ruler18):
        sysm = build_system_matrix(ruler18)
        out = propagate_variance(np.zeros((25, 25)), sysm, 3)
        assert np.all(out == 0)

    def test_matches_dense_chain(self, rng, ruler18):
        # independent oracle: materialized solve/expand/demodulate chain
        n, l_per = 18, 3
        sysm = build_system_matrix(ruler18)
        a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        sigma = a @ a.conj().T
        fast = propagate_variance(sigma, sysm, l_per)
        rc = dense_rc(ruler18)
        g_inv = np.linalg.inv(rc.T @ rc)
        sigma_lag = g_inv @ rc.T @ sigma @ rc @ g_inv
        b = build_modulation_matrix(n)
        t = build_repetition_matrix(n)
        k = np.kron(b.T, b.conj().T)
        sigma_x = n**4 * (k @ t @ sigma_lag @ t.T @ k.conj().T)
        dense = np.array(
            [np.real(sigma_x[n * i + i, n * i + i]) for i in range(n)]
        ) / (n * l_per) ** 2
        assert np.max(np.abs(fast - dense)) < 1e-9 * np.max(np.abs(dense))

    def test_single_bin_against_monte_carlo_cap(self):
        # Spectra with only bin i nonzero, CN(0, v) at every in-bin point and
        # sensor, aliased through C B and reconstructed.  The in-bin points are
        # independent and alike, so each bin's CAP variance is estimated from
        # runs * L samples; its standard error comes from the samples' own
        # fourth moment (2% of the variance here).  A bound of 4 standard
        # errors fails a correct variance with probability below 1e-4, while
        # a variance off by a factor of 2 misses by about 50 of them.  Every
        # other bin of a single-bin source is zero up to rounding, in both.
        pattern, bin_index, variance = CosetPattern(6, (0, 1, 3)), 2, 2.0
        n, tau, l_per, runs = pattern.period, 3, 50, 200
        moments = np.diag(np.eye(n)[bin_index] * variance)
        sigma = analytical_gaussian_covariance(moments, pattern, tau)
        analytical = propagate_variance(sigma, build_system_matrix(pattern), l_per)

        rng = np.random.default_rng(7)
        caps = np.empty((runs, n, l_per))
        for run in range(runs):
            spectra = np.zeros((tau, n, l_per), dtype=complex)
            spectra[:, bin_index] = np.sqrt(variance / 2) * (
                rng.standard_normal((tau, l_per)) + 1j * rng.standard_normal((tau, l_per))
            )
            dtft = coset_dtft(spectra.reshape(tau, -1), pattern)
            obs = CosetObservationSet(pattern=pattern, dtft=dtft)
            cap = assemble_cap(ls_reconstruct_rbar(sample_covariance(obs)))
            caps[run] = cap.values.reshape(n, l_per)
        samples = caps.transpose(1, 0, 2).reshape(n, -1)        # bin -> runs * L values
        centered = samples - samples.mean(axis=1, keepdims=True)
        empirical = np.mean(centered**2, axis=1) * samples.shape[1] / (samples.shape[1] - 1)
        stderr = np.std(centered**2, axis=1, ddof=1) / np.sqrt(samples.shape[1])

        z = (empirical[bin_index] - analytical[bin_index]) / stderr[bin_index]
        assert abs(z) < 4.0, (empirical[bin_index], analytical[bin_index], z)
        others = np.delete(np.arange(n), bin_index)
        assert np.max(np.abs(analytical[others])) < 1e-12 * analytical[bin_index]
        assert np.max(empirical[others]) < 1e-12 * analytical[bin_index]


class TestClosedForm:
    def test_full_pattern(self):
        n, sigma2, tau = 9, 3.0, 4
        closed = whitenoise_variance_closed_form(
            CosetPattern(n, tuple(range(n))), sigma2, tau
        )
        assert abs(closed - sigma2**2 / tau) < 1e-14

    def test_ruler18_value_from_independent_gamma_count(self, ruler18):
        # recount gamma by explicit pair enumeration
        counts = np.zeros(18, dtype=int)
        for a in ruler18.marks:
            for b in ruler18.marks:
                counts[(a - b) % 18] += 1
        sigma2, tau = 1.0, 1
        want = sigma2**2 / tau * np.sum(1.0 / counts)
        got = whitenoise_variance_closed_form(ruler18, sigma2, tau)
        assert abs(got - want) < 1e-14
        assert abs(got - (1 / 5 + 15.5)) < 1e-12

    def test_nonruler_is_infinite(self):
        out = whitenoise_variance_closed_form(CosetPattern(6, (0, 1, 2)), 1.0, 1)
        assert np.isinf(out)


class TestMonteCarloWhiteNoise:
    @pytest.mark.parametrize(
        "marks,n",
        [((0, 1, 3), 6), ((0, 1, 2, 4), 8), ((0, 1, 3, 7), 8)],
    )
    @pytest.mark.parametrize("tau", [8, 24])
    def test_variance_matches_theory(self, marks, n, tau):
        # 3 patterns x 2 tau values, aggregate z within 3 standard errors
        pattern = CosetPattern(n, marks)
        config = ScenarioConfig(
            period=n, samples_per_coset=12, users=(), noise_dbm=2.0,
            pattern=pattern, sensors_per_cluster=tau,
        )
        caps = mc_caps([config], runs=1200, seed=77)[0]
        sigma2 = dbm_to_linear(2.0)
        closed = whitenoise_variance_closed_form(pattern, sigma2, tau)
        per_bin = np.var(caps, axis=0, ddof=1)
        agg = per_bin.mean()
        se = per_bin.std(ddof=1) / np.sqrt(per_bin.size)
        assert abs(agg - closed) < 3 * se

    def test_variance_report_gap(self):
        pattern = CosetPattern(6, (0, 1, 3))
        config = ScenarioConfig(
            period=6, samples_per_coset=10, users=(), noise_dbm=0.0,
            pattern=pattern, sensors_per_cluster=10,
        )
        (report,) = whitenoise_variance_report([config], runs=800, seed=5)
        assert report.relative_gap < 0.1
        assert abs(report.empirical_nmse - report.analytical_nmse) / report.analytical_nmse < 0.1

    def test_variance_report_divides_by_the_clusters(self):
        # the CAP averages two independent clusters, so its variance is half the one-cluster form
        pattern = CosetPattern(6, (0, 1, 3))
        config = ScenarioConfig(
            period=6, samples_per_coset=20, users=(), noise_dbm=0.0,
            pattern=pattern, clusters=2, sensors_per_cluster=5,
        )
        (report,) = whitenoise_variance_report([config], runs=400, seed=23)
        assert report.analytical_variance == whitenoise_variance_closed_form(pattern, 1.0, 5) / 2
        assert report.relative_gap < 0.1
        assert abs(report.empirical_nmse - report.analytical_nmse) / report.analytical_nmse < 0.1

    def test_empirical_nmse_does_not_depend_on_the_noise_level(self):
        # at sigma2 = 100 every CAP value is 100 times that at sigma2 = 1, up to
        # rounding, so the error over sigma^4 stays
        config = ScenarioConfig(
            period=6, samples_per_coset=10, users=(), noise_dbm=0.0,
            pattern=CosetPattern(6, (0, 1, 3)), sensors_per_cluster=4,
        )
        (unit,) = whitenoise_variance_report([config], runs=20, seed=3)
        (loud,) = whitenoise_variance_report([replace(config, noise_dbm=20.0)], runs=20, seed=3)
        assert loud.empirical_nmse == pytest.approx(unit.empirical_nmse, rel=1e-9)
        assert loud.analytical_nmse == pytest.approx(unit.analytical_nmse, rel=1e-12)

    def test_relative_gap_counts_a_shortfall_as_an_excess(self):
        def report(empirical):
            return VarianceReport(analytical_variance=2.0, analytical_nmse=2.0,
                                  empirical_by_theta=np.full(4, empirical), empirical_nmse=0.0)
        assert report(1.0).relative_gap == 0.5
        assert report(3.0).relative_gap == 0.5

    def test_report_rejects_user_scenarios(self, ruler18):
        from capspec.sensing import UserSpec

        user = UserSpec(band=(0.1, 0.15), power_dbm=0.0, path_loss_db=(0.0,))
        config = ScenarioConfig(
            period=18, samples_per_coset=10, users=(user,), noise_dbm=0.0,
            pattern=ruler18, sensors_per_cluster=4,
        )
        with pytest.raises(ValueError):
            whitenoise_variance_report([config], runs=2, seed=0)


    def test_mixed_configs_match_each_config_alone(self):
        # pattern, sync, tau and level all vary; -inf levels share a synthesis with finite ones
        base = ScenarioConfig(
            period=6, samples_per_coset=10, noise_dbm=0.0, pattern=CosetPattern(6, (0, 1, 3)),
            users=(UserSpec(band=(0.2, 0.3), power_dbm=14.0, path_loss_db=(-3.0, -6.0)),),
            clusters=2, sensors_per_cluster=4,
        )
        other = CosetPattern(6, (0, 1, 4))
        configs = [
            base,
            replace(base, pattern=other, sensors_per_cluster=5, noise_dbm=-math.inf),
            replace(base, sensors_per_cluster=2, noise_dbm=-math.inf),
            replace(base, sync="synchronized", sensors_per_cluster=3, noise_dbm=3.0),
            replace(base, pattern=other, sensors_per_cluster=3),
            replace(base, sync="synchronized", sensors_per_cluster=5, noise_dbm=-math.inf),
        ]
        alone = [mc_caps([config], runs=3, seed=11)[0].tobytes() for config in configs]
        for threads in (1, 2):
            together = mc_caps(configs, runs=3, seed=11, threads=threads)
            assert [caps.tobytes() for caps in together] == alone
        correlated = replace(
            base, bin_mode="correlated", sensors_per_group=2,
            family=PatternFamily(6, (CosetPattern(6, (0, 1, 3)),)),
        )
        with pytest.raises(ValueError, match="uncorrelated-bins"):
            mc_caps([base, correlated], runs=2, seed=0)

    def test_sweep_rows_match_each_tau_alone(self):
        # each (pattern, tau, level) NMSE of an nmse-sweep run is the one its tau gives alone
        table2 = load_fixture("table2.ini")
        patterns = (table2.pattern, extend_pattern(table2.pattern, EXPERIMENT1_EXTRA_COSETS, 3))

        def scores(taus, run):
            sweep = SweepSpec(taus=taus, sigmas_dbm=(7.0, 10.0), patterns=patterns)
            combos = [(p, tau, sigma) for p in sweep.patterns for tau in sweep.taus
                      for sigma in sweep.sigmas_dbm]
            return dict(zip(combos, _nmse_run(table2, sweep, combos, 7, run)))

        for run in range(2):
            both = scores((20, 100), run)
            for tau in (20, 100):
                alone = scores((tau,), run)
                assert {combo: both[combo] for combo in alone} == alone, (run, tau)


def _slow_square(run):
    # later runs finish first, so results arrive out of run order
    time.sleep(0.02 * (6 - run))
    return run * run


def _pid(run):
    time.sleep(0.02)
    return os.getpid()


def _fail_first(marks, run):
    (marks / str(run)).touch()
    if run == 0:
        raise ValueError("run 0 failed")
    time.sleep(0.2)


def _threads_after(fn, *args):
    fn(*args)
    return len(os.listdir("/proc/self/task"))


def _correlated_bins_cap(config, seed, run):
    estimate_correlated_bins(synthesize_observations(config, seed=(seed, run)).sets)


def _noise_covariance(config, seed, run):
    sample_covariance(synthesize_observations(config, seed=(seed, run)).sets[0])


def _long_grid_dtft(run):
    # 5 x 18 x 8000 multiply-adds per sensor would be split unchunked
    coset_dtft(np.ones((3, 18 * 8000), dtype=complex), CosetPattern(18, (0, 1, 4, 7, 9)))


def _exit_in_worker(caller, run):
    if os.getpid() != caller:
        os._exit(1)
    return run


def _nested_pids(run):
    pids = dispatch_runs(_pid, 2, 2)
    # leave this worker as it was: one thread, no children
    analysis._close_pool()
    return os.getpid(), pids


two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="runs stay in the caller on one CPU")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="reads /proc/self/task; OpenBLAS starts no helper on one CPU",
)
class TestWorkerThreads:
    # A worker of ``dispatch_runs`` starts with one thread and serves every
    # later run.  A BLAS product large enough for OpenBLAS to split would
    # start its helper thread, which then spins on a core the other worker
    # needs; no step of a CAP-UB run or of a CAP-CB solve may make one.
    def test_a_worker_run_starts_no_blas_thread(self):
        table2 = replace(load_fixture("table2.ini"), sensors_per_cluster=2)
        table5 = replace(load_fixture("table5.ini"), sensors_per_group=2)
        cap_ub = dispatch_runs(partial(_threads_after, _mc_run, (table2,), 11), 2, 2)
        assert cap_ub == [1, 1]
        cap_cb = dispatch_runs(partial(_threads_after, _correlated_bins_cap, table5, 11), 2, 2)
        assert cap_cb == [1, 1]

    def test_a_full_size_sweep_run_starts_no_blas_thread(self):
        table2 = load_fixture("table2.ini")
        rich = extend_pattern(table2.pattern, EXPERIMENT1_EXTRA_COSETS, 3)
        sweep = SweepSpec(taus=(20, 100), sigmas_dbm=(7.0, 10.0), patterns=(table2.pattern, rich))
        config = replace(table2, sensors_per_cluster=100)
        combos = [(p, tau, sigma) for p in sweep.patterns for tau in sweep.taus
                  for sigma in sweep.sigmas_dbm]
        run = partial(_threads_after, _nmse_run, config, sweep, combos, 11)
        assert dispatch_runs(run, 2, 2) == [1, 1]

    def test_large_products_start_no_blas_thread(self):
        # 18 x 18 x 400 multiply-adds per point would be split unchunked
        config = ScenarioConfig(
            period=18, samples_per_coset=20, users=(), noise_dbm=0.0,
            pattern=CosetPattern(18, tuple(range(18))), sensors_per_cluster=400,
        )
        assert dispatch_runs(partial(_threads_after, _noise_covariance, config, 11), 2, 2) == [1, 1]
        assert dispatch_runs(partial(_threads_after, _long_grid_dtft), 2, 2) == [1, 1]


class TestDispatchRuns:
    def test_results_in_run_order_with_more_runs_than_workers(self):
        assert dispatch_runs(_slow_square, 6, 2) == [run * run for run in range(6)]

    @pytest.mark.parametrize("workers,runs", [(2, 6), (8, 5), (3, 2), (4, 1)])
    def test_worker_processes_capped(self, workers, runs):
        pids = dispatch_runs(_pid, runs, workers)
        assert len(pids) == runs
        cap = min(workers, runs, usable_cpus())
        assert len(set(pids)) <= cap
        if cap > 1:
            assert os.getpid() not in pids

    def test_one_worker_runs_in_the_caller(self):
        assert set(dispatch_runs(_pid, 3, 1)) == {os.getpid()}

    def test_runs_where_the_platform_has_no_cpu_affinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for workers in (1, 2):
            assert dispatch_runs(_slow_square, 4, workers) == [run * run for run in range(4)]

    def test_first_error_drops_the_runs_not_started(self, tmp_path):
        with pytest.raises(ValueError, match="run 0 failed"):
            dispatch_runs(partial(_fail_first, tmp_path), 40, 2)
        # the runs already handed to a worker may still finish
        assert len(list(tmp_path.iterdir())) < 10

    def test_later_calls_reuse_the_workers(self):
        first, second = dispatch_runs(_pid, 4, 2), dispatch_runs(_pid, 4, 2)
        assert len(set(first) | set(second)) <= min(2, usable_cpus())

    @two_cpus
    def test_a_dead_worker_fails_its_call_and_the_next_call_recovers(self):
        from concurrent.futures.process import BrokenProcessPool

        before = set(dispatch_runs(_pid, 4, 2))
        with pytest.raises(BrokenProcessPool):
            dispatch_runs(partial(_exit_in_worker, os.getpid()), 2, 2)
        after = set(dispatch_runs(_pid, 4, 2))
        assert os.getpid() not in after and not after & before

    @two_cpus
    def test_a_worker_never_uses_its_parents_pool(self):
        outer = dispatch_runs(_nested_pids, 2, 2)
        outer_pids = {pid for pid, _ in outer}
        inner_pids = {pid for _, pids in outer for pid in pids}
        assert not inner_pids & (outer_pids | {os.getpid()})

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
        reason="reads /proc; runs stay in the caller on one CPU",
    )
    def test_the_workers_exit_with_their_process(self):
        # sys holds the module into the last stage of interpreter teardown,
        # as a test runner's references do; the pool must be gone by then
        code = (
            "import os, sys, time\n"
            "from capspec import analysis\n"
            "from capspec.analysis import dispatch_runs\n"
            "sys.analysis = analysis\n"
            "def pid(run):\n"
            "    time.sleep(0.05)\n"
            "    return os.getpid()\n"
            "print(*set(dispatch_runs(pid, 4, 2)))\n"
        )
        src = str(Path(analysis.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0 and done.stderr == ""
        pids = done.stdout.split()
        assert pids and not any(Path(f"/proc/{pid}").exists() for pid in pids)

    def test_worker_errors_reach_the_caller_intact(self):
        config = ScenarioConfig(
            period=6, samples_per_coset=10, users=(), noise_dbm=0.0,
            pattern=CosetPattern(6, (0, 1, 2)), sensors_per_cluster=2,
        )
        with pytest.raises(IdentifiabilityError, match="circular sparse ruler") as err:
            mc_caps([config], runs=2, seed=0, threads=2)
        assert err.value.missing == (3,)


class TestDetection:
    def test_blocks_from_bands(self):
        spec = DetectorSpec(
            active_bands=((0.105, 0.145), (0.155, 0.195), (0.205, 0.245)),
            quiet_bands=((0.615, 0.735),),
            avg_width=11,
            points_per_band=121,
            quiet_points=363,
        )
        active, quiet = detection_blocks(spec, 3060)
        assert active.shape == (33, 11)
        assert quiet.shape == (33, 11)
        assert active.size == 363 and quiet.size == 363
        # every index lies inside its band
        theta = active.reshape(-1) / 3060
        assert theta.min() >= 0.105 and theta.max() <= 0.245

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError):
            DetectorSpec(
                active_bands=((0.1, 0.2),),
                quiet_bands=((0.15, 0.3),),
            )

    def test_wrapped_active_band_yields_full_blocks(self):
        spec = DetectorSpec(
            active_bands=((0.9, 0.1),), quiet_bands=((0.4, 0.6),), avg_width=4
        )
        active, quiet = detection_blocks(spec, 100)
        assert active.shape == (5, 4) and quiet.shape == (5, 4)
        assert active.ravel().tolist() == list(range(90, 100)) + list(range(10))

    def test_edge_on_grid_point_excludes_hi(self):
        spec = DetectorSpec(
            active_bands=((0.2, 0.3),), quiet_bands=((0.5, 0.6),), avg_width=1
        )
        active, quiet = detection_blocks(spec, 100)
        assert active.ravel().tolist() == list(range(20, 30))
        assert quiet.ravel().tolist() == list(range(50, 60))

    def test_wrapped_band_overlapping_quiet_band_rejected(self):
        with pytest.raises(ValueError):
            DetectorSpec(active_bands=((0.9, 0.1),), quiet_bands=((0.05, 0.2),))
        with pytest.raises(ValueError):
            DetectorSpec(active_bands=((0.3, 0.4),), quiet_bands=((0.95, 0.35),))

    def test_bands_that_only_touch_are_accepted(self):
        DetectorSpec(active_bands=((0.1, 0.2),), quiet_bands=((0.2, 0.3), (0.0, 0.1)))
        # a band that wraps around 1 touches its neighbours at both ends
        DetectorSpec(active_bands=((0.9, 0.1),), quiet_bands=((0.1, 0.2), (0.5, 0.9)))
        DetectorSpec(active_bands=((0.3, 0.4),), quiet_bands=((0.4, 0.3),))

    def test_roc_is_monotone_with_endpoints(self, rng):
        curve = roc_from_scores(rng.random(500) + 0.3, rng.random(500))
        assert np.all(np.diff(curve.pd) <= 0)
        assert np.all(np.diff(curve.pfa) <= 0)
        assert curve.pd[0] == 1.0 and curve.pfa[0] == 1.0
        assert curve.pd[-1] == 0.0 and curve.pfa[-1] == 0.0
        assert 0.5 < curve.auc <= 1.0

    def test_roc_matches_threshold_loop_with_ties(self, rng):
        # the one-pass-per-threshold loop roc_from_scores had before it sorted
        active = np.round(rng.random((40, 7)) * 20) + 3
        quiet = np.round(rng.random((40, 5)) * 20)
        thresholds = np.unique(np.concatenate([active.ravel(), quiet.ravel()]))
        pd = np.array([np.mean(active > t) for t in thresholds])
        pfa = np.array([np.mean(quiet > t) for t in thresholds])
        curve = roc_from_scores(active, quiet)
        assert thresholds.size < active.size + quiet.size  # there are ties
        assert np.array_equal(curve.thresholds, np.concatenate(([-np.inf], thresholds)))
        assert np.array_equal(curve.pd, np.concatenate(([1.0], pd)))
        assert np.array_equal(curve.pfa, np.concatenate(([1.0], pfa)))

    def test_auc_takes_tied_points_in_curve_order(self):
        # groups of 17, 33 and 65 tied pfa values, long enough that numpy's
        # default sort reorders them; in curve order the trapezoid runs
        # (0, 0) -> (0.25, 0.35), down to (0.25, 0.1) -> (0.5, 0.65), down to
        # (0.5, 0.4) -> (0.75, 0.95), down to (0.75, 0.7) -> (1, 1)
        groups = ((0.75, 0.95, 0.7, 17), (0.5, 0.65, 0.4, 33), (0.25, 0.35, 0.1, 65))
        pfa = np.concatenate([[1.0], *(np.full(k, p) for p, _, _, k in groups), [0.0]])
        pd = np.concatenate([[1.0], *(np.linspace(hi, lo, k) for _, hi, lo, k in groups), [0.0]])
        curve = RocCurve(thresholds=np.arange(pfa.size, dtype=float), pfa=pfa, pd=pd)
        assert curve.auc == pytest.approx(0.125 * (0.35 + 0.75 + 1.35 + 1.7), abs=1e-12)

    def test_noise_only_auc_is_chance(self):
        pattern = CosetPattern(6, (0, 1, 3))
        config = ScenarioConfig(
            period=6, samples_per_coset=30, users=(), noise_dbm=0.0,
            pattern=pattern, sensors_per_cluster=6,
        )
        detector = DetectorSpec(
            active_bands=((0.1, 0.3),),
            quiet_bands=((0.6, 0.8),),
            avg_width=4,
        )
        (curve,) = roc_harness([config], detector, runs=1000, seed=321)
        assert abs(curve.auc - 0.5) < 0.05

    def test_harness_matches_per_run_reference(self):
        # 11-point blocks are long enough for numpy's pairwise summation
        config = ScenarioConfig(
            period=6, samples_per_coset=30, users=(), noise_dbm=0.0,
            pattern=CosetPattern(6, (0, 1, 3)), sensors_per_cluster=3,
        )
        detector = DetectorSpec(
            active_bands=((0.1, 0.35),), quiet_bands=((0.6, 0.85),), avg_width=11
        )
        want = per_run_roc(config, detector, runs=5, seed=8)
        (got,) = roc_harness([config], detector, runs=5, seed=8, threads=2)
        for field in ("thresholds", "pfa", "pd"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
