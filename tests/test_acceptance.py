"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The statistical criteria use frozen seeds; their Monte Carlo
checks compare bin-averaged statistics at 3 standard errors, bound the
per-bin 3-sigma exceedance rate by its nominal level, and cap every
individual bin at 5 standard errors (a strict all-bins-within-3-sigma
rule over thousands of bins would reject a correct implementation with
probability near one; see the per-bin z statistics asserted below).
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from capspec.analysis import (
    mc_caps,
    roc_harness,
    whitenoise_variance_closed_form,
)
from capspec.estimator import (
    CovarianceStack,
    assemble_cap,
    estimate_correlated_bins,
    ls_reconstruct_rbar,
)
from capspec.patterns import (
    CosetPattern,
    design_pair_cover_family,
    minimal_circular_sparse_ruler,
)
from capspec.runner import ExperimentManifest, SweepSpec, run_nmse_sweep
from capspec.scenarios import (
    EXPERIMENT1_EXTRA_COSETS,
    extend_pattern,
    load_fixture,
    multiband_detector,
)
from capspec.sensing import (
    ScenarioConfig,
    dbm_to_linear,
    extract_coset_observations,
)
from capspec.structure import build_modulation_matrix, build_system_matrix
from conftest import random_identifiable_pattern
from oracles import (
    analytical_gaussian_covariance,
    build_selection_matrix,
    dense_rc,
    is_circular_sparse_ruler,
)
from test_estimator import population_stack, observations_from_vectors

RULER18 = CosetPattern(18, (0, 1, 4, 7, 9))
NOISE_DBM = 7.0
MC_SEED = 1234
MC_RUNS = 1000
MC_TAUS = (20, 100)


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def whitenoise_mc():
    """Shared Monte Carlo data for the variance and unbiasedness gates."""
    caps = {}
    for tau in MC_TAUS:
        config = ScenarioConfig(
            period=18, samples_per_coset=170, users=(), noise_dbm=NOISE_DBM,
            pattern=RULER18, clusters=1, sensors_per_cluster=tau,
        )
        caps[tau] = mc_caps([config], runs=MC_RUNS, seed=MC_SEED, threads=2)[0]
    return caps


def test_criterion_1_minimal_ruler_sizes():
    """Minimum cardinalities at periods 18, 14, 10, proven by enumeration."""
    start = time.time()
    expected = {18: 5, 14: 5, 10: 4}
    for period, size in expected.items():
        result = minimal_circular_sparse_ruler(period)
        assert result.pattern.size == size, (period, result.pattern)
        assert is_circular_sparse_ruler(result.pattern)
        # exhaustive minimality proof: no smaller 0-anchored mark set works
        for smaller in range(1, size):
            for rest in itertools.combinations(range(1, period), smaller - 1):
                assert not is_circular_sparse_ruler(CosetPattern(period, (0,) + rest))
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("criterion 1", f"sizes {expected} verified minimal in {elapsed:.1f}s")


def test_criterion_2_identifiability_equivalence():
    """Gamma criterion == dense numerical rank == ruler test, all N <= 10."""
    checked = 0
    for n in range(1, 11):
        eye = np.eye(n)
        for mask in range(1, 2**n):
            marks = tuple(i for i in range(n) if mask >> i & 1)
            pattern = CosetPattern(n, marks)
            sysmat = build_system_matrix(pattern)
            by_gamma = bool(np.min(sysmat.gamma) >= 1)
            by_rank = np.linalg.matrix_rank(dense_rc(pattern)) == n
            by_ruler = is_circular_sparse_ruler(pattern)
            assert by_gamma == by_rank == by_ruler, pattern
            checked += 1
    report("criterion 2", f"{checked} patterns, zero disagreements")


def test_criterion_3_exact_recovery_uncorrelated():
    """Population-covariance pipeline recovers 100 random diagonal inputs."""
    rng = np.random.default_rng(77)
    instances = 100
    diags = rng.random((instances, 18)) * 5.0 + 0.1
    stack = population_stack(RULER18, diags)
    cap = assemble_cap(ls_reconstruct_rbar(stack))
    n_grid = 18 * instances
    want = diags.T.reshape(-1) / n_grid
    worst = float(np.max(np.abs(cap.values - want)) * n_grid)
    assert worst < 1e-10
    report("criterion 3", f"100 diagonal inputs, max abs error {worst:.2e}")


def test_criterion_4_exact_recovery_correlated():
    """Pair-cover LS recovers full Hermitian inputs; the circulant-model
    pipeline errs by more than 10 percent on the same data."""
    rng = np.random.default_rng(20240817)
    n = 8
    family = design_pair_cover_family(n, 3)
    b = build_modulation_matrix(n)
    ub_pattern = CosetPattern(n, (0, 1, 2, 4))
    c_ub = build_selection_matrix(ub_pattern)
    worst_cb, min_ub = 0.0, np.inf
    for _ in range(50):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rx = a @ a.conj().T
        rxbar = b @ rx @ b.conj().T
        truth = np.real(np.diag(rx))

        group_obs = []
        for z, pattern in enumerate(family.patterns):
            c = build_selection_matrix(pattern)
            ryz = c @ rxbar @ c.T
            w, v = np.linalg.eigh(ryz)
            vectors = (v * np.sqrt(np.clip(w, 0, None) * len(w))).T
            obs = observations_from_vectors(pattern, vectors, l_pts=1)
            obs.label = z
            group_obs.append(obs)
        cap_cb = estimate_correlated_bins(group_obs)
        worst_cb = max(worst_cb, float(np.max(np.abs(cap_cb.values * n - truth))))

        stack = CovarianceStack(
            matrices=(c_ub @ rxbar @ c_ub.T)[None], count=1, pattern=ub_pattern,
        )
        cap_ub = assemble_cap(ls_reconstruct_rbar(stack)).values * n
        min_ub = min(min_ub, float(np.linalg.norm(cap_ub - truth) / np.linalg.norm(truth)))
    assert worst_cb < 1e-10
    assert min_ub > 0.10
    report(
        "criterion 4",
        f"50 Hermitian inputs, CB max error {worst_cb:.2e}, "
        f"UB relative error always > {min_ub:.2f}",
    )


def _variance_se(caps: np.ndarray) -> np.ndarray:
    """Standard error of the per-bin sample variance via the fourth moment."""
    runs = caps.shape[0]
    dev = caps - caps.mean(axis=0)
    m4 = np.mean(dev**4, axis=0)
    s2 = np.var(caps, axis=0, ddof=1)
    return np.sqrt((m4 - (runs - 3) / (runs - 1) * s2**2) / runs)


def test_criterion_5_whitenoise_variance_match(whitenoise_mc):
    """Per-bin Monte Carlo variance against the closed form, both tau values."""
    start = time.time()
    sigma2 = dbm_to_linear(NOISE_DBM)
    details = []
    for tau in MC_TAUS:
        caps = whitenoise_mc[tau]
        closed = whitenoise_variance_closed_form(RULER18, sigma2, tau)
        per_bin = np.var(caps, axis=0, ddof=1)
        z = (per_bin - closed) / _variance_se(caps)
        agg = per_bin.mean()
        agg_se = per_bin.std(ddof=1) / np.sqrt(per_bin.size)
        agg_z = (agg - closed) / agg_se
        assert abs(agg_z) < 3.0, f"tau={tau}: aggregate z {agg_z:.2f}"
        assert np.mean(np.abs(z) > 3.0) <= 0.01, f"tau={tau}: 3-sigma rate"
        assert np.max(np.abs(z)) < 5.0, f"tau={tau}: worst bin z"
        emp_nmse = float(np.mean((caps - sigma2) ** 2) / sigma2**2)
        gap = abs(emp_nmse - closed / sigma2**2) / (closed / sigma2**2)
        assert gap < 0.10, f"tau={tau}: NMSE gap {gap:.3f}"
        details.append(
            f"tau={tau}: agg z {agg_z:+.2f}, max|z| {np.max(np.abs(z)):.2f}, "
            f"NMSE gap {100*gap:.2f}%"
        )
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("criterion 5", "; ".join(details))


def test_criterion_6_finite_grid_unbiasedness(whitenoise_mc):
    """Mean reconstructed level equals the noise power at every bin."""
    sigma2 = dbm_to_linear(NOISE_DBM)
    details = []
    for tau in MC_TAUS:
        caps = whitenoise_mc[tau]
        runs = caps.shape[0]
        means = caps.mean(axis=0)
        se = caps.std(axis=0, ddof=1) / np.sqrt(runs)
        z = (means - sigma2) / se
        agg_se = means.std(ddof=1) / np.sqrt(means.size)
        agg_z = (means.mean() - sigma2) / agg_se
        assert abs(agg_z) < 3.0, f"tau={tau}: aggregate z {agg_z:.2f}"
        assert np.mean(np.abs(z) > 3.0) <= 0.01, f"tau={tau}: 3-sigma rate"
        assert np.max(np.abs(z)) < 5.0, f"tau={tau}: worst bin z"
        details.append(f"tau={tau}: agg z {agg_z:+.2f}, max|z| {np.max(np.abs(z)):.2f}")
    report("criterion 6", "; ".join(details))


def test_criterion_7_whitenoise_covariance_reduction():
    """The Gaussian fourth-moment covariance collapses to the scaled identity."""
    l_per, tau, sigma2 = 170, 5, dbm_to_linear(NOISE_DBM)
    sigma = analytical_gaussian_covariance(
        18 * l_per * sigma2 * np.eye(18), RULER18, tau
    )
    scale = l_per**2 * sigma2**2 / tau
    deviation = float(np.max(np.abs(sigma - scale * np.eye(25))) / scale)
    assert deviation < 1e-12
    report("criterion 7", f"N=18, M=5: relative deviation {deviation:.2e}")


def test_criterion_8_reconstruction_trends(tmp_path):
    """More sensors and more cosets both strictly improve the NMSE."""
    start = time.time()
    scenario = load_fixture("table2.ini")
    base = scenario.pattern
    rich = extend_pattern(base, EXPERIMENT1_EXTRA_COSETS, 3)
    manifest = ExperimentManifest(
        kind="nmse-sweep", scenario=scenario, output=tmp_path / "trends",
        runs=200, seed=3, threads=2, keep_nap=True,
        sweep=SweepSpec(taus=(20, 100), sigmas_dbm=(7.0, 10.0), patterns=(base, rich)),
    )
    run_nmse_sweep(manifest)
    rows = (tmp_path / "trends" / "nmse.csv").read_text().splitlines()[1:]
    table = {}
    for row in rows:
        tau, rate, sigma, value = row.split(",")[:4]
        table[(int(tau), float(rate), float(sigma))] = float(value)
    rates = sorted({k[1] for k in table})
    for sigma in (7.0, 10.0):
        for rate in rates:
            assert table[(100, rate, sigma)] < table[(20, rate, sigma)], (rate, sigma)
        for tau in (20, 100):
            assert table[(tau, rates[1], sigma)] < table[(tau, rates[0], sigma)], (tau, sigma)
    elapsed = time.time() - start
    assert elapsed < 1200.0
    report(
        "criterion 8",
        f"NMSE decreasing in sensors and in compression rate at both noise "
        f"levels, 200 runs in {elapsed:.0f}s",
    )


def test_criterion_9_roc_orderings():
    """Detection quality orderings across settings and synchronization."""
    scenario = load_fixture("table4.ini")
    detector = multiband_detector()
    runs, seed = 500, 5

    def auc(tau, sigma, sync):
        config = replace(
            scenario, sensors_per_cluster=tau, noise_dbm=sigma, sync=sync
        )
        return roc_harness([config], detector, runs=runs, seed=seed, threads=2)[0].auc

    strong = auc(30, 11.0, "unsynchronized")
    weak = auc(17, 14.0, "unsynchronized")
    weak_sync = auc(17, 14.0, "synchronized")
    assert strong > weak, (strong, weak)
    assert weak > weak_sync, (weak, weak_sync)
    report(
        "criterion 9",
        f"AUC(tau=30,s=11)={strong:.4f} > AUC(tau=17,s=14)={weak:.4f} > "
        f"synchronized {weak_sync:.4f}",
    )


def test_criterion_10_aliasing_identity():
    """Coset DTFTs equal the selected modulated bin vectors, 200 signals."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for trial in range(200):
        pattern = random_identifiable_pattern(rng) if trial % 2 else RULER18
        n = pattern.period
        l_per = 170 if n == 18 else int(rng.integers(8, 40))
        x = rng.standard_normal(n * l_per) + 1j * rng.standard_normal(n * l_per)
        obs = extract_coset_observations(x, pattern)
        bins = np.fft.fft(x).reshape(n, l_per).T
        cb = build_selection_matrix(pattern) @ build_modulation_matrix(n)
        worst = max(worst, float(np.max(np.abs(obs.dtft[0].T - bins @ cb.T))))
    assert worst < 1e-9
    report("criterion 10", f"200 random signals, max abs deviation {worst:.2e}")


def test_criterion_11_byte_identical_targets(tmp_path):
    """Same manifest and seed give byte-identical CSVs for 1 and 8 workers."""
    scenario = load_fixture("table2.ini")
    scenario = replace(scenario, sensors_per_cluster=10)
    blobs = []
    for threads, name in ((1, "one"), (8, "eight")):
        manifest = ExperimentManifest(
            kind="nmse-sweep", scenario=scenario, output=tmp_path / name,
            runs=16, seed=99, threads=threads, keep_nap=True,
            sweep=SweepSpec(
                taus=(5, 10), sigmas_dbm=(7.0,), patterns=(scenario.pattern,)
            ),
        )
        run_nmse_sweep(manifest)
        blobs.append((tmp_path / name / "nmse.csv").read_bytes())
    assert blobs[0] == blobs[1]
    report("criterion 11", "nmse.csv byte-identical across 1 and 8 worker threads")
