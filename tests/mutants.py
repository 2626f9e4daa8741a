"""Planted one-line defects, and which of them the tests catch.

Each entry of ``MUTANTS`` is a name and (file, old text, new text); the
old text occurs exactly once in its file.  For each mutant, the script
copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(which the tests read) into a temporary directory, applies the change
there, and runs pytest on ``tests/`` without ``tests/test_golden.py``,
one pytest process at a time.  A mutant survives when that run passes.
The unchanged copy runs first, so that a suite that already fails kills
no mutant.

    python tests/mutants.py      # about 45 s per mutant

It prints the tests that fail on each mutant, then the survivors, and
exits 1 if any survive.  pytest does not collect this file, and it is
not part of the tier-1 run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ANALYSIS = "src/capspec/analysis.py"
ESTIMATOR = "src/capspec/estimator.py"
RUNNER = "src/capspec/runner.py"
SENSING = "src/capspec/sensing.py"
STRUCTURE = "src/capspec/structure.py"

MUTANTS = {
    "roc ties counted on the left": (
        ANALYSIS, 'thresholds, side="right")', 'thresholds, side="left")'),
    "nmse over the estimate's energy": (
        ANALYSIS, "denom = float(np.sum(ref**2))", "denom = float(np.sum(est**2))"),
    "imaginary residue set to 0": (
        ESTIMATOR,
        "max_imag = float(np.max(np.abs(diag.imag)) / scale) if scale > 0 else 0.0",
        "max_imag = 0.0"),
    "relative gap without abs": (
        ANALYSIS,
        "return abs(self.empirical_variance - self.analytical_variance)",
        "return (self.empirical_variance - self.analytical_variance)"),
    "empirical nmse over sigma^2": (
        ANALYSIS, "((caps - sigma2) ** 2) / sigma2**2)", "((caps - sigma2) ** 2) / sigma2)"),
    "auc in an unstable order": (
        ANALYSIS, "np.lexsort((self.pd, self.pfa))", "np.argsort(self.pfa)"),
    "auc with tied pfa in falling pd": (
        ANALYSIS, "np.lexsort((self.pd, self.pfa))", "np.lexsort((-self.pd, self.pfa))"),
    "nmse_vs_nap arguments swapped": (RUNNER, "nmse(cap, nap)", "nmse(nap, cap)"),
    "zeros counted negative": (ESTIMATOR, "self.values < 0.0", "self.values <= 0.0"),
    "touching bands refused": (
        ANALYSIS, "max(lo, qlo) < min(hi, qhi)", "max(lo, qlo) <= min(hi, qhi)"),
    "first part's residue": (
        ESTIMATOR,
        "max_imag_ratio=max(p.max_imag_ratio for p in parts)",
        "max_imag_ratio=parts[0].max_imag_ratio"),
    # the paper's own quantities
    "psi weights index gamma by lag": (
        STRUCTURE, "1.0 / (n * gamma[vec_index])", "1.0 / (n * gamma[lags])"),
    "cap over N in place of L": (
        ESTIMATOR, "np.fft.fft(lags, axis=1) / l_pts", "np.fft.fft(lags, axis=1) / lags.shape[1]"),
    "closed form not divided by the clusters": (
        ANALYSIS,
        "closed = whitenoise_variance_closed_form(config.pattern, sigma2, tau) / config.clusters",
        "closed = whitenoise_variance_closed_form(config.pattern, sigma2, tau)"),
    "wrapped band without its second interval": (
        SENSING, "((lo, 1.0), (0.0, hi))", "((lo, 1.0),)"),
    # a synthesis' runs: each adds its own scaled noise to its own mode's part
    "every run reads the first mode's part": (
        SENSING, "[distinct.index(mode) for mode in modes]", "[0 for mode in modes]"),
    "every run scales its noise by the first level's factor": (
        SENSING, "dbm_to_linear(level)) for _, level in pairs]",
        "dbm_to_linear(level)) for _, level in pairs[:1] * len(pairs)]"),
    "coset_dtft phase conjugated": (
        STRUCTURE,
        "matrix = np.exp(2j * np.pi * rows * cols / n) / n",
        "matrix = np.exp(-2j * np.pi * rows * cols / n) / n"),
    # the one Monte Carlo worker and its reducers
    "every config reads the first NAP stop": (
        ANALYSIS, "s.nap[stops.index(tau)]", "s.nap[0]"),
    "every config reads the first (sync, level) run": (
        ANALYSIS, "sensed[pairs.index((config.sync, config.noise_dbm))]", "sensed[0]"),
    "active and quiet block means swapped": (
        ANALYSIS, "roc_from_scores(means[:, : len(active)], means[:, len(active) :])",
        "roc_from_scores(means[:, len(active) :], means[:, : len(active)])"),
    "a pattern reads the union's first M rows": (
        RUNNER, "np.searchsorted(config.pattern.marks, pattern.marks)",
        "np.arange(pattern.size)"),
}

SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


def check_table() -> None:
    """Refuse a table entry whose old text does not occur exactly once."""
    for name, (path, old, _) in MUTANTS.items():
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise SystemExit(f"mutant {name!r}: {path} holds its old text {count} times")


def failed_tests(mutant=None) -> list[str]:
    """The tests that fail in a fresh copy, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="capspec-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=SKIP)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=SKIP)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        if mutant is not None:
            path, old, new = mutant
            target = work / path
            target.write_text(target.read_text().replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "tests", "--ignore=tests/test_golden.py"],
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
            capture_output=True, text=True,
        )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    if done.returncode != 0 and not failed:
        failed = [f"pytest exited {done.returncode}"]
    return failed


def main() -> int:
    check_table()
    broken = failed_tests()
    if broken:
        raise SystemExit(f"the unchanged tests fail: {broken}")
    survivors = []
    for name, mutant in MUTANTS.items():
        failed = failed_tests(mutant)
        print(f"{name}: " + (f"killed by {', '.join(failed)}" if failed else "SURVIVES"),
              flush=True)
        if not failed:
            survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survive"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
