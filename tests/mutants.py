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
        ANALYSIS, 'np.argsort(self.pfa, kind="stable")', "np.argsort(self.pfa)"),
    "nmse_vs_nap arguments swapped": (RUNNER, "nmse(cap, nap)", "nmse(nap, cap)"),
    "zeros counted negative": (ESTIMATOR, "self.values < 0.0", "self.values <= 0.0"),
    "touching bands refused": (
        ANALYSIS, "max(lo, qlo) < min(hi, qhi)", "max(lo, qlo) <= min(hi, qhi)"),
    "first part's residue": (
        ESTIMATOR,
        "max_imag_ratio=max(p.max_imag_ratio for p in parts)",
        "max_imag_ratio=parts[0].max_imag_ratio"),
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
