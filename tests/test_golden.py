"""Seeded outputs pinned in the tree.

The manifests of ``tests/golden/`` run at seed 11 through ``cli.main``,
at 1 and at 2 workers, and every output file, with the stdout of two
design commands, must hash to the SHA-256 recorded in
``tests/golden/digests.json``.  So a changed random stream, or a value
that moves in its last bit, fails tier-1 and names the file.  The runs
at 1 worker are repeated with synthesis in blocks of one sensor, which
must give the same digests.

Last bits can move with the numpy version or the BLAS, so the digest
file records the platform it was made on.  Matching digests pass on any
platform.  Digests that differ fail, and when the platform differs from
the recorded one the failure names both: the outputs of another
platform are not compared within a tolerance.

A change that moves a digest on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and names each moved file, and why, in CHANGES.md.
"""

import hashlib
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from capspec import sensing
from capspec.cli import main
from capspec.runner import parse_manifest
from capspec.scenarios import fixture_path, multiband_detector

GOLDEN = Path(__file__).with_name("golden")
DIGESTS = GOLDEN / "digests.json"
SEED = 11
FIXTURES = ("table2.ini", "table4.ini", "table5.ini")
COMMANDS = (
    ("design-ruler", "--period", "18"),
    ("design-family", "--period", "40", "--marks", "14"),
)


def running_platform() -> dict:
    """The numpy version and the BLAS that numpy reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _quiet_main(argv) -> str:
    """``cli.main(argv)``'s stdout; a non-zero exit raises."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def copy_manifests(workdir: Path) -> list[Path]:
    """Copy the golden manifests into ``workdir``, beside the shipped
    scenario files that they name, and return the copies' paths."""
    for name in FIXTURES:
        shutil.copy(fixture_path(name), workdir / name)
    return [Path(shutil.copy(source, workdir)) for source in sorted(GOLDEN.glob("*.ini"))]


def golden_digests(workdir: Path, threads: int) -> dict:
    """Output path -> SHA-256 of every golden run at ``threads`` workers,
    run from copies in ``workdir``."""
    digests = {}
    for manifest in copy_manifests(workdir):
        output = workdir / manifest.stem
        _quiet_main([parse_manifest(manifest).kind, "--manifest", str(manifest),
                     "--seed", str(SEED), "--threads", str(threads), "--output", str(output)])
        for path in sorted(output.iterdir()):
            digests[f"{manifest.stem}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    for command in COMMANDS:
        digests[" ".join(command)] = hashlib.sha256(_quiet_main(command).encode()).hexdigest()
    return digests


def test_roc_manifest_uses_the_multiband_detector(tmp_path):
    (roc,) = [path for path in copy_manifests(tmp_path) if path.stem == "roc-table4"]
    assert parse_manifest(roc).detector == multiband_detector()


def assert_recorded_digests(workdir: Path, threads: int, where: str = "") -> None:
    """Every golden output, run in ``workdir`` at ``threads`` workers,
    hashes to its recorded digest."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = running_platform()
    digests = golden_digests(workdir, threads)
    moved = sorted(
        name for name in recorded["digests"].keys() | digests.keys()
        if recorded["digests"].get(name) != digests.get(name)
    )
    note = ""
    if here != recorded["platform"]:
        note = f"; recorded on {recorded['platform']}, running on {here}"
    assert not moved, f"at {threads} workers{where} these outputs moved: {moved}{note}"


def test_outputs_match_the_recorded_digests(tmp_path):
    for threads in (1, 2):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        assert_recorded_digests(workdir, threads)


def test_one_sensor_blocks_give_the_recorded_digests(tmp_path, monkeypatch):
    # synthesis one sensor row per block, in this process only: warm
    # workers keep the module state of the moment they forked
    monkeypatch.setattr(sensing, "BLOCK_BYTES", 1)
    assert_recorded_digests(tmp_path, threads=1, where=" in one-sensor blocks")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"platform": running_platform(), "seed": SEED,
                   "digests": golden_digests(Path(tmp), threads=1)}
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['digests'])} digests to {DIGESTS}")
