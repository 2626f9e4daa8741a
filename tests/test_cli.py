import configparser
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exhaustive_minimal_ruler, per_run_roc

from capspec import analysis, runner, scenarios
from capspec.analysis import DetectorSpec
from capspec.cli import main
from capspec.patterns import CosetPattern
from capspec.scenarios import fixture_path
from capspec.sensing import SYNC_MODES, ScenarioConfig, UserSpec, synthesize_observations

SMALL_SCENARIO = """
[scenario]
period = 6
samples_per_coset = 20
marks = 0,1,3
noise_dbm = 0
clusters = 1
sensors_per_cluster = 6
sync = unsynchronized
bin_mode = uncorrelated

[user.1]
band = 0.2,0.3
power_dbm = 14
path_loss_db = -3
"""


def _exit_in_worker(caller, *args):
    if os.getpid() != caller:
        os._exit(1)


def write_manifest(tmp_path, body, name="manifest.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestDesignCommands:
    def test_design_ruler(self, capsys):
        assert main(["design-ruler", "--period", "18"]) == 0
        out = capsys.readouterr().out
        assert "cardinality=5" in out
        assert "ruler=yes" in out and "minimal=yes" in out

    def test_design_ruler_exhaustive(self, capsys):
        # the one search reaches the exhaustive search's minimum
        assert main(["design-ruler", "--period", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0,1,2,5")
        assert f"cardinality={exhaustive_minimal_ruler(10).size}" in out
        assert "cardinality=4" in out
        assert "minimal=yes" in out
        # argparse refuses the flag of the removed exhaustive search
        with pytest.raises(SystemExit) as exc:
            main(["design-ruler", "--period", "10", "--exhaustive"])
        assert exc.value.code == 2

    def test_design_family(self, capsys):
        # (40, 14) is the family of the table5 fixture
        for period, marks, groups in ((5, 3, 4), (40, 14, 12)):
            command = ["design-family", "--period", str(period), "--marks", str(marks)]
            assert main(command) == 0
            lines = capsys.readouterr().out.splitlines()
            assert sum(line.endswith("  member") for line in lines) == groups
            assert lines[-1] == f"groups={groups}  pair-coverage=complete"

    def test_inspect_pattern(self, capsys):
        assert main(["inspect-pattern", "--period", "18", "--marks", "0,1,4,7,9"]) == 0
        out = capsys.readouterr().out
        assert "gamma=5,1,1,2" in out
        assert "identifiable=yes" in out

    def test_inspect_non_ruler(self, capsys):
        assert main(["inspect-pattern", "--period", "6", "--marks", "0,1,2"]) == 0
        out = capsys.readouterr().out
        assert "identifiable=no" in out
        assert "missing-differences=3" in out


class TestReconstruct:
    def test_small_scenario_outputs(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = reconstruct\noutput = {tmp_path/'out'}\n"
            + SMALL_SCENARIO,
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "7"]) == 0
        cap = (tmp_path / "out" / "cap.csv").read_text().splitlines()
        assert cap[0] == "theta,value,estimator,run_id"
        assert len(cap) == 1 + 120
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        # the CAP's error against the NAP, as written, relative to the NAP
        cap_values, nap_values = (
            [float(row.split(",")[1]) for row in text.splitlines()[1:]]
            for text in ((tmp_path / "out" / name).read_text() for name in ("cap.csv", "nap.csv"))
        )
        assert summary["nmse_vs_nap"] == analysis.nmse(cap_values, nap_values)
        assert summary["nmse_vs_nap"] != analysis.nmse(nap_values, cap_values)

    def test_fixture_scenario_row_count(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            "[experiment]\nkind = reconstruct\n"
            f"output = {tmp_path/'exp1'}\n"
            "keep_nap = false\n"
            f"[scenario]\nfile = {fixture_path('table2.ini')}\n",
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "1"]) == 0
        cap = (tmp_path / "exp1" / "cap.csv").read_text().splitlines()
        assert len(cap) == 1 + 3060

    def test_zero_scenario_gives_zero_cap(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = reconstruct\noutput = {tmp_path/'zero'}\n"
            "[scenario]\nperiod = 6\nsamples_per_coset = 10\nmarks = 0,1,3\n"
            "noise_dbm = -inf\nsensors_per_cluster = 3\n",
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "0"]) == 0
        rows = (tmp_path / "zero" / "cap.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_same_seed_byte_identical_across_threads(self, tmp_path):
        body = (
            "[experiment]\nkind = reconstruct\noutput = PLACEHOLDER\n" + SMALL_SCENARIO
        )
        outputs = []
        for threads, name in ((1, "a"), (8, "b")):
            manifest = write_manifest(
                tmp_path, body.replace("PLACEHOLDER", str(tmp_path / name)), f"m{name}.ini"
            )
            assert (
                main(
                    ["reconstruct", "--manifest", str(manifest), "--seed", "5",
                     "--threads", str(threads)]
                )
                == 0
            )
            outputs.append(
                (
                    (tmp_path / name / "cap.csv").read_bytes(),
                    (tmp_path / name / "nap.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_identifiability_error_exit_code(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = reconstruct\noutput = {tmp_path/'bad'}\n"
            "[scenario]\nperiod = 6\nsamples_per_coset = 10\nmarks = 0,1,2\n"
            "noise_dbm = 0\nsensors_per_cluster = 3\n",
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "identifiability" in err and "3" in err
        assert not (tmp_path / "bad").exists()

    def test_too_large_a_grid_exits_3_with_one_line(self, tmp_path, capsys):
        # 3 sensors x 6e11 points: numpy refuses the 26 TiB before it
        # allocates anything.  A size between this and what fits would be
        # allocated for real, so no other size is tried.
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = reconstruct\noutput = {tmp_path/'big'}\n"
            "[scenario]\nperiod = 6\nsamples_per_coset = 99999999999\nmarks = 0,1,3\n"
            "noise_dbm = 0\nsensors_per_cluster = 3\n",
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: memory:") and err.count("\n") == 1, err
        assert not (tmp_path / "big").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = reconstruct\noutput = {blocker/'sub'}\n"
            + SMALL_SCENARIO,
        )
        assert main(["reconstruct", "--manifest", str(manifest), "--seed", "0"]) == 3
        assert "io" in capsys.readouterr().err


NOISE_SCENARIO = (
    "[scenario]\nperiod = 6\nsamples_per_coset = 10\nmarks = 0,1,3\nnoise_dbm = 0\n"
)

DETECTOR = "[detector]\nactive_bands = 0.2,0.3\nquiet_bands = 0.6,0.9\navg_width = 4\n"

# every axis of every sweep kind, on a correlated-bins scenario whose
# family is given, so that no family design runs at load time
CORRELATED_RUN = (
    "[experiment]\noutput = OUT\n"
    "[scenario]\nperiod = 5\nsamples_per_coset = 10\nbin_mode = correlated\n"
    "family = 0,1,2 | 0,3,4 | 1,2,3 | 1,2,4\nnoise_dbm = 0\nsensors_per_group = 2\n"
    "[sweep]\ntau = 2,4\nsigma2_dbm = 0\npatterns = 0,1,2\nsettings = 2,0\n" + DETECTOR
)

# case -> (command and flags, manifest, text the one-line reason must hold)
BAD_INPUTS = {
    "scenario without period": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        "[scenario]\nsamples_per_coset = 10\nmarks = 0,1,3\nnoise_dbm = 0\n",
        "period",
    ),
    "band with one value": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("band = 0.2,0.3", "band = 0.1"),
        "band",
    ),
    "manifest without section header": (
        "reconstruct",
        "kind = reconstruct\noutput = OUT\n" + SMALL_SCENARIO,
        "section header",
    ),
    "noise_dbm nan": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("noise_dbm = 0", "noise_dbm = nan"),
        "noise_dbm",
    ),
    "misspelled bin_mode": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("bin_mode = uncorrelated", "bin_mode = uncorelated"),
        "bin_mode",
    ),
    "avg_width not an integer": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO
        + DETECTOR.replace("avg_width = 4", "avg_width = x"),
        "avg_width",
    ),
    "sensors_per_cluster not an integer": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("sensors_per_cluster = 6", "sensors_per_cluster = x"),
        "sensors_per_cluster",
    ),
    "roc settings nan": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n"
        + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 3,nan\n"
        + DETECTOR,
        "noise_dbm",
    ),
    **{
        f"{kind} on correlated bins": (kind, CORRELATED_RUN, "uncorrelated-bins")
        for kind in ("nmse-sweep", "roc", "variance-check", "bench")
    },
    # a repeated sweep entry would leave one of its output rows unwritten
    "repeated tau": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3,6,3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "tau lists 3 twice",
    ),
    "repeated sigma2_dbm": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 0,3,0.0\npatterns = 0,1,3\n",
        "sigma2_dbm lists 0.0 twice",
    ),
    "repeated pattern": (
        "variance-check",
        "[experiment]\nkind = variance-check\noutput = OUT\n" + NOISE_SCENARIO
        + "[sweep]\ntau = 2\npatterns = 0,1,3 | 3,1,0\n",
        "patterns lists 0,1,3 twice",
    ),
    # a tau below 1 would slice fewer sensors than the sweep names
    "negative tau": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 4,-2\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "[sweep] tau",
    ),
    "zero tau": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 4,0\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "[sweep] tau",
    ),
    "tau not an integer": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 4,x\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "[sweep] tau",
    ),
    # commas alone separate a list's entries, so two values with a space between
    # them are one entry that does not parse, not one number
    "tau entries separated by a space": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 2 3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "[sweep] tau",
    ),
    "sigma2_dbm entries separated by a space": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 1 0\npatterns = 0,1,3\n",
        "[sweep] sigma2_dbm",
    ),
    "path_loss_db entries separated by a space": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("path_loss_db = -3", "path_loss_db = -1 0"),
        "[user.1] path_loss_db",
    ),
    "avg_width zero": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n" + DETECTOR.replace("avg_width = 4", "avg_width = 0"),
        "avg_width",
    ),
    "points_per_band zero": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n" + DETECTOR + "points_per_band = 0\n",
        "points_per_band",
    ),
    "threads zero": (
        "roc",
        "[experiment]\nkind = roc\nthreads = 0\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n" + DETECTOR,
        "threads",
    ),
    "threads flag negative": (
        "nmse-sweep --threads -3",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "threads",
    ),
    # the closed form divides by the noise power, the sample variance by runs - 1
    "variance-check without noise": (
        "variance-check",
        "[experiment]\nkind = variance-check\nruns = 4\noutput = OUT\n"
        + NOISE_SCENARIO.replace("noise_dbm = 0", "noise_dbm = -inf")
        + "[sweep]\ntau = 2\npatterns = 0,1,3\n",
        "noise_dbm",
    ),
    "variance-check with one run": (
        "variance-check",
        "[experiment]\nkind = variance-check\nruns = 1\noutput = OUT\n" + NOISE_SCENARIO
        + "[sweep]\ntau = 2\npatterns = 0,1,3\n",
        "runs",
    ),
    # a level whose linear power overflows a float, or does so once squared
    "noise_dbm overflowing": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("noise_dbm = 0", "noise_dbm = 4000"),
        "noise_dbm",
    ),
    "variance-check noise power overflowing once squared": (
        "variance-check",
        "[experiment]\nkind = variance-check\nruns = 4\noutput = OUT\n"
        + NOISE_SCENARIO.replace("noise_dbm = 0", "noise_dbm = 2000")
        + "[sweep]\ntau = 2\npatterns = 0,1,3\n",
        "noise_dbm",
    ),
    "sigma2_dbm overflowing": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 7,4000\npatterns = 0,1,3\n",
        "sigma2_dbm",
    ),
    # linear powers that are finite but overflow once multiplied by the 120 grid points
    "noise_dbm overflowing at grid scale": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\nkeep_nap = false\n"
        + SMALL_SCENARIO.replace("noise_dbm = 0", "noise_dbm = 3080"),
        "noise_dbm",
    ),
    "power_dbm overflowing at grid scale": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\nkeep_nap = false\n"
        + SMALL_SCENARIO.replace("power_dbm = 14", "power_dbm = 3080"),
        "power_dbm",
    ),
    # the spectra are finite, their squares in the sample covariance are not
    "noise_dbm overflowing the covariance": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\nkeep_nap = false\n"
        + SMALL_SCENARIO.replace("noise_dbm = 0", "noise_dbm = 3060"),
        "CAP-UB values are not finite",
    ),
    # the periodograms are finite, their squared sums in the NMSE are not
    "user power overflowing the NMSE": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("power_dbm = 14", "power_dbm = 1600"),
        "not finite",
    ),
    # the same overflow in an nmse-sweep, whose CAP is refused as a roc run's is
    "sigma2_dbm overflowing the covariance": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 3060\npatterns = 0,1,3\n",
        "not finite",
    ),
    # the same overflow on the Monte Carlo path of a roc run
    "roc setting overflowing the covariance": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,3060\n" + DETECTOR,
        "CAP-UB values are not finite",
    ),
    # bands wrap only through lo > hi, with both edges inside [0, 1]
    "user band below 0": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("band = 0.2,0.3", "band = -0.1,0.1"),
        "band",
    ),
    "active band above 1": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n"
        + DETECTOR.replace("active_bands = 0.2,0.3", "active_bands = 0.9,1.3"),
        "active_bands",
    ),
    **{
        f"empty {key}": (
            "roc",
            "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
            + "\n[sweep]\nsettings = 6,0\n"
            + DETECTOR.replace(f"{key} = {bands}", f"{key} = |"),
            f"{key} lists no band",
        )
        for key, bands in (("active_bands", "0.2,0.3"), ("quiet_bands", "0.6,0.9"))
    },
    "repeated roc setting": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0 | 3,3 | 6,0.0,unsynchronized\n" + DETECTOR,
        "settings lists tau6_sigma0_unsynchronized twice",
    ),
    # every section is closed: a key or section it does not hold exits 2
    "misspelled [experiment] key": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\nrunz = 5\noutput = OUT\n" + SMALL_SCENARIO,
        "[experiment] unknown key 'runz' (did you mean 'runs'?)",
    ),
    "misspelled [scenario] key": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("sensors_per_cluster", "sensors_per_clustr"),
        "[scenario] unknown key 'sensors_per_clustr'",
    ),
    "misspelled [user.1] key": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("path_loss_db", "pathloss_db"),
        "[user.1] unknown key 'pathloss_db'",
    ),
    "misspelled [sweep] key": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntaus = 3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "[sweep] unknown key 'taus'",
    ),
    "misspelled [detector] key": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n" + DETECTOR.replace("avg_width", "avg_widht"),
        "[detector] unknown key 'avg_widht'",
    ),
    "unknown section": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n" + SMALL_SCENARIO
        + DETECTOR.replace("[detector]", "[detectr]"),
        "unknown section 'detectr'",
    ),
    "users section": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n" + SMALL_SCENARIO
        + "[users.2]\nband = 0.6,0.7\npower_dbm = 14\npath_loss_db = -3\n",
        "unknown section 'users.2'",
    ),
    # configparser would copy a [DEFAULT] key into every section
    "DEFAULT section": (
        "reconstruct",
        "[DEFAULT]\nruns = 3\n[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO,
        "unknown section 'DEFAULT'",
    ),
    "kind other than the command's": (
        "reconstruct",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\n" + DETECTOR,
        "kind = roc does not match the reconstruct command",
    ),
    "scenario file next to an inline key": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        f"[scenario]\nfile = {fixture_path('table4.ini')}\nnoise_dbm = 300\n",
        "file excludes inline scenario keys: noise_dbm",
    ),
    "scenario file next to a user section": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        f"[scenario]\nfile = {fixture_path('table4.ini')}\n"
        "[user.4]\nband = 0.6,0.7\npower_dbm = 14\npath_loss_db = -3,-3,-3\n",
        "file excludes inline scenario keys: [user.4]",
    ),
    "marks under correlated bins": (
        "reconstruct",
        CORRELATED_RUN.replace("bin_mode = correlated\n", "bin_mode = correlated\nmarks = 0,1\n"),
        "bin_mode = correlated does not read marks",
    ),
    "sensors_per_group under uncorrelated bins": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("clusters = 1\n", "clusters = 1\nsensors_per_group = 4\n"),
        "bin_mode = uncorrelated does not read sensors_per_group",
    ),
    "family and family_marks_per_pattern": (
        "reconstruct",
        CORRELATED_RUN.replace("bin_mode = correlated\n",
                               "bin_mode = correlated\nfamily_marks_per_pattern = 3\n"),
        "exactly one of 'family' and 'family_marks_per_pattern'",
    ),
    # a choice key is checked where it is read, under its section and key
    "misspelled sync": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("sync = unsynchronized", "sync = sync"),
        "[scenario] sync: 'sync' is not one of",
    ),
    # every roc setting is checked before the first one runs
    "roc setting of no sensors": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 3,0 | 0,0\n" + DETECTOR,
        "[sweep] settings tau0_sigma0_unsynchronized",
    ),
    "roc setting of an unknown sync": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 3,0,sync\n" + DETECTOR,
        "[sweep] settings tau3_sigma0_sync",
    ),
    "roc setting overflowing at grid scale": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 3,0 | 3,3080\n" + DETECTOR,
        "[sweep] settings tau3_sigma3080_unsynchronized: noise_dbm",
    ),
    # a kind needs the [sweep] axes it reads and refuses any other, and only roc reads [detector]
    "variance-check with a sigma2_dbm axis": (
        "variance-check",
        "[experiment]\nkind = variance-check\nruns = 4\noutput = OUT\n" + NOISE_SCENARIO
        + "[sweep]\ntau = 2\npatterns = 0,1,3\nsigma2_dbm = 30\n",
        "variance-check does not read [sweep] sigma2_dbm",
    ),
    "roc with a patterns axis": (
        "roc",
        "[experiment]\nkind = roc\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\nsettings = 6,0\npatterns = 0,2\n" + DETECTOR,
        "roc does not read [sweep] patterns",
    ),
    "nmse-sweep with settings and a detector": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 0\npatterns = 0,1,3\nsettings = 6,0\n" + DETECTOR,
        "nmse-sweep does not read [sweep] settings",
    ),
    "nmse-sweep with keep_nap false": (
        "nmse-sweep",
        "[experiment]\nkind = nmse-sweep\nkeep_nap = false\noutput = OUT\n" + SMALL_SCENARIO
        + "\n[sweep]\ntau = 3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        "nmse-sweep does not read [experiment] keep_nap",
    ),
    "reconstruct with runs": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\nruns = 50\noutput = OUT\n" + SMALL_SCENARIO,
        "reconstruct does not read [experiment] runs = 50",
    ),
    # the --runs flag reaches the same refusal as the key
    "bench with runs": (
        "bench --runs 7",
        "[experiment]\nkind = bench\noutput = OUT\n" + SMALL_SCENARIO + "[sweep]\ntau = 2,4\n",
        "bench does not read [experiment] runs = 7",
    ),
    "reconstruct with a detector": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n" + SMALL_SCENARIO + DETECTOR,
        "reconstruct does not read a [detector] section",
    ),
    "manifest without [scenario]": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n",
        "the [scenario] section is missing",
    ),
    # synthesis takes its seed from the command, so a scenario holds none
    "scenario seed": (
        "reconstruct",
        "[experiment]\nkind = reconstruct\noutput = OUT\n"
        + SMALL_SCENARIO.replace("[scenario]\n", "[scenario]\nseed = 3\n"),
        "[scenario] unknown key 'seed'",
    ),
    # a budget below 1 visits no node, so the ruler it prints is not searched for;
    # design commands read no manifest
    **{
        f"node budget {budget}": (
            f"design-ruler --period 5 --node-budget {budget}", None, "node budget"
        )
        for budget in (0, -1)
    },
}


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_one_line_and_writes_nothing(self, tmp_path, capsys, case):
        command, body, field = BAD_INPUTS[case]
        out = tmp_path / "out"
        argv = command.split()
        if body is not None:
            manifest = write_manifest(tmp_path, body.replace("OUT", str(out)))
            argv += ["--manifest", str(manifest), "--seed", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1, err
        assert "Traceback" not in err and field in err
        assert not out.exists()

    def test_summary_json_refuses_nan(self, tmp_path):
        from capspec.runner import _write_json

        with pytest.raises(ValueError):
            _write_json(tmp_path / "summary.json", {"nmse_vs_nap": float("nan")})
        assert not (tmp_path / "summary.json").exists()

    def test_summary_with_nan_leaves_no_directory(self, tmp_path):
        from capspec.runner import ExperimentManifest, _csv_rows, _write_outputs

        scenario = ScenarioConfig(
            period=6, samples_per_coset=2, users=(), noise_dbm=0.0, pattern=CosetPattern(6, (0,))
        )
        manifest = ExperimentManifest("reconstruct", scenario, output=tmp_path / "out")
        files = {"a.csv": partial(_csv_rows, header="x", rows=[(1.0,)])}
        with pytest.raises(ValueError):
            _write_outputs(manifest, files, {"nmse_vs_nap": float("nan")})
        assert not manifest.output.exists()


# The settings each kind reads, and the order in which a manifest's settings are
# checked: a kind refuses a setting it does not read that differs from its default,
# and needs each [sweep] axis and [detector] that it reads, but never runs or keep_nap.
SETTING_ORDER = ("tau", "sigma2_dbm", "patterns", "settings", "detector", "keep_nap", "runs")
READ_BY_KIND = {
    "reconstruct": {"keep_nap"},
    "nmse-sweep": {"tau", "sigma2_dbm", "patterns", "runs"},
    "roc": {"settings", "detector", "runs"},
    "variance-check": {"tau", "patterns", "runs"},
    "bench": {"tau"},
}
# setting -> (its section, its value when given), then setting -> its name in a refusal
SETTING_VALUES = {
    "tau": ("sweep", "2,4"), "sigma2_dbm": ("sweep", "0"), "patterns": ("sweep", "0,1,3"),
    "settings": ("sweep", "6,0"), "keep_nap": ("experiment", "false"), "runs": ("experiment", "3"),
}
REFUSAL_NAMES = {
    **{axis: f"[sweep] {axis}" for axis in ("tau", "sigma2_dbm", "patterns", "settings")},
    "detector": "a [detector] section",
    "keep_nap": "[experiment] keep_nap = false",
    "runs": "[experiment] runs = 3",
}
DETECTOR_KEYS = dict(line.split(" = ") for line in DETECTOR.splitlines()[1:])


def settings_manifest(kind, changed=()):
    """Manifest text of ``kind``'s valid base, then each of ``changed`` changed in turn:
    an axis or [detector] the kind reads is removed, runs and keep_nap take a value
    other than their default, and any other setting is added."""
    sections = {"experiment": {"kind": kind, "output": "OUT"}, "sweep": {}, "detector": {}}

    def give(setting, value=None):
        if setting == "detector":
            sections["detector"] = dict(DETECTOR_KEYS)
        else:
            section, changed_value = SETTING_VALUES[setting]
            sections[section][setting] = value or changed_value

    for setting in READ_BY_KIND[kind] - {"keep_nap"}:
        give(setting, "4" if setting == "runs" else None)
    for setting in changed:
        if setting in ("keep_nap", "runs") or setting not in READ_BY_KIND[kind]:
            give(setting)
        elif setting == "detector":
            sections["detector"] = {}
        else:
            del sections["sweep"][setting]
    return SMALL_SCENARIO + "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items() if keys
    )


def first_refusal(kind, changed):
    for setting in SETTING_ORDER:
        if setting in changed and setting not in READ_BY_KIND[kind]:
            return f"{kind} does not read {REFUSAL_NAMES[setting]}"
        if setting in changed and setting not in ("keep_nap", "runs"):
            return f"{kind} needs {REFUSAL_NAMES[setting]}"
    return None


class TestSettingsReadByKind:
    @staticmethod
    def refusal(tmp_path, text):
        manifest = runner.parse_manifest(write_manifest(tmp_path, text))
        try:
            manifest.validate()
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("kind", sorted(READ_BY_KIND))
    def test_each_setting_and_each_ordered_pair_of_them(self, tmp_path, kind):
        # a pair is written in its order, so a refusal must not follow the text's order
        cases = [(s,) for s in SETTING_ORDER] + list(itertools.permutations(SETTING_ORDER, 2))
        assert self.refusal(tmp_path, settings_manifest(kind)) is None
        wrong = {}
        for changed in cases:
            got = self.refusal(tmp_path, settings_manifest(kind, changed))
            if got != first_refusal(kind, changed):
                wrong[changed] = got
        assert not wrong

    def test_a_level_and_its_negative_zero_are_one_level(self, tmp_path):
        text = settings_manifest("nmse-sweep").replace("sigma2_dbm = 0", "sigma2_dbm = 0, -0")
        assert self.refusal(tmp_path, text) == "[sweep] sigma2_dbm lists -0.0 twice"


class TestSweeps:
    def test_nmse_sweep_rows_and_determinism(self, tmp_path):
        body = (
            "[experiment]\nkind = nmse-sweep\nruns = 4\noutput = PLACEHOLDER\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 3,6\nsigma2_dbm = 0,3\npatterns = 0,1,3 | 0,1,2,3\n"
        )
        blobs = []
        for threads, name in ((1, "s1"), (8, "s8")):
            manifest = write_manifest(
                tmp_path, body.replace("PLACEHOLDER", str(tmp_path / name)), f"{name}.ini"
            )
            assert (
                main(["nmse-sweep", "--manifest", str(manifest), "--seed", "2",
                      "--threads", str(threads)])
                == 0
            )
            blobs.append((tmp_path / name / "nmse.csv").read_bytes())
        assert blobs[0] == blobs[1]
        rows = blobs[0].decode().splitlines()
        assert len(rows) == 1 + 8  # 2 patterns x 2 taus x 2 sigmas

    def test_nmse_sweep_does_not_read_the_scenario_marks(self, tmp_path):
        # the sweep senses the union of its [sweep] patterns alone
        blobs = set()
        for marks in ("0,1,3", "1,2,4,5"):
            for threads in (1, 2):
                out = tmp_path / f"{marks}-{threads}"
                manifest = write_manifest(
                    tmp_path,
                    f"[experiment]\nkind = nmse-sweep\nruns = 3\noutput = {out}\n"
                    + SMALL_SCENARIO.replace("marks = 0,1,3", f"marks = {marks}")
                    + "\n[sweep]\ntau = 3,6\nsigma2_dbm = 0,3\npatterns = 0,1,3 | 0,1,2,3\n",
                )
                argv = ["nmse-sweep", "--manifest", str(manifest), "--seed", "5",
                        "--threads", str(threads)]
                assert main(argv) == 0
                blobs.add((out / "nmse.csv").read_bytes())
        assert len(blobs) == 1

    def test_nmse_sweep_requires_axes(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = nmse-sweep\noutput = {tmp_path/'x'}\n"
            + SMALL_SCENARIO,
        )
        assert main(["nmse-sweep", "--manifest", str(manifest), "--seed", "0"]) == 2
        assert "config" in capsys.readouterr().err

    def test_roc_outputs(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = roc\nruns = 30\noutput = {tmp_path/'roc'}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\nsettings = 6,0 | 3,3\n"
            "[detector]\nactive_bands = 0.2,0.3\nquiet_bands = 0.6,0.9\navg_width = 4\n",
        )
        assert main(["roc", "--manifest", str(manifest), "--seed", "4"]) == 0
        summary = json.loads((tmp_path / "roc" / "summary.json").read_text())
        assert set(summary["auc"]) == {
            "tau6_sigma0_unsynchronized",
            "tau3_sigma3_unsynchronized",
        }
        assert all(0.0 <= v <= 1.0 for v in summary["auc"].values())
        roc_rows = (
            (tmp_path / "roc" / "roc_tau6_sigma0_unsynchronized.csv")
            .read_text()
            .splitlines()
        )
        assert roc_rows[0] == "threshold,pfa,pd"

    def test_roc_labels_tell_close_levels_apart(self, tmp_path):
        # 10.000000001 prints as 10 in :g form, so its label takes the repr
        out = tmp_path / "roc"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = roc\nruns = 3\noutput = {out}\n" + SMALL_SCENARIO
            + "\n[sweep]\nsettings = 6,1e1 | 6,10.000000001\n" + DETECTOR,
        )
        assert main(["roc", "--manifest", str(manifest), "--seed", "4"]) == 0
        assert sorted(p.name for p in out.glob("roc_*.csv")) == [
            "roc_tau6_sigma10.000000001_unsynchronized.csv",
            "roc_tau6_sigma10_unsynchronized.csv",
        ]

    def test_variance_check_small(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = variance-check\nruns = 600\noutput = {tmp_path/'var'}\n"
            "[scenario]\nperiod = 6\nsamples_per_coset = 10\nmarks = 0,1,3\n"
            "noise_dbm = 0\nsensors_per_cluster = 8\n"
            "[sweep]\ntau = 8,32\npatterns = 0,1,3 | 0,1,2,3\n",
        )
        assert main(["variance-check", "--manifest", str(manifest), "--seed", "6"]) == 0
        rows = (tmp_path / "var" / "variance.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        header = rows[0].split(",")
        gap_col = header.index("relative_gap")
        nmse_cols = header.index("analytical_nmse"), header.index("empirical_nmse")
        for row in rows[1:]:
            parts = row.rsplit(",", len(header) - 2)  # marks field holds a comma
            assert float(parts[gap_col - 1]) < 0.1
        # tau scaling: quadrupling tau divides the NMSE by about 4
        import csv as _csv

        with open(tmp_path / "var" / "variance.csv", newline="") as f:
            records = list(_csv.DictReader(f))
        by_key = {(r["marks"], r["tau"]): float(r["empirical_nmse"]) for r in records}
        ratio = by_key[("0,1,3", "8")] / by_key[("0,1,3", "32")]
        assert 4 * 0.85 <= ratio <= 4 * 1.15

    def test_variance_check_detail_file_per_pattern_and_tau(self, tmp_path):
        # two patterns of the same size, two taus: four detail files
        out = tmp_path / "var"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = variance-check\nruns = 3\noutput = {out}\n"
            + NOISE_SCENARIO
            + "[sweep]\ntau = 2,4\npatterns = 0,1,3 | 0,1,4\n",
        )
        assert main(["variance-check", "--manifest", str(manifest), "--seed", "6"]) == 0
        details = sorted(p.name for p in out.glob("variance_theta_*.csv"))
        assert details == [
            f"variance_theta_{marks}_tau{tau}.csv"
            for marks in ("0-1-3", "0-1-4")
            for tau in (2, 4)
        ]
        assert len(set(p.read_bytes() for p in out.glob("variance_theta_*.csv"))) == 4

    def test_worker_process_error_exits_2_with_one_line(self, tmp_path, capfd):
        # 0,1,2 misses the modular difference 3 of period 6; the runs that
        # find it execute in worker processes
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = nmse-sweep\nruns = 4\noutput = {out}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 3\nsigma2_dbm = 0\npatterns = 0,1,3 | 0,1,2\n",
        )
        code = main(
            ["nmse-sweep", "--manifest", str(manifest), "--seed", "1", "--threads", "2"]
        )
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("error: identifiability:") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    def test_worker_overflow_exits_2_with_one_line(self, tmp_path, capfd):
        # each worker process computes under its own errstate: no numpy warning reaches stderr
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = nmse-sweep\nruns = 4\noutput = {out}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 3\nsigma2_dbm = 3060\npatterns = 0,1,3\n",
        )
        code = main(
            ["nmse-sweep", "--manifest", str(manifest), "--seed", "1", "--threads", "2"]
        )
        err = capfd.readouterr().err
        assert code == 2
        assert err.startswith("error: config:") and err.count("\n") == 1, err
        assert "not finite" in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.skipif(analysis.usable_cpus() < 2, reason="runs stay in the caller on one CPU")
    def test_dead_worker_exits_3_with_one_line(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(analysis, "_mc_run", partial(_exit_in_worker, os.getpid()))
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = nmse-sweep\nruns = 4\noutput = {out}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 3\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        )
        code = main(
            ["nmse-sweep", "--manifest", str(manifest), "--seed", "1", "--threads", "2"]
        )
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: worker:") and err.count("\n") == 1, err
        assert not out.exists()

    def test_variance_check_rejects_users(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = variance-check\nruns = 5\noutput = {tmp_path/'v'}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 4\npatterns = 0,1,3\n",
        )
        assert main(["variance-check", "--manifest", str(manifest), "--seed", "0"]) == 2
        assert "noise-only" in capsys.readouterr().err


class TestBench:
    def test_scaling_checks(self, tmp_path):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = bench\noutput = {tmp_path/'bench'}\n"
            "[scenario]\nperiod = 18\nsamples_per_coset = 170\nmarks = 0,1,4,7,9\n"
            "noise_dbm = 0\nsensors_per_cluster = 100\n"
            "[sweep]\ntau = 100,200\n",
        )
        assert main(["bench", "--manifest", str(manifest)]) == 0
        payload = json.loads((tmp_path / "bench" / "bench.json").read_text())
        assert payload["passed"]
        cov = payload["checks"]["covariance_100_to_200"]
        assert 1.4 <= cov["ratio"] <= 2.6
        rec = payload["checks"]["reconstruction_100_to_200"]
        assert 0.6 <= rec["ratio"] <= 1.67

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = bench\noutput = {tmp_path/'b'}\n" + SMALL_SCENARIO,
        )
        assert main(["bench", "--manifest", str(manifest)]) == 2
        assert "config" in capsys.readouterr().err

    def test_reconstruction_stage_scales_mildly_with_period(self):
        # doubling the period at fixed grid cost: per-point work is
        # O(M^2 + N log N), far below cubic growth
        import numpy as np

        from capspec.estimator import assemble_cap, ls_reconstruct_rbar, sample_covariance
        from capspec.patterns import minimal_circular_sparse_ruler
        from capspec.runner import _timed
        from capspec.sensing import ScenarioConfig, synthesize_observations

        fns = []
        for period in (18, 36):
            pattern = minimal_circular_sparse_ruler(period).pattern
            config = ScenarioConfig(
                period=period, samples_per_coset=170, users=(), noise_dbm=0.0,
                pattern=pattern, sensors_per_cluster=20,
            )
            obs = synthesize_observations(config, seed=1).sets[0]
            stack = sample_covariance(obs)
            fns.append(lambda stack=stack: assemble_cap(ls_reconstruct_rbar(stack)))
        time_18, time_36 = _timed(fns)
        assert np.median(time_36 / time_18) <= 4.0

    def test_overflowing_noise_prints_no_warning(self, tmp_path, capfd):
        # the covariances overflow; the timings, all bench reads, stay finite
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = bench\noutput = {tmp_path/'b'}\n"
            + SMALL_SCENARIO.replace("noise_dbm = 0", "noise_dbm = 3060")
            + "\n[sweep]\ntau = 3,6\n",
        )
        assert main(["bench", "--manifest", str(manifest)]) in (0, 1)
        err = capfd.readouterr().err
        assert err.count("\n") <= 1 and "Warning" not in err and "Traceback" not in err, err
        payload = json.loads((tmp_path / "b" / "bench.json").read_text())
        times = [t for stage in payload["stages"].values() for t in stage.values()]
        assert len(times) == 4 and all(map(math.isfinite, times))

    def test_failed_gate_exits_1_and_keeps_bench_json(self, tmp_path, capsys, monkeypatch):
        # a constant timer makes the covariance ratio 1 where 2 is expected
        monkeypatch.setattr(runner, "_timed", lambda fns: [1.0 for _ in fns])
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = bench\noutput = {tmp_path/'b'}\n"
            + SMALL_SCENARIO
            + "\n[sweep]\ntau = 2,4\n",
        )
        assert main(["bench", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bench:") and err.count("\n") == 1, err
        assert "Traceback" not in err
        payload = json.loads((tmp_path / "b" / "bench.json").read_text())
        assert payload["passed"] is False
        assert not payload["checks"]["covariance_2_to_4"]["ok"]


# kind -> manifest body after its [experiment] section
EVERY_KIND = {
    "reconstruct": SMALL_SCENARIO,
    "nmse-sweep": "runs = 3\n" + SMALL_SCENARIO
    + "[sweep]\ntau = 3,6\nsigma2_dbm = 0\npatterns = 0,1,3\n",
    "roc": "runs = 3\n" + SMALL_SCENARIO + "[sweep]\nsettings = 6,0 | 3,3\n" + DETECTOR,
    "variance-check": "runs = 3\n" + NOISE_SCENARIO
    + "[sweep]\ntau = 2\npatterns = 0,1,3 | 0,1,2,3\n",
    "bench": SMALL_SCENARIO + "[sweep]\ntau = 2,4\n",
}


class TestOutputs:
    @pytest.mark.parametrize("kind", list(runner.RUNNERS))
    def test_returned_paths_are_the_files_written(self, tmp_path, monkeypatch, kind):
        # bench: covariance time doubles with tau, reconstruction time stays flat
        times = iter([1.0, 1.0, 2.0, 1.0])
        monkeypatch.setattr(runner, "_timed", lambda fns: [next(times) for _ in fns])
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = {kind}\noutput = {out}\n" + EVERY_KIND[kind],
        )
        paths = runner.run_manifest(runner.parse_manifest(manifest))
        assert sorted(paths.values()) == sorted(out.iterdir())
        assert all(path.stem == name for name, path in paths.items())


    @pytest.mark.parametrize("kind", ["reconstruct", "nmse-sweep", "roc", "variance-check"])
    def test_summary_lists_the_scenario_warnings(self, tmp_path, kind):
        # SMALL_SCENARIO on 24 points with a user band 0.3 wide, past the bin width 1/6;
        # variance-check runs on noise alone, so it has nothing to warn of
        wide = SMALL_SCENARIO.replace("samples_per_coset = 20", "samples_per_coset = 4")
        wide = wide.replace("band = 0.2,0.3", "band = 0.1,0.4")
        detector = "[detector]\nactive_bands = 0.1,0.4\nquiet_bands = 0.6,0.9\navg_width = 2\n"
        body = EVERY_KIND[kind].replace(SMALL_SCENARIO, wide).replace(DETECTOR, detector)
        out = tmp_path / "out"
        manifest = write_manifest(tmp_path, f"[experiment]\nkind = {kind}\noutput = {out}\n"
                                  + body)
        assert main([kind, "--manifest", str(manifest), "--seed", "3"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["warnings"] == ([] if kind == "variance-check" else [
            "1 user band(s) exceed the bin width 1/6; the uncorrelated-bins model is violated"
        ])


def _child_pids(parent: int) -> set[int]:
    """The processes whose parent is ``parent``, read from /proc."""
    pids = set()
    for entry in Path("/proc").iterdir():
        try:
            # the field after the parenthesized command name is the state, then the parent
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if entry.name.isdigit() and int(fields[1]) == parent:
            pids.add(int(entry.name))
    return pids


class TestInterrupt:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or analysis.usable_cpus() < 2,
        reason="reads /proc; runs stay in the caller on one CPU",
    )
    def test_sigint_ends_the_run_and_its_workers_in_one_line(self, tmp_path):
        # some 10 ms per run: the 5000 runs outlast the test by far
        scenario = SMALL_SCENARIO.replace("samples_per_coset = 20", "samples_per_coset = 1000")
        scenario = scenario.replace("sensors_per_cluster = 6", "sensors_per_cluster = 20")
        out = tmp_path / "out"
        manifest = write_manifest(
            tmp_path,
            f"[experiment]\nkind = nmse-sweep\nruns = 5000\noutput = {out}\n" + scenario
            + "\n[sweep]\ntau = 20\nsigma2_dbm = 0\npatterns = 0,1,3\n",
        )
        # Python's own SIGINT handler, as at a terminal: a job started in the
        # background of a shell, like this test run may be, inherits SIGINT ignored
        code = (
            "import signal, sys\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from capspec.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        src = str(Path(analysis.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", code, "nmse-sweep", "--manifest", str(manifest),
             "--seed", "1", "--threads", "2"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        workers = set()
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _child_pids(child.pid)
            assert len(workers) == 2, workers
            time.sleep(0.5)    # into the runs
            child.send_signal(signal.SIGINT)
            _, stderr = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                for pid in _child_pids(child.pid):
                    os.kill(pid, signal.SIGKILL)
                child.kill()
            child.wait()
        assert child.returncode == 130
        assert stderr.splitlines() == ["error: interrupted"]
        assert not any(Path(f"/proc/{pid}").exists() for pid in workers)
        assert not out.exists()


RULERS = ((4, (0, 1, 2)), (6, (0, 1, 3)), (7, (0, 1, 3)), (8, (0, 1, 2, 4)))


@st.composite
def small_uncorrelated_scenarios(draw):
    period, marks = draw(st.sampled_from(RULERS))
    clusters = draw(st.integers(1, 2))
    level = st.floats(-10.0, 10.0)
    users = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.floats(0.0, 1.0, exclude_max=True))
        width = draw(st.floats(0.05, 0.5))
        users.append(
            UserSpec(
                band=(lo, (lo + width) % 1.0),
                power_dbm=draw(level),
                path_loss_db=tuple(draw(level) for _ in range(clusters)),
            )
        )
    return ScenarioConfig(
        period=period,
        samples_per_coset=draw(st.integers(4, 8)),
        users=tuple(users),
        noise_dbm=draw(level),
        pattern=CosetPattern(period, marks),
        clusters=clusters,
        sync=draw(st.sampled_from(SYNC_MODES)),
    )


class TestWorkerCountIndependence:
    @settings(max_examples=8, deadline=None)
    @given(config=small_uncorrelated_scenarios(), seed=st.integers(0, 99))
    def test_roc_and_nmse_sweep_files_match_at_1_and_3_threads(self, config, seed):
        full = CosetPattern(config.period, tuple(range(config.period)))
        roc_settings = (runner.RocSetting(2, 0.0), runner.RocSetting(3, -3.0, "synchronized"))
        manifests = (
            runner.ExperimentManifest(
                kind="roc", scenario=config, output=Path(), runs=3, seed=seed,
                sweep=runner.SweepSpec(roc_settings=roc_settings),
                detector=DetectorSpec(((0.1, 0.45),), ((0.55, 0.95),), avg_width=2),
            ),
            runner.ExperimentManifest(
                kind="nmse-sweep", scenario=config, output=Path(), runs=3, seed=seed,
                sweep=runner.SweepSpec(
                    taus=(1, 3), sigmas_dbm=(0.0,), patterns=(config.pattern, full)
                ),
            ),
        )
        with tempfile.TemporaryDirectory() as tmp:
            for manifest in manifests:
                written = []
                for threads in (1, 3):
                    manifest.threads = threads
                    manifest.output = Path(tmp) / f"{manifest.kind}-{threads}"
                    runner.run_manifest(manifest)
                    written.append(
                        {p.name: p.read_bytes() for p in manifest.output.iterdir()}
                    )
                assert written[0] == written[1]


class TestRocPairing:
    # mixed taus, a -inf level, two settings at 0 dBm, both sync modes
    SETTINGS = (
        runner.RocSetting(6, 0.0), runner.RocSetting(3, -math.inf),
        runner.RocSetting(4, 0.0), runner.RocSetting(5, 3.0, "synchronized"),
        runner.RocSetting(2, -math.inf, "synchronized"),
    )

    def manifest(self, output, threads=1):
        scenario = ScenarioConfig(
            period=6, samples_per_coset=20, noise_dbm=0.0, pattern=CosetPattern(6, (0, 1, 3)),
            users=(UserSpec(band=(0.2, 0.3), power_dbm=14.0, path_loss_db=(-3.0, -6.0)),),
            clusters=2,
        )
        return runner.ExperimentManifest(
            kind="roc", scenario=scenario, output=output, runs=4, seed=11, threads=threads,
            sweep=runner.SweepSpec(roc_settings=self.SETTINGS),
            detector=DetectorSpec(((0.2, 0.3),), ((0.6, 0.9),), avg_width=4),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_files_match_the_per_setting_reference(self, tmp_path, threads):
        manifest = self.manifest(tmp_path / "roc", threads)
        runner.run_manifest(manifest)
        want = {}
        aucs = {}
        for setting in self.SETTINGS:
            curve = per_run_roc(
                runner._roc_scenario(manifest.scenario, setting), manifest.detector,
                runs=manifest.runs, seed=manifest.seed,
            )
            aucs[setting.label] = curve.auc
            path = tmp_path / f"roc_{setting.label}.csv"
            runner._csv_rows(path, "threshold,pfa,pd", zip(
                curve.thresholds.tolist(), curve.pfa.tolist(), curve.pd.tolist()
            ))
            want[path.name] = path.read_bytes()
        want["summary.json"] = runner._json_text(
            {"kind": "roc", "seed": manifest.seed, "warnings": [], "runs": manifest.runs,
             "auc": aucs}
        ).encode()
        assert {p.name: p.read_bytes() for p in manifest.output.iterdir()} == want

    def test_one_synthesis_per_run_serves_both_sync_modes(self, tmp_path, monkeypatch):
        calls = []

        def counted(config, seed, **kwargs):
            calls.append((config.sensors_per_cluster, tuple(kwargs["runs"])))
            return synthesize_observations(config, seed, **kwargs)

        monkeypatch.setattr(analysis, "synthesize_observations", counted)
        manifest = self.manifest(tmp_path / "roc")
        runner.run_manifest(manifest)
        # at the largest tau, one run per distinct (sync, level) pair
        runs = (("unsynchronized", 0.0), ("unsynchronized", -math.inf),
                ("synchronized", 3.0), ("synchronized", -math.inf))
        assert calls == [(6, runs)] * manifest.runs


def readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_ini_block(heading):
    """Section -> keys of the first ini block after ``heading`` in README.md."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(readme_block(heading, "ini"))
    return {name: set(parser[name]) for name in parser.sections()}


# a tiny scenario, another value for each key that an axis may replace, and
# kind -> the rest of its manifest (variance-check runs on noise alone)
REPLACED_SCENARIO = {"period": "6", "samples_per_coset": "10", "marks": "0,1,3",
                     "noise_dbm": "0", "sensors_per_cluster": "6", "sync": "unsynchronized"}
OTHER_VALUES = {"marks": "0,1,2,4", "sensors_per_cluster": "5", "noise_dbm": "3",
                "sync": "synchronized"}
ONE_USER = "[user.1]\nband = 0.2,0.3\npower_dbm = 14\npath_loss_db = -3\n"
REPLACING_KINDS = {
    "nmse-sweep": ONE_USER + "[sweep]\ntau = 3\nsigma2_dbm = 0,3\npatterns = 0,1,3 | 0,1,2,3\n",
    "roc": ONE_USER + "[sweep]\nsettings = 6,0 | 3,3,synchronized\n" + DETECTOR,
    "variance-check": "[sweep]\ntau = 2\npatterns = 0,1,3 | 0,1,2,3\n",
}


class TestReadmeReference:
    def test_library_quick_start_runs(self, capsys):
        exec(readme_block("## Library quick start", "python"), {})
        line = capsys.readouterr().out
        assert line.startswith("NMSE vs Nyquist baseline: ")
        assert 0.0 < float(line.split(": ")[1]) < 0.05

    def test_inline_comments_as_in_the_readme(self, tmp_path):
        body = "[experiment]\nkind = roc    ; the kind\nruns = 3    ; Monte Carlo runs\n"
        manifest = runner.parse_manifest(write_manifest(tmp_path, body + SMALL_SCENARIO))
        assert (manifest.kind, manifest.runs) == ("roc", 3)

    def test_documented_axes_are_the_axes_read(self):
        # rows "| `kind` | `axis`, `axis` | `setting`, `[detector]` |" of the manifest format's table
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("### Manifest format", 1)[1].split("\n### ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = line.split("|")
            if line.startswith("| `") and len(cells) == 5:
                axes, others = ({name.strip("[]") for name in cell.split("`")[1::2]}
                                for cell in cells[2:4])
                documented[cells[1].strip(" `")] = (axes, others)
        assert set(documented) == set(runner.RUNNERS)
        for kind, (_, reads) in runner.RUNNERS.items():
            assert documented[kind] == (reads & set(runner._SWEEP_KEYS),
                                        reads - set(runner._SWEEP_KEYS)), kind

    def test_replaced_scenario_keys_leave_every_output_alone(self, tmp_path):
        # the sentences "`kind` replaces `key`, ... with ..." of the manifest format
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = text.split("The axes of the Monte Carlo kinds replace", 1)[1]
        replaced = {}
        for sentence in paragraph.split("\n\n", 1)[0].replace("\n", " ").split(". "):
            names = sentence.split(" with ", 1)[0].split("`")[1::2]
            if " replaces " in sentence:
                replaced[names[0]] = names[1:]
        assert set(replaced) == set(REPLACING_KINDS)

        def outputs(kind, key=None):
            out = tmp_path / f"{kind}-{key}"
            scenario = REPLACED_SCENARIO | ({key: OTHER_VALUES[key]} if key else {})
            body = (f"[experiment]\nkind = {kind}\nruns = 3\noutput = {out}\n[scenario]\n"
                    + "".join(f"{k} = {v}\n" for k, v in scenario.items())
                    + REPLACING_KINDS[kind])
            runner.run_manifest(runner.parse_manifest(write_manifest(tmp_path, body)))
            return {path.name: path.read_bytes() for path in out.iterdir()}

        for kind, keys in replaced.items():
            base = outputs(kind)
            for key in keys:
                assert outputs(kind, key) == base, (kind, key)
        # the noise power is read by variance-check, so its outputs move with it
        assert outputs("variance-check", "noise_dbm") != outputs("variance-check")

    def test_documented_keys_are_the_keys_read(self):
        # a manifest's [scenario] is a scenario file, or its keys inline
        assert readme_ini_block("### Manifest format") == {
            "experiment": set(runner._EXPERIMENT_KEYS),
            "scenario": {"file"},
            "sweep": set(runner._SWEEP_KEYS),
            "detector": set(runner._DETECTOR_KEYS),
        }
        assert readme_ini_block("### Scenario files") == {
            "scenario": set(scenarios._SCENARIO_KEYS).union(*scenarios._BIN_MODE_KEYS.values()),
            "user.1": set(scenarios._USER_KEYS),
        }
