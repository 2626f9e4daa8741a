"""The four benchmark workloads, driven through capspec's public entry points.

A workload sets up from the benchmark seed, then serves requests.
``run(i, workers)`` is the timed part of request ``i``; ``check(i, handle)``
reads its outputs back outside the timed region and says whether they
are valid: every value finite and every grid the expected size.  Request
``i`` always gets the same inputs for a given seed, whatever the worker
count, so outputs can be compared across worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from capspec import analysis, estimator, runner, scenarios, sensing

# Request index of the warm-up op, outside the range timed requests use.
WARMUP = 999_999


def op_seed(seed: int, index: int) -> int:
    """Experiment seed of request ``index``: distinct per (seed, index)."""
    return seed * 1_000_000 + index


@dataclass
class Outcome:
    ok: bool
    digest: str = ""
    nmse: list[float] = field(default_factory=list)
    auc: float | None = None
    output_bytes: int = 0


FAILED = Outcome(ok=False)


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


def _column(data: bytes, name: str) -> list[float]:
    return [float(row[name]) for row in csv.DictReader(io.StringIO(data.decode()))]


class Workload:
    name = ""
    workers = 1             # worker threads of the measured run
    monte_carlo = False     # outputs must not depend on the worker count
    ops_per_request = 1
    quality_requests = 1    # leading requests whose outputs give nmse_vs_nap
    family_groups = 0       # Z of the pattern family, when there is one

    def __init__(self, seed: int, out_root: Path, tiny: bool = False):
        self.seed = seed
        self.out_root = out_root
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int, workers: int):
        raise NotImplementedError

    def check(self, index: int, handle) -> Outcome:
        raise NotImplementedError

    def nmse_vs_nap(self, outcomes: list[Outcome]) -> tuple[float, int]:
        """Geometric mean of the NMSE samples of the leading requests."""
        values = [v for o in outcomes[: self.quality_requests] for v in o.nmse]
        return geometric_mean(values), len(values)


class ManifestWorkload(Workload):
    """Each request is one ``runner.run_manifest`` call on an in-memory manifest."""

    template: runner.ExperimentManifest

    def run(self, index, workers):
        out = self.out_root / f"w{workers}"
        manifest = replace(
            self.template,
            seed=op_seed(self.seed, index),
            threads=workers,
            output=out,
        )
        runner.run_manifest(manifest)
        return out

    @staticmethod
    def output_bytes(out: Path) -> int:
        return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class NmseSweep(ManifestWorkload):
    """nmse-sweep on table2 over criterion 8's axes; op = one Monte Carlo run."""

    name = "mc-nmse-table2"
    workers = 2
    monte_carlo = True
    quality_requests = 4

    def setup(self):
        config = scenarios.load_fixture("table2.ini")
        base = config.pattern
        rich = scenarios.extend_pattern(base, scenarios.EXPERIMENT1_EXTRA_COSETS, 3)
        taus = (20, 100)
        if self.tiny:
            taus = (2, 4)
        sweep = runner.SweepSpec(taus=taus, sigmas_dbm=(7.0, 10.0), patterns=(base, rich))
        self.combos = len(taus) * len(sweep.sigmas_dbm) * len(sweep.patterns)
        self.ops_per_request = 2
        self.template = runner.ExperimentManifest(
            kind="nmse-sweep", scenario=config, output=self.out_root,
            runs=self.ops_per_request, keep_nap=True, sweep=sweep,
        )

    def check(self, index, out):
        data = (out / "nmse.csv").read_bytes()
        values = _column(data, "nmse")
        ok = len(values) == self.combos and _finite_positive(values)
        return Outcome(
            ok, hashlib.sha256(data).hexdigest(), values, output_bytes=self.output_bytes(out)
        )


class RocSweep(ManifestWorkload):
    """roc on table4 over criterion 9's settings; op = one realization of one setting.

    Measured at 1 worker: at 2 its 26-131 ms runs hand the interpreter lock
    between threads so often that throughput follows the load on the
    machine's second core (11 to 21 op/s between sets of runs on one
    2-core host).  The traced run still measures it at 2 workers.
    """

    name = "mc-roc-table4"
    monte_carlo = True
    SETTINGS = ((30, 11.0, "unsynchronized"), (17, 14.0, "unsynchronized"),
                (17, 14.0, "synchronized"))

    def setup(self):
        self.config = scenarios.load_fixture("table4.ini")
        settings = self.SETTINGS
        runs = 4
        if self.tiny:
            settings = ((4, 11.0, "unsynchronized"), (3, 14.0, "synchronized"))
            runs = 2
        self.settings = tuple(runner.RocSetting(*s) for s in settings)
        self.ops_per_request = runs * len(self.settings)
        self.template = runner.ExperimentManifest(
            kind="roc", scenario=self.config, output=self.out_root, runs=runs,
            sweep=runner.SweepSpec(roc_settings=self.settings),
            detector=scenarios.multiband_detector(),
        )

    def check(self, index, out):
        digest = hashlib.sha256()
        ok = True
        for setting in self.settings:
            data = (out / f"roc_{setting.label}.csv").read_bytes()
            digest.update(data)
            rates = _column(data, "pfa") + _column(data, "pd")
            ok &= len(rates) > 2 and all(0.0 <= r <= 1.0 for r in rates)
        aucs = list(json.loads((out / "summary.json").read_text())["auc"].values())
        ok &= len(aucs) == len(self.settings) and all(0.0 <= a <= 1.0 for a in aucs)
        return Outcome(
            ok, digest.hexdigest(), auc=sum(aucs) / len(aucs),
            output_bytes=self.output_bytes(out),
        )

    def nmse_vs_nap(self, outcomes):
        """NMSE of the CAP each leading request's detector scored, against NAP.

        The realizations are synthesized again with full-rate records kept,
        from the same (seed, run) keys the roc harness used.
        """
        values = []
        for index in range(self.quality_requests):
            for setting in self.settings:
                config = replace(
                    self.config, sensors_per_cluster=setting.tau,
                    noise_dbm=setting.sigma2_dbm, sync=setting.sync,
                )
                for run in range(self.template.runs):
                    sensed = sensing.synthesize_observations(
                        config, seed=(op_seed(self.seed, index), run), keep_full_rate=True
                    )
                    _, cap = estimator.estimate_multicluster(sensed.sets)
                    values.append(analysis.nmse(cap, _nap(s.full_rate for s in sensed.sets)))
        return geometric_mean(values), len(values)


class Reconstruct(ManifestWorkload):
    """Single-seed reconstruct on table5 (correlated bins, CAP-CB), NAP on."""

    name = "reconstruct-table5"
    quality_requests = 60

    def setup(self):
        config = scenarios.load_fixture("table5.ini")
        if self.tiny:
            config = replace(config, sensors_per_group=3)
            self.quality_requests = 1
        self.grid = config.grid_size
        self.family_groups = config.family.size
        self.template = runner.ExperimentManifest(
            kind="reconstruct", scenario=config, output=self.out_root, keep_nap=True
        )

    def check(self, index, out):
        cap = (out / "cap.csv").read_bytes()
        nap = (out / "nap.csv").read_bytes()
        ok = True
        for data in (cap, nap):
            values = _column(data, "value")
            ok &= len(values) == self.grid and all(map(math.isfinite, values))
        score = json.loads((out / "summary.json").read_text())["nmse_vs_nap"]
        ok &= _finite_positive([score])
        return Outcome(
            ok, hashlib.sha256(cap + nap).hexdigest(), [score],
            output_bytes=self.output_bytes(out),
        )


class EstimateRecorded(Workload):
    """Coset reduction plus CAP-UB on table2 records synthesized at set-up."""

    name = "estimate-recorded"
    records = 4

    def setup(self):
        config = scenarios.load_fixture("table2.ini")
        if self.tiny:
            config = replace(config, sensors_per_cluster=4)
            self.records = 1
        self.quality_requests = self.records
        self.pattern = config.pattern
        self.grid = config.grid_size
        self.full_rate = [
            [s.full_rate for s in sensing.synthesize_observations(
                config, seed=(self.seed, r), keep_full_rate=True).sets]
            for r in range(self.records)
        ]
        self.caps = {}

    def run(self, index, workers):
        clusters = self.full_rate[index % self.records]
        observations = [
            sensing.extract_coset_observations(x, self.pattern, label=d)
            for d, x in enumerate(clusters)
        ]
        _, cap = estimator.estimate_multicluster(observations)
        return cap

    def check(self, index, cap):
        values = cap.values
        ok = values.size == self.grid and bool(np.all(np.isfinite(values)))
        self.caps.setdefault(index % self.records, cap)
        return Outcome(ok, hashlib.sha256(values.tobytes()).hexdigest())

    def nmse_vs_nap(self, outcomes):
        """NMSE of each record's CAP against its NAP, outside the timed region."""
        values = [
            analysis.nmse(self.caps[r], _nap(self.full_rate[r]))
            for r in range(self.records)
        ]
        return geometric_mean(values), len(values)


def _nap(records) -> np.ndarray:
    """Nyquist averaged periodogram averaged over clusters."""
    return np.mean([analysis.nyquist_ap(x).values for x in records], axis=0)


WORKLOADS = {w.name: w for w in (NmseSweep, RocSweep, Reconstruct, EstimateRecorded)}
