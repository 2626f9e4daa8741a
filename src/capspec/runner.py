"""Experiment orchestration: manifests, worker pools, CSV/JSON emission.

A manifest is a flat INI file with section headers ([experiment],
[scenario], [sweep], [detector]).  Every kind runs in three steps:
``run_manifest`` validates the manifest, ``run_<kind>`` computes all of
its results in memory, and ``_write_outputs`` alone then creates the
output directory and writes the files, so a run that fails writes
nothing.  Monte Carlo runs are dispatched to worker processes and keyed
by (seed, run index), and all aggregation happens in run order
afterwards, so output files are byte-identical for any worker count.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import DetectorSpec, dispatch_runs, nmse, spectral_ap
from .estimator import (
    average_periodograms,
    estimate_correlated_bins,
    estimate_multicluster,
    ls_reconstruct_rbar,
    assemble_cap,
    sample_covariance,
)
from .patterns import CosetPattern
from .scenarios import (
    _parse_floats,
    load_scenario,
    parse_band,
    parse_marks,
    parse_patterns,
    required,
    scenario_from_parser,
)
from .sensing import CosetObservationSet, ScenarioConfig, _check_level, dbm_to_linear
from .sensing import coset_dtft, synthesize_observations


@dataclass(frozen=True)
class RocSetting:
    tau: int
    sigma2_dbm: float
    sync: str = "unsynchronized"

    @property
    def label(self) -> str:
        return f"tau{self.tau}_sigma{self.sigma2_dbm:g}_{self.sync}"


@dataclass
class SweepSpec:
    taus: tuple[int, ...] = ()
    sigmas_dbm: tuple[float, ...] = ()
    patterns: tuple[CosetPattern, ...] = ()
    roc_settings: tuple[RocSetting, ...] = ()


@dataclass
class ExperimentManifest:
    kind: str
    scenario: ScenarioConfig
    output: Path
    runs: int = 1
    seed: int = 0
    threads: int = 1
    keep_nap: bool = True
    sweep: SweepSpec = field(default_factory=SweepSpec)
    detector: DetectorSpec | None = None

    def validate(self) -> None:
        if self.kind not in RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.kind != "reconstruct" and self.scenario.bin_mode != "uncorrelated":
            raise ValueError(f"{self.kind} runs on uncorrelated-bins scenarios")
        for tau in self.sweep.taus:
            if tau < 1:
                raise ValueError(f"[sweep] tau entries must be positive, got {tau}")
        for level in self.sweep.sigmas_dbm:
            _check_level("[sweep] sigma2_dbm", level)
        # a repeated entry would name two results alike
        for axis, entries in (
            ("tau", self.sweep.taus),
            ("sigma2_dbm", self.sweep.sigmas_dbm),
            ("patterns", [_marks_text(p.marks) for p in self.sweep.patterns]),
            ("settings", [s.label for s in self.sweep.roc_settings]),
        ):
            seen = set()
            for entry in entries:
                if entry in seen:
                    raise ValueError(f"[sweep] {axis} lists {entry} twice")
                seen.add(entry)
        if self.kind == "nmse-sweep":
            if not (self.sweep.taus and self.sweep.sigmas_dbm and self.sweep.patterns):
                raise ValueError("nmse-sweep needs tau, sigma2_dbm and patterns axes")
        if self.kind == "variance-check":
            if not (self.sweep.taus and self.sweep.patterns):
                raise ValueError("variance-check needs tau and patterns axes")
            # the closed form divides by the squared noise power, the sample variance by runs - 1
            noise = self.scenario.noise_dbm
            if not 0.0 < dbm_to_linear(noise) * dbm_to_linear(noise) < math.inf:
                raise ValueError(
                    f"variance-check needs 0 < sigma2**2 < inf, got noise_dbm = {noise}"
                )
            if self.runs < 2:
                raise ValueError(f"variance-check needs runs >= 2, got {self.runs}")
        if self.kind == "roc":
            if not self.sweep.roc_settings:
                raise ValueError("roc needs at least one settings entry")
            if self.detector is None:
                raise ValueError("roc needs a [detector] section")
        if self.kind == "bench" and len(self.sweep.taus) < 2:
            raise ValueError("bench needs at least two tau values to compare")


def _marks_text(marks) -> str:
    return ",".join(map(str, marks))


def _parse_bands(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(parse_band(chunk) for chunk in text.split("|") if chunk.strip())


def _parse_roc_settings(text: str) -> tuple[RocSetting, ...]:
    entries = []
    for chunk in text.split("|"):
        parts = [tok.strip() for tok in chunk.split(",") if tok.strip()]
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise ValueError(f"entry {chunk!r} is not tau,sigma2[,sync]")
        sync = parts[2] if len(parts) > 2 else "unsynchronized"
        entries.append(RocSetting(int(parts[0]), float(parts[1]), sync))
    return tuple(entries)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def parse_manifest(path, kind: str | None = None) -> ExperimentManifest:
    """Read a manifest INI file; ``kind`` overrides the [experiment] key."""
    path = Path(path)
    parser = configparser.ConfigParser()
    parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    if "experiment" not in parser:
        raise ValueError("manifest is missing its [experiment] section")
    exp = parser["experiment"]

    if "scenario" in parser and parser["scenario"].get("file", None):
        scenario = load_scenario(path.parent / parser["scenario"]["file"])
    else:
        scenario = scenario_from_parser(parser)

    sweep = SweepSpec()
    if "sweep" in parser:
        swp = parser["sweep"]
        sweep = SweepSpec(
            taus=required(swp, "tau", parse_marks, ()),
            sigmas_dbm=required(swp, "sigma2_dbm", _parse_floats, ()),
            patterns=required(
                swp, "patterns", partial(parse_patterns, period=scenario.period), ()
            ),
            roc_settings=required(swp, "settings", _parse_roc_settings, ()),
        )

    detector = None
    if "detector" in parser:
        det = parser["detector"]
        detector = DetectorSpec(
            active_bands=required(det, "active_bands", _parse_bands),
            quiet_bands=required(det, "quiet_bands", _parse_bands),
            avg_width=required(det, "avg_width", int, 11),
            points_per_band=required(det, "points_per_band", int, None),
            quiet_points=required(det, "quiet_points", int, None),
        )

    return ExperimentManifest(
        kind=kind if kind is not None else exp.get("kind"),
        scenario=scenario,
        output=Path(exp.get("output", "out")),
        runs=required(exp, "runs", int, 1),
        seed=required(exp, "seed", int, 0),
        threads=required(exp, "threads", int, 1),
        keep_nap=required(exp, "keep_nap", _parse_bool, True),
        sweep=sweep,
        detector=detector,
    )


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload), encoding="utf-8")


def _csv_rows(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(
                ",".join(
                    repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
            )
            f.write("\n")


def _write_outputs(
    manifest: ExperimentManifest, files: dict, summary: dict | None = None
) -> dict:
    """Create the output directory and write ``files`` (file name -> writer
    taking the path) and, unless None, ``summary`` as ``summary.json`` under
    the shared kind/seed header.  Returns file stem -> path."""
    if summary is not None:
        summary = {"kind": manifest.kind, "seed": manifest.seed, **summary}
        # a summary that cannot be written (a NaN, say) fails here, before the directory exists
        _json_text(summary)
        files = {**files, "summary.json": partial(_write_json, payload=summary)}
    manifest.output.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(manifest.output / name)
    return {Path(name).stem: manifest.output / name for name in files}


def run_reconstruct(manifest: ExperimentManifest) -> dict:
    """One seeded realization: CAP (and NAP baseline) to CSV plus summary."""
    config = manifest.scenario
    sensed = synthesize_observations(
        config, seed=(manifest.seed, 0), keep_full_rate=manifest.keep_nap
    )
    if config.bin_mode == "uncorrelated":
        _, cap = estimate_multicluster(sensed.sets)
    else:
        cap = estimate_correlated_bins(sensed.sets)
    files = {"cap.csv": cap.write_csv}
    summary = {
        "estimator": cap.estimator,
        "grid_points": int(cap.values.size),
        "negative_values": cap.negative_count,
        "max_imag_ratio": cap.max_imag_ratio,
        "warnings": sensed.warnings,
    }
    if manifest.keep_nap:
        nap = average_periodograms([spectral_ap(s.spectra) for s in sensed.sets])
        files["nap.csv"] = nap.write_csv
        summary["nmse_vs_nap"] = nmse(cap, nap) if np.any(nap.values) else None
    return _write_outputs(manifest, files, summary)


def _nmse_run(
    config: ScenarioConfig, sweep: SweepSpec, combos: list, seed: int, run: int
) -> list[float]:
    """Run ``run`` of an nmse-sweep: its NMSE per entry of ``combos``."""
    levels = synthesize_observations(
        config, seed=(seed, run), keep_full_rate=True, noise_levels=sweep.sigmas_dbm
    )
    scores = {}
    for sigma, sensed in zip(sweep.sigmas_dbm, levels):
        spectra = [s.spectra for s in sensed.sets]
        for tau in sweep.taus:
            nap = average_periodograms([spectral_ap(x[:tau]) for x in spectra])
            for pattern in sweep.patterns:
                obs = [
                    CosetObservationSet(pattern, coset_dtft(x[:tau], pattern), label=d)
                    for d, x in enumerate(spectra)
                ]
                _, cap = estimate_multicluster(obs)
                scores[pattern, tau, sigma] = nmse(cap, nap)
    return [scores[combo] for combo in combos]


def run_nmse_sweep(manifest: ExperimentManifest) -> dict:
    """Monte Carlo NMSE against the Nyquist baseline over a config grid.

    Within a run, every noise level adds its noise to the same user
    signals, all tau values slice the same synthesized sensors and all
    patterns alias the same spectra into their cosets, so comparisons
    across the sweep are paired.
    """
    sweep = manifest.sweep
    config = replace(manifest.scenario, sensors_per_cluster=max(sweep.taus))
    combos = [
        (pattern, tau, sigma)
        for pattern in sweep.patterns
        for tau in sweep.taus
        for sigma in sweep.sigmas_dbm
    ]
    one = partial(_nmse_run, config, sweep, combos, manifest.seed)
    # one row per combo, its runs contiguous
    scores = np.array(dispatch_runs(one, manifest.runs, manifest.threads)).T.copy()

    rows = [
        (tau, float(pattern.size / pattern.period), float(sigma), float(np.mean(row)),
         manifest.runs, '"' + _marks_text(pattern.marks) + '"')
        for (pattern, tau, sigma), row in zip(combos, scores)
    ]
    return _write_outputs(
        manifest,
        {"nmse.csv": partial(_csv_rows, header="tau,rate,sigma2,nmse,runs,marks", rows=rows)},
        {"runs": manifest.runs, "combos": len(combos)},
    )


def run_roc(manifest: ExperimentManifest) -> dict:
    """Detection ROC per sweep setting; one curve CSV each, AUCs to summary."""
    files = {}
    aucs = {}
    for setting in manifest.sweep.roc_settings:
        config = replace(
            manifest.scenario,
            sensors_per_cluster=setting.tau,
            noise_dbm=setting.sigma2_dbm,
            sync=setting.sync,
        )
        curve = analysis.roc_harness(
            config,
            manifest.detector,
            runs=manifest.runs,
            seed=manifest.seed,
            threads=manifest.threads,
        )
        aucs[setting.label] = curve.auc
        rows = list(zip(curve.thresholds, curve.pfa, curve.pd))
        files[f"roc_{setting.label}.csv"] = partial(
            _csv_rows, header="threshold,pfa,pd", rows=rows
        )
    return _write_outputs(manifest, files, {"runs": manifest.runs, "auc": aucs})


def run_variance_check(manifest: ExperimentManifest) -> dict:
    """White-noise variance closed form vs Monte Carlo over the sweep."""
    config = manifest.scenario
    files = {}
    rows = []
    for pattern in manifest.sweep.patterns:
        for tau in manifest.sweep.taus:
            cfg = replace(config, pattern=pattern, sensors_per_cluster=tau)
            report = analysis.whitenoise_variance_report(
                cfg, runs=manifest.runs, seed=manifest.seed, threads=manifest.threads
            )
            detail = [
                (theta, report.analytical_variance, emp)
                for theta, emp in zip(report.thetas, report.empirical_by_theta)
            ]
            name = "-".join(map(str, pattern.marks))
            files[f"variance_theta_{name}_tau{tau}.csv"] = partial(
                _csv_rows, header="theta,analytical,empirical", rows=detail
            )
            rows.append(
                (
                    '"' + _marks_text(pattern.marks) + '"',
                    tau,
                    float(config.noise_dbm),
                    manifest.runs,
                    report.analytical_variance,
                    report.empirical_variance,
                    report.analytical_nmse,
                    report.empirical_nmse,
                    report.relative_gap,
                )
            )
    files["variance.csv"] = partial(
        _csv_rows,
        header="marks,tau,sigma2_dbm,runs,analytical_variance,empirical_variance,"
        "analytical_nmse,empirical_nmse,relative_gap",
        rows=rows,
    )
    return _write_outputs(
        manifest, files, {"runs": manifest.runs, "max_relative_gap": max(r[-1] for r in rows)}
    )


def _timed(fn, min_time: float = 0.05, batches: int = 5) -> float:
    """Median per-call seconds, batching calls until a batch is measurable."""
    fn()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return float(np.median(samples))


class BenchGateError(RuntimeError):
    """A bench scaling check failed; ``bench.json`` holds the numbers."""


def run_bench(manifest: ExperimentManifest) -> dict:
    """Wall-time per pipeline stage across the tau sweep, with scaling checks.

    The covariance stage must scale close to linearly in tau, and the
    reconstruction stage (LS solve plus periodogram assembly) must not
    depend on tau at all.  A failed check raises ``BenchGateError`` after
    ``bench.json`` is written.
    """
    config = manifest.scenario
    taus = sorted(manifest.sweep.taus)
    stages: dict[int, dict[str, float]] = {}
    for tau in taus:
        cfg = replace(config, sensors_per_cluster=tau)
        sensed = synthesize_observations(cfg, seed=(manifest.seed, 0))
        obs = sensed.sets[0]
        stack = sample_covariance(obs)
        stages[tau] = {
            "covariance_s": _timed(lambda: sample_covariance(obs)),
            "reconstruction_s": _timed(
                lambda: assemble_cap(ls_reconstruct_rbar(stack))
            ),
        }
    checks = {}
    for lo, hi in zip(taus, taus[1:]):
        expected = hi / lo
        cov_ratio = stages[hi]["covariance_s"] / stages[lo]["covariance_s"]
        rec_ratio = stages[hi]["reconstruction_s"] / stages[lo]["reconstruction_s"]
        checks[f"covariance_{lo}_to_{hi}"] = {
            "ratio": cov_ratio,
            "expected": expected,
            "ok": bool(0.7 * expected <= cov_ratio <= 1.3 * expected),
        }
        checks[f"reconstruction_{lo}_to_{hi}"] = {
            "ratio": rec_ratio,
            "ok": bool(0.6 <= rec_ratio <= 1.67),
        }
    payload = {
        "kind": "bench",
        "taus": list(taus),
        "stages": stages,
        "checks": checks,
        "passed": all(c["ok"] for c in checks.values()),
    }
    paths = _write_outputs(manifest, {"bench.json": partial(_write_json, payload=payload)})
    if not payload["passed"]:
        raise BenchGateError(f"scaling checks failed, see {paths['bench']}")
    return paths


RUNNERS = {
    "reconstruct": run_reconstruct,
    "nmse-sweep": run_nmse_sweep,
    "roc": run_roc,
    "variance-check": run_variance_check,
    "bench": run_bench,
}


def run_manifest(manifest: ExperimentManifest) -> dict:
    manifest.validate()
    return RUNNERS[manifest.kind](manifest)
