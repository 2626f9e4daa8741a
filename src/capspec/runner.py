"""Experiment orchestration: manifests, worker pools, CSV/JSON emission.

A manifest is a flat INI file with section headers ([experiment],
[scenario], [sweep], [detector]).  Every kind runs in three steps:
``run_manifest`` validates the manifest, ``run_<kind>`` computes all of
its results in memory, and ``_write_outputs`` alone then creates the
output directory and writes the files, so a run that fails writes
nothing.  Monte Carlo runs are dispatched to worker processes and keyed
by (seed, run index), and all aggregation happens in run order
afterwards, so output files are byte-identical for any worker count.
The workers, forked on the first multi-worker run, keep the module state
of that moment (a later monkeypatch misses them) until the process exits.
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
    _read_ini,
    _read_section,
    load_scenario,
    parse_band,
    parse_marks,
    parse_patterns,
    scenario_from_parser,
)
from .sensing import CosetObservationSet, ScenarioConfig, _check_grid_levels, dbm_to_linear
from .sensing import coset_dtft, synthesize_observations


@dataclass(frozen=True)
class RocSetting:
    tau: int
    sigma2_dbm: float
    sync: str = "unsynchronized"

    @property
    def label(self) -> str:
        return f"tau{self.tau}_sigma{self.sigma2_dbm:g}_{self.sync}"


def _roc_scenario(scenario: ScenarioConfig, setting: RocSetting) -> ScenarioConfig:
    return replace(
        scenario, sensors_per_cluster=setting.tau, noise_dbm=setting.sigma2_dbm, sync=setting.sync
    )


def _parse_roc_settings(text: str) -> tuple[RocSetting, ...]:
    entries = []
    for chunk in filter(str.strip, text.split("|")):
        parts = [tok.strip() for tok in chunk.split(",") if tok.strip()]
        if len(parts) not in (2, 3):
            raise ValueError(f"entry {chunk!r} is not tau,sigma2[,sync]")
        entries.append(RocSetting(int(parts[0]), float(parts[1]), *parts[2:]))
    return tuple(entries)


@dataclass
class SweepSpec:
    taus: tuple[int, ...] = ()
    sigmas_dbm: tuple[float, ...] = ()
    patterns: tuple[CosetPattern, ...] = ()
    roc_settings: tuple[RocSetting, ...] = ()


def _parse_bands(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(parse_band(chunk) for chunk in text.split("|") if chunk.strip())


def _sweep_keys(period: int) -> dict:
    """[sweep] key -> converter; patterns are of the scenario's ``period``."""
    return {"tau": parse_marks, "sigma2_dbm": _parse_floats, "settings": _parse_roc_settings,
            "patterns": partial(parse_patterns, period=period)}


# the [sweep] keys named apart from their SweepSpec field
_SWEEP_FIELDS = {"tau": "taus", "sigma2_dbm": "sigmas_dbm", "settings": "roc_settings"}
_DETECTOR_KEYS = {"active_bands": _parse_bands, "quiet_bands": _parse_bands, "avg_width": int,
                  "points_per_band": int, "quiet_points": int}


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


@dataclass
class ExperimentManifest:
    kind: str
    scenario: ScenarioConfig
    output: Path = Path("out")
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
            _check_grid_levels(self.scenario.grid_size, "[sweep] sigma2_dbm", level)
        # the scenario checks each setting's tau, level and sync before any run
        for setting in self.sweep.roc_settings:
            try:
                _roc_scenario(self.scenario, setting)
            except ValueError as exc:
                raise ValueError(f"[sweep] settings {setting.label}: {exc}") from None
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


_EXPERIMENT_KEYS = {"kind": str, "output": Path, "runs": int, "seed": int, "threads": int,
                    "keep_nap": _parse_bool}


def _marks_text(marks) -> str:
    return ",".join(map(str, marks))


def parse_manifest(path, kind: str | None = None) -> ExperimentManifest:
    """Read a manifest INI file; its [experiment] kind may restate ``kind``, not contradict it."""
    path = Path(path)
    parser = _read_ini(path, ("experiment", "scenario", "sweep", "detector"))
    if "experiment" not in parser:
        raise ValueError("manifest is missing its [experiment] section")
    exp = parser["experiment"]
    if kind is not None and exp.setdefault("kind", kind) != kind:
        raise ValueError(f"[experiment] kind = {exp['kind']} does not match the {kind} command")
    parts = _read_section(exp, _EXPERIMENT_KEYS, ExperimentManifest)
    if "scenario" in parser and "file" in parser["scenario"]:
        inline = [key for key in parser["scenario"] if key != "file"]
        inline += [f"[{name}]" for name in parser.sections() if name.startswith("user.")]
        if inline:
            raise ValueError(f"[scenario] file excludes inline scenario keys: {', '.join(inline)}")
        parts["scenario"] = load_scenario(path.parent / parser["scenario"]["file"])
    else:
        parts["scenario"] = scenario_from_parser(parser)
    if "sweep" in parser:
        values = _read_section(parser["sweep"], _sweep_keys(parts["scenario"].period), SweepSpec)
        parts["sweep"] = SweepSpec(**{_SWEEP_FIELDS.get(k, k): v for k, v in values.items()})
    if "detector" in parser:
        parts["detector"] = DetectorSpec(
            **_read_section(parser["detector"], _DETECTOR_KEYS, DetectorSpec)
        )
    return ExperimentManifest(**parts)


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
    """One seeded realization: CAP (and NAP baseline) to CSV plus summary.

    Levels are checked at grid scale before synthesis, but finite powers
    can still overflow once squared in a covariance; a CAP or NAP that is
    not finite is then refused before anything is written.
    """
    config = manifest.scenario
    with np.errstate(over="ignore", invalid="ignore"):
        sensed = synthesize_observations(
            config, seed=(manifest.seed, 0), keep_full_rate=manifest.keep_nap
        )
        if config.bin_mode == "uncorrelated":
            _, cap = estimate_multicluster(sensed.sets)
        else:
            cap = estimate_correlated_bins(sensed.sets)
        cap.require_finite()
        nap = None
        if manifest.keep_nap:
            nap = average_periodograms([spectral_ap(s.spectra) for s in sensed.sets])
            nap.require_finite()
    files = {"cap.csv": cap.write_csv}
    summary = {
        "estimator": cap.estimator,
        "grid_points": int(cap.values.size),
        "negative_values": cap.negative_count,
        "max_imag_ratio": cap.max_imag_ratio,
        "warnings": sensed.warnings,
    }
    if nap is not None:
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
        for tau in sweep.taus:
            nap = average_periodograms([spectral_ap(s.spectra[:tau]) for s in sensed.sets])
            for pattern in sweep.patterns:
                # synthesis has aliased the spectra into the scenario's own cosets
                dtfts = [
                    s.dtft[:tau] if pattern == s.pattern else coset_dtft(s.spectra[:tau], pattern)
                    for s in sensed.sets
                ]
                obs = [CosetObservationSet(pattern, y, label=d) for d, y in enumerate(dtfts)]
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
        curve = analysis.roc_harness(
            _roc_scenario(manifest.scenario, setting),
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


def _per_call(fn, count: int) -> float:
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return (time.perf_counter() - start) / count


def _timed(fns, min_time: float = 0.05, batches: int = 5) -> list[float]:
    """Median per-call seconds of each function, batching its calls until a
    batch is measurable.  The functions' batches alternate, so a drift in
    the host's speed reaches every function alike, not one side of a ratio."""
    reps = [1] * len(fns)
    for i, fn in enumerate(fns):
        fn()
        while _per_call(fn, reps[i]) * reps[i] < min_time:
            reps[i] *= 2
    rounds = [[_per_call(fn, count) for fn, count in zip(fns, reps)] for _ in range(batches)]
    return [float(np.median(times)) for times in zip(*rounds)]


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
    fns = []
    for tau in taus:
        cfg = replace(config, sensors_per_cluster=tau)
        obs = synthesize_observations(cfg, seed=(manifest.seed, 0)).sets[0]
        stack = sample_covariance(obs)
        fns += [
            partial(sample_covariance, obs),
            lambda stack=stack: assemble_cap(ls_reconstruct_rbar(stack)),
        ]
    times = iter(_timed(fns))
    stages = {tau: {"covariance_s": next(times), "reconstruction_s": next(times)} for tau in taus}
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
