"""Experiment orchestration: manifests, worker pools, CSV/JSON emission.

A manifest is a flat INI file with section headers ([experiment],
[scenario], [sweep], [detector]).  Monte Carlo runs are dispatched to a
thread pool and keyed by (seed, run index), and all aggregation happens
in run order afterwards, so output files are byte-identical for any
worker count.
"""

from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import DetectorSpec, dispatch_runs, nmse, nyquist_ap
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
    required,
    scenario_from_parser,
)
from .sensing import ScenarioConfig, extract_coset_observations, synthesize_observations

KINDS = ("reconstruct", "nmse-sweep", "roc", "variance-check", "bench")


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.kind == "nmse-sweep":
            if not (self.sweep.taus and self.sweep.sigmas_dbm and self.sweep.patterns):
                raise ValueError("nmse-sweep needs tau, sigma2_dbm and patterns axes")
        if self.kind == "variance-check":
            if not (self.sweep.taus and self.sweep.patterns):
                raise ValueError("variance-check needs tau and patterns axes")
        if self.kind == "roc":
            if not self.sweep.roc_settings:
                raise ValueError("roc needs at least one settings entry")
            if self.detector is None:
                raise ValueError("roc needs a [detector] section")
        if self.kind == "bench" and len(self.sweep.taus) < 2:
            raise ValueError("bench needs at least two tau values to compare")


def _parse_bands(text: str) -> tuple[tuple[float, float], ...]:
    return tuple(parse_band(chunk) for chunk in text.split("|") if chunk.strip())


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
        sweep.taus = parse_marks(swp.get("tau", ""))
        sweep.sigmas_dbm = _parse_floats(swp.get("sigma2_dbm", ""))
        sweep.patterns = tuple(
            CosetPattern(scenario.period, parse_marks(chunk))
            for chunk in swp.get("patterns", "").split("|")
            if chunk.strip()
        )
        entries = []
        for chunk in swp.get("settings", "").split("|"):
            parts = [tok.strip() for tok in chunk.split(",") if tok.strip()]
            if not parts:
                continue
            if len(parts) not in (2, 3):
                raise ValueError(f"[sweep] settings entry {chunk!r} is not tau,sigma2[,sync]")
            sync = parts[2] if len(parts) > 2 else "unsynchronized"
            entries.append(RocSetting(int(parts[0]), float(parts[1]), sync))
        sweep.roc_settings = tuple(entries)

    detector = None
    if "detector" in parser:
        det = parser["detector"]
        detector = DetectorSpec(
            active_bands=required(det, "active_bands", _parse_bands),
            quiet_bands=required(det, "quiet_bands", _parse_bands),
            avg_width=det.getint("avg_width", fallback=11),
            points_per_band=det.getint("points_per_band", fallback=None),
            quiet_points=det.getint("quiet_points", fallback=None),
        )

    manifest = ExperimentManifest(
        kind=kind if kind is not None else exp.get("kind"),
        scenario=scenario,
        output=Path(exp.get("output", "out")),
        runs=exp.getint("runs", fallback=1),
        seed=exp.getint("seed", fallback=0),
        threads=exp.getint("threads", fallback=1),
        keep_nap=exp.getboolean("keep_nap", fallback=True),
        sweep=sweep,
        detector=detector,
    )
    manifest.validate()
    return manifest


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


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


def run_reconstruct(manifest: ExperimentManifest) -> dict:
    """One seeded realization: CAP (and NAP baseline) to CSV plus summary."""
    config = manifest.scenario
    out = manifest.output
    out.mkdir(parents=True, exist_ok=True)
    sensed = synthesize_observations(
        config, seed=(manifest.seed, 0), keep_full_rate=manifest.keep_nap
    )
    if config.bin_mode == "uncorrelated":
        _, cap = estimate_multicluster(sensed.sets)
    else:
        cap = estimate_correlated_bins(sensed.sets)
    cap_path = out / "cap.csv"
    cap.write_csv(cap_path, run_id=0)
    summary = {
        "kind": manifest.kind,
        "seed": manifest.seed,
        "estimator": cap.estimator,
        "grid_points": int(cap.values.size),
        "negative_values": cap.negative_count,
        "max_imag_ratio": cap.max_imag_ratio,
        "warnings": sensed.warnings,
    }
    paths = {"cap": cap_path}
    if manifest.keep_nap:
        nap = average_periodograms([nyquist_ap(s.full_rate) for s in sensed.sets])
        nap_path = out / "nap.csv"
        nap.write_csv(nap_path, run_id=0)
        summary["nmse_vs_nap"] = (
            nmse(cap, nap) if np.any(nap.values) else None
        )
        paths["nap"] = nap_path
    _write_json(out / "summary.json", summary)
    paths["summary"] = out / "summary.json"
    return paths


def run_nmse_sweep(manifest: ExperimentManifest) -> dict:
    """Monte Carlo NMSE against the Nyquist baseline over a config grid.

    Within a run, all tau values slice the same synthesized sensors and
    all patterns re-extract cosets from the same full-rate records, so
    comparisons across the sweep are paired.
    """
    config = manifest.scenario
    if config.bin_mode != "uncorrelated":
        raise ValueError("nmse-sweep runs on uncorrelated-bins scenarios")
    sweep = manifest.sweep
    tau_max = max(sweep.taus)
    out = manifest.output
    out.mkdir(parents=True, exist_ok=True)

    combos = [
        (pattern, tau, sigma)
        for pattern in sweep.patterns
        for tau in sweep.taus
        for sigma in sweep.sigmas_dbm
    ]
    scores = np.empty((len(combos), manifest.runs))
    base_by_sigma = {
        sigma: replace(config, sensors_per_cluster=tau_max, noise_dbm=sigma)
        for sigma in sweep.sigmas_dbm
    }

    def one(run: int) -> None:
        for sigma in sweep.sigmas_dbm:
            sensed = synthesize_observations(
                base_by_sigma[sigma],
                seed=(manifest.seed, run),
                keep_full_rate=True,
            )
            full = [s.full_rate for s in sensed.sets]
            for tau in sweep.taus:
                nap = average_periodograms([nyquist_ap(x[:tau]) for x in full])
                for pattern in sweep.patterns:
                    obs = [
                        extract_coset_observations(x[:tau], pattern, label=d)
                        for d, x in enumerate(full)
                    ]
                    _, cap = estimate_multicluster(obs)
                    idx = combos.index((pattern, tau, sigma))
                    scores[idx, run] = nmse(cap, nap)

    dispatch_runs(one, manifest.runs, manifest.threads)

    rows = []
    for idx, (pattern, tau, sigma) in enumerate(combos):
        rows.append(
            (
                tau,
                float(pattern.size / pattern.period),
                float(sigma),
                float(np.mean(scores[idx])),
                manifest.runs,
                '"' + ",".join(map(str, pattern.marks)) + '"',
            )
        )
    nmse_path = out / "nmse.csv"
    _csv_rows(nmse_path, "tau,rate,sigma2,nmse,runs,marks", rows)
    _write_json(
        out / "summary.json",
        {
            "kind": manifest.kind,
            "seed": manifest.seed,
            "runs": manifest.runs,
            "combos": len(combos),
        },
    )
    return {"nmse": nmse_path, "summary": out / "summary.json"}


def run_roc(manifest: ExperimentManifest) -> dict:
    """Detection ROC per sweep setting; one curve CSV each, AUCs to summary."""
    out = manifest.output
    out.mkdir(parents=True, exist_ok=True)
    aucs = {}
    paths = {}
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
        rows = [
            (float(t), float(pfa), float(pd))
            for t, pfa, pd in zip(curve.thresholds, curve.pfa, curve.pd)
        ]
        path = out / f"roc_{setting.label}.csv"
        _csv_rows(path, "threshold,pfa,pd", rows)
        paths[f"roc_{setting.label}"] = path
    _write_json(
        out / "summary.json",
        {"kind": manifest.kind, "seed": manifest.seed, "runs": manifest.runs, "auc": aucs},
    )
    paths["summary"] = out / "summary.json"
    return paths


def run_variance_check(manifest: ExperimentManifest) -> dict:
    """White-noise variance closed form vs Monte Carlo over the sweep."""
    config = manifest.scenario
    if config.users:
        raise ValueError("variance-check expects a noise-only (white) scenario")
    out = manifest.output
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for pattern in manifest.sweep.patterns:
        for tau in manifest.sweep.taus:
            cfg = replace(config, pattern=pattern, sensors_per_cluster=tau)
            report = analysis.whitenoise_variance_report(
                cfg, runs=manifest.runs, seed=manifest.seed, threads=manifest.threads
            )
            marks = ",".join(map(str, pattern.marks))
            report.write_csv(out / f"variance_theta_{pattern.size}of{pattern.period}_tau{tau}.csv")
            rows.append(
                (
                    '"' + marks + '"',
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
    var_path = out / "variance.csv"
    _csv_rows(
        var_path,
        "marks,tau,sigma2_dbm,runs,analytical_variance,empirical_variance,"
        "analytical_nmse,empirical_nmse,relative_gap",
        rows,
    )
    _write_json(
        out / "summary.json",
        {
            "kind": manifest.kind,
            "seed": manifest.seed,
            "runs": manifest.runs,
            "max_relative_gap": max(r[-1] for r in rows),
        },
    )
    return {"variance": var_path, "summary": out / "summary.json"}


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


def run_bench(manifest: ExperimentManifest) -> dict:
    """Wall-time per pipeline stage across the tau sweep, with scaling checks.

    The covariance stage must scale close to linearly in tau, and the
    reconstruction stage (LS solve plus periodogram assembly) must not
    depend on tau at all.
    """
    config = manifest.scenario
    out = manifest.output
    out.mkdir(parents=True, exist_ok=True)
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
    _write_json(out / "bench.json", payload)
    if not payload["passed"]:
        raise RuntimeError(f"bench scaling checks failed: see {out / 'bench.json'}")
    return {"bench": out / "bench.json"}


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
