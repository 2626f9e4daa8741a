"""Experiment orchestration: manifests, worker pools, CSV/JSON emission.

A manifest is a flat INI file with section headers ([experiment],
[scenario], [sweep], [detector]).  Every kind runs in three steps:
``run_manifest`` validates the manifest, ``run_<kind>`` computes all of
its results in memory, and ``_write_outputs`` alone then creates the
output directory and writes the files, so a run that fails writes
nothing.  Monte Carlo runs are dispatched to worker processes and keyed
by (seed, run index), and all aggregation happens in run order
afterwards, so output files are byte-identical for any worker count.
The workers, forked on Linux by the first multi-worker run, keep the
module state of that moment (a later monkeypatch misses them) until the
process exits.
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import product, repeat
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import DetectorSpec, nmse
from .estimator import (
    NAP,
    CovarianceStack,
    Periodogram,
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
from .sensing import ScenarioConfig, _check_grid_levels, dbm_to_linear, synthesize_observations


@dataclass(frozen=True)
class RocSetting:
    tau: int
    sigma2_dbm: float
    sync: str = "unsynchronized"

    @property
    def label(self) -> str:
        """``tau<T>_sigma<S>_<sync>``, S the level in ``:g`` form where that
        reads back as the same float, else its repr."""
        level = f"{self.sigma2_dbm:g}"
        if float(level) != self.sigma2_dbm:
            level = repr(self.sigma2_dbm)
        return f"tau{self.tau}_sigma{level}_{self.sync}"


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


# [sweep] key -> (its SweepSpec field, its converter given the scenario's period,
# the identity under which two of its entries are one entry listed twice)
_SWEEP_KEYS = {
    "tau": ("taus", lambda text, period: parse_marks(text), int),
    "sigma2_dbm": ("sigmas_dbm", lambda text, period: _parse_floats(text), float),
    "patterns": ("patterns", parse_patterns, lambda pattern: _marks_text(pattern.marks)),
    "settings": ("roc_settings", lambda text, period: _parse_roc_settings(text),
                 lambda setting: setting.label),
}
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
        # setting -> (whether it differs from its default, its name in a refusal), in the
        # order they are checked; an [experiment] key has a default, so no kind needs it
        given = {axis: (bool(getattr(self.sweep, attr)), f"[sweep] {axis}")
                 for axis, (attr, _, _) in _SWEEP_KEYS.items()}
        given["detector"] = (self.detector is not None, "a [detector] section")
        given["keep_nap"] = (not self.keep_nap, "[experiment] keep_nap = false")
        given["runs"] = (self.runs != 1, f"[experiment] runs = {self.runs}")
        reads = RUNNERS[self.kind][1]
        for setting, (differs, name) in given.items():
            if differs and setting not in reads:
                raise ValueError(f"{self.kind} does not read {name}")
            if not differs and setting in reads and setting not in _EXPERIMENT_KEYS:
                raise ValueError(f"{self.kind} needs {name}")
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
        for axis, (attr, _, identity) in _SWEEP_KEYS.items():
            seen = set()
            for entry in map(identity, getattr(self.sweep, attr)):
                if entry in seen:
                    raise ValueError(f"[sweep] {axis} lists {entry} twice")
                seen.add(entry)
        if self.kind == "variance-check":
            # the closed form divides by the squared noise power, the sample variance by runs - 1
            noise = self.scenario.noise_dbm
            if not 0.0 < dbm_to_linear(noise) * dbm_to_linear(noise) < math.inf:
                raise ValueError(
                    f"variance-check needs 0 < sigma2**2 < inf, got noise_dbm = {noise}"
                )
            if self.runs < 2:
                raise ValueError(f"variance-check needs runs >= 2, got {self.runs}")
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
        period = parts["scenario"].period
        table = {key: partial(parse, period=period) for key, (_, parse, _) in _SWEEP_KEYS.items()}
        values = _read_section(parser["sweep"], table, SweepSpec)
        parts["sweep"] = SweepSpec(**{_SWEEP_KEYS[k][0]: v for k, v in values.items()})
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
    """Write ``header`` and ``rows`` as CSV, built in one join and written
    at once.  Rows are tuples of Python floats, ints and strings; a float
    is written as its repr."""
    line = ",".join(["%s"] * (header.count(",") + 1))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join([header, *(line % row for row in rows), ""]))


@lru_cache(maxsize=8)
def _theta_text(n_grid: int) -> tuple[str, ...]:
    """The theta column of every per-point CSV: k / n_grid for each of the
    ``n_grid`` grid points, each value as its repr; formatted once per grid
    size, and a tuple, so no caller can change it."""
    return tuple(map(repr, (np.arange(n_grid) / n_grid).tolist()))


def _periodogram_csv(periodogram) -> partial:
    """Writer of a periodogram's ``theta,value,estimator,run_id`` rows, with
    the ``_theta_text`` of its grid as the theta column."""
    thetas = _theta_text(periodogram.values.size)
    rows = list(zip(thetas, periodogram.values.tolist(), repeat(periodogram.estimator), repeat(0)))
    return partial(_csv_rows, header="theta,value,estimator,run_id", rows=rows)


def _write_outputs(
    manifest: ExperimentManifest, files: dict, summary: dict | None = None
) -> dict:
    """Create the output directory and write ``files`` (file name -> writer
    taking the path) and, unless None, ``summary`` as ``summary.json`` under
    the header every kind shares: its kind, its seed and its scenario's
    warnings.  Returns file stem -> path."""
    if summary is not None:
        summary = {"kind": manifest.kind, "seed": manifest.seed,
                   "warnings": manifest.scenario.warnings, **summary}
        # a summary that cannot be written (a NaN, say) fails here, before the directory exists
        _json_text(summary)
        files = {**files, "summary.json": partial(_write_json, payload=summary)}
    manifest.output.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(manifest.output / name)
    return {Path(name).stem: manifest.output / name for name in files}


def run_reconstruct(manifest: ExperimentManifest) -> dict:
    """One seeded realization: CAP (and NAP baseline) to CSV plus summary.

    With ``keep_nap``, synthesis reduces each group's spectra to its NAP
    as it builds them, so no more than one group's spectra exist at once,
    and the NAP is the average of the groups' NAPs.  Levels are checked
    at grid scale before synthesis, but finite powers can still overflow
    once squared in a covariance; a CAP or NAP that is not finite is then
    refused before anything is written.
    """
    config = manifest.scenario
    stops = (config.sensors_per_set,) if manifest.keep_nap else ()
    sensed = synthesize_observations(config, seed=(manifest.seed, 0), nap=stops)
    if config.bin_mode == "uncorrelated":
        _, cap = estimate_multicluster(sensed.sets)
    else:
        cap = estimate_correlated_bins(sensed.sets)
    cap.require_finite()
    nap = None
    if manifest.keep_nap:
        nap = average_periodograms([Periodogram(s.nap[0], NAP) for s in sensed.sets])
        nap.require_finite()
    files = {"cap.csv": _periodogram_csv(cap)}
    summary = {
        "estimator": cap.estimator,
        "grid_points": int(cap.values.size),
        "negative_values": cap.negative_count,
        "max_imag_ratio": cap.max_imag_ratio,
    }
    if nap is not None:
        files["nap.csv"] = _periodogram_csv(nap)
        summary["nmse_vs_nap"] = nmse(cap, nap) if np.any(nap.values) else None
    return _write_outputs(manifest, files, summary)


def _pattern_scores(patterns, config: ScenarioConfig, stacks, nap) -> list[float]:
    """The nmse-sweep reducer: each pattern's NMSE against ``nap``, its CAP
    (refused if not finite) solved from its M x M submatrices of the
    covariances ``stacks`` over ``config``'s pattern, the sweep's union."""
    scores = []
    for pattern in patterns:
        idx = np.searchsorted(config.pattern.marks, pattern.marks)
        sub = [CovarianceStack(s.matrices[:, idx[:, None], idx], s.count, pattern) for s in stacks]
        scores.append(nmse(analysis.cap_values(config, sub), nap))
    return scores


def _sweep_cells(scenario: ScenarioConfig, sweep: SweepSpec) -> tuple[list, partial]:
    """An nmse-sweep's ``mc_caps`` configs, one per (tau, level) cell in that
    order, each at the union of the sweep's marks, and their reducer."""
    union = CosetPattern(scenario.period, {mark for p in sweep.patterns for mark in p.marks})
    cells = [replace(scenario, pattern=union, sensors_per_cluster=tau, noise_dbm=sigma)
             for tau, sigma in product(sweep.taus, sweep.sigmas_dbm)]
    return cells, partial(_pattern_scores, sweep.patterns)


def run_nmse_sweep(manifest: ExperimentManifest) -> dict:
    """Monte Carlo NMSE against the Nyquist baseline over a config grid.

    Each run of its (tau, level) cells shares one synthesis, with the NAP at
    every tau, and scores every pattern on its submatrices of the union's
    covariances, so the sweep's comparisons are paired, and each row is what
    its (pattern set, tau, level) gives alone.  The patterns come from
    ``[sweep] patterns`` alone: the scenario's own marks are not read.
    """
    sweep = manifest.sweep
    cells, reduce = _sweep_cells(manifest.scenario, sweep)
    # (cells, runs, patterns)
    scores = analysis.mc_caps(cells, manifest.runs, manifest.seed, manifest.threads, reduce, True)
    rows = [
        (cell.sensors_per_cluster, float(pattern.size / pattern.period), float(cell.noise_dbm),
         float(np.mean(runs[:, i])), manifest.runs, '"' + _marks_text(pattern.marks) + '"')
        for i, pattern in enumerate(sweep.patterns) for cell, runs in zip(cells, scores)
    ]
    return _write_outputs(
        manifest,
        {"nmse.csv": partial(_csv_rows, header="tau,rate,sigma2,nmse,runs,marks", rows=rows)},
        {"runs": manifest.runs, "combos": len(rows)},
    )


def run_roc(manifest: ExperimentManifest) -> dict:
    """Detection ROC per sweep setting; one curve CSV each, AUCs to summary.

    The settings' curves come from one ``analysis.roc_harness`` call, so
    they share each run's synthesis as ``analysis.mc_caps`` decides, and
    each curve is the one its setting would get alone.
    """
    settings = manifest.sweep.roc_settings
    curves = analysis.roc_harness(
        [_roc_scenario(manifest.scenario, setting) for setting in settings],
        manifest.detector,
        runs=manifest.runs,
        seed=manifest.seed,
        threads=manifest.threads,
    )
    files = {}
    aucs = {}
    for setting, curve in zip(settings, curves):
        aucs[setting.label] = curve.auc
        rows = list(zip(curve.thresholds.tolist(), curve.pfa.tolist(), curve.pd.tolist()))
        files[f"roc_{setting.label}.csv"] = partial(
            _csv_rows, header="threshold,pfa,pd", rows=rows
        )
    return _write_outputs(manifest, files, {"runs": manifest.runs, "auc": aucs})


def run_variance_check(manifest: ExperimentManifest) -> dict:
    """White-noise variance closed form vs Monte Carlo over the sweep.

    Every (pattern, tau) report comes from one
    ``analysis.whitenoise_variance_report`` call, so the configs share each
    run's synthesis as ``analysis.mc_caps`` decides.
    """
    config, sweep = manifest.scenario, manifest.sweep
    combos = [(pattern, tau) for pattern in sweep.patterns for tau in sweep.taus]
    reports = analysis.whitenoise_variance_report(
        [replace(config, pattern=pattern, sensors_per_cluster=tau) for pattern, tau in combos],
        runs=manifest.runs, seed=manifest.seed, threads=manifest.threads,
    )
    files = {}
    rows = []
    thetas = _theta_text(config.grid_size)
    for (pattern, tau), report in zip(combos, reports):
        detail = list(zip(thetas, repeat(report.analytical_variance),
                          report.empirical_by_theta.tolist()))
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


TIMED_MIN_S = 0.05
TIMED_BATCHES = 5


def _timed(fns) -> np.ndarray:
    """Per-call seconds of each function in each of TIMED_BATCHES rounds
    (functions x rounds), doubling its calls per batch until a batch takes
    TIMED_MIN_S.  In a round the functions' batches alternate, so a drift
    in the host's speed reaches every function of the round alike."""
    reps = [1] * len(fns)
    for i, fn in enumerate(fns):
        fn()
        while _per_call(fn, reps[i]) * reps[i] < TIMED_MIN_S:
            reps[i] *= 2
    rounds = [[_per_call(fn, count) for fn, count in zip(fns, reps)] for _ in range(TIMED_BATCHES)]
    return np.array(rounds).T


class BenchGateError(RuntimeError):
    """A bench scaling check failed; ``bench.json`` holds the numbers."""


def run_bench(manifest: ExperimentManifest) -> dict:
    """Wall-time per pipeline stage across the tau sweep, with scaling checks.

    The covariance stage must scale close to linearly in tau, and the
    reconstruction stage (LS solve plus periodogram assembly) must not
    depend on tau at all.  A check reads the median over ``_timed``'s rounds
    of the ratio within a round; a failed one raises ``BenchGateError``
    after ``bench.json`` is written.
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
    rounds = np.reshape(_timed(fns), (len(taus), 2, -1))    # tau, stage, round
    times = iter(np.median(rounds, axis=2).ravel().tolist())
    stages = {tau: {"covariance_s": next(times), "reconstruction_s": next(times)} for tau in taus}
    checks = {}
    for lo, hi, lo_rounds, hi_rounds in zip(taus, taus[1:], rounds, rounds[1:]):
        expected = hi / lo
        cov_ratio, rec_ratio = np.median(hi_rounds / lo_rounds, axis=1).tolist()
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


# kind -> (its run, the settings it reads among the [sweep] axes, [detector],
# keep_nap and runs); ``validate`` derives every "needs" and "does not read" from it
RUNNERS = {
    "reconstruct": (run_reconstruct, {"keep_nap"}),
    "nmse-sweep": (run_nmse_sweep, {"tau", "sigma2_dbm", "patterns", "runs"}),
    "roc": (run_roc, {"settings", "detector", "runs"}),
    "variance-check": (run_variance_check, {"tau", "patterns", "runs"}),
    "bench": (run_bench, {"tau"}),
}


def run_manifest(manifest: ExperimentManifest) -> dict:
    manifest.validate()
    # no overflow warning: each kind refuses a value that is not finite before it writes
    with np.errstate(over="ignore", invalid="ignore"):
        return RUNNERS[manifest.kind][0](manifest)
