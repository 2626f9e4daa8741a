"""Which capspec functions the traced pass wraps, and the per-layer metrics.

Each wrapped function gets a span named ``module.function`` after the
module that defines it.  The wrapper replaces every name under which a
capspec module holds the function, so callers that imported it with
``from .sensing import synthesize_observations`` are traced too.
``runner.write`` is one span name for the three output writers.

``numpy.fft.fft``/``ifft`` and ``numpy.random.default_rng`` are wrapped as
boundary counters: each call is credited to the innermost open span.

Only the standard library is imported at module level; ``install``
imports numpy when it runs.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

from spans import covered_length, self_times

# (span name, defining module, attribute path)
TARGETS = (
    ("scenarios.load_fixture", "capspec.scenarios", "load_fixture"),
    ("patterns.design_pair_cover_family", "capspec.patterns", "design_pair_cover_family"),
    ("sensing.synthesize_observations", "capspec.sensing", "synthesize_observations"),
    ("sensing.extract_coset_observations", "capspec.sensing", "extract_coset_observations"),
    ("estimator.estimate_multicluster", "capspec.estimator", "estimate_multicluster"),
    ("estimator.sample_covariance", "capspec.estimator", "sample_covariance"),
    ("estimator.ls_reconstruct_rbar", "capspec.estimator", "ls_reconstruct_rbar"),
    ("estimator.assemble_cap", "capspec.estimator", "assemble_cap"),
    ("estimator.estimate_correlated_bins", "capspec.estimator", "estimate_correlated_bins"),
    ("structure.build_system_matrix", "capspec.structure", "build_system_matrix"),
    ("structure.build_psi", "capspec.structure", "build_psi"),
    ("analysis.nyquist_ap", "capspec.analysis", "nyquist_ap"),
    ("analysis.nmse", "capspec.analysis", "nmse"),
    ("analysis.roc_from_scores", "capspec.analysis", "roc_from_scores"),
    ("runner.run_manifest", "capspec.runner", "run_manifest"),
    ("runner.write", "capspec.estimator", "Periodogram.write_csv"),
    ("runner.write", "capspec.runner", "_write_json"),
    ("runner.write", "capspec.runner", "_csv_rows"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Spans that run while the workload sets up; reported per set-up, not per op.
SETUP_SPANS = ("scenarios.load_fixture", "patterns.design_pair_cover_family")

SETUP_OP = "setup"

# name -> (unit, better); the order is the print order.
PER_LAYER = {"setup.import_s": ("s", "lower")}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
PER_LAYER.update(
    {
        "patterns.family_groups": ("count", "lower"),
        "sensing.rng_streams": ("count", "lower"),
        "sensing.fft_calls": ("count", "lower"),
        "sensing.fft_points": ("count", "lower"),
        "sensing.record_mb": ("MB", "lower"),
        "estimator.sample_covariance.gflop_per_s": ("GFLOP/s", "higher"),
        "runner.output_bytes": ("B", "lower"),
        "runner.dispatch_speedup": ("ratio", "higher"),
        "trace.overhead_frac": ("ratio", "lower"),
    }
)


def _covariance_flop(args, kwargs, stack) -> dict:
    """Computed flop of the sample covariance: 8 * tau * M^2 * L."""
    l_pts, m, _ = stack.matrices.shape
    return {"flop": 8 * stack.count * m * m * l_pts}


def _record_bytes(args, kwargs, observations) -> dict:
    arrays = (getattr(observations, n, None) for n in ("samples", "dtft", "full_rate"))
    return {"record_bytes": sum(a.nbytes for a in arrays if a is not None)}


MEASURES = {
    "estimator.sample_covariance": _covariance_flop,
    "sensing.extract_coset_observations": _record_bytes,
}


def _fft_counts(result) -> dict:
    return {"fft_calls": 1, "fft_points": int(result.size)}


def install(recorder, patcher) -> list[str]:
    """Wrap every target that exists; return the ones that do not."""
    import numpy

    modules = [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == "capspec" or name.startswith("capspec."))
    ]
    missing = []
    for span_name, module_name, path in TARGETS:
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = recorder.wrap(span_name, original, MEASURES.get(span_name))
        if outer:
            patcher.replace(owner, attr, wrapped)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patcher.replace(module, name, wrapped)
    patcher.replace(numpy.fft, "fft", recorder.counter(numpy.fft.fft, _fft_counts))
    patcher.replace(numpy.fft, "ifft", recorder.counter(numpy.fft.ifft, _fft_counts))
    patcher.replace(
        numpy.random,
        "default_rng",
        recorder.counter(numpy.random.default_rng, lambda _: {"rng_streams": 1}),
    )
    return missing


def span_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op self time, calls and counters from one traced pass.

    Spans of the set-up (op ``SETUP_OP``) count only for ``SETUP_SPANS``,
    which are reported per set-up; every other span counts when it belongs
    to a timed op, and is divided by ``ops``.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span in spans:
        if span.name in SETUP_SPANS:
            if span.op != SETUP_OP:
                continue
            divisor = 1
        elif span.op is None or span.op == SETUP_OP:
            continue
        else:
            divisor = ops
        self_s[span.name] += selfs[span.id] / divisor
        calls[span.name] += 1 / divisor
        if span.name.startswith("sensing."):
            for key, value in span.counts.items():
                counts[key] += value / divisor
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    metrics["sensing.rng_streams"] = counts["rng_streams"]
    metrics["sensing.fft_calls"] = counts["fft_calls"]
    metrics["sensing.fft_points"] = counts["fft_points"]
    metrics["sensing.record_mb"] = counts["record_bytes"] / 1e6

    cov = [s for s in spans if s.name == "estimator.sample_covariance" and s.op not in (None, SETUP_OP)]
    cov_time = sum(selfs[s.id] for s in cov)
    flop = sum(s.counts.get("flop", 0) for s in cov)
    metrics["estimator.sample_covariance.gflop_per_s"] = flop / cov_time / 1e9 if cov_time > 0 else 0.0
    return metrics


def shares(spans, busy_s: float) -> dict[str, float]:
    """Inclusive share of the timed ops' busy time, per span name and module."""
    groups = defaultdict(list)
    for span in spans:
        if span.op is None or span.op == SETUP_OP:
            continue
        interval = (span.start, span.end)
        groups[span.name].append(interval)
        groups[span.name.split(".")[0] + ".*"].append(interval)
    return {
        name: covered_length(intervals, -math.inf, math.inf) / busy_s
        for name, intervals in sorted(groups.items())
    }
