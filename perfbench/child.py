"""One workload in its own process: set up, serve requests, report as JSON.

Roles:
  setup    set up and run the warm-up op, then report ``setup_s`` only;
  measure  untraced closed loop at the workload's worker count, for
           ``--seconds`` of wall time and at least the requests that give
           ``nmse_vs_nap``;
  trace    a traced 1-worker pass, the same requests untraced at 1 worker
           and, for the Monte Carlo workloads, again at 2 workers.

``--t0`` is the parent's ``perf_counter`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, ``import capspec``, fixture load, record synthesis and one
warm-up op.  The last line of standard output is the JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class Pass:
    """Requests served by one closed-loop client."""

    latencies: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s

    def digests(self) -> list[str]:
        return [o.digest for o in self.outcomes]

    def window_rates(self, ops_per_request: int, window_s: float = 1.0) -> list[float]:
        """Throughput of consecutive windows of at least ``window_s`` busy time.

        Their median ignores a slowdown of the machine that lasts less than
        half the run.  A trailing partial window is dropped unless it is
        the only one.
        """
        rates = []
        ops = busy = 0.0
        for latency, outcome in zip(self.latencies, self.outcomes):
            ops += ops_per_request if outcome.ok else 0
            busy += latency
            if busy >= window_s:
                rates.append(ops / busy)
                ops = busy = 0.0
        return rates or [ops / busy]


def serve(workload, workers, *, seconds=0.0, min_requests=1, requests=None, recorder=None):
    """Closed loop with one client: request i+1 starts when i has been checked.

    Stops after ``requests`` requests when given, else once ``seconds`` of
    wall time have passed and at least ``min_requests`` were served.  Each
    request is timed on its own; its output check runs outside that time.
    """
    from workloads import FAILED

    result = Pass()
    start = time.perf_counter()
    index = 0
    while (
        index < requests
        if requests is not None
        else index < min_requests or time.perf_counter() - start < seconds
    ):
        if recorder is not None:
            recorder.op = index
        began = time.perf_counter()
        try:
            handle = workload.run(index, workers)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            handle = None
        result.latencies.append(time.perf_counter() - began)
        if recorder is not None:
            recorder.op = None
        outcome = FAILED
        if handle is not None:
            try:
                outcome = workload.check(index, handle)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        if outcome.ok:
            result.ops += workload.ops_per_request
        else:
            result.failed += workload.ops_per_request
        result.outcomes.append(outcome)
        index += 1
    return result


def versions() -> dict:
    import capspec
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "capspec": capspec.__version__,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(workload, seconds: float) -> dict:
    run = serve(workload, workload.workers, seconds=seconds,
                min_requests=workload.quality_requests)
    nmse, nmse_n = workload.nmse_vs_nap(run.outcomes)
    rates = run.window_rates(workload.ops_per_request)
    report = {
        "latencies": run.latencies,
        "ops": run.ops,
        "ops_per_s": statistics.median(rates),
        "ops_per_s_windows": len(rates),
        "attempted": run.ops + run.failed,
        "failed": run.failed,
        "nmse_vs_nap": nmse,
        "nmse_samples": nmse_n,
        "output_sha256": hashlib.sha256(
            "".join(run.digests()[: workload.quality_requests]).encode()
        ).hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
    }
    aucs = [o.auc for o in run.outcomes if o.auc is not None]
    if aucs:
        report["auc"] = sum(aucs) / len(aucs)
    if workload.monte_carlo:
        # Outside the timed region: request 0 again at the other worker count.
        again = serve(workload, 1 if workload.workers > 1 else 2, requests=1)
        report["identical_across_workers"] = again.digests() == run.digests()[:1]
    return report


def trace(workload, seconds: float, recorder, patcher, import_s: float) -> dict:
    import layers

    share = seconds / (3 if workload.monte_carlo else 2)
    traced = serve(workload, 1, seconds=share, recorder=recorder)
    patcher.restore()
    plain = serve(workload, 1, requests=traced.requests)
    metrics = {"setup.import_s": import_s}
    metrics.update(layers.span_metrics(recorder.spans, traced.ops))
    metrics["patterns.family_groups"] = workload.family_groups
    metrics["runner.output_bytes"] = (
        sum(o.output_bytes for o in traced.outcomes) / traced.ops
    )
    metrics["trace.overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
    report = {
        "shares": layers.shares(recorder.spans, traced.busy_s),
        "traced_requests": traced.requests,
        "attempted": sum(p.ops + p.failed for p in (traced, plain)),
        "failed": traced.failed + plain.failed,
    }
    if workload.monte_carlo:
        parallel = serve(workload, 2, requests=traced.requests)
        metrics["runner.dispatch_speedup"] = parallel.ops_per_s / plain.ops_per_s
        report["identical_across_workers"] = parallel.digests() == plain.digests()
        report["attempted"] += parallel.ops + parallel.failed
        report["failed"] += parallel.failed
    else:
        # nothing to dispatch: one worker in both passes
        metrics["runner.dispatch_speedup"] = 1.0
    report["per_layer"] = {name: metrics[name] for name in layers.PER_LAYER}
    trace_file = OUT_DIR / f"trace-{workload.name}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as f:
        for span in recorder.spans:
            f.write(json.dumps(span.__dict__, default=str) + "\n")
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    began = time.perf_counter()
    import capspec  # noqa: F401  (timed: the first import of the package)

    import_s = time.perf_counter() - began

    import layers
    import spans
    import workloads

    out_root = OUT_DIR / args.workload / args.role
    out_root.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_root, args.tiny)
    recorder = patcher = None
    if args.role == "trace":
        recorder, patcher = spans.Recorder(), spans.Patcher()
        missing = layers.install(recorder, patcher)
        recorder.op = layers.SETUP_OP
    workload.setup()
    warm = workload.check(workloads.WARMUP, workload.run(workloads.WARMUP, workload.workers))
    if not warm.ok:
        print(f"perfbench: warm-up op of {args.workload} failed its output check",
              file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - args.t0
    if recorder is not None:
        recorder.op = None

    report = {"setup_s": setup_s, "import_s": import_s, "versions": versions(),
              "workers": 1 if args.role == "trace" else workload.workers}
    if args.role == "measure":
        report.update(measure(workload, args.seconds))
    elif args.role == "trace":
        report.update(trace(workload, args.seconds, recorder, patcher, import_s),
                      untraced_targets=missing)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
