"""capspec benchmark: four workloads on the shipped fixtures.

    python3 perfbench/run.py --workload mc-nmse-table2 --seed 17 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in its own process (``child.py``) as a closed loop
with one client.  With ``--trace 0`` the last line of standard output is
the end-to-end result; with ``--trace 1`` it carries the per-layer
metrics of a traced run.  The line before it holds provenance and the
figures that are not gated (``failed_frac``, ``auc``, sample counts,
output hashes).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "capspec"

WORKLOADS = ("mc-nmse-table2", "mc-roc-table4", "reconstruct-table5", "estimate-recorded")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_s.p50": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "nmse_vs_nap": ("ratio", "lower"),
}

SETUP_REPEATS = 3       # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0      # a run must end within 180 s
DEFAULT_SEED = 17       # not one of the acceptance tests' frozen seeds


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_child(args, role: str, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", role,
    ]
    if args.tiny:
        command.append("--tiny")
    t0 = time.perf_counter()
    done = subprocess.run(
        command + ["--t0", repr(t0)], capture_output=True, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} {role} process exited with {done.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def provenance(args, child: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": child["workers"],
        "traced": bool(args.trace),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        **child["versions"],
    }


def untraced(args, deadline: float) -> tuple[dict, dict]:
    main = run_child(args, "measure", deadline)
    setups = [main["setup_s"]]
    setups += [run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    latencies = main["latencies"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main["ops_per_s"],
        "op_s.p50": percentile(latencies, 50),
        "peak_rss_mb": main["peak_rss_mb"],
        "nmse_vs_nap": main["nmse_vs_nap"],
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    info = {
        "failed_frac": {"value": main["failed"] / main["attempted"], "unit": "ratio"},
        "op_s.p90": {"value": percentile(latencies, 90), "unit": "s"},
        "samples": {
            "setup_s": len(setups), "ops_per_s": main["ops"],
            "op_s.p50": len(latencies), "op_s.p90": len(latencies),
            "ops_per_s_windows": main["ops_per_s_windows"],
            "peak_rss_mb": 1, "nmse_vs_nap": main["nmse_samples"],
        },
        "setup_s_each": setups,
        "import_s": main["import_s"],
        "output_sha256": main["output_sha256"],
    }
    if "auc" in main:
        info["auc"] = {"value": main["auc"], "unit": "ratio"}
    if "identical_across_workers" in main:
        info["identical_across_workers"] = main["identical_across_workers"]
    correct = main["failed"] == 0 and main.get("identical_across_workers", True)
    result = {"correct": correct, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    return result, {"provenance": provenance(args, main), **info}


def traced(args, deadline: float) -> tuple[dict, dict]:
    child = run_child(args, "trace", deadline)
    metrics = {name: {"value": child["per_layer"][name], "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    correct = child["failed"] == 0 and child.get("identical_across_workers", True)
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    info = {key: child[key] for key in
            ("shares", "traced_requests", "trace_file", "untraced_targets")}
    if "identical_across_workers" in child:
        info["identical_across_workers"] = child["identical_across_workers"]
    return result, {"provenance": provenance(args, child), **info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capspec layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every fixture (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no capspec source at {SRC.relative_to(ROOT)}; "
              "run from the root of a capspec checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        deadline = time.perf_counter() + DEADLINE_S
        try:
            result, info = (traced if args.trace else untraced)(args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info))
        print(json.dumps(result))
        if len(names) > 1:
            for metric, entry in result["metrics"].items():
                print(f"  {name:20s} {metric:44s} {entry['value']:.6g} {entry['unit']}")
            print(f"  {name:20s} {'failed_frac':44s} {result['failed'] / result['attempted']:.6g} ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
