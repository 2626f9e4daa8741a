"""Command-line front end.

Exit codes: 0 on success, 1 when a bench scaling check fails (``bench.json``
is still written), 2 on identifiability or configuration errors, 3 on I/O
errors or a worker that died; stderr carries the reason in one line.  A run
that fails before its outputs are written leaves no output directory behind.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

from .analysis import whitenoise_variance_closed_form
from .estimator import IdentifiabilityError
from .patterns import (
    CosetPattern,
    design_pair_cover_family,
    exhaustive_minimal_ruler,
    is_circular_sparse_ruler,
    minimal_circular_sparse_ruler,
)
from .runner import RUNNERS, BenchGateError, parse_manifest, run_manifest
from .scenarios import parse_marks
from .structure import build_psi, build_system_matrix


def _pattern_line(pattern: CosetPattern, status: str) -> str:
    marks = ",".join(map(str, pattern.marks))
    return f"{marks}  cardinality={pattern.size}  {status}"


def cmd_design_ruler(args) -> int:
    if args.exhaustive:
        pattern = exhaustive_minimal_ruler(args.period)
        status = "ruler=yes minimal=yes"
    else:
        result = minimal_circular_sparse_ruler(args.period, node_budget=args.node_budget)
        pattern = result.pattern
        status = f"ruler=yes minimal={'yes' if result.minimal else 'no'}"
    assert is_circular_sparse_ruler(pattern)
    print(_pattern_line(pattern, status))
    return 0


def cmd_design_family(args) -> int:
    family = design_pair_cover_family(args.period, args.marks)
    complete = build_psi(family).identifiable
    for pattern in family.patterns:
        print(_pattern_line(pattern, "member"))
    print(f"groups={family.size}  pair-coverage={'complete' if complete else 'INCOMPLETE'}")
    return 0 if complete else 2


def cmd_inspect_pattern(args) -> int:
    pattern = CosetPattern(args.period, parse_marks(args.marks))
    sysmat = build_system_matrix(pattern)
    print(_pattern_line(pattern, f"ruler={'yes' if sysmat.identifiable else 'no'}"))
    print("gamma=" + ",".join(str(int(g)) for g in sysmat.gamma))
    if sysmat.identifiable:
        # at unit noise the NMSE, variance / sigma2**2, is the variance
        closed = whitenoise_variance_closed_form(pattern, 1.0, 1)
        print(f"identifiable=yes  unit-noise-nmse-times-tau={closed!r}")
    else:
        missing = ",".join(map(str, sysmat.missing_differences))
        print(f"identifiable=no  missing-differences={missing}")
    return 0


def _experiment_command(args) -> int:
    manifest = parse_manifest(args.manifest, kind=args.kind)
    flags = {"seed": args.seed, "threads": args.threads, "output": args.output, "runs": args.runs}
    manifest = replace(manifest, **{key: v for key, v in flags.items() if v is not None})
    paths = run_manifest(manifest)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capspec",
        description="Compressive averaged-periodogram estimation from "
        "multi-coset sub-Nyquist samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design-ruler", help="minimum-cardinality circular sparse ruler")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--node-budget", type=int, default=5_000_000)
    p.set_defaults(fn=cmd_design_ruler)

    p = sub.add_parser("design-family", help="pair-covering pattern family")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--marks", type=int, required=True, help="marks per pattern")
    p.set_defaults(fn=cmd_design_family)

    p = sub.add_parser("inspect-pattern", help="gamma diagonal and identifiability")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--marks", type=str, required=True, help="comma-separated coset indices")
    p.set_defaults(fn=cmd_inspect_pattern)

    for kind in RUNNERS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment manifest")
        p.add_argument("--manifest", type=str, required=True)
        p.add_argument("--seed", type=int, required=kind != "bench", default=None)
        p.add_argument(
            "--threads", type=int, default=None,
            help="worker processes for the Monte Carlo runs",
        )
        p.add_argument("--output", type=Path, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.set_defaults(fn=_experiment_command, kind=kind)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except IdentifiabilityError as exc:
        print(f"error: identifiability: {exc}", file=sys.stderr)
        return 2
    except (ValueError, configparser.Error) as exc:
        # configparser messages span lines; the reason stays on one
        print("error: config: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    except BrokenExecutor as exc:
        print(f"error: worker: {exc}", file=sys.stderr)
        return 3
    except BenchGateError as exc:
        print(f"error: bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
