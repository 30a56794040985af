"""Command line of the benchmark.

::

    python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1
    python3 -m benchmarks.e2e [--workload NAME ...] [--seed S] [--traced] [--out FILE]
    python3 -m benchmarks.e2e aa --sets 5
    python3 -m benchmarks.e2e compare A.json B.json

The first form is what ``BENCHMARK.json`` declares: one workload, one
JSON result object on the last stdout line.  Without ``--workload``
every workload runs in turn (each in fresh worker processes).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def _print_result(result: Dict[str, Any], decl: Dict[str, Any], trace: bool) -> None:
    """Every metric by name with unit and sample count, then the JSON line."""
    n = result["samples"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} passes={n}")
    printed = [("end_to_end", decl["end_to_end"])]
    if trace:
        printed.append(("per_layer", decl["per_layer"]))
    for kind, specs in printed:
        for spec in specs:
            value = result[kind].get(spec["name"], 0.0)  # not exercised: 0
            print(f"  {spec['name']:<40s} {value:>14.6g} {spec['unit']:<6s} n={n}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    kind, specs = printed[-1]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {
                "value": result[kind].get(spec["name"], 0.0),
                "unit": spec["unit"],
            }
            for spec in specs
        },
    }))


def _run(argv: List[str]) -> int:
    from benchmarks.e2e.driver import declaration, run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    decl = declaration()
    ap = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(decl["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink simulated durations (tests use 0.1)")
    ap.add_argument("--out", help="write every metric, count and span here")
    args = ap.parse_args(argv)
    trace = bool(args.trace or args.traced)
    runs = []
    for name in args.workload or list(WORKLOADS):
        try:
            result = run_workload(name, args.seed, args.seconds, trace, args.scale)
        except RuntimeError as exc:  # no worker produced a timed pass
            print(f"benchmarks.e2e: {name}: {exc}", file=sys.stderr)
            return 2
        runs.append(result)
        _print_result(result, decl, trace)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else ""
    if command == "worker":
        from benchmarks.e2e.worker import main as worker_main

        return worker_main(argv[1:])
    if command == "aa":
        from benchmarks.e2e.report import aa_main

        return aa_main(argv[1:])
    if command == "compare":
        from benchmarks.e2e.report import compare_main

        return compare_main(argv[1:])
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
