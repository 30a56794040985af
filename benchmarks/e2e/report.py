"""``aa`` (calibrate the bounds) and ``compare`` (judge B against A).

Both read result files written by ``--out``: ``{"runs": [result, ...]}``
with one result per (workload, seed) run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.e2e.driver import DECLARATION, declaration, iqr, run_workload
from benchmarks.e2e.workloads import WORKLOADS

#: bounds before calibration; ``aa`` only ever widens them
STARTING_BOUNDS = {"setup_s": 0.25, "sim_mb_per_s": 0.08, "peak_rss_mb": 0.10}
#: the contract's ceiling on any bound
MAX_BOUND = 0.25
#: a metric is steady enough when its spread is a third of its bound
SPREAD_SHARE_OF_BOUND = 3.0
#: set-to-set range of a timing metric above this is a benchmark defect
DEFECT_RANGE = 0.10


def load_runs(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """workload -> its runs, in file order."""
    with open(path) as fh:
        doc = json.load(fh)
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for run in doc["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _values(runs: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    return [run["end_to_end"][metric] for run in runs]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    return iqr(values) / statistics.median(values)


# -- aa -----------------------------------------------------------------------


def calibrated_bounds(
    by_workload: Dict[str, List[Dict[str, Any]]], decl: Dict[str, Any]
) -> Dict[str, float]:
    bounds = {}
    for spec in decl["end_to_end"]:
        name = spec["name"]
        worst = max(spread(_values(runs, name)) for runs in by_workload.values())
        wanted = max(STARTING_BOUNDS.get(name, spec["bound"]),
                     SPREAD_SHARE_OF_BOUND * worst)
        bounds[name] = min(MAX_BOUND, math.ceil(wanted * 100) / 100)
    return bounds


def aa_main(argv: List[str]) -> int:
    decl = declaration()
    ap = argparse.ArgumentParser(prog="benchmarks.e2e aa")
    ap.add_argument("--sets", type=int, default=5,
                    help="full sets of runs; set k uses --seed k")
    ap.add_argument("--seconds", type=float, default=float(decl["run_seconds"]))
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--out", help="keep the runs (input for `compare`)")
    ap.add_argument("--write-bounds", action="store_true",
                    help="write the calibrated bounds into BENCHMARK.json")
    args = ap.parse_args(argv)

    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for seed in range(1, args.sets + 1):
        for name in args.workload or list(WORKLOADS):
            run = run_workload(name, seed, args.seconds, trace=False)
            by_workload.setdefault(name, []).append(run)
            print(f"set {seed} {name}: " + "  ".join(
                f"{k}={v:.5g}" for k, v in run["end_to_end"].items()
            ), flush=True)

    print(f"\n{'workload':<22s} {'metric':<14s} {'median':>10s} {'IQR':>10s} "
          f"{'IQR/med':>8s} {'range/med':>9s}")
    clean = all(run["correct"] for runs in by_workload.values() for run in runs)
    for name, runs in by_workload.items():
        for spec in decl["end_to_end"]:
            values = _values(runs, spec["name"])
            median = statistics.median(values)
            gap = (max(values) - min(values)) / median
            timing = spec["unit"] in ("s", "MB/s") and spec["name"] != "setup_s"
            flag = "  DEFECT: sets differ by more than a tenth" if (
                timing and gap > DEFECT_RANGE) else ""
            print(f"{name:<22s} {spec['name']:<14s} {median:>10.5g} "
                  f"{spread(values) * median:>10.4g} {spread(values):>8.3f} "
                  f"{gap:>9.3f}{flag}")
    bounds = calibrated_bounds(by_workload, decl)
    print("\nbounds: " + "  ".join(f"{k}={v}" for k, v in bounds.items()))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": [r for runs in by_workload.values() for r in runs]},
                      fh, indent=1)
    if args.write_bounds:
        for spec in decl["end_to_end"]:
            spec["bound"] = bounds[spec["name"]]
        DECLARATION.write_text(json.dumps(decl, indent=2) + "\n")
    return 0 if clean else 1


# -- compare ------------------------------------------------------------------


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[float, str]:
    """Worsening of B's median over A's (share of A's), and the verdict."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / med_a
    noise = max(spread(a), spread(b))
    if better == "lower":
        every_run_better = max(b) < min(a)
    else:
        every_run_better = min(b) > max(a)
    if worsening < 0 and (every_run_better or -worsening > noise):
        return worsening, "better"
    if noise > bound:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "within bound"


def differing_counts(
    a: Sequence[Dict[str, Any]], b: Sequence[Dict[str, Any]]
) -> List[str]:
    """Simulated counts that differ between same-seed runs of A and B."""
    by_seed = {run["seed"]: run for run in b}
    lines = []
    for run in a:
        twin = by_seed.get(run["seed"])
        if twin is None:
            continue
        for name in sorted(set(run["counts"]) | set(twin["counts"])):
            x, y = run["counts"].get(name), twin["counts"].get(name)
            if x != y:
                lines.append(f"{run['workload']} seed {run['seed']} {name}: {x} -> {y}")
    return lines


def compare_main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks.e2e compare")
    ap.add_argument("a", help="result file of the parent")
    ap.add_argument("b", help="result file of the change")
    args = ap.parse_args(argv)
    decl = declaration()
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<22s} {'metric':<14s} {'A median':>11s} {'B median':>11s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    worse = 0
    changed: List[str] = []
    for name in runs_a:
        if name not in runs_b:
            continue
        for spec in decl["end_to_end"]:
            a = _values(runs_a[name], spec["name"])
            b = _values(runs_b[name], spec["name"])
            worsening, word = verdict(a, b, spec["better"], spec["bound"])
            worse += word == "worse"
            delta = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            print(f"{name:<22s} {spec['name']:<14s} {statistics.median(a):>11.5g} "
                  f"{statistics.median(b):>11.5g} {delta:>+8.1%} "
                  f"{spec['bound']:>6.2f}  {word}")
        changed += differing_counts(runs_a[name], runs_b[name])
    print(f"\n{len(changed)} simulated count(s) differ")
    for line in changed:
        print(f"  {line}")
    return 1 if worse else 0
