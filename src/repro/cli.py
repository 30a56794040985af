"""Command-line entry point: run one paper experiment and print it.

Usage::

    floodgate-experiment list
    floodgate-experiment run fig10 [--full]
    floodgate-experiment run tab02
    floodgate-experiment run faults [--full]
    floodgate-experiment scenarios list [--tag rpc]
    floodgate-experiment scenarios show NAME
    floodgate-experiment validate-flowsim [--scenario quick ...]
                                          [--tolerance 0.15] [--json FILE]
    floodgate-experiment validate-hybrid [--scenario incast256 ...]
                                         [--tolerance 0.10] [--json FILE]
    floodgate-experiment report [--scheme floodgate] [--out run.jsonl]
    floodgate-experiment report --from run.jsonl
    floodgate-experiment check [paths ...] [--sanitize] [--rules]
                               [--sharded] [--shards 2 4]
                               [--scenarios quick incast256]

The two ``validate-*`` commands are one handler over the two rows of
``repro.experiments.validate.TIERS`` (their defaults are that table's
values).  Simulator speed is measured by ``python3 -m benchmarks.e2e``
(see ``benchmarks/e2e/README.md``), not from here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from typing import Dict

#: experiment id -> (module, one-line description)
EXPERIMENTS: Dict[str, tuple[str, str]] = {
    "fig02": ("fig02_throughput", "realtime throughput under incastmix"),
    "fig06": ("fig06_testbed", "testbed: FCT + per-hop buffers"),
    "fig07": ("fig07_workloads", "workload flow-size CDFs"),
    "fig08": ("fig08_fct", "avg/p99 FCT of Poisson flows"),
    "fig09": ("fig09_victims", "FCT by flow class (victims)"),
    "fig10": ("fig10_buffer", "max switch buffer occupancy"),
    "tab02": ("tab02_pfc", "PFC pause time by node level"),
    "fig11": ("fig11_realloc", "per-hop buffers + queueing split"),
    "fig12": ("fig12_loss", "robustness to packet loss"),
    "fig13": ("fig13_fattree", "3-tier fat-tree topology"),
    "fig14": ("fig14_scaleup", "buffer vs number of ToRs"),
    "fig15": ("fig15_successive", "successive incasts + per-dst PAUSE"),
    "fig16": ("fig16_ecn", "convergence vs ECN thresholds"),
    "fig17": ("fig17_params", "parameter sweeps (T, delayCredit)"),
    "fig18": ("fig18_overhead", "bandwidth overhead breakdown"),
    "fig20": ("fig20_bfc", "comparison with BFC"),
    "fig21": ("fig21_incast_fct", "incast flows' own FCT"),
    "fig22": ("fig22_poisson", "pure Poisson scenarios"),
    "fig23": ("fig23_ndp", "comparison with NDP"),
    "fig24": ("fig24_pfctag", "comparison with PFC w/ tag"),
    "sec74": ("sec74_resources", "switch resource overhead"),
    "faults": ("fault_sweep", "fault-injection sweep: loss x fault type x scheme"),
    "rpc": ("rpc_fanout", "closed-loop rpc: p999 request latency vs fan-out"),
}


def _print_result(obj, indent: int = 0) -> None:
    """Readable nested-dict dump (numbers rounded)."""

    def default(x):
        return round(x, 3) if isinstance(x, float) else str(x)

    print(json.dumps(obj, indent=2, default=default))


def _report(args) -> int:
    """The `report` subcommand: render telemetry, saved or freshly run."""
    from repro.telemetry.export import TelemetryExport
    from repro.telemetry.report import render_export

    if args.from_file is not None:
        with open(args.from_file, "r", encoding="utf-8") as fh:
            export = TelemetryExport.from_jsonl(fh.read())
        print(render_export(export, width=args.width))
        return 0

    from dataclasses import replace

    from repro.experiments.figures.common import incastmix_base
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario
    from repro.telemetry.profile import EngineProfiler
    from repro.telemetry.registry import TelemetryConfig

    if args.scenario is not None:
        from repro.experiments import registry

        try:
            entry = registry.get(args.scenario)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        cfg = replace(
            entry.configs[0], seed=args.seed, telemetry=TelemetryConfig()
        )
        print(
            f"Running instrumented scenario {entry.name!r} ...",
            file=sys.stderr,
        )
    else:
        cfg = incastmix_base(
            quick=not args.full,
            workload=args.workload,
            flow_control=args.scheme,
            seed=args.seed,
            telemetry=TelemetryConfig(),
        )
        print(
            f"Running instrumented {args.scheme} / {args.workload} run ...",
            file=sys.stderr,
        )
    start = time.monotonic()
    # the export carries counts only; the wall-clock half of the page
    # comes from a live profiler on the engine (a sharded run's events
    # execute on per-domain engines: it then has nothing to show)
    scenario = Scenario(cfg)
    profiler = EngineProfiler()
    scenario.sim.add_observer(profiler)
    result = run_scenario(cfg, scenario=scenario)
    elapsed = time.monotonic() - start
    assert result.telemetry is not None
    print(
        render_export(
            result.telemetry,
            width=args.width,
            profiler=profiler if profiler.events else None,
        )
    )
    if args.out:
        result.telemetry.write(args.out)
        print(f"export written to {args.out}", file=sys.stderr)
    print(f"done in {elapsed:.1f}s", file=sys.stderr)
    return 0


def _scenarios(args) -> int:
    """The `scenarios` subcommand: inspect the declarative registry."""
    import dataclasses

    from repro.experiments import registry

    if args.action == "list":
        names = registry.names(tag=args.tag)
        if not names:
            print(f"no scenarios tagged {args.tag!r}", file=sys.stderr)
            return 1
        width = max(len(n) for n in names)
        for name in names:
            entry = registry.get(name)
            tags = ",".join(entry.tags)
            print(f"{name:{width}s}  [{tags}]  {entry.description}")
        return 0

    # show
    try:
        entry = registry.get(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"name:        {entry.name}")
    print(f"description: {entry.description}")
    print(f"tags:        {', '.join(entry.tags) or '-'}")
    if entry.notes:
        print(f"notes:       {entry.notes}")
    print(f"configs:     {len(entry.configs)}")
    for i, cfg in enumerate(entry.configs):
        print(f"--- config [{i}] ---")
        _print_result(dataclasses.asdict(cfg))
    return 0


def _validate(args) -> int:
    """The `validate-*` subcommands: one tier against the packet engine."""
    from repro.experiments import validate

    rule = validate.TIERS[args.tier]
    names = args.scenario or list(rule.scenarios)
    print(
        f"Cross-validating {rule.label} tier on: {', '.join(names)} ...",
        file=sys.stderr,
    )
    start = time.monotonic()
    ok, comparisons, messages = validate.cross_validate(
        args.tier, names, tolerance=args.tolerance
    )
    for msg in messages:
        print(msg)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump([c.as_dict() for c in comparisons], fh, indent=2)
            fh.write("\n")
        print(f"comparisons written to {args.json_out}", file=sys.stderr)
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{rule.command}: {verdict} in {time.monotonic() - start:.1f}s",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _check(args) -> int:
    """The `check` subcommand: static lint, optionally the runtime suite."""
    from pathlib import Path

    from repro.simcheck.linter import run_check
    from repro.simcheck.rules import RULES

    if args.rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0

    root = Path(args.root) if args.root else None
    report = run_check(root=root, paths=args.paths or None)
    for finding in report.findings:
        print(finding.format())
    for entry in report.dead_allowlist:
        print(
            f"simcheck-allowlist.txt: dead entry `{entry.rule} {entry.glob}` "
            "matches no scanned file; remove or fix the glob"
        )
    print(f"simcheck: {report.summary()}", file=sys.stderr)
    status = 0 if report.ok else 1

    if args.sanitize:
        from repro.simcheck.determinism import run_suite

        print("simcheck: running sanitized determinism suite ...", file=sys.stderr)
        start = time.monotonic()
        suite = run_suite(seed=args.seed, schemes=args.schemes)
        for name, rep in suite["schemes"].items():
            mark = "ok" if rep["ok"] else "FAIL"
            print(
                f"  {name:12s} {mark}  digest={rep['digest'][:16]} "
                f"events={rep['events']} violations={len(rep['violations'])}"
            )
            for v in rep["violations"]:
                print(f"    {v}")
        pool_mark = "ok" if suite["pool_identical"] else "FAIL"
        print(f"  serial-vs-pooled {pool_mark}")
        for key in suite["pool_mismatched"]:
            print(f"    mismatch: {key}")
        print(
            f"simcheck: suite done in {time.monotonic() - start:.1f}s",
            file=sys.stderr,
        )
        if not suite["ok"]:
            status = 1

    if args.sharded:
        from repro.simcheck.determinism import run_sharded_suite

        print(
            "simcheck: running sharded equivalence suite ...", file=sys.stderr
        )
        start = time.monotonic()
        sharded = run_sharded_suite(
            seed=args.seed,
            schemes=args.schemes,
            shards=tuple(args.shards),
            scenarios=tuple(args.scenarios),
            isolate=args.isolate,
        )
        for key, rep in sharded["cases"].items():
            mark = "ok" if rep["ok"] else "FAIL"
            modes = " ".join(
                f"{m}={'ok' if r['ok'] else 'FAIL'}"
                for m, r in rep["modes"].items()
            )
            print(f"  {key:28s} {mark}  {modes}")
            for m, r in rep["modes"].items():
                for v in r.get("isolation_violations", []):
                    print(f"    {m}: {v}")
        print(
            f"simcheck: sharded suite done in {time.monotonic() - start:.1f}s",
            file=sys.stderr,
        )
        if not sharded["ok"]:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser.  Every ``choices`` list that mirrors a
    table elsewhere (schemes, flow controls, validation scenarios, the
    rule span) is generated from that table, so none can drift.  Every
    table lives in a module that loads no part of the simulator, so
    ``list`` and ``--help`` never build one."""
    from repro.experiments import validate
    from repro.experiments.choices import FLOW_CONTROLS
    from repro.simcheck import determinism
    from repro.simcheck.rules import RULES

    parser = argparse.ArgumentParser(
        prog="floodgate-experiment",
        description="Reproduce one figure/table from the Floodgate paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible experiments")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument(
        "--full",
        action="store_true",
        help="full CI-scale parameters instead of the quick bench scale",
    )
    for tier, rule in validate.TIERS.items():
        validate_p = sub.add_parser(
            rule.command,
            help=f"cross-validate the {rule.label} tier against the packet "
            "engine (FCT divergence)",
        )
        validate_p.set_defaults(tier=tier)
        validate_p.add_argument(
            "--scenario",
            nargs="+",
            default=None,
            choices=validate.SCENARIOS,
            help="registry scenario(s) to validate (default: "
            f"{' '.join(rule.scenarios)})",
        )
        validate_p.add_argument(
            "--tolerance",
            type=float,
            default=rule.tolerance,
            help="max p50/p99 FCT divergence over the compared flows "
            f"(default {rule.tolerance})",
        )
        validate_p.add_argument(
            "--json",
            dest="json_out",
            default=None,
            metavar="FILE",
            help="also write the per-config comparisons as JSON",
        )
    report_p = sub.add_parser(
        "report",
        help="run one instrumented scenario and render its telemetry "
        "(or re-render a saved export)",
    )
    report_p.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="FILE",
        help="render a previously saved telemetry JSONL instead of running",
    )
    report_p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a registry scenario (see `scenarios list`) instead of "
        "the default incastmix run; rpc scenarios add the request-level "
        "SLO section",
    )
    report_p.add_argument(
        "--scheme",
        default="floodgate",
        choices=list(FLOW_CONTROLS),
        help="flow control for the instrumented run (default floodgate)",
    )
    report_p.add_argument(
        "--workload", default="websearch", help="workload distribution name"
    )
    report_p.add_argument("--seed", type=int, default=1)
    report_p.add_argument(
        "--full",
        action="store_true",
        help="full CI-scale parameters instead of the quick bench scale",
    )
    report_p.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also save the export (.jsonl or .csv by suffix)",
    )
    report_p.add_argument(
        "--width", type=int, default=72, help="chart width in columns"
    )
    scenarios_p = sub.add_parser(
        "scenarios",
        help="inspect the declarative scenario registry",
    )
    scenarios_sub = scenarios_p.add_subparsers(dest="action", required=True)
    scenarios_list_p = scenarios_sub.add_parser(
        "list", help="list registered scenarios"
    )
    scenarios_list_p.add_argument(
        "--tag",
        default=None,
        help="only scenarios carrying this tag (e.g. packet, rpc, flowsim)",
    )
    scenarios_show_p = scenarios_sub.add_parser(
        "show", help="print one scenario's full config(s)"
    )
    scenarios_show_p.add_argument("name", help="registry name")
    _rule_ids = sorted(r for r in RULES if r != "SIM000")
    check_p = sub.add_parser(
        "check",
        help=f"determinism + shard-safety lint ({_rule_ids[0]}..{_rule_ids[-1]}); "
        "--sanitize adds the runtime invariant + digest suite",
    )
    check_p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint, relative to the repo root "
        "(default: src tests benchmarks examples)",
    )
    check_p.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit"
    )
    check_p.add_argument(
        "--sanitize",
        action="store_true",
        help="also run every scheme sanitized twice and compare digests",
    )
    check_p.add_argument(
        "--sharded",
        action="store_true",
        help="also prove sharded execution (lockstep/barrier/process) "
        "replays serial runs byte-for-byte, per scheme and shard count",
    )
    check_p.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        choices=list(dict(determinism.SCHEMES + determinism.SHARDED_SCHEMES)),
        help="schemes for the --sanitize/--sharded suites (default: all of "
        f"{' '.join(dict(determinism.SCHEMES))} / all of "
        f"{' '.join(dict(determinism.SHARDED_SCHEMES))})",
    )
    check_p.add_argument(
        "--shards",
        nargs="+",
        type=int,
        default=[2, 4],
        metavar="N",
        help="shard counts for the --sharded suite (default: 2 4)",
    )
    check_p.add_argument(
        "--scenarios",
        nargs="+",
        default=["quick", "incast256"],
        metavar="NAME",
        help="registry scenarios for the --sharded suite "
        "(default: quick incast256)",
    )
    check_p.add_argument(
        "--isolate",
        action="store_true",
        help="with --sharded: tag hot objects with domain ids and trap "
        "cross-domain mutations at dispatch (ShardIsolationSanitizer)",
    )
    check_p.add_argument("--seed", type=int, default=1)
    check_p.add_argument(
        "--root",
        default=None,
        help="repo root (default: ascend from CWD to pyproject.toml)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for key, (_, desc) in EXPERIMENTS.items():
            print(f"{key:7s} {desc}")
        return 0

    if hasattr(args, "tier"):
        return _validate(args)

    if args.command == "report":
        return _report(args)

    if args.command == "scenarios":
        return _scenarios(args)

    if args.command == "check":
        return _check(args)

    module_name, desc = EXPERIMENTS[args.experiment]
    module = importlib.import_module(f"repro.experiments.figures.{module_name}")
    print(f"Running {args.experiment}: {desc} ...", file=sys.stderr)
    start = time.monotonic()
    if args.experiment == "fig07":
        result = module.run()
        result.pop("cdf", None)  # too verbose for a terminal
    else:
        result = module.run(quick=not args.full)
    elapsed = time.monotonic() - start
    # series data is for plotting, not terminals
    if isinstance(result, dict):
        result.pop("series", None)
        result.pop("cdf", None)
    _print_result(result)
    print(f"done in {elapsed:.1f}s", file=sys.stderr)
    # the fault sweep's acceptance criterion: every stall is detected
    stalls = result.get("undetected_stalls", 0) if isinstance(result, dict) else 0
    if stalls:
        print(f"{stalls} undetected stall(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
