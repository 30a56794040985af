"""An import pays for what the run touches.

Every optional subsystem is imported in the branch that builds it, and a
package façade resolves its names on first access (``repro.lazy``), so
neither ``import repro.experiments`` nor a plain packet run loads fault
injection, the rpc driver, the fluid and hybrid tiers, the telemetry
recorder, the simcheck linter, unused CC laws, the Floodgate extension,
the baselines or ``multiprocessing``.  Each case runs in a fresh
interpreter: ``sys.modules`` of this process is whatever earlier tests
imported.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: modules only a config that selects them may load (a name also
#: covers its submodules).  ``repro.flowsim.maxmin`` is not one: the
#: runner loads the max-min kernel with every run (see its imports)
OPTIONAL = (
    "repro.faults.injector",
    "repro.faults.watchdog",
    "repro.rpc.driver",
    "repro.rpc.matrix",
    "repro.flowsim.model",
    "repro.hybrid.model",
    "repro.sim.sharded",
    "repro.telemetry.recorder",
    "repro.telemetry.export",
    "repro.telemetry.report",
    "repro.telemetry.samplers",
    "repro.simcheck.linter",
    "repro.simcheck.rules",
    "repro.simcheck.ownership",
    "repro.simcheck.determinism",
    "repro.simcheck.isolation",
    "repro.cc.hpcc",
    "repro.cc.timely",
    "repro.floodgate.extension",
    "repro.baselines.bfc",
    "repro.baselines.ndp",
    "repro.baselines.pfc_tag",
    "multiprocessing",
    "concurrent.futures",
)

#: the public surface the benchmark worker imports up front
WORKER_IMPORTS = """
import repro.experiments
import repro.simcheck.sanitizer
import repro.telemetry.profile
"""

#: a small packet run: 2 ToRs x 2 hosts, 50 us of webserver flows
TINY = (
    "n_tors=2, hosts_per_tor=2, n_spines=1, pattern='poisson', "
    "workload='webserver', duration=50_000"
)


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter that has run ``code``."""
    probe = textwrap.dedent(code) + (
        "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_PARALLEL", "REPRO_CACHE_DIR")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def _optional(modules: set) -> list:
    return sorted(
        m for m in modules
        if any(m == name or m.startswith(name + ".") for name in OPTIONAL)
    )


def _run(overrides: str = "", imports: str = "") -> str:
    """Code that builds, runs and summarizes ``TINY`` plus ``overrides``."""
    return f"""
    from dataclasses import replace
    {imports}
    from repro.experiments import ScenarioConfig, run_scenario, summarize
    config = replace(ScenarioConfig({TINY}), {overrides})
    summary = summarize(run_scenario(config))
    assert summary.completed_flows > 0, summary.completed_flows
    summary.canonical_bytes()
    """


def test_worker_imports_load_no_optional_subsystem():
    assert _optional(_modules_after(WORKER_IMPORTS)) == []


def test_a_plain_packet_run_loads_no_optional_subsystem():
    loaded = _modules_after(_run("flow_control='none'"))
    assert "repro.net.switch" in loaded  # it did build and run a fabric
    assert "repro.flowsim.maxmin" in loaded  # the kernel loads with the runner
    assert _optional(loaded) == []


@pytest.mark.parametrize(
    "imports, overrides, wanted",
    [
        (
            "from repro.faults import FaultPlan, RandomLoss",
            "fault_plan=FaultPlan((RandomLoss(start=0, link='switch-switch', "
            "data_rate=0.01),), stall_window=50_000)",
            {"repro.faults.injector", "repro.faults.watchdog"},
        ),
        (
            "from repro.telemetry import TelemetryConfig",
            "telemetry=TelemetryConfig()",
            {"repro.telemetry.recorder", "repro.telemetry.export",
             "repro.telemetry.samplers"},
        ),
        (
            "from repro.rpc import RpcWorkloadSpec",
            # the default workload: rpc draws from no CDF
            "pattern='rpc', workload='websearch', "
            "rpc=RpcWorkloadSpec(n_clients=2, fan_out=2, think_time=5_000)",
            {"repro.rpc.driver", "repro.rpc.matrix"},
        ),
        ("", "fidelity='flow'", {"repro.flowsim.model"}),
        ("", "fidelity='hybrid'", {"repro.hybrid.model", "repro.flowsim.model"}),
        ("", "flow_control='floodgate'", {"repro.floodgate.extension"}),
        ("", "cc='hpcc'", {"repro.cc.hpcc"}),
        ("", "shards=2", {"repro.sim.sharded"}),
    ],
    ids=["fault_plan", "telemetry", "rpc", "flow", "hybrid", "floodgate",
         "hpcc", "shards"],
)
def test_a_subsystem_loads_once_its_config_field_selects_it(
    imports, overrides, wanted
):
    loaded = set(_optional(_modules_after(_run(overrides, imports))))
    assert wanted <= loaded, sorted(wanted - loaded)


def test_a_pooled_sweep_loads_the_process_pool():
    loaded = _modules_after(f"""
    from repro.experiments import ScenarioConfig, SweepTask, run_sweep
    tasks = [SweepTask(seed, ScenarioConfig({TINY}, seed=seed)) for seed in (1, 2)]
    out = run_sweep(tasks, max_workers=2, cache=False)
    assert sorted(out) == [1, 2]
    """)
    assert {"multiprocessing", "concurrent.futures"} <= loaded


@pytest.mark.parametrize("argv", [["list"], ["--help"]])
def test_cli_start_up_builds_no_simulator(argv):
    loaded = _modules_after(f"""
    from repro.cli import main
    try:
        main({argv!r})
    except SystemExit:
        pass
    """)
    assert "repro.cli" in loaded
    simulator = ("repro.net", "repro.sim", "repro.flowsim")
    assert sorted(
        m for m in loaded
        if m in simulator or m.startswith(tuple(p + "." for p in simulator))
    ) == []


#: every façade's public names, as its ``__all__`` listed them when the
#: names were still imported eagerly: each must keep resolving
FACADES = {
    "repro": ["Simulator", "gbps", "kb", "mb", "ms", "us", "__version__"],
    "repro.baselines": [
        "BfcExtension", "BfcHost", "NdpHost", "NdpSwitchExtension",
        "PfcTagExtension",
    ],
    "repro.cc": [
        "Flow", "CcAlgorithm", "Dcqcn", "Timely", "Hpcc",
    ],
    "repro.experiments": [
        "Scale", "Scenario", "ScenarioConfig", "ScenarioResult",
        "ResultSummary", "SweepTask", "run_scenario", "run_sweep", "summarize",
    ],
    "repro.faults": [
        "CLASS_CTRL", "CLASS_DATA", "Corruption", "FaultInjector",
        "FaultPlan", "FaultSpec", "LinkDown", "LinkFaultState",
        "RandomLoss", "StallWatchdog", "match_links", "plan_of",
    ],
    "repro.floodgate": [
        "FloodgateConfig", "FloodgateExtension", "Voq", "VoqPool", "WindowTable",
    ],
    "repro.flowsim": ["FluidSimulation", "max_min_rates"],
    "repro.net": [
        "Packet", "PacketKind", "Link", "EgressPort", "SharedBuffer", "Node",
        "Switch", "SwitchExtension", "Host", "PortRole", "Topology",
        "build_dumbbell", "build_leaf_spine", "build_fat_tree", "build_testbed",
    ],
    "repro.rpc": ["RpcWorkloadSpec", "DestinationMatrix", "ClosedLoopDriver"],
    "repro.simcheck": [
        "CheckReport", "EventStreamDigest", "Finding", "SanitizerConfig",
        "SimSanitizer", "run_check", "run_digest",
    ],
    "repro.telemetry": [
        "EngineProfiler", "GaugeSampler", "Histogram", "PeriodicSampler",
        "RateSampler", "TelemetryConfig", "TelemetryExport",
        "TelemetryRecorder", "render_export",
    ],
    "repro.workloads": [
        "FlowSizeDistribution", "MEMCACHED", "WEB_SERVER", "HADOOP", "WEB_SEARCH",
        "WORKLOADS", "poisson_flows", "FlowSpec", "periodic_incast",
        "successive_incast", "staggered_flows",
    ],
}


@pytest.mark.parametrize("package", sorted(FACADES))
def test_every_public_name_resolves_from_its_facade(package):
    module = importlib.import_module(package)
    assert sorted(FACADES[package]) == sorted(module.__all__)
    for name in FACADES[package]:
        assert name in dir(module), name
        value = getattr(module, name)
        assert getattr(module, name) is value  # cached, not re-imported
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        _ = module.no_such_name


def test_star_import_and_submodule_import_still_work():
    loaded = _modules_after("""
    from repro.faults import *
    from repro.experiments import registry
    assert RandomLoss and FaultPlan and registry.get("quick")
    """)
    assert "repro.faults.injector" in loaded  # `*` asks for every name
