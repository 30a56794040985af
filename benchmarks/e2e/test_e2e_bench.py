"""Tests of the benchmark itself (outside tier-1's ``testpaths``).

Run from the repository root::

    python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q

Everything runs at ``--scale 0.1`` with sub-second timed windows, so
the file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from benchmarks.e2e import driver
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.workloads import WORKLOADS, instances

SCALE = 0.1
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def decl():
    return driver.declaration()


@pytest.fixture(scope="module")
def repro_imported():
    from benchmarks.e2e import worker

    worker._import_repro()


def test_declaration_is_within_the_contract(decl):
    assert set(decl) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert decl["paths"] == ["benchmarks/e2e"]
    assert 1 <= decl["run_seconds"] <= 60
    assert [w["name"] for w in decl["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in decl["workloads"])
    assert 1 <= len(decl["end_to_end"]) <= 16
    assert 1 <= len(decl["per_layer"]) <= 128
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    names += [w["name"] for w in decl["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for spec in decl["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in decl["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in decl["end_to_end"] + decl["per_layer"])
    setup = next(m for m in decl["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in decl["end_to_end"])


def _cli(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=driver.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_declaration(decl, trace):
    result = _cli("--workload", "incastmix-floodgate", "--seed", "1",
                  "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = decl["per_layer"] if trace else decl["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        cell = result["metrics"][spec["name"]]
        assert set(cell) == {"value", "unit"} and cell["unit"] == spec["unit"]
        assert isinstance(cell["value"], (int, float))
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing"]["value"] == 0
        assert result["metrics"]["floodgate.on_data_calls"]["value"] > 0
        assert result["metrics"]["telemetry.self_s"]["value"] == 0


def test_same_seed_same_counts_other_seed_other_flows():
    runs = [
        driver.run_workload("fattree-a2a", seed, 0.4, trace=False, scale=SCALE)
        for seed in (1, 1, 2)
    ]
    assert all(run["correct"] for run in runs)
    assert runs[0]["counts"] == runs[1]["counts"]
    assert runs[0]["counts"]["workloads.flows"] != runs[2]["counts"]["workloads.flows"]


def test_sharded_run_is_checked_against_its_serial_twin():
    run = driver.run_workload("shard-fattree", 1, 0.4, trace=False, scale=0.3)
    assert run["correct"], run["failures"]
    assert run["per_layer"]["ref.serial_wall_s"] > 0
    assert run["per_layer"]["ref.matched_flows"] > 0


def _function_ids() -> dict:
    """id of every function and method defined under ``repro``."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("repro") or mod is None:
            continue
        for name, obj in vars(mod).items():
            if callable(obj):
                out[f"{modname}.{name}"] = id(obj)
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if callable(member):
                        out[f"{modname}.{name}.{attr}"] = id(member)
    return out


def test_traced_pass_accounts_for_its_time_and_leaves_no_trace(repro_imported):
    from benchmarks.e2e.trace import traced_passes
    from benchmarks.e2e.worker import Runner

    workload = WORKLOADS["incastmix-floodgate"]
    configs = instances(workload, 1, SCALE)[:2]
    runner = Runner(workload, SpanLog(workload.name))
    runner.execute(0, configs[0], "warm")  # lazy imports land before the snapshot
    before = _function_ids()
    trace = traced_passes(runner, configs)
    assert not runner.failures
    assert sys.getprofile() is None
    assert _function_ids() == before
    attributed = sum(trace["self_s"].values()) + trace["unattributed_s"]
    assert 0 < attributed <= trace["traced_wall_s"]
    assert trace["self_s"]["net.port"] > 0 and trace["self_s"]["floodgate"] > 0
    assert trace["unattributed_s"] < 0.05 * trace["traced_wall_s"]
    assert trace["missing"] == []
    assert trace["max_heap_depth"] > 0
    spans = {row["name"] for row in runner.spans.rows}
    assert {"traced[0].build", "traced[0].run", "traced[1].export"} <= spans


def test_failing_configs_are_counted(repro_imported):
    from benchmarks.e2e.worker import Runner, _strip

    workload = WORKLOADS["incastmix-pfc"]
    cfg = instances(workload, 1, SCALE)[0]
    runner = Runner(workload, SpanLog(workload.name))
    good = runner.execute(0, cfg, "pass")
    # stopped before the first flow can finish: the pass's completion
    # rate is the driver's check, over both instances
    stalled = runner.execute(1, replace(cfg, max_runtime_factor=0.01), "pass")
    # rpc cannot run under the process executor: raises inside run_scenario
    rpc = instances(WORKLOADS["rpc-fanout"], 1, SCALE)[0]
    assert runner.execute(
        2, replace(rpc, telemetry=None, shards=2, shard_mode="process"), "pass"
    ) is None
    assert runner.attempted == 3 and len(runner.failures) == 1
    assert "ValueError" in runner.failures[0]

    report = {
        "attempted": runner.attempted,
        "failures": runner.failures,
        "records": [dict(_strip(r), cpu_s=0.0) for r in (good, stalled)],
        "calibration_s": 0.009,
        "setup": {"setup_s": 1.0, "import_s": 0.5, "warmup_s": 0.5},
        "peak_rss_mb": 1.0,
        "spans": [],
    }
    folded = driver.fold(workload, [report, {"crash": "worker exit 1"}], [])
    assert folded["correct"] is False
    assert any("completion" in failure for failure in folded["failures"])
    assert (folded["attempted"], folded["failed"]) == (4, 3)
    assert folded["per_layer"]["experiments.fail_share"] == 0.75


def test_compare_verdicts():
    from benchmarks.e2e.report import verdict

    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [v * 1.5 for v in steady], "lower", 0.25)[1] == "worse"
    assert verdict(steady, [v * 1.1 for v in steady], "lower", 0.25)[1] == "within bound"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.25)[1] == "better"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.25)[1] == "within bound"
    noisy = [6.0, 10.0, 14.0, 9.0]
    assert verdict(noisy, [v * 1.5 for v in noisy], "lower", 0.25)[1] == "unresolved"
