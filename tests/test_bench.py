"""The bench harness: one twin loop, one gate, history routed by metric."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import bench, registry
from repro.experiments.scenario import ScenarioConfig
from repro.rpc.spec import RpcWorkloadSpec
from repro.units import us

TINY = ScenarioConfig(
    flow_control="floodgate",
    workload="webserver",
    n_tors=2,
    hosts_per_tor=4,
    poisson_load=0.4,
    duration=us(200),
    seed=3,
)
TINY_RPC = replace(
    TINY,
    pattern="rpc",
    rpc=RpcWorkloadSpec(n_clients=2, fan_out=2, think_time=us(20)),
)


@pytest.fixture
def tiny_matrix(monkeypatch):
    """One tiny bench entry per gate metric, plus a sharded one."""
    entries = [
        registry.ScenarioEntry("t-packet", "d", (TINY,), tags=("bench",)),
        registry.ScenarioEntry(
            "t-shard",
            "d",
            (replace(TINY, shards=2),),
            tags=("bench",),
            min_speedup=1.5,
        ),
        registry.ScenarioEntry(
            "t-fluid",
            "d",
            (replace(TINY, fidelity="flow"),),
            tags=("bench",),
            gate_metric="flows_per_sec",
        ),
        registry.ScenarioEntry(
            "t-hybrid",
            "d",
            (replace(TINY, fidelity="hybrid"),),
            tags=("bench",),
            gate_metric="flows_per_sec",
            min_speedup=1e9,
        ),
        registry.ScenarioEntry(
            "t-rpc",
            "d",
            (TINY_RPC,),
            tags=("bench",),
            gate_metric="requests_per_sec",
        ),
    ]
    for entry in entries:
        monkeypatch.setitem(registry._REGISTRY, entry.name, entry)
    return [entry.name for entry in entries]


# -- the twin loop ------------------------------------------------------------


def test_records_carry_the_reference_twin_of_their_configs(tiny_matrix):
    records = bench.run_matrix(tiny_matrix, repeats=2)
    base = set(records["t-packet"])
    assert not any("speedup" in key for key in base)
    assert set(records["t-shard"]) - base == {
        "shards",
        "cpus",
        "serial_wall_seconds",
        "speedup_vs_serial",
    }
    for name in ("t-fluid", "t-hybrid"):
        assert set(records[name]) - base == {
            "packet_wall_seconds",
            "speedup_vs_packet",
        }
        assert records[name]["speedup_vs_packet"] > 0
    # the sharded run replays its serial twin event for event
    for key in ("events", "completed_flows", "total_flows", "sim_time_ns"):
        assert records["t-shard"][key] == records["t-packet"][key]
    assert records["t-rpc"]["completed_requests"] > 0
    assert records["t-packet"]["repeats"] == 2


def test_run_bench_scenario_rejects_zero_repeats(tiny_matrix):
    with pytest.raises(ValueError, match="repeats"):
        bench.run_bench_scenario(registry.get("t-packet"), repeats=0)


# -- history routing ----------------------------------------------------------


def test_run_and_write_routes_records_by_gate_metric(tiny_matrix, tmp_path):
    out = tmp_path / "engine.json"
    result = bench.run_and_write(repeats=1, path=out, scenarios=tiny_matrix)
    assert result["output_file"] == str(out)
    assert result["flowsim_output_file"] == str(tmp_path / "BENCH_flowsim.json")
    assert result["rpc_output_file"] == str(tmp_path / "BENCH_rpc.json")
    expected = {
        out: ("engine-bench", {"t-packet", "t-shard"}),
        tmp_path / "BENCH_flowsim.json": ("flowsim-bench", {"t-fluid", "t-hybrid"}),
        tmp_path / "BENCH_rpc.json": ("rpc-bench", {"t-rpc"}),
    }
    for path, (label, names) in expected.items():
        data = json.loads(path.read_text())
        assert data["benchmark"] == label
        assert set(data["latest"]) == names
        (entry,) = data["history"]
        assert set(entry["scenarios"]) == names
        assert entry["machine"] == bench.machine_fingerprint()
    # a second run appends; only the files its scenarios belong to
    bench.run_and_write(repeats=1, path=out, scenarios=["t-rpc"])
    assert len(bench.load_bench_file(tmp_path / "BENCH_rpc.json")["history"]) == 2
    assert len(bench.load_bench_file(out)["history"]) == 1


def test_history_is_capped_and_latest_accumulates(tmp_path):
    out = tmp_path / "h.json"
    for i in range(bench.MAX_HISTORY + 3):
        bench.append_history({f"s{i % 2}": {"events_per_sec": i}}, out)
    data = bench.load_bench_file(out)
    assert len(data["history"]) == bench.MAX_HISTORY
    assert set(data["latest"]) == {"s0", "s1"}
    assert bench.best_history_rate(data, "s0", bench.machine_fingerprint()) == (
        bench.MAX_HISTORY + 2
    )
    assert bench.best_history_rate(data, "s0", "elsewhere") is None


# -- the gate -----------------------------------------------------------------


def history(machine, **rates):
    return {
        "history": [
            {
                "machine": machine,
                "scenarios": {
                    name: {registry.get(name).gate_metric: rate}
                    for name, rate in rates.items()
                },
            }
        ]
    }


def test_gate_regression_bar_is_per_metric_and_same_machine():
    prior = history("box", **{"quick": 100_000, "flowsim-quick": 50_000})
    records = {
        "quick": {"events_per_sec": 81_000},
        "flowsim-quick": {"flows_per_sec": 39_000, "events_per_sec": 10**9},
    }
    ok, messages = bench.check_gate(records, prior, machine="box")
    assert not ok
    assert messages[0].startswith("gate ok quick: 81,000 ev/s >= 80,000")
    assert messages[1].startswith(
        "GATE FAIL flowsim-quick: 39,000 flows/s < 40,000"
    )
    # a tighter budget moves the bar
    ok, _ = bench.check_gate(
        {"quick": {"events_per_sec": 81_000}}, prior, "box", max_regression=0.1
    )
    assert not ok


def test_gate_falls_back_to_the_absolute_floor_without_history():
    prior = history("another-box", **{"quick": 10**9, "rpc-fanout": 10**9})
    records = {
        "quick": {"events_per_sec": bench.EVENTS_PER_SEC_FLOOR},
        "rpc-fanout": {"requests_per_sec": bench.REQUESTS_PER_SEC_FLOOR - 1},
    }
    ok, messages = bench.check_gate(records, prior, machine="box")
    assert not ok
    assert "absolute floor" in messages[0] and messages[0].startswith("gate ok")
    assert messages[1].startswith("GATE FAIL rpc-fanout: 9 req/s < 10")


def test_gate_compares_only_against_history_of_the_same_event_count():
    """Fewer events per packet must not read as a slowdown: a history
    entry taken under another event model is no basis for events/s."""
    prior = history("box", quick=268_072)
    prior["history"][0]["scenarios"]["quick"]["events"] = 230_732
    # same model, below the bar: the history entry is the basis
    slow = {"quick": {"events": 230_732, "events_per_sec": 150_000}}
    ok, messages = bench.check_gate(slow, prior, machine="box")
    assert not ok and "best same-machine run 268,072" in messages[0]
    # another event count: that entry is skipped, the floor decides
    fused = {"quick": {"events": 149_319, "events_per_sec": 150_000}}
    ok, messages = bench.check_gate(fused, prior, machine="box")
    assert ok and "absolute floor" in messages[0]
    assert bench.best_history_rate(prior, "quick", "box", events=149_319) is None
    assert bench.best_history_rate(prior, "quick", "box", events=230_732) == 268_072


@pytest.mark.parametrize(
    "name, record, verdict",
    [
        ("hybrid-incast256", {"speedup_vs_packet": 3.2}, "gate ok"),
        ("hybrid-incast256", {"speedup_vs_packet": 2.9}, "GATE FAIL"),
        (
            "shard-fattree-a2a",
            {"speedup_vs_serial": 1.9, "shards": 4, "cpus": 4},
            "gate ok",
        ),
        (
            "shard-fattree-a2a",
            {"speedup_vs_serial": 1.2, "shards": 4, "cpus": 8},
            "GATE FAIL",
        ),
        (
            "shard-fattree-a2a",
            {"speedup_vs_serial": 0.4, "shards": 4, "cpus": 2},
            "gate skip",
        ),
    ],
)
def test_gate_min_speedup_comes_from_the_registry_entry(name, record, verdict):
    entry = registry.get(name)
    record = {entry.gate_metric: 10**9, **record}
    ok, messages = bench.check_gate({name: record}, {"history": []}, "box")
    assert ok == (verdict != "GATE FAIL")
    assert len(messages) == 2
    assert messages[1].startswith(f"{verdict} {name}: speedup ")
    if verdict != "gate skip":
        assert f"{entry.min_speedup}x" in messages[1]


def test_gate_records_without_a_bar_or_a_twin_are_not_speedup_gated():
    records = {
        # recorded, never gated: no min_speedup on the entry
        "shard-incast256": {
            "events_per_sec": 10**9,
            "speedup_vs_serial": 0.1,
            "shards": 2,
            "cpus": 8,
        },
        # a bar but no twin timing in the record (older history shape)
        "hybrid-incast256": {"flows_per_sec": 10**9},
    }
    ok, messages = bench.check_gate(records, {"history": []}, "box")
    assert ok and len(messages) == 2
    assert registry.get("shard-incast256").min_speedup is None
    assert registry.get("hybrid-incast256").min_speedup == 3.0
    assert registry.get("shard-fattree-a2a").min_speedup == 1.8
