"""A run's digest encodes what it produced, by name.

``ResultSummary.canonical_bytes`` pickles plain builtins only: the
config's fields off their defaults under their leaf names, and every
``MEASURES`` row of the hub under its name.  So no class path, field
order or private attribute is in the bytes, and a refactor that moves
no event moves no digest.
"""

import dataclasses
import pickletools

import pytest

from repro.experiments.parallel import ResultSummary, config_fingerprint, summarize
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scale, ScenarioConfig
from repro.faults.plan import FaultPlan, RandomLoss, plan_of
from repro.floodgate.config import FloodgateConfig
from repro.rpc.spec import RpcWorkloadSpec
from repro.simcheck.sanitizer import SanitizerConfig
from repro.stats.collector import MEASURES, FlowClass, StatsHub
from repro.stats.fct import FctRecord
from repro.stats.rpc import RpcRecord
from repro.telemetry.registry import Histogram, TelemetryConfig

#: one instance of every sub-config a ScenarioConfig field may hold
SUB_CONFIGS = dict(
    floodgate=FloodgateConfig(),
    rpc=RpcWorkloadSpec(),
    fault_plan=FaultPlan(),
    telemetry=TelemetryConfig(),
    sanitize=SanitizerConfig(),
)


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        workload="webserver",
        n_tors=2,
        hosts_per_tor=2,
        duration=100_000,
        buffer_bytes=200_000,
        incast_fan_in=3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def summary_of(config: ScenarioConfig, stats: StatsHub = None) -> ResultSummary:
    return ResultSummary(config=config, stats=StatsHub() if stats is None else stats)


def test_bytes_name_no_class_or_module():
    run = summarize(
        run_scenario(
            tiny_config(
                flow_control="floodgate",
                floodgate=FloodgateConfig(credit_timer=20_000),
                fault_plan=plan_of(RandomLoss(data_rate=0.01)),
                telemetry=TelemetryConfig(),
            )
        )
    )
    assert run.stats.flow_class and run.stats.fct_histogram is not None
    # every kind of config value: an enum, each sub-config, a fault
    config = ScenarioConfig(
        scale=Scale.PAPER,
        pattern="rpc",
        rpc=RpcWorkloadSpec(fan_out=4),
        flow_control="floodgate",
        floodgate=FloodgateConfig(loss_recovery=False),
        fault_plan=plan_of(RandomLoss(data_rate=0.01)),
        telemetry=TelemetryConfig(),
        sanitize=SanitizerConfig(),
    )
    ops = {op.name for op, _, _ in pickletools.genops(
        dataclasses.replace(run, config=config).canonical_bytes()
    )}
    assert not ops & {"GLOBAL", "STACK_GLOBAL"}


def test_shard_fields_stay_out_of_the_bytes_but_not_the_cache_key():
    serial = tiny_config()
    sharded = dataclasses.replace(serial, shards=2, shard_mode="barrier")
    assert summary_of(serial).canonical_bytes() == summary_of(sharded).canonical_bytes()
    assert config_fingerprint(serial) != config_fingerprint(sharded)


def test_a_field_at_its_scale_default_is_unset():
    ci_default = ScenarioConfig()._scale_defaults()["n_tors"]
    assert (
        summary_of(ScenarioConfig(n_tors=ci_default)).canonical_bytes()
        == summary_of(ScenarioConfig()).canonical_bytes()
        == summary_of(ScenarioConfig().resolved()).canonical_bytes()
    )


def test_hub_attributes_outside_measures_stay_out():
    plain = summary_of(ScenarioConfig()).canonical_bytes()
    hub = StatsHub()
    hub.bind_shards([StatsHub()])
    hub.scratch = {"anything": 1}
    assert summary_of(ScenarioConfig(), hub).canonical_bytes() == plain


def test_leaf_field_names_are_unique():
    # every field that may hold a sub-config is listed in SUB_CONFIGS
    fields = dataclasses.fields(ScenarioConfig)
    assert {f.name for f in fields if f.default is None} == set(SUB_CONFIGS)
    names = [f.name for f in fields]
    for sub in SUB_CONFIGS.values():
        names += [f.name for f in dataclasses.fields(sub)]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []


def _bump_first(table):
    key = next(iter(table))
    table[key] += 1


#: MEASURES row -> an edit of that row on a fresh hub
ROW_EDITS = {
    "fct_records": lambda h: h.fct_records.append(FctRecord(1, 0, 1, 1000, 0, 5000)),
    "flow_class": lambda h: h.flow_class.update({1: FlowClass.INCAST}),
    "rpc_records": lambda h: h.rpc_records.append(RpcRecord(0, 0, 4, 0, 9000)),
    "switch_max_buffer": lambda h: h.switch_max_buffer.update(tor0=1),
    "port_max_buffer": lambda h: h.port_max_buffer.update({("tor0", "tor"): 1}),
    "max_switch_buffer": lambda h: setattr(h, "max_switch_buffer", 1),
    "queuing_incast": lambda h: h.queuing_incast.update(tor=[10, 1]),
    "queuing_normal": lambda h: h.queuing_normal.update(tor=[10, 1]),
    "pfc_paused_time": lambda h: h.pfc_paused_time.update(host=1),
    "pfc_pause_events": lambda h: setattr(h, "pfc_pause_events", 1),
    "packets_dropped": lambda h: setattr(h, "packets_dropped", 1),
    "fault_drops": lambda h: _bump_first(h.fault_drops),
    "fault_corruptions": lambda h: setattr(h, "fault_corruptions", 1),
    "corrupt_rx": lambda h: setattr(h, "corrupt_rx", 1),
    "unclaimed_control_frames": lambda h: setattr(h, "unclaimed_control_frames", 1),
    "stalls": lambda h: h.stalls.append((1000, 0)),
    "retransmitted_packets": lambda h: setattr(h, "retransmitted_packets", 1),
    "max_voqs_used": lambda h: setattr(h, "max_voqs_used", 1),
    "extension_counters": lambda h: h.extension_counters.update(x=1),
    "track_bandwidth": lambda h: setattr(h, "track_bandwidth", True),
    "tx_bytes_by_category": lambda h: _bump_first(h.tx_bytes_by_category),
    "rx_bytes_by_class": lambda h: h.rx_bytes_by_class.update({FlowClass.OTHER: 1}),
    "fct_histogram": lambda h: setattr(h, "fct_histogram", Histogram("fct")),
    "queuing_histogram": lambda h: setattr(h, "queuing_histogram", Histogram("q")),
    "rpc_histogram": lambda h: setattr(h, "rpc_histogram", Histogram("rpc")),
}


@pytest.mark.parametrize("attr", [m.attr for m in MEASURES])
def test_every_measures_row_is_in_the_bytes(attr):
    plain = summary_of(ScenarioConfig()).canonical_bytes()
    hub = StatsHub()
    ROW_EDITS[attr](hub)
    assert summary_of(ScenarioConfig(), hub).canonical_bytes() != plain
