"""Whole runs on the pull-style switch hop vs the push-style hop it
replaced.

``tests/switch_pr22.py`` is the old hop verbatim: per-packet
``record_switch_buffer`` / ``record_port_buffer`` / ``record_queuing``
through ``enqueue_data``, and a Floodgate extension that enqueues its
open-window packets itself.  The live switch keeps those maxima and
sums itself and moves them to the hub when the run is collected.  No
event is added, removed or re-keyed, so unlike the port and host
oracles this one compares the summary *whole* (``unblanked``): event
count, ``sim_time``, hub, and the telemetry export with its profile
block.
"""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import given

import switch_pr22
from oracle_harness import (
    PACKET_CONFIGS,
    SMALL_RPC,
    assert_same_simulation,
    matrix_config,
    shared_live_unblanked,
    small_config_settings,
    small_configs,
    unblanked,
)
from repro.experiments import registry
from repro.experiments.scenario import FLOW_CONTROLS, Scenario, ScenarioConfig
from repro.floodgate.extension import FloodgateExtension
from repro.net.switch import Switch
from repro.stats.collector import StatsHub


def assert_same_on_both_switches(
    cfg: ScenarioConfig, monkeypatch, live: Callable = shared_live_unblanked
) -> None:
    _, new_events, old_events = assert_same_simulation(
        cfg, switch_pr22.install, monkeypatch, live, oracle=unblanked
    )
    assert new_events == old_events


def test_the_oracle_is_grafted_and_removed(monkeypatch):
    """And it really is the push-style hop: it reports queueing to the
    hub per packet, where the live switch reports per port, once."""
    calls = []

    def count_record_queuing(patch):
        sink = StatsHub.record_queuing

        def record_queuing(self, *args):
            calls.append(args)
            sink(self, *args)

        patch.setattr(StatsHub, "record_queuing", record_queuing)

    with monkeypatch.context() as patch:
        switch_pr22.install(patch)
        assert Switch.receive is switch_pr22.receive
        assert Switch.on_port_dequeue is switch_pr22.on_port_dequeue
        assert FloodgateExtension.on_data is switch_pr22.floodgate_on_data
        assert StatsHub.record_queuing is switch_pr22.record_queuing
    assert Switch.receive is not switch_pr22.receive
    assert StatsHub.record_queuing is not switch_pr22.record_queuing

    with monkeypatch.context() as patch:
        switch_pr22.install(patch)
        count_record_queuing(patch)
        pushed = unblanked(SMALL_RPC)[0]
    per_packet, calls[:] = len(calls), []
    with monkeypatch.context() as patch:
        count_record_queuing(patch)
        pulled = unblanked(SMALL_RPC)[0]
    per_port = len(calls)
    assert pushed.canonical_bytes() == pulled.canonical_bytes()
    switches = Scenario(SMALL_RPC).topology.switches
    n_ports = sum(len(sw.ports) for sw in switches)
    assert 0 < per_port <= 2 * n_ports < per_packet


@pytest.mark.parametrize("flow_control", FLOW_CONTROLS)
@pytest.mark.parametrize("cfg", PACKET_CONFIGS)
def test_registry_config_under_every_scheme(cfg, flow_control, monkeypatch):
    """Every packet/rpc registry fabric and traffic pattern x every
    flow-control scheme: ``floodgate`` and ``pfc-tag`` park into VOQs
    (charged by ``_park``, enqueued ``already_charged``), ``bfc`` picks
    its own queue, ``ndp`` trims — and the sharded entries close their
    books once per domain."""
    assert_same_on_both_switches(matrix_config(cfg, flow_control), monkeypatch)


@pytest.mark.parametrize("name", ["quick", "rpc-fanout"])
def test_registry_config_at_full_length(name, monkeypatch):
    for cfg in registry.get(name).configs:
        assert_same_on_both_switches(cfg, monkeypatch)


@given(cfg=small_configs)
@small_config_settings
def test_hypothesis_drawn_small_configs(cfg, monkeypatch):
    """Scheme / cc / pattern / load / buffer / shards / fault plan /
    telemetry: shallow buffers drop at admission, the telemetry draws
    put the per-packet queueing histogram and the counted profile block
    into the comparison."""
    assert_same_on_both_switches(cfg, monkeypatch, live=unblanked)


def test_closed_loop_rpc_on_a_small_fabric(monkeypatch):
    """The rpc driver registers incast flows while the run is under
    way: a departing packet is classified when it leaves, not when the
    books are closed."""
    assert_same_on_both_switches(SMALL_RPC, monkeypatch)
