"""A fabric holds only the state its traffic uses.

Right after ``Scenario(cfg)`` no egress queue, pause set, ECN stream
or Floodgate credit table exists yet, and the serialization-delay
memos are one per link bandwidth.  After a run, exactly the queues
that held a packet exist, and the sanitizer's conservation ledger sees
the packets in them.  Nothing here reads a clock or a byte count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import pytest

import repro.net.port as port_module
from repro.experiments import Scenario, ScenarioConfig, run_scenario
from repro.net.port import EMPTY_QUEUE, EMPTY_SET
from repro.simcheck.sanitizer import (
    SanitizerConfig,
    conservation_violations,
    count_kinds,
)
from repro.units import us

#: the 128-host fat-tree all-to-all the e2e benchmark's ``fattree-a2a``
#: times (one of its instances)
FATTREE_A2A = ScenarioConfig(
    topology="fat-tree",
    fat_tree_k=8,
    hosts_per_edge=4,
    workload="webserver",
    pattern="poisson",
    poisson_load=0.6,
    duration=us(60),
    seed=51_000,
)
FLOODGATE_LEAF_SPINE = ScenarioConfig(
    flow_control="floodgate", workload="webserver", pattern="incastmix"
)


def _ports(topo):
    return [port for node in (*topo.hosts, *topo.switches) for port in node.ports]


@pytest.mark.parametrize(
    "cfg", [FATTREE_A2A, FLOODGATE_LEAF_SPINE], ids=["fat-tree-k8", "floodgate"]
)
def test_a_built_fabric_holds_no_per_element_state(cfg):
    sc = Scenario(cfg)
    topo = sc.topology
    ports = _ports(topo)
    assert all(q is EMPTY_QUEUE for port in ports for q in port.queues)
    assert all(port.paused_queues is EMPTY_SET for port in ports)
    assert all(
        host.paused_keys is EMPTY_SET and host.active_flows is EMPTY_SET
        for host in topo.hosts
    )
    markers = [sw.ecn for sw in topo.switches]
    assert markers and all(m is not None and m._rng is None for m in markers)
    # one serialization-delay memo per link bandwidth, shared by its ports
    assert len({id(port._delay_table) for port in ports}) == len(
        {link.bandwidth for link in topo.links}
    )
    assert all(
        port._delay_table is topo.delay_tables[port.bandwidth] for port in ports
    )
    if cfg.flow_control == "floodgate":
        for ext in sc.extensions:
            credits = ext.credits
            assert credits.watched  # every switch here has a switch peer
            assert not credits.owed and not credits.last_fwd_psn
            assert not credits._timers
            assert not ext.windows.next_psn


def test_after_a_run_only_ports_that_queued_a_packet_hold_a_queue(monkeypatch):
    appended = set()

    class RecordingDeque(deque):
        def append(self, pkt):
            appended.add(id(self))
            super().append(pkt)

    monkeypatch.setattr(port_module, "deque", RecordingDeque)
    sc = Scenario(FATTREE_A2A)
    run_scenario(FATTREE_A2A, scenario=sc)
    queues = [q for port in _ports(sc.topology) for q in port.queues]
    held = [q for q in queues if q is not EMPTY_QUEUE]
    assert held and len(held) < len(queues)
    assert all(type(q) is RecordingDeque and id(q) in appended for q in held)


def test_the_ledger_counts_packets_in_queues_created_mid_run():
    cfg = replace(FLOODGATE_LEAF_SPINE, sanitize=SanitizerConfig())
    sc = Scenario(cfg)
    sc.schedule_flows()
    waiting = []
    for step in range(1, 200):
        sc.sim.run(until=us(step))
        waiting = [
            pkt for port in _ports(sc.topology) for q in port.queues for pkt in q
        ]
        if count_kinds(waiting)[0]:
            break
    data, _ = count_kinds(waiting)
    assert data, "no data packet ever waited in an egress queue"
    at_rest = {id(pkt) for pkt in sc.sanitizer._packets_at_rest()}
    assert all(id(pkt) in at_rest for pkt in waiting)
    # injected == delivered + dropped + in flight, with the packets in
    # those queues on the in-flight side
    ledger = sc.sanitizer.sweep()
    assert ledger["inflight_data"] >= data
    assert conservation_violations([ledger]) == []
