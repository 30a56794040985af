"""The busy-until egress port: event counts, the instant the wire
frees, and which links still get a transmit-done event.

Scripted scenarios are replayed on ``tests/port_pr15.py`` (the
two-event port this design replaced) wherever the claim is "same
behaviour": the arrival trace at the far end must be identical.
"""

from __future__ import annotations

import random

import pytest

import repro.net.node as node_module
from port_pr15 import TwoEventPort
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.port import EgressPort
from repro.sim.engine import Simulator
from repro.simcheck.sanitizer import SanitizerConfig
from repro.units import gbps, serialization_delay, us
from tests.conftest import lossy_link

BW = gbps(10)
DELAY = 1000
SER = serialization_delay(1000, BW)  # 800 ns
SER_CTRL = serialization_delay(64, BW)


class Sink(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id, f"n{node_id}")
        self.received = []

    def receive(self, pkt, ingress_port):
        self.received.append((self.sim.now, pkt.kind.name, pkt.seq))


class Relay(Sink):
    """Forwards every arrival out of its second port and notes whether
    the packet went straight to the wire or had to queue."""

    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.straight = []

    def receive(self, pkt, ingress_port):
        super().receive(pkt, ingress_port)
        self.ports[1].enqueue(pkt, 1)
        self.straight.append(not self.ports[1].queues[1])


def data(seq=0, size=1000):
    return Packet(PacketKind.DATA, 0, 1, size, flow_id=1, seq=seq)


def ctrl(seq=0):
    pkt = Packet.control(PacketKind.ACK, 0, 1)
    pkt.seq = seq
    return pkt


def make_pair(port_cls=EgressPort, bandwidth=BW, delay=DELAY, lid=0):
    """Two nodes, one link; ``lid`` as ``Topology.connect`` would set it."""
    sim = Simulator()
    a, b = Sink(sim, 0), Sink(sim, 1)
    link = Link(sim, a, b, bandwidth, delay)
    link.lid_ab, link.lid_ba = lid, lid + 1 if lid else 0
    original = node_module.EgressPort
    node_module.EgressPort = port_cls
    try:
        a.attach_link(link)
        a.ports[0].add_rr_queues(3)  # queues 2, 3, 4
        b.attach_link(link)
    finally:
        node_module.EgressPort = original
    return sim, a, b, link


def on_both_ports(script):
    """Run ``script(sim, a, b, link)`` on the new and the reference port;
    return the two arrival traces at ``b``."""
    traces = []
    for cls in (EgressPort, TwoEventPort):
        sim, a, b, link = make_pair(cls)
        script(sim, a, b, link)
        sim.run()
        traces.append(b.received)
    return traces


# -- event counts -------------------------------------------------------------


def test_idle_hop_is_one_heap_event():
    sim, a, b, _ = make_pair()
    a.ports[0].enqueue(data(), 1)
    assert sim.pending_events == 1
    ((when, fn, args),) = sim.pending_items()
    assert when == SER + DELAY and fn == b.receive
    sim.run()
    assert sim.events_executed == 1
    assert b.received == [(SER + DELAY, "DATA", 0)]
    # the reference spends two
    sim, a, b, _ = make_pair(TwoEventPort)
    a.ports[0].enqueue(data(), 1)
    sim.run()
    assert sim.events_executed == 2


def test_back_to_back_is_one_wake_per_queued_packet():
    n = 5
    sim, a, b, _ = make_pair()
    for seq in range(n):
        a.ports[0].enqueue(data(seq), 1)
    sim.run()
    assert [t for t, _, _ in b.received] == [
        (k + 1) * SER + DELAY for k in range(n)
    ]
    assert sim.events_executed == n + (n - 1)  # receives + wakes


def test_spaced_packets_never_wake():
    sim, a, b, _ = make_pair()
    for k in range(4):
        sim.schedule_call_at(k * (SER + 1), a.ports[0].enqueue, data(k), 1)
    sim.run()
    assert sim.events_executed == 4 + 4  # the four calls, four receives


# -- enqueue at exactly the instant the wire frees -----------------------------


def test_enqueue_at_free_instant_from_an_earlier_keyed_event_waits():
    """The caller was scheduled *before* the transmission started, so
    at the tie it runs before the wire frees: data then control both
    queue, and control wins the scheduler when the wire does free."""

    def script(sim, a, b, link):
        port = a.ports[0]

        def late():
            port.enqueue(data(1), 1)
            assert len(port.queues[1]) == 1  # did not go to the wire
            port.enqueue_control(ctrl(2))

        sim.schedule_call_at(SER, late)  # seq taken before the transmit
        port.enqueue(data(0), 1)  # wire busy until SER

    new, old = on_both_ports(script)
    assert new == old
    assert [seq for _, _, seq in new] == [0, 2, 1]


def test_enqueue_at_free_instant_from_a_later_keyed_event_transmits():
    """Scheduled *after* the transmission started: at the tie the wire
    has already freed, data goes straight out, control follows it."""

    def script(sim, a, b, link):
        port = a.ports[0]

        def late():
            port.enqueue(data(1), 1)
            assert not port.queues[1]  # straight to the wire
            port.enqueue_control(ctrl(2))

        port.enqueue(data(0), 1)
        sim.schedule_call_at(SER, late)

    new, old = on_both_ports(script)
    assert new == old
    assert [seq for _, _, seq in new] == [0, 1, 2]
    assert new[1][0] == 2 * SER + DELAY


@pytest.mark.parametrize("port_cls", [EgressPort, TwoEventPort])
def test_enqueue_at_free_instant_from_a_delivery_transmits(port_cls):
    """Line-rate forwarding: packet k+1 arrives at the relay exactly
    when packet k's serialization out of it ends.  A delivery (lid > 0)
    sorts after every lid-0 event of its instant, the tx-done included,
    so each arrival finds the wire free."""
    sim = Simulator()
    a, r, c = Sink(sim, 0), Relay(sim, 1), Sink(sim, 2)
    first, second = Link(sim, a, r, BW, DELAY), Link(sim, r, c, BW, DELAY)
    first.lid_ab, first.lid_ba, second.lid_ab, second.lid_ba = 1, 2, 3, 4
    original = node_module.EgressPort
    node_module.EgressPort = port_cls
    try:
        a.attach_link(first)
        r.attach_link(first)
        r.attach_link(second)
        c.attach_link(second)
    finally:
        node_module.EgressPort = original
    for seq in range(3):
        a.ports[0].enqueue(data(seq), 1)
    sim.run()
    assert r.straight == [True, True, True]
    assert c.received == [
        (2 * (SER + DELAY) + k * SER, "DATA", k) for k in range(3)
    ]


# -- kicks while the wire is busy ---------------------------------------------


def _kicks(sim, a, b, link):
    port = a.ports[0]
    port.enqueue(data(0), 1)  # on the wire until SER
    port.pause()
    port.enqueue(data(1), 1)
    port.pause_queue(2)
    port.enqueue(data(2), 2)
    sim.schedule_call_at(100, port.kick)
    sim.schedule_call_at(200, port.resume)
    sim.schedule_call_at(300, port.resume_queue, 2)
    sim.schedule_call_at(400, port.enqueue_control, ctrl(3))
    sim.schedule_call_at(500, port.kick)
    # and at the tie itself, keyed before and after the transmission
    sim.schedule_call_at(SER, port.kick)


def test_pause_resume_kick_while_busy_do_not_reenter():
    new, old = on_both_ports(_kicks)
    assert new == old
    # one packet on the wire at a time: starts are a serialization apart
    assert [seq for _, _, seq in new] == [0, 3, 1, 2]
    starts = [t - DELAY for t, _, _ in new]
    assert starts == [
        SER, SER + SER_CTRL, 2 * SER + SER_CTRL, 3 * SER + SER_CTRL
    ]


def test_resume_with_nothing_on_the_wire_transmits_at_once():
    sim, a, b, _ = make_pair()
    port = a.ports[0]
    port.pause()
    port.enqueue(data(0), 1)
    sim.run()
    assert b.received == [] and sim.events_executed == 0
    sim.schedule_call_at(5000, port.resume)
    sim.run()
    assert b.received == [(5000 + SER + DELAY, "DATA", 0)]


def test_dequeue_hook_enqueueing_on_its_own_port_does_not_reenter():
    def script(sim, a, b, link):
        port = a.ports[0]
        calls = []

        def hook(p, pkt, idx):
            calls.append((sim.now, pkt.seq))
            if pkt.seq == 0:  # a VOQ drain: more work for this port
                p.enqueue(data(10), 1)
                p.enqueue(data(11), 1)
                assert len(p.queues[1]) == 2

        port.on_dequeue = hook
        port.enqueue(data(0), 1)
        sim.schedule_call_at(10 * SER, lambda: b.received.append(calls))

    new, old = on_both_ports(script)
    assert new == old
    assert [seq for _, _, seq in new[:3]] == [0, 10, 11]
    assert new[3] == [(0, 0), (SER, 10), (2 * SER, 11)]  # hook call times


# -- links that keep the transmit-done event -----------------------------------


class _Channel:
    """Records when it was handed each delivery, and for when."""

    def __init__(self, sim, at_tx_done):
        self.sim = sim
        self.at_tx_done = at_tx_done
        self.handed = []

    def send(self, peer, item):
        self.handed.append((self.sim.now, item[0], item[1]))


def test_relay_channel_gets_the_fused_tuple_at_transmit_start():
    sim, a, b, link = make_pair(lid=7)
    link.channel = chan = _Channel(sim, at_tx_done=False)
    a.ports[0].enqueue(data(0), 1)
    a.ports[0].enqueue(data(1), 1)
    sim.run()
    assert chan.handed == [
        (0, SER + DELAY, 7),
        (SER, 2 * SER + DELAY, 7),
    ]


def test_hybrid_style_channel_is_called_when_serialization_ends():
    sim, a, b, link = make_pair(lid=7)
    link.channel = chan = _Channel(sim, at_tx_done=True)
    a.ports[0].enqueue(data(0), 1)
    a.ports[0].enqueue(data(1), 1)
    sim.run()
    assert chan.handed == [
        (SER, SER + DELAY, 7),
        (2 * SER, 2 * SER + DELAY, 7),
    ]


def test_lossy_link_draws_at_tx_done_in_transmit_order():
    def script(sim, a, b, link):
        state = lossy_link(link, 0.5, random.Random(7))
        for seq in range(40):
            a.ports[0].enqueue(data(seq), 1)
        # the draw happens when serialization ends, not when it starts
        sim.schedule_call_at(SER - 1, lambda: b.received.append(state.injected_drops_data))
        sim.schedule_call_at(SER + 1, lambda: b.received.append(state.rng.random()))

    new, old = on_both_ports(script)
    assert new == old
    assert new[0] == 0  # nothing drawn before the first tx-done
    assert 5 < sum(1 for r in new if isinstance(r, tuple)) < 35


def test_faulted_link_that_dies_mid_serialization_drops_the_packet():
    from repro.faults.injector import LinkFaultState

    def script(sim, a, b, link):
        link.fault = state = LinkFaultState(sim, link, random.Random(1))
        a.ports[0].enqueue(data(0), 1)
        sim.schedule_call_at(SER // 2, state.set_down)
        sim.schedule_call_at(3 * SER, state.set_up)
        sim.schedule_call_at(4 * SER, a.ports[0].enqueue, data(1), 1)

    new, old = on_both_ports(script)
    assert new == old
    assert [seq for _, _, seq in new] == [1]


def test_zero_wire_time_takes_the_tx_done_path():
    """At zero serialization delay the wire frees at the current
    instant, where key order cannot say whether that has happened yet."""

    def script(sim, a, b, link):
        for seq in range(3):
            a.ports[0].enqueue(data(seq, size=1), 1)
            a.ports[0].enqueue_control(ctrl(10 + seq))

    traces = []
    for cls in (EgressPort, TwoEventPort):
        sim, a, b, link = make_pair(cls, bandwidth=1e12)  # 8 ps a byte
        script(sim, a, b, link)
        sim.run()
        traces.append(b.received)
    assert traces[0] == traces[1]
    assert len(traces[0]) == 6


# -- the sanitizer's ledger across stepped runs --------------------------------


@pytest.mark.parametrize("scheme", ["none", "floodgate"])
def test_stepped_run_with_packets_mid_serialization_keeps_the_ledger_balanced(scheme):
    """A packet on the wire now rests in its ``receive`` event (there is
    no tx-done event holding it): the conservation walk must still find
    it at any cut, not only at event boundaries."""
    cfg = ScenarioConfig(
        flow_control=scheme,
        workload="webserver",
        n_tors=2,
        hosts_per_tor=3,
        duration=us(60),
        seed=4,
        sanitize=SanitizerConfig(),
    )
    sc = Scenario(cfg)
    sc.schedule_flows()
    sim, san = sc.sim, sc.sanitizer
    ports = [p for n in sc.topology.hosts + sc.topology.switches for p in n.ports]
    cuts_mid_serialization = 0
    # 137 ns steps: far finer than a 1.2 us MTU serialization at 10G
    for until in range(137, us(40), 137):
        sim.run(until=until)
        if any(sim.now < p._free_at for p in ports):
            cuts_mid_serialization += 1
        san.check_now()
    assert cuts_mid_serialization > 50
    assert san.violations == []
    assert sum(h.tx_data_packets for h in sc.topology.hosts) > 100
