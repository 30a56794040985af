"""The one pause primitive: a PAUSE / RESUME frame pair with one target.

``target == -1`` stops the peer's whole egress port (PFC); any other
value is a key of the fabric's per-key scheme, kept by the node's one
keyed owner (a host's ``paused_keys``, a switch extension's
``pause_key``).  Every frame goes through ``Node.receive_pause``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.flow import Flow
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.net.packet import Packet, PacketKind
from repro.units import us

#: keys the frames draw from (flows below use 0..2 as their dsts)
KEYS = (0, 1, 2, 3)

frames = st.lists(
    st.tuples(
        st.sampled_from(("host", "switch")),
        st.booleans(),  # PAUSE (True) or RESUME
        st.sampled_from((-1, *KEYS)),
        st.integers(min_value=0, max_value=7),  # in_port, modulo port count
    ),
    max_size=40,
)


def _pfc_tag_fabric():
    sc = Scenario(
        ScenarioConfig(flow_control="pfc-tag", n_tors=2, hosts_per_tor=2)
    )
    host = sc.topology.hosts[0]
    sw = sc.topology.switches[0]
    # flows the host sends until ACKed: flow i goes to dst i % 3
    for flow_id in range(6):
        flow = Flow(flow_id, host.node_id, flow_id % 3, 10_000, 0)
        host.flow_table[flow_id] = flow
        host._activate(flow_id)
    kicked = []
    host._kick = lambda flow: kicked.append(flow.flow_id)
    return host, sw, sw.extension, kicked


@settings(max_examples=150, deadline=None)
@given(frames)
def test_port_and_keyed_pauses_are_independent(sequence):
    host, sw, ext, kicked = _pfc_tag_fabric()
    model = {
        "host": {"ports": set(), "keys": set()},
        "switch": {"ports": set(), "keys": set()},
    }
    for node_name, pause, target, port_draw in sequence:
        node = host if node_name == "host" else sw
        in_port = port_draw % len(node.ports)
        frame = Packet.control(
            PacketKind.PAUSE if pause else PacketKind.RESUME, 99, node.node_id
        )
        frame.target = target
        kicked.clear()
        node.receive(frame, in_port)

        state = model[node_name]
        scope, member = (
            ("ports", in_port) if target < 0 else ("keys", target)
        )
        if pause:
            state[scope].add(member)
        else:
            state[scope].discard(member)
        for name, owner in (("host", host), ("switch", sw)):
            paused_ports = {p.index for p in owner.ports if p.paused}
            assert paused_ports == model[name]["ports"]
        assert set(host.paused_keys) == model["host"]["keys"]
        assert ext.paused_dsts == model["switch"]["keys"]
        # a keyed RESUME at the host kicks exactly the flows it names,
        # in flow-id order; nothing else kicks anything
        if node is host and not pause and target >= 0:
            assert kicked == [i for i in range(6) if i % 3 == target]
        else:
            assert kicked == []


def test_send_pause_is_what_receive_pause_applies():
    """A frame built by ``send_pause`` carries its target to the peer."""
    sc = Scenario(ScenarioConfig(flow_control="pfc-tag", n_tors=2, hosts_per_tor=2))
    host = sc.topology.hosts[0]
    sw = next(s for s in sc.topology.switches if host.node_id in s.connected_hosts)
    port = sw.connected_hosts[host.node_id]
    sw.send_pause(port, 2, True)
    sc.sim.run(until=us(20))
    assert host.paused_keys == {2}
    assert not host.ports[0].paused
    sw.send_pause(port, -1, True)
    sc.sim.run(until=us(40))
    assert host.paused_keys == {2}
    assert host.ports[0].paused
