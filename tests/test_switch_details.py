"""Switch internals: routing resolution, charging, occupancy tracking."""

import pytest

from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.units import ms


class TestRouting:
    def test_unknown_destination_raises(self, leaf_spine):
        sw = leaf_spine.topo.switches[0]
        with pytest.raises(KeyError):
            sw.route_for_dst(9999)

    def test_is_last_hop(self, leaf_spine):
        tor = leaf_spine.topo.switches_of_kind("tor")[0]
        local = next(iter(tor.connected_hosts))
        assert tor.is_last_hop_for(local)
        assert not tor.is_last_hop_for(11)

    def test_finalize_required_before_data(self, leaf_spine):
        sw = Switch(Simulator(), 99, "orphan", 1_000_000)
        pkt = Packet(PacketKind.DATA, 0, 1, 1000)
        with pytest.raises(RuntimeError):
            sw.enqueue_data(pkt, 0)


class TestCharging:
    def test_already_charged_skips_admission(self, leaf_spine):
        tor = leaf_spine.topo.switches_of_kind("tor")[0]
        pkt = Packet(PacketKind.DATA, 4, 0, 1000)
        pkt.ingress_port = 0
        # charge manually (as a VOQ would)
        assert tor.buffer.admit(pkt.size, 0)
        used_before = tor.buffer.used
        tor.enqueue_data(pkt, tor.connected_hosts[0], already_charged=True)
        # never double-charged; the idle port may already have started
        # serializing (releasing the charge), so used can only go down
        assert tor.buffer.used <= used_before

    def test_port_occupancy_roundtrip(self, leaf_spine):
        net = leaf_spine
        tor = net.topo.switches_of_kind("tor")[0]
        out = tor.connected_hosts[0]
        pkt = Packet(PacketKind.DATA, 4, 0, 1000)
        pkt.ingress_port = 4  # pretend: from a spine port
        tor.receive(pkt, 4)
        # packet is either queued (occupancy 1000) or already passed
        # to the serializer (occupancy drained synchronously)
        assert tor._port_bytes[out] in (0, 1000)
        net.run(ms(1))
        assert tor._port_bytes[out] == 0
        assert tor.port_max_bytes[out] >= 0


class TestControlPlane:
    def test_unclaimed_control_dropped_silently(self, leaf_spine):
        sw = leaf_spine.topo.switches[0]
        credit = Packet.control(PacketKind.CREDIT, 1, sw.node_id)
        credit.credits = [(0, 1)]
        sw.receive(credit, 0)  # no extension installed: must not raise

    def test_pfc_pause_resume_roundtrip(self, leaf_spine):
        sw = leaf_spine.topo.switches[0]
        sw.receive(Packet.control(PacketKind.PAUSE, 1, sw.node_id), 0)
        assert sw.ports[0].paused
        sw.receive(Packet.control(PacketKind.RESUME, 1, sw.node_id), 0)
        assert not sw.ports[0].paused

    def test_report_pause_time_without_stats(self):
        sw = Switch(Simulator(), 1, "s", 1_000_000, stats=None)
        sw.report_to_hub()  # no stats hub: must be a no-op


class TestFlatRoutes:
    def _switch(self) -> Switch:
        return Switch(Simulator(), 1_000_000, "sw", buffer_capacity=100_000)

    def test_ecmp_group_keeps_its_per_dst_pick(self):
        sw = self._switch()
        sw.set_route(3, 0)
        sw.set_route(7, 1)
        for dst in range(9, 17):
            sw.set_route(dst, (0, 1, 2))  # ECMP group
        assert sw.route_for_dst(3) == 0 and sw.route_for_dst(7) == 1
        picks = [sw.route_for_dst(dst) for dst in range(9, 17)]
        assert picks == sw._route_flat[9:17]
        assert set(picks) == {0, 1, 2}  # hashed per dst over the group

    def test_unknown_dst_still_raises_keyerror(self):
        sw = self._switch()
        sw.set_route(3, 0)
        with pytest.raises(KeyError):
            sw.route_for_dst(4)
        with pytest.raises(KeyError):
            sw.route_for_dst(99)

    def test_route_update_overwrites_flat_entry(self):
        sw = self._switch()
        sw.set_route(5, 0)
        assert sw.route_for_dst(5) == 0
        sw.set_route(5, 3)
        assert sw.route_for_dst(5) == 3
