"""The packet record's slot guard and kind tables, delay-table
invalidation, and flat route tables.

Named for the packet recycler these fast-path tests shipped beside;
the recycler is gone (DESIGN.md "Performance"), the test ids stay.
"""

from __future__ import annotations

import pytest

from repro.net.packet import (
    IS_ACK_LIKE,
    IS_CONTROL,
    ACK_KINDS,
    CONTROL_KINDS,
    Packet,
    PacketKind,
)
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.units import CTRL_PKT_SIZE


class TestPacketReset:
    def test_reset_covers_every_slot(self):
        """A new Packet field that ``__init__`` misses must fail loudly.

        Held for every kind and both constructors: the net a
        kind-specific constructor will need.
        """
        for kind in PacketKind:
            frame = Packet.control(kind, 0, 1)
            assert frame.size == CTRL_PKT_SIZE
            for pkt in (Packet(kind, 0, 1, 100, flow_id=7, seq=3), frame):
                unset = [n for n in Packet.__slots__ if not hasattr(pkt, n)]
                assert not unset, f"{kind.name} (size {pkt.size}): {unset} unset"


class TestKindPredicates:
    def test_dense_tables_agree_with_the_frozensets(self):
        for kind in PacketKind:
            assert IS_CONTROL[kind] == (kind in CONTROL_KINDS)
            assert IS_ACK_LIKE[kind] == (kind in ACK_KINDS)


class TestDelayTable:
    def _port(self):
        from tests.conftest import MiniNet

        net = MiniNet()
        host = net.topo.hosts[0]
        return host.ports[0]

    def test_memoized_delay_matches_the_arithmetic(self):
        port = self._port()
        from repro.units import SEC

        for size in (64, 1000, 1500):
            expect = int(round(size * 8 * SEC / port.bandwidth))
            assert port.serialization_delay_of(size) == expect
            # second read comes from the memo and must agree
            assert port.serialization_delay_of(size) == expect

    def test_set_bandwidth_invalidates_the_memo(self):
        port = self._port()
        full = port.serialization_delay_of(1500)
        port.set_bandwidth(port.bandwidth / 2)
        assert port.serialization_delay_of(1500) == pytest.approx(
            2 * full, rel=0.01
        )

    def test_bandwidth_property_setter_invalidates_too(self):
        port = self._port()
        full = port.serialization_delay_of(1000)
        port.bandwidth = port.bandwidth / 4
        assert port.serialization_delay_of(1000) == pytest.approx(
            4 * full, rel=0.01
        )

    def test_rejects_non_positive_rate(self):
        port = self._port()
        with pytest.raises(ValueError):
            port.set_bandwidth(0)
        with pytest.raises(ValueError):
            port.set_bandwidth(-1.0)


class TestFlatRoutes:
    def _switch(self) -> Switch:
        return Switch(Simulator(), 1_000_000, "sw", buffer_capacity=100_000)

    def test_flat_table_agrees_with_dict_fallback(self):
        sw = self._switch()
        sw.set_route(3, 0)
        sw.set_route(7, 1)
        sw.set_route(9, (0, 1, 2))  # ECMP group
        for dst in (3, 7, 9):
            pkt = Packet(PacketKind.DATA, 0, dst, 1000, flow_id=dst)
            assert sw.route(pkt) == sw._route_slow(dst, pkt.flow_id)
            assert sw.route_for_dst(dst) == sw._route_slow(dst, None)

    def test_huge_dst_uses_the_dict_fallback(self):
        sw = self._switch()
        big = 1 << 20  # beyond the flat-table bound
        sw.set_route(big, 2)
        assert len(sw._route_flat) < big
        assert sw.route_for_dst(big) == 2
        pkt = Packet(PacketKind.DATA, 0, big, 1000, flow_id=1)
        assert sw.route(pkt) == 2

    def test_unknown_dst_still_raises_keyerror(self):
        sw = self._switch()
        sw.set_route(3, 0)
        with pytest.raises(KeyError):
            sw.route_for_dst(4)
        with pytest.raises(KeyError):
            sw.route(Packet(PacketKind.DATA, 0, 99, 1000, flow_id=1))

    def test_route_update_overwrites_flat_entry(self):
        sw = self._switch()
        sw.set_route(5, 0)
        assert sw.route_for_dst(5) == 0
        sw.set_route(5, 3)
        assert sw.route_for_dst(5) == 3
