"""Packet model."""

from repro.net.packet import (
    ACK_KINDS,
    CONTROL_KINDS,
    IS_ACK_LIKE,
    IS_CONTROL,
    Packet,
    PacketKind,
)
from repro.units import CTRL_PKT_SIZE


class TestConstruction:
    def test_data_packet_defaults(self):
        pkt = Packet(PacketKind.DATA, 1, 2, 1000, flow_id=7, seq=3)
        assert pkt.ecn_capable
        assert not pkt.ecn_marked
        assert pkt.psn == -1
        assert pkt.upstream_psn == -1

    def test_control_constructor_size(self):
        pkt = Packet.control(PacketKind.CREDIT, 10, 20)
        assert pkt.size == CTRL_PKT_SIZE
        assert pkt.kind == PacketKind.CREDIT

    def test_ack_not_ecn_capable(self):
        assert not Packet.control(PacketKind.ACK, 0, 1).ecn_capable


class TestClassification:
    def test_control_kinds_are_control(self):
        for kind in CONTROL_KINDS:
            assert IS_CONTROL[Packet.control(kind, 0, 1).kind]

    def test_ack_kinds_are_ack_like(self):
        for kind in ACK_KINDS:
            assert IS_ACK_LIKE[Packet.control(kind, 0, 1).kind]

    def test_data_is_neither(self):
        pkt = Packet(PacketKind.DATA, 0, 1, 1000)
        assert not IS_CONTROL[pkt.kind]
        assert not IS_ACK_LIKE[pkt.kind]

    def test_control_and_ack_sets_disjoint(self):
        assert not (CONTROL_KINDS & ACK_KINDS)


class TestTrim:
    def test_trim_converts_to_header(self):
        pkt = Packet(PacketKind.DATA, 0, 1, 1500, flow_id=9, seq=4)
        pkt.trim()
        assert pkt.kind == PacketKind.NDP_HEADER
        assert pkt.size == CTRL_PKT_SIZE
        assert not pkt.ecn_capable  # no longer buffer-charged
        # routing identity survives
        assert pkt.flow_id == 9 and pkt.seq == 4


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
