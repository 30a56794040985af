"""Baseline host-side edge cases that full runs rarely hit."""

from repro.baselines.bfc import BfcExtension, _fid_hash
from repro.net.packet import Packet, PacketKind
from repro.units import ms


class TestBfcConfig:
    def test_ideal_flag(self):
        assert BfcExtension(None, 0, 10_000).ideal
        assert not BfcExtension(None, 32, 10_000).ideal

    def test_resume_default_half(self):
        ext = BfcExtension(None, 32, 10_000)
        assert ext.pause_threshold == 10_000
        assert ext.resume_threshold == 5_000

    def test_fid_hash_deterministic_and_spread(self):
        values = {_fid_hash(i) % 32 for i in range(1000)}
        assert len(values) == 32  # covers all buckets
        assert _fid_hash(7) == _fid_hash(7)


class TestBfcHostEdges:
    def test_pause_unknown_queue_harmless(self):
        from tests.test_baseline_bfc import build

        sim, topo, exts, _ = build()
        host = topo.hosts[0]
        frame = Packet.control(PacketKind.PAUSE, 99, 0)
        frame.target = 123456
        host.receive(frame, 0)  # must not raise
        assert host.paused_keys == {123456}
        assert not host.ports[0].paused_queues  # virtual: not the NIC's
        frame2 = Packet.control(PacketKind.RESUME, 99, 0)
        frame2.target = 123456
        host.receive(frame2, 0)
        assert not host.paused_keys

    def test_resume_kicks_only_matching_flows(self):
        from tests.test_baseline_bfc import build

        sim, topo, exts, _ = build()
        host = topo.hosts[4]
        f1 = topo.make_flow(1, 4, 0, 30_000, 0)
        f2 = topo.make_flow(2, 4, 1, 30_000, 0)
        q1 = host._pause_key_of(f1)
        q2 = host._pause_key_of(f2)
        host.paused_keys = {q1, q2}
        topo.start_flow(f1)
        topo.start_flow(f2)
        sim.run(until=ms(1))
        assert not f1.receiver_done and not f2.receiver_done
        resume = Packet.control(PacketKind.RESUME, 99, 4)
        resume.target = q1
        host.receive(resume, 0)
        sim.run(until=ms(30))
        assert f1.receiver_done
        if q1 != q2:
            assert not f2.receiver_done


class TestNdpHostEdges:
    def test_pull_for_finished_flow_ignored(self):
        from tests.test_baseline_ndp import build

        sim, topo, exts, _ = build()
        f = topo.make_flow(1, 4, 0, 3_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(10))
        assert f.receiver_done
        sender = topo.hosts[4]
        pull = Packet.control(PacketKind.NDP_PULL, 0, 4)
        pull.flow_id = 1
        sender.receive(pull, 0)  # nothing left to send: no crash

    def test_nack_for_acked_seq_not_requeued(self):
        from tests.test_baseline_ndp import build

        sim, topo, exts, _ = build()
        f = topo.make_flow(1, 4, 0, 3_000, 0)
        topo.start_flow(f)
        sim.run(until=ms(10))
        sender = topo.hosts[4]
        nack = Packet.control(PacketKind.NDP_NACK, 0, 4)
        nack.flow_id = 1
        nack.seq = 0  # already acked
        sender.receive(nack, 0)
        assert 0 not in list(f.cc.retx)

    def test_duplicate_data_not_double_delivered(self):
        from tests.test_baseline_ndp import build

        sim, topo, exts, _ = build()
        receiver = topo.hosts[0]
        f = topo.make_flow(1, 4, 0, 3_000, 0)
        for _ in range(3):  # same packet three times
            pkt = Packet(PacketKind.DATA, 4, 0, 1000, flow_id=1, seq=0)
            receiver.receive(pkt, 0)
        assert f.delivered_bytes == 1000
