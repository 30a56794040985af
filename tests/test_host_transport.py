"""End-host transport: delivery, reliability, pacing, pausing."""

import random
from types import SimpleNamespace

import pytest

from repro.net.packet import Packet, PacketKind
from repro.units import gbps, kb, ms, us
from tests.conftest import MiniNet, install, lossy_link


class TestDelivery:
    def test_single_flow_completes_and_records_fct(self, mini):
        f = mini.flow(1, 0, 2, 50_000)
        mini.run(ms(10))
        assert f.receiver_done
        assert f.sender_done
        assert len(mini.stats.fct_records) == 1
        rec = mini.stats.fct_records[0]
        assert rec.size == 50_000
        assert rec.fct > 0

    def test_fct_close_to_ideal_on_idle_network(self, mini):
        size = 100_000
        f = mini.flow(1, 0, 2, size)
        mini.run(ms(10))
        ideal = size * 8 / gbps(10) * 1e9  # ns
        assert f.finish_time < ideal * 1.5

    def test_many_parallel_flows_all_complete(self, mini):
        flows = [
            mini.flow(i, i % 2, 2 + (i % 2), 20_000, start=i * 1000)
            for i in range(20)
        ]
        mini.run(ms(20))
        assert all(f.receiver_done for f in flows)

    def test_delivered_bytes_match_size(self, mini):
        f = mini.flow(1, 0, 3, 12_345)
        mini.run(ms(5))
        assert f.delivered_bytes == 12_345

    def test_bidirectional_flows(self, mini):
        f1 = mini.flow(1, 0, 2, 30_000)
        f2 = mini.flow(2, 2, 0, 30_000)
        mini.run(ms(5))
        assert f1.receiver_done and f2.receiver_done


class TestWindow:
    def test_sending_window_limits_inflight(self):
        net = MiniNet()  # swnd = 30 KB
        f = net.flow(1, 0, 2, 200_000)
        # after a short time, at most swnd bytes can be unacked
        net.run(us(20))
        assert f.inflight_bytes <= 30_000

    def test_ack_clocking_resumes_sending(self, mini):
        f = mini.flow(1, 0, 2, 200_000)
        mini.run(ms(10))
        assert f.all_acked


class TestReliability:
    def test_recovery_from_heavy_loss(self):
        net = MiniNet()
        # lossy trunk: GBN + NACK + RTO must still complete the flow
        trunk = net.topo.links[-1]
        net.topo.hosts[0].rto = us(300)
        lossy_link(trunk, 0.10, random.Random(7))
        f = net.flow(1, 0, 6, 60_000)  # cross-rack: uses the trunk
        net.run(ms(50))
        assert f.receiver_done
        assert f.retransmitted_packets > 0

    def test_duplicate_data_reacked_not_redelivered(self, mini):
        f = mini.flow(1, 0, 2, 5_000)
        mini.run(ms(5))
        host = mini.topo.hosts[2]
        before = f.delivered_bytes
        dup = Packet(PacketKind.DATA, 0, 2, 1000, flow_id=1, seq=0)
        host.receive(dup, 0)
        assert f.delivered_bytes == before

    def test_unknown_flow_packet_ignored(self, mini):
        host = mini.topo.hosts[0]
        stray = Packet(PacketKind.DATA, 5, 0, 1000, flow_id=999, seq=0)
        host.receive(stray, 0)  # must not raise


class TestFaultRecovery:
    """Recovery paths under injected faults (repro.faults)."""

    def test_rto_and_gbn_recover_from_burst_loss(self):
        from repro.faults import RandomLoss, plan_of

        net = MiniNet()
        net.topo.hosts[0].rto = us(300)
        install(
            net,
            plan_of(
                RandomLoss(
                    start=us(20),
                    link="torL<->torR",
                    duration=us(80),
                    data_rate=1.0,
                    ctrl_rate=1.0,
                )
            ),
        )
        f = net.flow(1, 0, 6, 80_000)
        net.run(ms(50))
        assert f.receiver_done
        assert f.retransmitted_packets > 0
        assert net.stats.fault_drops_total > 0

    def test_lost_pause_frames_overflow_the_buffer(self):
        # PFC keeps the fabric lossless only while PAUSE frames arrive;
        # killing the control frames on the host links (where the
        # switch pauses its upstream senders) must surface as buffer
        # drops that a clean run never has
        def build():
            return MiniNet(
                buffer_bytes=kb(60), fabric_bandwidth=gbps(10), pfc_alpha=0.5
            )

        def drive(net):
            for i in range(4):  # 4:1 incast across the trunk
                net.flow(i + 1, i, 6, 40_000, start=i * 100)
            net.run(ms(30))

        clean = build()
        drive(clean)
        assert clean.stats.packets_dropped == 0

        from repro.faults import RandomLoss, plan_of

        lossy = build()
        install(
            lossy,
            plan_of(
                RandomLoss(link="host-switch", data_rate=0.0, ctrl_rate=1.0)
            ),
        )
        drive(lossy)
        assert lossy.stats.fault_drops["ctrl"] > 0
        assert lossy.stats.packets_dropped > 0

    @staticmethod
    def _flap_run(scheme):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import ScenarioConfig
        from repro.faults import FaultPlan, LinkDown

        cfg = ScenarioConfig(
            flow_control=scheme,
            duration=150_000,
            seed=2,
            fault_plan=FaultPlan(
                (LinkDown(at=40_000, link="tor0<->spine0", duration=us(50)),),
                stall_window=100_000,
            ),
            max_runtime_factor=20.0,
        )
        return run_scenario(cfg)

    @pytest.mark.parametrize("scheme", ["floodgate", "bfc"])
    def test_link_flap_mid_flow_recovers(self, scheme):
        result = self._flap_run(scheme)
        assert result.completion_rate == 1.0
        assert result.stall_events == 0

    def test_link_flap_strands_ndp_but_watchdog_sees_it(self):
        # NDP's pull budget dies with silently-lost packets (no trimmed
        # header -> no NACK), leaving only the one-packet-per-RTO
        # backstop: flows strand, and the watchdog must say so
        result = self._flap_run("ndp")
        assert result.completion_rate < 1.0
        assert result.stall_events > 0  # no undetected stall


class TestCnp:
    def test_ecn_marked_data_triggers_cnp(self, mini):
        f = mini.flow(1, 0, 2, 5_000)
        mini.run(ms(2))
        cnp_seen = []
        src_host = mini.topo.hosts[0]
        original = src_host.receive

        def spy(pkt, port):
            if pkt.kind == PacketKind.CNP:
                cnp_seen.append(pkt)
            original(pkt, port)

        src_host.receive = spy
        marked = Packet(PacketKind.DATA, 0, 2, 1000, flow_id=1, seq=f.expected_seq)
        marked.ecn_marked = True
        mini.topo.hosts[2].receive(marked, 0)
        mini.run(mini.sim.now + ms(1))
        assert cnp_seen

    def test_cnp_rate_limited(self, mini):
        host = mini.topo.hosts[2]
        mini.topo.make_flow(1, 0, 2, 50_000, 0)
        for seq in range(10):
            pkt = Packet(PacketKind.DATA, 0, 2, 1000, flow_id=1, seq=seq)
            pkt.ecn_marked = True
            host.receive(pkt, 0)
        # all marks arrived in the same instant: at most one CNP is
        # emitted (the rest of the control queue is ACKs)
        queued_cnps = sum(
            1 for p in host.ports[0].queues[0] if p.kind == PacketKind.CNP
        )
        assert queued_cnps <= 1

        # at the boundary, on a fresh net: one CNP per 50 us and one
        # NACK per 10 us per flow, a gap of exactly the limit allowed
        net = MiniNet()
        host = net.topo.hosts[2]
        sent = []
        # the NIC port records control frames instead of sending them
        host.ports[0] = SimpleNamespace(
            enqueue_control=lambda p: sent.append((net.sim.now, p.kind))
        )
        net.topo.make_flow(1, 0, 2, 50_000, 0)
        net.topo.make_flow(2, 0, 2, 50_000, 0)
        arrivals = [  # (time, flow, seq, marked): flow 2 arrives past a gap
            (0, 1, 0, True),
            (0, 2, 5, False),
            (us(10) - 1, 2, 6, False),
            (us(10), 2, 7, False),
            (us(50) - 1, 1, 1, True),
            (us(50), 1, 2, True),
        ]
        for at, flow_id, seq, marked in arrivals:
            net.run(at)
            pkt = Packet(PacketKind.DATA, 0, 2, 1000, flow_id=flow_id, seq=seq)
            pkt.ecn_marked = marked
            host.receive(pkt, 0)
        assert [t for t, kind in sent if kind == PacketKind.CNP] == [0, us(50)]
        assert [t for t, kind in sent if kind == PacketKind.NACK] == [0, us(10)]


class TestDstPause:
    def test_dst_pause_blocks_only_that_destination(self, mini):
        host = mini.topo.hosts[0]
        pause = Packet.control(PacketKind.PAUSE, 100, 0)
        pause.target = 2
        host.receive(pause, 0)
        f_blocked = mini.flow(1, 0, 2, 20_000)
        f_free = mini.flow(2, 0, 3, 20_000)
        mini.run(ms(5))
        assert not f_blocked.receiver_done
        assert f_free.receiver_done

    def test_dst_resume_restarts(self, mini):
        host = mini.topo.hosts[0]
        pause = Packet.control(PacketKind.PAUSE, 100, 0)
        pause.target = 2
        host.receive(pause, 0)
        f = mini.flow(1, 0, 2, 20_000)
        mini.run(ms(2))
        assert not f.receiver_done
        resume = Packet.control(PacketKind.RESUME, 100, 0)
        resume.target = 2
        host.receive(resume, 0)
        mini.run(mini.sim.now + ms(5))
        assert f.receiver_done


class TestPfcOnHost:
    def test_pfc_pause_stops_nic(self, mini):
        host = mini.topo.hosts[0]
        host.receive(Packet.control(PacketKind.PAUSE, 100, 0), 0)
        f = mini.flow(1, 0, 2, 10_000)
        mini.run(ms(2))
        assert not f.receiver_done
        host.receive(Packet.control(PacketKind.RESUME, 100, 0), 0)
        mini.run(mini.sim.now + ms(5))
        assert f.receiver_done
