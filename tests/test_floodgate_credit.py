"""Credit scheduler: aggregation, delayCredit, switchSYN replies and recovery."""

from repro.floodgate.config import FloodgateConfig
from repro.floodgate.credit import CreditScheduler
from repro.floodgate.extension import FloodgateExtension
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.units import MTU, us


class Harness:
    """A scheduler with credit timer ``timer`` (0: the ideal design)
    and delayCredit threshold ``threshold``."""

    def __init__(self, timer, threshold=640_000):
        self.sim = Simulator()
        self.sent = []  # (port, dst, count, psn)
        self.backlogs = {}
        self.sched = CreditScheduler(
            self.sim,
            timer,
            threshold,
            lambda p, d, c, psn: self.sent.append((p, d, c, psn)),
            lambda d: self.backlogs.get(d, 0),
        )
        # the data path that books forwarded packets into the scheduler
        config = FloodgateConfig(credit_timer=timer) if timer else FloodgateConfig()
        self.ext = FloodgateExtension(
            self.sim, config, timer == 0, False, 64_000, threshold
        )
        self.ext.credits = self.sched

    def note_forwarded(self, in_port, dst, psn):
        """A data packet from ``in_port`` toward ``dst`` left the switch."""
        pkt = Packet(PacketKind.DATA, 0, dst, MTU)
        pkt.ingress_port = in_port
        pkt.upstream_psn = psn
        self.ext.on_dequeue(None, pkt, 1)


class TestPractical:
    def test_credits_aggregate_over_timer(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        for psn in range(5):
            h.note_forwarded(1, dst=7, psn=psn)
        h.sim.run(until=us(15))
        assert len(h.sent) == 1
        port, dst, count, psn = h.sent[0]
        assert (port, dst, count, psn) == (1, 7, 5, 4)

    def test_one_credit_packet_per_destination(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        h.note_forwarded(1, 7, 0)
        h.note_forwarded(1, 8, 0)
        h.sim.run(until=us(15))
        assert {d for _, d, _, _ in h.sent} == {7, 8}

    def test_no_traffic_no_credit(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        h.sim.run(until=us(50))
        assert h.sent == []

    def test_unwatched_port_generates_nothing(self):
        h = Harness(us(10))
        h.note_forwarded(3, 7, 0)  # port 3 peers with a host
        h.sim.run(until=us(50))
        assert h.sent == []

    def test_timer_stops_when_idle_and_restarts(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        h.note_forwarded(1, 7, 0)
        h.sim.run(until=us(25))
        events_after_flush = h.sim.events_executed
        h.sim.run(until=us(200))
        # idle timer stopped: no further periodic events
        assert h.sim.events_executed - events_after_flush <= 1
        h.note_forwarded(1, 7, 1)
        h.sim.run(until=us(250))
        assert len(h.sent) == 2


class TestDelayCredit:
    def test_backlogged_dst_is_skipped(self):
        h = Harness(us(10), threshold=5000)
        h.sched.watch_port(1)
        h.backlogs[7] = 10_000  # above threshold
        h.note_forwarded(1, 7, 0)
        h.sim.run(until=us(15))
        assert h.sent == []
        assert h.sched.credits_delayed >= 1

    def test_credits_flush_after_backlog_drains(self):
        h = Harness(us(10), threshold=5000)
        h.sched.watch_port(1)
        h.backlogs[7] = 10_000
        h.note_forwarded(1, 7, 0)
        h.sim.run(until=us(15))
        h.backlogs[7] = 0
        h.sim.run(until=us(25))
        assert h.sent == [(1, 7, 1, 0)]

    def test_other_dsts_unaffected_by_backlogged_one(self):
        h = Harness(us(10), threshold=5000)
        h.sched.watch_port(1)
        h.backlogs[7] = 10_000
        h.note_forwarded(1, 7, 0)
        h.note_forwarded(1, 8, 0)
        h.sim.run(until=us(15))
        assert [d for _, d, _, _ in h.sent] == [8]


class TestIdeal:
    def test_per_packet_credit_immediate(self):
        h = Harness(0)
        h.sched.watch_port(1)
        h.note_forwarded(1, 7, 0)
        h.note_forwarded(1, 7, 1)
        assert h.sent == [(1, 7, 1, 0), (1, 7, 1, 1)]

    def test_ideal_ignores_delay_credit(self):
        h = Harness(0, threshold=1)
        h.sched.watch_port(1)
        h.backlogs[7] = 1_000_000
        h.note_forwarded(1, 7, 0)
        assert len(h.sent) == 1


class TestSwitchSyn:
    def test_answer_echoes_last_psn(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        for psn in range(3):
            h.note_forwarded(1, 7, psn)
        h.sched.answer_syn(1, 7)
        assert h.sent[-1] == (1, 7, 3, 2)

    def test_answer_with_no_history(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        h.sched.answer_syn(1, 9)
        assert h.sent == [(1, 9, 0, -1)]

    def test_answer_clears_owed(self):
        h = Harness(us(10))
        h.sched.watch_port(1)
        h.note_forwarded(1, 7, 0)
        h.sched.answer_syn(1, 7)
        h.sim.run(until=us(15))
        # the timer must not send the same credits again
        assert len(h.sent) == 1

    def test_switch_syn_survives_end_to_end_credit_kill(self):
        """Integration: kill every credit for a window; PSN + switchSYN
        (§4.3) must unstick the upstream windows afterwards."""
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import ScenarioConfig
        from repro.faults import FaultPlan, RandomLoss

        plan = FaultPlan(
            (
                RandomLoss(
                    start=20_000,
                    link="switch-switch",
                    duration=60_000,
                    data_rate=0.0,
                    ctrl_rate=1.0,
                ),
            ),
            stall_window=150_000,
        )
        result = run_scenario(
            ScenarioConfig(
                flow_control="floodgate",
                duration=150_000,
                seed=4,
                fault_plan=plan,
                floodgate=FloodgateConfig(),
                max_runtime_factor=20.0,
            )
        )
        assert result.stats.fault_drops["ctrl"] > 0
        assert sum(ext.syn_sent for ext in result.scenario.extensions) > 0
        assert result.completion_rate == 1.0
        assert result.stall_events == 0
