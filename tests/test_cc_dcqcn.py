"""DCQCN control law."""

from repro.cc.dcqcn import F, Dcqcn
from repro.cc.flow import Flow
from repro.net.packet import Packet, PacketKind
from repro.units import gbps, us

LINE = gbps(10)
BASE_RTT = us(10)


def make_flow(cc, now=0):
    f = Flow(1, 0, 1, 1_000_000)
    cc.on_flow_start(f, now)
    return f


class TestStart:
    def test_starts_at_line_rate(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        assert f.rate == LINE
        assert f.cc.alpha == 1.0
        assert f.cwnd_bytes == 30_000


class TestCnpReaction:
    def test_first_cnp_halves_rate(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_cnp(f, now=0)
        # alpha ~= 1 -> Rc *= (1 - 1/2)
        assert f.rate < 0.6 * LINE
        assert f.cc.rt == LINE  # target remembers the old rate

    def test_successive_cnps_keep_reducing(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_cnp(f, 0)
        r1 = f.rate
        cc.on_cnp(f, us(50))
        assert f.rate < r1

    def test_rate_never_below_floor(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        for i in range(100):
            cc.on_cnp(f, i * us(50))
        assert f.rate >= cc.min_rate

    def test_cnp_resets_increase_state(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        f.cc.t_stage = 7
        cc.on_cnp(f, 0)
        assert f.cc.t_stage == 0


class TestAlphaDecay:
    def test_alpha_decays_without_cnp(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_cnp(f, 0)
        alpha_after_cnp = f.cc.alpha
        ack = Packet.control(PacketKind.ACK, 1, 0)
        cc.on_ack(f, ack, us(550))  # ten alpha periods later
        assert f.cc.alpha < alpha_after_cnp

    def test_decay_is_time_proportional(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f1, f2 = make_flow(cc), make_flow(cc)
        cc.on_cnp(f1, 0)
        cc.on_cnp(f2, 0)
        ack = Packet.control(PacketKind.ACK, 1, 0)
        cc.on_ack(f1, ack, us(110))
        cc.on_ack(f2, ack, us(550))
        assert f2.cc.alpha < f1.cc.alpha


class TestRateIncrease:
    def test_rate_recovers_after_congestion_clears(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_cnp(f, 0)
        reduced = f.rate
        ack = Packet.control(PacketKind.ACK, 1, 0)
        t = 0
        for i in range(200):
            t += us(55)
            cc.on_ack(f, ack, t)
        assert f.rate > reduced
        assert f.rate <= LINE

    def test_fast_recovery_moves_halfway_to_target(self):
        assert F == 5
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_cnp(f, 0)
        rc, rt = f.rate, f.cc.rt
        ack = Packet.control(PacketKind.ACK, 1, 0)
        cc.on_ack(f, ack, us(56))  # one timer period -> one event
        assert abs(f.rate - (rc + rt) / 2) < 1e-3 * LINE

    def test_byte_counter_triggers_increase(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        cc.byte_counter = 1_250  # 0.001 ms of line rate, tiny: trip often
        f = make_flow(cc)
        cc.on_cnp(f, 0)
        reduced = f.rate
        for _ in range(50):
            cc.on_data_sent(f, 1500, 0)
        assert f.rate > reduced


class TestTimeout:
    def test_timeout_halves_rate(self):
        cc = Dcqcn(LINE, 30_000, BASE_RTT)
        f = make_flow(cc)
        cc.on_timeout(f, 0)
        assert f.rate == LINE / 2
