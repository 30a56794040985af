"""TIMELY control law."""

from repro.cc.flow import Flow
from repro.cc.timely import Timely
from repro.net.packet import Packet, PacketKind
from repro.units import gbps, us

LINE = gbps(10)
BASE_RTT = us(10)


def make():
    cc = Timely(LINE, 30_000, BASE_RTT)
    f = Flow(1, 0, 1, 1_000_000)
    cc.on_flow_start(f, 0)
    return cc, f


def ack_with_rtt(cc, f, rtt, now):
    """Deliver an ACK whose echo time implies the given RTT."""
    ack = Packet.control(PacketKind.ACK, 1, 0)
    ack.echo_time = now - rtt
    cc.on_ack(f, ack, now)


class TestThresholds:
    def test_below_tlow_always_increases(self):
        cc, f = make()
        f.rate = LINE / 2
        ack_with_rtt(cc, f, BASE_RTT, us(100))       # priming sample
        ack_with_rtt(cc, f, BASE_RTT, us(200))
        assert f.rate > LINE / 2

    def test_above_thigh_decreases(self):
        cc, f = make()
        ack_with_rtt(cc, f, BASE_RTT, us(100))
        ack_with_rtt(cc, f, cc.t_high * 3, us(200))
        assert f.rate < LINE

    def test_decrease_proportional_to_excess(self):
        cc, f = make()
        ack_with_rtt(cc, f, BASE_RTT, us(100))
        ack_with_rtt(cc, f, cc.t_high * 2, us(200))
        mild = f.rate
        cc2, f2 = make()
        ack_with_rtt(cc2, f2, BASE_RTT, us(100))
        ack_with_rtt(cc2, f2, cc2.t_high * 8, us(1000))
        assert f2.rate < mild


class TestGradient:
    def test_rising_rtt_in_band_decreases_rate(self):
        cc, f = make()
        mid = (cc.t_low + cc.t_high) // 2
        ack_with_rtt(cc, f, mid - us(2), us(100))
        ack_with_rtt(cc, f, mid, us(200))
        ack_with_rtt(cc, f, mid + us(2), us(300))
        assert f.rate < LINE

    def test_falling_rtt_in_band_increases_rate(self):
        cc, f = make()
        f.rate = LINE / 4
        mid = (cc.t_low + cc.t_high) // 2
        ack_with_rtt(cc, f, mid + us(2), us(100))
        ack_with_rtt(cc, f, mid, us(200))
        ack_with_rtt(cc, f, mid - us(2), us(300))
        assert f.rate > LINE / 4

    def test_hyperactive_increase_after_streak(self):
        cc, f = make()
        mid = (cc.t_low + cc.t_high) // 2
        f.rate = LINE / 10
        # one falling sample -> single delta
        ack_with_rtt(cc, f, mid + us(3), us(100))
        ack_with_rtt(cc, f, mid, us(200))
        single = f.rate - LINE / 10

        cc2, f2 = make()
        f2.rate = LINE / 10
        t = us(100)
        ack_with_rtt(cc2, f2, mid + us(6), t)
        for i in range(6):  # falling streak -> HAI kicks in
            t += us(100)
            ack_with_rtt(cc2, f2, mid - us(i), t)
        assert f2.rate - LINE / 10 > 3 * single


class TestBounds:
    def test_rate_capped_at_line(self):
        cc, f = make()
        for i in range(50):
            ack_with_rtt(cc, f, BASE_RTT, us(100 * (i + 1)))
        assert f.rate <= LINE

    def test_rate_floor(self):
        cc, f = make()
        ack_with_rtt(cc, f, BASE_RTT, us(100))
        for i in range(200):
            ack_with_rtt(cc, f, cc.t_high * 10, us(200 + 100 * i))
        assert f.rate >= cc.min_rate

    def test_missing_echo_ignored(self):
        cc, f = make()
        ack = Packet.control(PacketKind.ACK, 1, 0)
        ack.echo_time = 0
        cc.on_ack(f, ack, us(100))
        assert f.rate == LINE
