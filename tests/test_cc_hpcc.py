"""HPCC control law."""

from repro.cc.flow import Flow
from repro.cc.hpcc import MAX_STAGE, MIN_WINDOW_BYTES, Hpcc
from repro.net.packet import IntRecord, Packet, PacketKind
from repro.units import gbps, us

LINE = gbps(10)
BASE_RTT = us(10)


def make():
    cc = Hpcc(LINE, 1 << 30, BASE_RTT)
    f = Flow(1, 0, 1, 1_000_000)
    cc.on_flow_start(f, 0)
    return cc, f


def ack(cc, f, qlen, tx_rate_fraction, t0, t1, bandwidth=LINE):
    """Two consecutive ACKs implying the given hop utilization."""
    tx0 = 0
    tx1 = int(tx_rate_fraction * bandwidth * (t1 - t0) / (8 * 1e9))
    a0 = Packet.control(PacketKind.ACK, 1, 0)
    a0.int_records = [IntRecord(qlen, tx0, t0, bandwidth)]
    a0.seq = 1
    cc.on_ack(f, a0, t0)
    a1 = Packet.control(PacketKind.ACK, 1, 0)
    a1.int_records = [IntRecord(qlen, tx1, t1, bandwidth)]
    a1.seq = 2
    cc.on_ack(f, a1, t1)


class TestWindow:
    def test_initial_window_is_bdp(self):
        cc, f = make()
        assert f.cc.window == cc.w_init
        assert f.rate <= LINE

    def test_high_utilization_shrinks_window(self):
        cc, f = make()
        w0 = f.cc.window
        # queue of 2 BDP + full tx rate -> U >> eta
        ack(cc, f, qlen=2 * cc.w_init, tx_rate_fraction=1.0, t0=us(10), t1=us(20))
        assert f.cc.window < w0

    def test_low_utilization_grows_additively(self):
        cc, f = make()
        f.cc.w_c = f.cc.window = cc.w_init // 2
        ack(cc, f, qlen=0, tx_rate_fraction=0.3, t0=us(10), t1=us(20))
        assert f.cc.window == cc.w_init // 2 + cc.w_ai

    def test_window_floor(self):
        cc, f = make()
        for i in range(40):
            ack(
                cc,
                f,
                qlen=10 * cc.w_init,
                tx_rate_fraction=1.0,
                t0=us(10 * (2 * i + 1)),
                t1=us(10 * (2 * i + 2)),
            )
            f.cc.last_int = None  # force fresh pairs
        assert f.cc.window >= MIN_WINDOW_BYTES

    def test_window_sets_pacing_rate(self):
        cc, f = make()
        f.cc.window = cc.w_init // 4
        cc._apply(f)
        assert f.rate < LINE
        assert f.cwnd_bytes == cc.w_init // 4

    def test_missing_int_ignored(self):
        cc, f = make()
        w0 = f.cc.window
        a = Packet.control(PacketKind.ACK, 1, 0)
        cc.on_ack(f, a, us(10))
        assert f.cc.window == w0

    def test_mismatched_hop_count_ignored(self):
        cc, f = make()
        a0 = Packet.control(PacketKind.ACK, 1, 0)
        a0.int_records = [IntRecord(0, 0, us(10), LINE)]
        cc.on_ack(f, a0, us(10))
        a1 = Packet.control(PacketKind.ACK, 1, 0)
        a1.int_records = [
            IntRecord(0, 0, us(20), LINE),
            IntRecord(0, 0, us(20), LINE),
        ]
        w0 = f.cc.window
        cc.on_ack(f, a1, us(20))
        assert f.cc.window == w0

    def test_timeout_halves_window(self):
        cc, f = make()
        w0 = f.cc.window
        cc.on_timeout(f, us(50))
        assert f.cc.window == max(MIN_WINDOW_BYTES, w0 // 2)


class TestMaxStage:
    def test_additive_probing_limited_by_max_stage(self):
        cc, f = make()
        f.cc.w_c = f.cc.window = cc.w_init // 2
        # several uncongested RTTs: additive growth, then the stage cap
        # forces a multiplicative update
        for i in range(MAX_STAGE + 2):
            f.cc.last_int = None
            ack(
                cc,
                f,
                qlen=0,
                tx_rate_fraction=0.2,
                t0=us(100 * (i + 1)),
                t1=us(100 * (i + 1) + 10),
            )
        assert f.cc.inc_stage <= MAX_STAGE + 1
