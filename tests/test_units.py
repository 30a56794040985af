"""Unit-conversion helpers."""

from hypothesis import given, strategies as st

from repro import units


class TestTime:
    def test_us(self):
        assert units.us(10) == 10_000

    def test_ms(self):
        assert units.ms(1.5) == 1_500_000

    def test_seconds(self):
        assert units.seconds(2) == 2_000_000_000


class TestBandwidthAndSize:
    def test_gbps(self):
        assert units.gbps(100) == 100e9

    def test_kb_mb(self):
        assert units.kb(64) == 64_000
        assert units.mb(20) == 20_000_000


class TestDerived:
    def test_serialization_delay_1kb_at_10g(self):
        # 1000 B * 8 / 10 Gbps = 800 ns
        assert units.serialization_delay(1000, units.gbps(10)) == 800

    def test_serialization_delay_mtu_at_100g(self):
        assert units.serialization_delay(1000, units.gbps(100)) == 80

    def test_bdp_bytes(self):
        # 10 Gbps x 8 us = 80 kbit = 10 KB
        assert units.bdp_bytes(units.gbps(10), units.us(8)) == 10_000

    def test_bdp_packets_rounds_up(self):
        # 10 Gbps x 8.1 us = 10 125 B: ten full MTUs and a partial one
        assert units.MTU == 1_000
        assert units.bdp_packets(units.gbps(10), 8_100) == 11

    def test_bdp_packets_minimum_one(self):
        assert units.bdp_packets(units.gbps(1), 10) == 1

    @given(
        size=st.integers(min_value=1, max_value=10_000),
        gbit=st.integers(min_value=1, max_value=400),
    )
    def test_serialization_scales_linearly(self, size, gbit):
        one = units.serialization_delay(size, units.gbps(gbit))
        ten = units.serialization_delay(size * 10, units.gbps(gbit))
        assert abs(ten - 10 * one) <= 10  # rounding slack

    @given(
        gbit=st.integers(min_value=1, max_value=400),
        rtt=st.integers(min_value=100, max_value=1_000_000),
    )
    def test_bdp_consistency(self, gbit, rtt):
        b = units.bdp_bytes(units.gbps(gbit), rtt)
        p = units.bdp_packets(units.gbps(gbit), rtt)
        assert p >= 1
        assert p * units.MTU >= b
