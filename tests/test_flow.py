"""Flow geometry and sequence accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.cc.flow import Flow
from repro.units import MTU


class TestGeometry:
    def test_exact_multiple_of_mtu(self):
        assert MTU == 1000  # every flow uses the one MTU
        f = Flow(1, 0, 1, 3000)
        assert f.n_packets == 3
        assert [f.packet_size(i) for i in range(3)] == [1000, 1000, 1000]

    def test_short_tail_packet(self):
        f = Flow(1, 0, 1, 2500)
        assert f.n_packets == 3
        assert f.packet_size(2) == 500

    def test_single_tiny_flow(self):
        f = Flow(1, 0, 1, 64)
        assert f.n_packets == 1
        assert f.packet_size(0) == 64

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Flow(1, 0, 1, 0)

    def test_out_of_range_seq_rejected(self):
        f = Flow(1, 0, 1, 1000)
        with pytest.raises(ValueError):
            f.packet_size(1)

    @given(size=st.integers(min_value=1, max_value=200_000))
    def test_packet_sizes_sum_to_flow_size(self, size):
        f = Flow(1, 0, 1, size)
        assert sum(f.packet_size(i) for i in range(f.n_packets)) == size
        assert all(
            0 < f.packet_size(i) <= MTU for i in range(f.n_packets)
        )


class TestInflight:
    def test_nothing_sent(self):
        f = Flow(1, 0, 1, 5000)
        assert f.inflight_bytes == 0

    def test_partial_window(self):
        f = Flow(1, 0, 1, 5000)
        f.next_seq = 3
        assert f.inflight_bytes == 3000
        f.acked_seq = 1
        assert f.inflight_bytes == 2000

    def test_short_tail_counted_correctly(self):
        f = Flow(1, 0, 1, 2500)
        f.next_seq = 3  # all sent, tail is 500 B
        assert f.inflight_bytes == 2500

    def test_fully_acked(self):
        f = Flow(1, 0, 1, 2500)
        f.next_seq = 3
        f.acked_seq = 3
        assert f.inflight_bytes == 0
        assert f.all_acked and f.all_sent


class TestCompletion:
    def test_receiver_done(self):
        f = Flow(1, 0, 1, 2000)
        assert not f.receiver_done
        f.delivered_bytes = 2000
        assert f.receiver_done
