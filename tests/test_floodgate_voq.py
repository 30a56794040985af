"""VOQ pool: allocation, hash fallback, grouping, accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.floodgate.voq import GROUP_DOWN, GROUP_UP, VoqPool
from repro.net.packet import Packet, PacketKind


def data(dst, size=1000):
    return Packet(PacketKind.DATA, 0, dst, size)


class TestAllocation:
    def test_fresh_allocation_dedicates_voq(self):
        pool = VoqPool(4)
        voq = pool.allocate(7, GROUP_UP)
        assert voq.in_use
        assert pool.lookup(7) is voq

    def test_distinct_dsts_get_distinct_voqs(self):
        pool = VoqPool(4)
        a = pool.allocate(1, GROUP_UP)
        b = pool.allocate(2, GROUP_UP)
        assert a is not b

    def test_max_in_use_tracked(self):
        pool = VoqPool(4)
        pool.allocate(1, GROUP_UP)
        pool.allocate(2, GROUP_UP)
        assert pool.max_in_use == 2

    def test_hash_fallback_same_group(self):
        pool = VoqPool(2)
        pool.allocate(1, GROUP_UP)
        pool.allocate(2, GROUP_DOWN)
        voq = pool.allocate(3, GROUP_UP)  # pool exhausted
        assert voq is pool.lookup(1)  # shares the UP voq
        assert pool.hash_fallbacks == 1

    def test_no_same_group_voq_returns_none(self):
        pool = VoqPool(1)
        pool.allocate(1, GROUP_DOWN)
        assert pool.allocate(2, GROUP_UP) is None
        assert pool.overflow_bypasses == 1

    def test_zero_voqs_rejected(self):
        with pytest.raises(ValueError):
            VoqPool(0)


class TestPushPop:
    def test_push_pop_roundtrip(self):
        pool = VoqPool(4)
        voq = pool.allocate(7, GROUP_UP)
        pkt = data(7)
        pool.push(voq, pkt)
        assert pool.dst_backlog(7) == 1000
        assert pool.pop(voq) is pkt
        assert pool.dst_backlog(7) == 0

    def test_voq_freed_when_empty(self):
        pool = VoqPool(4)
        voq = pool.allocate(7, GROUP_UP)
        pool.push(voq, data(7))
        pool.pop(voq)
        assert not voq.in_use
        assert pool.lookup(7) is None

    def test_shared_voq_tracks_per_dst_backlog(self):
        pool = VoqPool(1)
        voq = pool.allocate(1, GROUP_UP)
        pool.voq_of_dst[2] = voq  # simulate hash fallback
        pool.push(voq, data(1, 500))
        pool.push(voq, data(2, 700))
        assert pool.dst_backlog(1) == 500
        assert pool.dst_backlog(2) == 700
        assert pool.total_bytes() == 1200

    def test_fifo_order(self):
        pool = VoqPool(4)
        voq = pool.allocate(7, GROUP_UP)
        pkts = [data(7) for _ in range(3)]
        for p in pkts:
            pool.push(voq, p)
        assert [pool.pop(voq) for _ in range(3)] == pkts

    def test_free_voq_reusable(self):
        pool = VoqPool(1)
        voq = pool.allocate(1, GROUP_UP)
        pool.push(voq, data(1))
        pool.pop(voq)
        again = pool.allocate(2, GROUP_DOWN)
        assert again is voq
        assert again.group == GROUP_DOWN


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),   # dst
                st.integers(min_value=64, max_value=1500),
            ),
            max_size=60,
        )
    )
    def test_backlog_conservation(self, pushes):
        pool = VoqPool(3)
        held = []
        for dst, size in pushes:
            voq = pool.lookup(dst)
            if voq is None:
                voq = pool.allocate(dst, GROUP_UP)
            if voq is None:
                continue
            pool.push(voq, data(dst, size))
            held.append((dst, size))
        assert pool.total_bytes() == sum(s for _, s in held)
        # drain everything
        for voq in list(pool.voqs):
            while voq.in_use and voq.packets:
                pool.pop(voq)
        assert pool.total_bytes() == 0
        assert all(not v.in_use for v in pool.voqs)
        assert pool.bytes_by_dst == {}

    @given(
        st.lists(
            st.tuples(
                st.booleans(),                           # push (else pop)
                st.integers(min_value=1, max_value=7),   # dst
                st.integers(min_value=64, max_value=1500),
                st.sampled_from([GROUP_DOWN, GROUP_UP]),
            ),
            max_size=120,
        )
    )
    def test_counters_equal_a_scan_after_any_push_pop_sequence(self, ops):
        """``_in_use`` / ``total_bytes`` are counters; the scans
        they replaced are the oracle, hash-shared VOQs included."""
        pool = VoqPool(3)
        high_water = 0
        for push, dst, size, group in ops:
            voq = pool.lookup(dst)
            if push:
                if voq is None:
                    voq = pool.allocate(dst, group)
                if voq is not None:
                    pool.push(voq, data(dst, size))
            elif voq is not None and voq.packets:
                pool.pop(voq)
            in_use = sum(1 for v in pool.voqs if v.in_use)
            high_water = max(high_water, in_use)
            assert pool._in_use == in_use
            assert pool.total_bytes() == sum(
                p.size for v in pool.voqs for p in v.packets
            )
            assert pool.total_bytes() == sum(pool.bytes_by_dst.values())
        assert pool.max_in_use == high_water
