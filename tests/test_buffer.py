"""Shared buffer and dynamic-threshold PFC accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.net.buffer import SharedBuffer


def make(capacity=100_000, alpha=2.0, pfc=True):
    buf = SharedBuffer(capacity, n_ports=4, pfc_enabled=pfc)
    buf.alpha = alpha
    events = []
    buf.on_pause = lambda p: events.append(("pause", p))
    buf.on_resume = lambda p: events.append(("resume", p))
    return buf, events


class TestAdmission:
    def test_admit_charges_pool_and_ingress(self):
        buf, _ = make()
        assert buf.admit(1000, 0)
        assert buf.used == 1000
        assert buf.ingress_bytes[0] == 1000

    def test_admit_rejects_when_full(self):
        buf, _ = make(capacity=2000)
        assert buf.admit(1500, 0)
        assert not buf.admit(1000, 1)
        assert buf.used == 1500

    def test_release_returns_space(self):
        buf, _ = make()
        buf.admit(1000, 0)
        buf.release(1000, 0)
        assert buf.used == 0
        assert buf.ingress_bytes[0] == 0

    def test_max_used_tracks_peak(self):
        buf, _ = make()
        buf.admit(3000, 0)
        buf.release(3000, 0)
        buf.admit(1000, 1)
        assert buf.max_used == 3000

    def test_double_release_raises(self):
        buf, _ = make()
        buf.admit(1000, 0)
        buf.release(1000, 0)
        with pytest.raises(RuntimeError):
            buf.release(1000, 0)

    def test_ingress_underflow_raises(self):
        buf, _ = make()
        buf.admit(1000, 0)
        with pytest.raises(RuntimeError):
            buf.release(500, 1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SharedBuffer(0, n_ports=1)

    def test_unknown_ingress_port_only_pool_charged(self):
        buf, _ = make()
        assert buf.admit(1000, -1)
        assert buf.used == 1000
        assert all(b == 0 for b in buf.ingress_bytes)
        buf.release(1000, -1)


class TestDynamicThreshold:
    def test_threshold_shrinks_as_pool_fills(self):
        buf, _ = make(capacity=100_000, alpha=2.0)
        t0 = buf.threshold()
        buf.admit(40_000, 0)
        assert buf.threshold() < t0
        assert buf.threshold() == 2.0 * 60_000

    def test_pause_fires_when_ingress_exceeds_threshold(self):
        buf, events = make(capacity=30_000)
        # one port hoards: threshold = 2*(30k - used); with used ==
        # ingress, pause once x + headroom > 2*(30k - x)
        for _ in range(25):
            buf.admit(1000, 0)
        assert ("pause", 0) in events

    def test_resume_after_drain(self):
        buf, events = make(capacity=30_000)
        for _ in range(25):
            buf.admit(1000, 0)
        assert ("pause", 0) in events
        for _ in range(20):
            buf.release(1000, 0)
        assert ("resume", 0) in events

    def test_no_pause_when_disabled(self):
        buf, events = make(capacity=30_000, pfc=False)
        for _ in range(29):
            buf.admit(1000, 0)
        assert events == []

    def test_release_on_other_port_can_resume(self):
        buf, events = make(capacity=30_000)
        for _ in range(10):
            buf.admit(1000, 1)
        for _ in range(18):
            buf.admit(1000, 0)
        if ("pause", 0) in events:
            # freeing port 1's share raises the threshold for port 0
            for _ in range(10):
                buf.release(1000, 1)
            for _ in range(6):
                buf.release(1000, 0)
            assert ("resume", 0) in events


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=64, max_value=9000),
            ),
            max_size=80,
        )
    )
    def test_used_equals_sum_of_ingress(self, ops):
        buf = SharedBuffer(10_000_000, n_ports=4)
        held = []
        for port, size in ops:
            if buf.admit(size, port):
                held.append((port, size))
        assert buf.used == sum(s for _, s in held)
        assert buf.used == sum(buf.ingress_bytes)
        for port, size in held:
            buf.release(size, port)
        assert buf.used == 0
