"""Statistics: FCT math, collector bookkeeping, time series."""

import pytest
from hypothesis import given, strategies as st

from repro.experiments.figures.common import first_nonzero_ms, mean_value
from repro.sim.engine import Simulator
from repro.stats.collector import NON_INCAST, FlowClass, StatsHub
from repro.stats.fct import (
    FctRecord,
    fct_cdf,
    percentile,
    summarize_fct,
)
from repro.telemetry.samplers import GaugeSampler, RateSampler
from repro.units import us


def rec(flow_id, fct_ns, size=1000):
    return FctRecord(flow_id, 0, 1, size, 0, fct_ns)


class TestPercentile:
    def test_simple(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50) == 2.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 25) == 1.0

    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50)
    )
    def test_p99_bounds(self, values):
        values = sorted(values)
        p99 = percentile(values, 99)
        assert values[0] <= p99 <= values[-1]


class TestSummarize:
    def test_avg_and_p99(self):
        records = [rec(i, (i + 1) * 1000) for i in range(100)]
        s = summarize_fct(records)
        assert s.count == 100
        assert s.avg_ns == pytest.approx(50_500)
        assert s.p99_ns == 99_000
        assert s.max_ns == 100_000

    def test_empty(self):
        s = summarize_fct([])
        assert s.count == 0 and s.avg_ns == 0.0

    def test_unit_properties(self):
        s = summarize_fct([rec(1, 2_000_000)])
        assert s.avg_us == 2000.0

    def test_cdf_points(self):
        cdf = fct_cdf([rec(1, 1_000_000), rec(2, 3_000_000)])
        assert cdf == [(1.0, 0.5), (3.0, 1.0)]


class TestCollector:
    def test_flow_class_filters(self):
        hub = StatsHub()
        hub.register_flow_class(1, FlowClass.INCAST)
        hub.register_flow_class(2, FlowClass.VICTIM_INCAST)
        hub.record_fct(rec(1, 100))
        hub.record_fct(rec(2, 200))
        hub.record_fct(rec(3, 300))  # unlabelled
        assert [r.flow_id for r in hub.fct_of_class(FlowClass.INCAST)] == [1]
        # the aggregate selector spans every non-incast class,
        # including unclassified flows
        assert [r.flow_id for r in hub.fct_of_class(NON_INCAST)] == [2, 3]

    def test_none_is_rejected(self):
        # None used to mean "all non-incast" for FCTs but "unclassified"
        # for rx bytes; both now demand an explicit selector
        hub = StatsHub()
        with pytest.raises(ValueError, match="ambiguous"):
            hub.fct_of_class(None)
        with pytest.raises(ValueError, match="ambiguous"):
            hub.rx_bytes_of_class(None)

    def test_queuing_split_by_incast(self):
        hub = StatsHub()
        hub.register_flow_class(7, FlowClass.INCAST)
        hub.record_queuing("core", hub.flow_class.get(7) is FlowClass.INCAST, 1000)
        hub.record_queuing("core", hub.flow_class.get(8) is FlowClass.INCAST, 3000)
        assert hub.avg_queuing_by_role("core", incast=True) == 1000
        assert hub.avg_queuing_by_role("core", incast=False) == 3000
        assert hub.avg_queuing_by_role("missing") == 0.0

    def test_port_buffer_max_by_role(self):
        hub = StatsHub()
        hub.record_port_buffer("sw1", "tor-up", 500)
        hub.record_port_buffer("sw2", "tor-up", 900)
        hub.record_port_buffer("sw1", "core", 100)
        assert hub.max_port_buffer_by_role("tor-up") == 900
        assert hub.max_port_buffer_by_role("tor-down") == 0

    def test_switch_buffer_tracks_max(self):
        hub = StatsHub()
        hub.record_switch_buffer("s", 100)
        hub.record_switch_buffer("s", 50)
        assert hub.switch_max_buffer["s"] == 100
        assert hub.max_switch_buffer == 100

    def test_pfc_accounting(self):
        hub = StatsHub()
        hub.record_pfc_pause("tor", 5_000)
        hub.record_pfc_pause("tor", 5_000)
        assert hub.total_pfc_paused_us("tor") == 10.0
        assert hub.total_pfc_paused_us("core") == 0.0

    def test_bandwidth_tracking_gated(self):
        hub = StatsHub()
        hub.record_tx("data", 1000)  # tracking off: ignored
        assert hub.tx_bytes_by_category["data"] == 0
        hub.track_bandwidth = True
        hub.record_tx("data", 1000)
        assert hub.tx_bytes_by_category["data"] == 1000

    def test_rx_by_class(self):
        hub = StatsHub()
        hub.register_flow_class(1, FlowClass.INCAST)
        hub.record_rx(1, 500)
        hub.record_rx(2, 300)
        assert hub.rx_bytes_of_class(FlowClass.INCAST) == 500
        # unclassified flows land in the explicit OTHER bucket
        assert hub.rx_bytes_of_class(FlowClass.OTHER) == 300


class TestTimeSeries:
    def test_throughput_monitor_differentiates(self):
        sim = Simulator()
        counter = {"bytes": 0}

        def feed():
            counter["bytes"] += 1250  # 1250 B per 1 us = 10 Gbps

        from repro.sim.process import PeriodicTask

        task = PeriodicTask(sim, us(1), feed)
        task.start()
        mon = RateSampler(
            sim, {"x": lambda: counter["bytes"]}, interval=us(10), scale=8.0
        )
        mon.start()
        sim.run(until=us(100))
        task.stop()
        mon.stop()
        series = mon.series("x")
        assert series
        assert all(8.0 < gbps_v < 12.0 for _, gbps_v in series)
        assert 8.0 < mean_value(series) < 12.0

    def test_first_nonzero_time(self):
        sim = Simulator()
        counter = {"bytes": 0}
        sim.schedule(us(50), lambda: counter.__setitem__("bytes", 99_999))
        mon = RateSampler(
            sim, {"x": lambda: counter["bytes"]}, interval=us(10), scale=8.0
        )
        mon.start()
        sim.run(until=us(100))
        # the jump at 50 us is visible in the 50 us sample (the setter
        # event was scheduled first and wins the tie)
        assert first_nonzero_ms(mon.series("x")) == pytest.approx(0.05)
        assert first_nonzero_ms([]) == -1.0

    def test_buffer_sampler(self):
        sim = Simulator()
        gauge = {"v": 0}
        sim.schedule(us(25), lambda: gauge.__setitem__("v", 7))
        s = GaugeSampler(sim, {"g": lambda: gauge["v"]}, interval=us(10))
        s.start()
        sim.run(until=us(60))
        assert s.max_value("g") == 7
        samples = dict(s.series("g"))
        assert samples[us(20)] == 0
        assert samples[us(40)] == 7
