"""Property tests for the statistics math (cross-checked with numpy)
and for the hub's declared merge rules."""

import functools
import operator
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.simcheck.determinism import sharded_battery_fault_plan
from repro.stats.collector import MEASURES, StatsHub
from repro.stats.fct import FctRecord, fct_cdf, percentile, summarize_fct
from repro.telemetry.registry import Histogram, TelemetryConfig


records_strategy = st.lists(
    st.integers(min_value=1, max_value=10**10),
    min_size=1,
    max_size=200,
)


class TestPercentileProperties:
    @given(values=records_strategy)
    def test_matches_numpy_nearest_rank(self, values):
        ordered = sorted(float(v) for v in values)
        for p in (1, 25, 50, 75, 99, 100):
            ours = percentile(ordered, p)
            ref = float(
                np.percentile(
                    ordered, p, method="inverted_cdf"
                )
            )
            assert ours == ref

    @given(values=records_strategy)
    def test_monotone_in_p(self, values):
        ordered = sorted(float(v) for v in values)
        results = [percentile(ordered, p) for p in (10, 50, 90, 99)]
        assert results == sorted(results)


class TestSummaryProperties:
    @given(values=records_strategy)
    def test_summary_consistency(self, values):
        records = [FctRecord(i, 0, 1, 100, 0, v) for i, v in enumerate(values)]
        s = summarize_fct(records)
        assert s.count == len(values)
        assert min(values) <= s.avg_ns <= max(values)
        assert s.p50_ns <= s.p99_ns <= s.max_ns
        assert s.max_ns == max(values)
        assert abs(s.avg_ns - float(np.mean(values))) < 1e-6 * max(values)

    @given(values=records_strategy)
    def test_cdf_well_formed(self, values):
        records = [FctRecord(i, 0, 1, 100, 0, v) for i, v in enumerate(values)]
        cdf = fct_cdf(records)
        xs = [x for x, _ in cdf]
        ys = [y for _, y in cdf]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0
        assert all(0 < y <= 1 for y in ys)


class _LoggedHistogram(Histogram):
    """A hub histogram that logs what it is fed."""

    __slots__ = ("log",)

    def observe(self, value):
        self.log.append(("queuing_histogram.observe", (value,)))
        super().observe(value)


@functools.lru_cache(maxsize=None)
def _recorded_serial_run():
    """One small serial run with every hub-writing layer on: the hub
    it ended with, and every write that built it — the ``record_*``
    calls, and the queueing delays the switches feed the hub's
    histogram themselves, one per packet."""
    sc = Scenario(
        ScenarioConfig(
            n_tors=2,
            hosts_per_tor=3,
            duration=150_000,
            buffer_bytes=200_000,
            incast_fan_in=4,
            flow_control="floodgate",
            track_bandwidth=True,
            fault_plan=sharded_battery_fault_plan(),
            telemetry=TelemetryConfig(),
        )
    )
    hub = sc.stats
    build_time = hub.shard_clone()
    log = []
    for name in dir(StatsHub):
        if name.startswith("record_"):
            method = getattr(hub, name)

            def logged(*args, _name=name, _method=method):
                log.append((_name, args))
                _method(*args)

            setattr(hub, name, logged)
    hub.queuing_histogram = _LoggedHistogram("queuing_ns", unit="ns")
    hub.queuing_histogram.log = log
    run_scenario(sc.config, scenario=sc)
    for name in [n for n in vars(hub) if n.startswith("record_")]:
        delattr(hub, name)
    return hub, build_time, log


def _plain(value):
    """Order-sensitive plain form of one hub attribute."""
    if isinstance(value, Histogram):
        return [_plain(getattr(value, slot)) for slot in Histogram.__slots__]
    if isinstance(value, dict):
        return list(value.items())
    if isinstance(value, set):
        return sorted(value)
    return value


class TestHubMergeProperties:
    def test_every_public_attribute_declares_a_combine_rule(self):
        declared = [m.attr for m in MEASURES]
        assert len(declared) == len(set(declared))
        attrs = vars(StatsHub())
        assert set(declared) <= set(attrs)
        undeclared = [
            a for a in attrs if not a.startswith("_") and a not in declared
        ]
        assert undeclared == [], (
            f"StatsHub attribute(s) {undeclared} have no row in "
            "stats.collector.MEASURES: merge_from / canonicalize / the "
            "telemetry export would silently skip them"
        )

    @settings(max_examples=8, deadline=None)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_any_split_of_a_serial_run_merges_back_to_it(self, k, seed):
        serial, build_time, log = _recorded_serial_run()
        assert len(log) > 1_000
        shards = [build_time.shard_clone() for _ in range(k)]
        for shard in shards:  # what a per-domain recorder installs
            shard.fct_histogram = Histogram("fct_ns", unit="ns")
            shard.queuing_histogram = Histogram("queuing_ns", unit="ns")
        pick = random.Random(seed)
        for name, args in log:
            operator.attrgetter(name)(shards[pick.randrange(k)])(*args)
        merged = build_time.shard_clone()
        for shard in shards:
            merged.merge_from(shard)
        merged.canonicalize()
        assert list(vars(merged)) == list(vars(serial))
        for attr in vars(serial):
            assert _plain(getattr(merged, attr)) == _plain(
                getattr(serial, attr)
            ), attr
        # not vacuous: the run exercised most of the declaration
        assert serial.fct_records and serial.fault_drops_total
        assert serial.pfc_paused_time or serial.queuing_incast
