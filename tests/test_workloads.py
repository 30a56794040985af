"""Workload generators: distributions, Poisson, incast, mix."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.collector import FlowClass, StatsHub
from repro.units import MTU, gbps, ms
from repro.workloads.distributions import (
    FlowSizeDistribution,
    MEMCACHED,
    WEB_SEARCH,
    WORKLOADS,
)
from repro.workloads.incast import (
    STAGGERED_FLOW_SIZE,
    STAGGERED_INTERVAL,
    SUCCESSIVE_INTERVAL,
    periodic_incast,
    staggered_flows,
    successive_incast,
)
from repro.workloads.mix import build_incastmix
from repro.workloads.poisson import PoissonGenerator


class TestDistributions:
    def test_all_four_workloads_present(self):
        assert set(WORKLOADS) == {"memcached", "webserver", "hadoop", "websearch"}

    def test_samples_within_support(self):
        rng = random.Random(1)
        for dist in WORKLOADS.values():
            lo = dist.points[0][0]
            hi = dist.points[-1][0]
            for _ in range(500):
                s = dist.sample(rng)
                assert 1 <= s <= hi

    def test_memcached_mostly_sub_kb(self):
        rng = random.Random(2)
        draws = [MEMCACHED.sample(rng) for _ in range(3000)]
        assert sum(1 for d in draws if d <= 1000) / len(draws) > 0.85

    def test_websearch_heavy_tail(self):
        rng = random.Random(3)
        draws = sorted(WEB_SEARCH.sample(rng) for _ in range(3000))
        top10 = sum(draws[int(0.9 * len(draws)):])
        assert top10 / sum(draws) > 0.5

    def test_empirical_mean_close_to_analytic(self):
        rng = random.Random(4)
        for dist in WORKLOADS.values():
            draws = [dist.sample(rng) for _ in range(30_000)]
            emp = sum(draws) / len(draws)
            assert 0.5 * dist.mean() < emp < 2.0 * dist.mean()

    def test_invalid_cdf_rejected(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", [(100, 0.5), (200, 0.4), (300, 1.0)])
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", [(100, 0.5)])
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", [])

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_sampling_deterministic_per_seed(self, seed):
        a = [MEMCACHED.sample(random.Random(seed)) for _ in range(5)]
        b = [MEMCACHED.sample(random.Random(seed)) for _ in range(5)]
        assert a == b


class TestPoisson:
    def test_flows_within_horizon(self):
        gen = PoissonGenerator(
            MEMCACHED, range(8), gbps(10), 0.5, random.Random(1)
        )
        flows = gen.generate(ms(1))
        assert flows
        assert all(0 <= f.start_time < ms(1) for f in flows)

    def test_no_self_flows(self):
        gen = PoissonGenerator(
            MEMCACHED, range(8), gbps(10), 0.8, random.Random(1)
        )
        assert all(f.src != f.dst for f in gen.generate(ms(1)))

    def test_flow_ids_unique_and_sequential(self):
        gen = PoissonGenerator(
            MEMCACHED, range(8), gbps(10), 0.8, random.Random(1)
        )
        flows = gen.generate(ms(1))
        assert [f.flow_id for f in flows] == list(range(len(flows)))

    def test_load_scales_volume(self):
        low = PoissonGenerator(
            MEMCACHED, range(8), gbps(10), 0.2, random.Random(1)
        ).generate(ms(2))
        high = PoissonGenerator(
            MEMCACHED, range(8), gbps(10), 0.8, random.Random(1)
        ).generate(ms(2))
        assert 2 * len(low) < len(high)

    def test_offered_load_approximates_target(self):
        load = 0.6
        hosts = range(16)
        gen = PoissonGenerator(
            MEMCACHED, hosts, gbps(10), load, random.Random(7)
        )
        flows = gen.generate(ms(20))
        offered = sum(f.size for f in flows) * 8 / (ms(20) / 1e9)  # bits/s
        target = load * gbps(10) * len(hosts)
        assert 0.6 * target < offered < 1.5 * target

    def test_dst_restriction_respected(self):
        gen = PoissonGenerator(
            MEMCACHED,
            range(8),
            gbps(10),
            0.8,
            random.Random(1),
            dst_hosts=[6, 7],
        )
        assert all(f.dst in (6, 7) for f in gen.generate(ms(1)))

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            PoissonGenerator(MEMCACHED, range(8), gbps(10), 0.0, random.Random(1))

    def test_too_few_hosts_rejected(self):
        with pytest.raises(ValueError):
            PoissonGenerator(MEMCACHED, [1], gbps(10), 0.5, random.Random(1))


class TestIncast:
    def test_sizes_between_30_and_40_mtu(self):
        spec = periodic_incast(
            range(1, 9), 0, gbps(10), ms(2), random.Random(1)
        )
        assert all(30 * MTU <= f.size <= 40 * MTU for f in spec.flows)

    def test_one_burst_when_duration_is_shorter_than_the_interval(self):
        """Fig. 14's all-to-one burst: 8 senders at load 0.5 repeat
        every 448 us, so 200 us of generation holds one burst."""
        spec = periodic_incast(range(1, 9), 0, gbps(10), 200_000, random.Random(1))
        assert sorted(f.src for f in spec.flows) == list(range(1, 9))
        assert all(f.start_time == 0 for f in spec.flows)
        assert all(f.dst == 0 for f in spec.flows)

    def test_dst_cannot_be_sender(self):
        with pytest.raises(ValueError):
            periodic_incast(range(8), 0, gbps(10), ms(2), random.Random(1))

    def test_periodic_interval_matches_load(self):
        spec = periodic_incast(
            range(1, 9), 0, gbps(10), ms(2), random.Random(1), load=0.5
        )
        starts = sorted({f.start_time for f in spec.flows})
        assert len(starts) >= 2
        interval = starts[1] - starts[0]
        # 8 senders x 35 MTU avg = 280 KB per burst at half a 10G link
        expected = int(8 * 35 * MTU * 8 / (0.5 * gbps(10)) * 1e9)
        assert abs(interval - expected) < 0.1 * expected

    def test_successive_rounds_target_distinct_dsts(self):
        spec = successive_incast(range(8), 3 * SUCCESSIVE_INTERVAL, random.Random(1))
        assert spec.destinations == [0, 1, 2]
        for i, dst in enumerate([0, 1, 2]):
            round_flows = [
                f for f in spec.flows if f.start_time == i * SUCCESSIVE_INTERVAL
            ]
            assert all(f.dst == dst for f in round_flows)
            assert all(f.src != dst for f in round_flows)
            assert len(round_flows) == 7

    def test_staggered_flow_list(self):
        """Fig. 16's traffic, flow for flow: one long flow per interval
        to the receiver, sources rotating over the other hosts."""
        flows = staggered_flows(range(4), 0, 5 * STAGGERED_INTERVAL)
        assert [(f.flow_id, f.src, f.dst, f.start_time) for f in flows] == [
            (0, 1, 0, 0),
            (1, 2, 0, 40_000),
            (2, 3, 0, 80_000),
            (3, 1, 0, 120_000),
            (4, 2, 0, 160_000),
        ]
        assert {f.size for f in flows} == {STAGGERED_FLOW_SIZE}
        # a receiver in the middle of the list is skipped, not shifted
        assert [f.src for f in staggered_flows(range(4), 2, 120_000)] == [0, 1, 3]
        assert staggered_flows(range(4), 0, 0) == []


class TestIncastMix:
    def test_classification(self):
        rack_of = {h: h // 4 for h in range(12)}
        mix = build_incastmix(
            MEMCACHED,
            hosts=list(range(12)),
            rack_of=rack_of,
            incast_dst=0,
            incast_senders=list(range(4, 12)),
            host_bandwidth=gbps(10),
            duration=ms(1),
            rng=random.Random(1),
        )
        classes = set(mix.classes.values())
        assert FlowClass.INCAST in classes
        assert FlowClass.VICTIM_PFC in classes
        for fid, cls in mix.classes.items():
            spec = next(f for f in mix.flows if f.flow_id == fid)
            if cls is FlowClass.INCAST:
                assert spec.dst == 0
            elif cls is FlowClass.VICTIM_INCAST:
                assert rack_of[spec.dst] == 0 and spec.dst != 0

    def test_poisson_never_targets_incast_dst(self):
        rack_of = {h: h // 4 for h in range(12)}
        mix = build_incastmix(
            MEMCACHED,
            hosts=list(range(12)),
            rack_of=rack_of,
            incast_dst=0,
            incast_senders=list(range(4, 12)),
            host_bandwidth=gbps(10),
            duration=ms(1),
            rng=random.Random(1),
        )
        for fid, cls in mix.classes.items():
            if cls is not FlowClass.INCAST:
                spec = next(f for f in mix.flows if f.flow_id == fid)
                assert spec.dst != 0

    def test_register_labels_stats_hub(self):
        rack_of = {h: h // 4 for h in range(12)}
        mix = build_incastmix(
            MEMCACHED,
            hosts=list(range(12)),
            rack_of=rack_of,
            incast_dst=0,
            incast_senders=list(range(4, 12)),
            host_bandwidth=gbps(10),
            duration=ms(1),
            rng=random.Random(1),
        )
        hub = StatsHub()
        mix.register(hub)
        incast_ids = [
            fid for fid, c in mix.classes.items() if c is FlowClass.INCAST
        ]
        assert all(fid in hub._incast_flows for fid in incast_ids)

    def test_flows_sorted_by_start(self):
        rack_of = {h: h // 4 for h in range(12)}
        mix = build_incastmix(
            MEMCACHED,
            hosts=list(range(12)),
            rack_of=rack_of,
            incast_dst=0,
            incast_senders=list(range(4, 12)),
            host_bandwidth=gbps(10),
            duration=ms(1),
            rng=random.Random(1),
        )
        starts = [f.start_time for f in mix.flows]
        assert starts == sorted(starts)
