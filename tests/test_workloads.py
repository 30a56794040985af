"""Workload generators: distributions, Poisson, incast, mix, and the
flow classes each pattern's traffic function labels on the hub."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import Scenario, ScenarioConfig
from repro.experiments.choices import PATTERNS
from repro.experiments.runner import run_scenario
from repro.rpc.spec import RpcWorkloadSpec
from repro.stats.collector import FlowClass
from repro.units import MTU, gbps, ms, us
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
from repro.workloads.poisson import poisson_flows


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
        flows = poisson_flows(MEMCACHED, range(8), gbps(10), 0.5, random.Random(1), ms(1))
        assert flows
        assert all(0 <= f.start_time < ms(1) for f in flows)

    def test_no_self_flows(self):
        flows = poisson_flows(MEMCACHED, range(8), gbps(10), 0.8, random.Random(1), ms(1))
        assert all(f.src != f.dst for f in flows)

    def test_flow_ids_unique_and_sequential(self):
        flows = poisson_flows(MEMCACHED, range(8), gbps(10), 0.8, random.Random(1), ms(1))
        assert [f.flow_id for f in flows] == list(range(len(flows)))

    def test_load_scales_volume(self):
        low = poisson_flows(MEMCACHED, range(8), gbps(10), 0.2, random.Random(1), ms(2))
        high = poisson_flows(MEMCACHED, range(8), gbps(10), 0.8, random.Random(1), ms(2))
        assert 2 * len(low) < len(high)

    def test_offered_load_approximates_target(self):
        load = 0.6
        hosts = range(16)
        flows = poisson_flows(MEMCACHED, hosts, gbps(10), load, random.Random(7), ms(20))
        offered = sum(f.size for f in flows) * 8 / (ms(20) / 1e9)  # bits/s
        target = load * gbps(10) * len(hosts)
        assert 0.6 * target < offered < 1.5 * target

    def test_dst_restriction_respected(self):
        # both ends come from ``hosts``: incastmix leaves its incast
        # destination out of the list
        flows = poisson_flows(MEMCACHED, [2, 6, 7], gbps(10), 0.8, random.Random(1), ms(1))
        assert flows
        assert all({f.src, f.dst} <= {2, 6, 7} for f in flows)

    def test_too_few_hosts_rejected(self):
        with pytest.raises(ValueError):
            poisson_flows(MEMCACHED, [1], gbps(10), 0.5, random.Random(1), ms(1))


class TestIncast:
    def test_sizes_between_30_and_40_mtu(self):
        flows = periodic_incast(range(1, 9), 0, gbps(10), ms(2), random.Random(1))
        assert all(30 * MTU <= f.size <= 40 * MTU for f in flows)

    def test_one_burst_when_duration_is_shorter_than_the_interval(self):
        """Fig. 14's all-to-one burst: 8 senders at load 0.5 repeat
        every 448 us, so 200 us of generation holds one burst."""
        flows = periodic_incast(range(1, 9), 0, gbps(10), 200_000, random.Random(1))
        assert sorted(f.src for f in flows) == list(range(1, 9))
        assert all(f.start_time == 0 for f in flows)
        assert all(f.dst == 0 for f in flows)

    def test_periodic_interval_matches_load(self):
        flows = periodic_incast(
            range(1, 9), 0, gbps(10), ms(2), random.Random(1), load=0.5
        )
        starts = sorted({f.start_time for f in flows})
        assert len(starts) >= 2
        interval = starts[1] - starts[0]
        # 8 senders x 35 MTU avg = 280 KB per burst at half a 10G link
        expected = int(8 * 35 * MTU * 8 / (0.5 * gbps(10)) * 1e9)
        assert abs(interval - expected) < 0.1 * expected

    def test_successive_rounds_target_distinct_dsts(self):
        flows = successive_incast(range(8), 3 * SUCCESSIVE_INTERVAL, random.Random(1))
        for i, dst in enumerate([0, 1, 2]):
            round_flows = [f for f in flows if f.start_time == i * SUCCESSIVE_INTERVAL]
            assert all(f.dst == dst for f in round_flows)
            assert all(f.src != dst for f in round_flows)
            assert len(round_flows) == 7
        assert len(flows) == 3 * 7

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
    """``incastmix_traffic`` on a 3-rack, 12-host leaf-spine: incast to
    host 0, whose rack mates are hosts 1-3."""

    @pytest.fixture(scope="class")
    def mix(self):
        return Scenario(ScenarioConfig(
            workload="memcached", n_tors=3, hosts_per_tor=4, duration=ms(1),
        ))

    def test_classification(self, mix):
        classes = mix.stats.flow_class
        assert set(classes) == {f.flow_id for f in mix.flows}
        assert set(classes.values()) == set(FlowClass) - {FlowClass.OTHER}
        rack_of = mix.rack_of()
        for spec in mix.flows:
            cls = classes[spec.flow_id]
            if cls is FlowClass.INCAST:
                assert spec.dst == 0
            elif cls is FlowClass.VICTIM_INCAST:
                assert rack_of[spec.dst] == 0 and spec.dst != 0
            else:
                assert rack_of[spec.dst] != 0

    def test_poisson_never_targets_incast_dst(self, mix):
        poisson = [f for f in mix.flows if mix.stats.flow_class[f.flow_id] is not FlowClass.INCAST]
        assert poisson
        assert all(0 not in (f.src, f.dst) for f in poisson)

    def test_register_labels_stats_hub(self, mix):
        # Poisson ids come first (0..n-1), the bursts' after them
        incast_ids = {f.flow_id for f in mix.flows if f.dst == 0}
        assert incast_ids == mix.stats._incast_flows
        assert min(incast_ids) == len(mix.flows) - len(incast_ids)

    def test_flows_sorted_by_start(self, mix):
        starts = [f.start_time for f in mix.flows]
        assert starts == sorted(starts)


#: a small config for each pattern row (a 3-rack, 6-host leaf-spine,
#: incast to host 0), with the fields its row needs set
_SMALL = dict(n_tors=3, hosts_per_tor=2, duration=100_000)
_NEEDS = {
    "incastmix": dict(workload="memcached"),
    "rpc": dict(rpc=RpcWorkloadSpec(n_clients=2, fan_out=3, think_time=us(10))),
}


@pytest.mark.parametrize("pattern", list(PATTERNS))
def test_every_pattern_labels_its_own_flows(pattern):
    """A traffic function labels the flows it draws on the hub, and no
    other route does: the §6.1 classes for incastmix, incast for the
    all-to-one patterns, nothing for Poisson, staggered and none, and
    for the closed loop nothing before it runs, then every response."""
    cfg = ScenarioConfig(pattern=pattern, **_SMALL, **_NEEDS.get(pattern, {}))
    sc = Scenario(cfg)
    classes = sc.stats.flow_class
    if pattern in ("incast", "successive"):
        assert sc.flows
        assert classes == dict.fromkeys((f.flow_id for f in sc.flows), FlowClass.INCAST)
    elif pattern == "incastmix":
        rack_of = sc.rack_of()
        expected = {}
        for f in sc.flows:
            if f.dst == 0:
                expected[f.flow_id] = FlowClass.INCAST
            elif rack_of[f.dst] == rack_of[0]:
                expected[f.flow_id] = FlowClass.VICTIM_INCAST
            else:
                expected[f.flow_id] = FlowClass.VICTIM_PFC
        assert set(expected.values()) == set(FlowClass) - {FlowClass.OTHER}
        assert classes == expected
    else:
        assert classes == {}
    if pattern == "rpc":
        # a request's ids are 2*fan_out slots: queries, then responses
        fan_out = cfg.rpc.fan_out
        run_scenario(cfg, sc)
        responses = {fid for fid in sc.flow_table if fid % (2 * fan_out) >= fan_out}
        assert responses
        assert classes == dict.fromkeys(responses, FlowClass.INCAST)
