"""Scenario construction and the runner."""

import re
from dataclasses import replace

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scale, Scenario, ScenarioConfig
from repro.floodgate.config import FloodgateConfig
from repro.net.packet import PacketKind
from repro.rpc.spec import RpcWorkloadSpec
from repro.telemetry.registry import TelemetryConfig
from repro.units import gbps, mb, us


QUICK = dict(n_tors=3, hosts_per_tor=2, duration=100_000)


class TestConfigResolution:
    def test_ci_defaults(self):
        cfg = ScenarioConfig().resolved()
        assert cfg.n_tors == 4
        assert cfg.host_bandwidth == gbps(10)
        assert cfg.buffer_bytes == 500_000
        assert cfg.host_link_delay > cfg.link_delay

    def test_paper_defaults(self):
        cfg = ScenarioConfig(scale=Scale.PAPER).resolved()
        assert cfg.n_tors == 10
        assert cfg.hosts_per_tor == 16
        assert cfg.host_bandwidth == gbps(100)
        assert cfg.buffer_bytes == mb(20)

    def test_explicit_values_survive(self):
        cfg = ScenarioConfig(n_tors=7, buffer_bytes=123_000).resolved()
        assert cfg.n_tors == 7
        assert cfg.buffer_bytes == 123_000

    def test_unknown_cc_rejected(self):
        with pytest.raises(ValueError):
            Scenario(ScenarioConfig(cc="bogus", **QUICK))

    def test_unknown_flow_control_rejected(self):
        with pytest.raises(ValueError):
            Scenario(ScenarioConfig(flow_control="bogus", **QUICK))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            Scenario(ScenarioConfig(topology="ring", **QUICK))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ideal", True),
            ("thre_credit_bytes", 1),
            ("thre_off_bytes", 7),
            ("thre_on_bytes", 3),
            ("per_dst_pause", True),
            ("m", 1.5),
            ("max_voqs", 4),
        ],
    )
    def test_derived_floodgate_fields_rejected(self, field, value):
        # floodgate.extension.install derives these from the scenario
        # (m and max_voqs are its module constants M and MAX_VOQS): a
        # config cannot name them
        with pytest.raises(TypeError, match=field):
            FloodgateConfig(**{field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(credit_timer=us(10)),  # fig17, parameter_tuning
            dict(credit_timer=us(10), isolate_incast=False),  # test_ablations
            dict(credit_timer=us(2), loss_recovery=False, syn_timeout=us(50)),
        ],
    )
    def test_floodgate_fields_in_use_construct_and_survive(self, kwargs):
        given = FloodgateConfig(**kwargs)
        cfg = ScenarioConfig(
            flow_control="floodgate", pattern="none", floodgate=given, **QUICK
        )
        installed = Scenario(cfg).extensions[0].config
        for name, value in kwargs.items():
            assert getattr(installed, name) == value

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: TelemetryConfig(interval=0), "interval"),
            (lambda: TelemetryConfig(interval=-5), "interval"),
        ],
    )
    def test_observer_configs_validate_at_construction(self, build, field):
        # these used to construct, hash into a cache key, and only fail
        # inside Scenario.__init__ with PeriodicTask's anonymous message
        with pytest.raises(ValueError, match=field):
            build()


    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(swnd_bdp=0.0), "swnd_bdp"),
            (dict(max_runtime_factor=0.0), "max_runtime_factor"),
            (dict(duration=-5), "duration"),
            (dict(hosts_per_tor=-1), "hosts_per_tor"),
            (dict(poisson_load=-1), "poisson_load"),
            (dict(incast_load=0.0), "incast_load"),
            (dict(n_tors=1, hosts_per_tor=4, incast_dst=99), "incast_dst"),
            (dict(incast_dst=99, pattern="staggered"), "incast_dst"),
        ],
    )
    def test_bad_numeric_fields_fail_before_the_build(self, kwargs, field):
        # these used to run to a hard stop with nothing done, or raise
        # KeyError / a generator's anonymous error mid-build
        with pytest.raises(ValueError, match=field):
            Scenario(ScenarioConfig(**kwargs))

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FloodgateConfig(credit_timer=0), "floodgate.credit_timer"),
            (lambda: FloodgateConfig(syn_timeout=-1), "floodgate.syn_timeout"),
            (lambda: ScenarioConfig(topology="fat-tree", fat_tree_k=3), "fat_tree_k"),
            (lambda: ScenarioConfig(topology="fat-tree", fat_tree_k=0), "fat_tree_k"),
            (
                lambda: Scenario(
                    ScenarioConfig(
                        pattern="rpc", rpc=RpcWorkloadSpec(n_clients=999), **QUICK
                    )
                ),
                "rpc.n_clients",
            ),
        ],
    )
    def test_bad_component_parameters_fail_naming_the_field(self, build, field):
        # these used to build, then die inside PeriodicTask, the
        # topology builder or the rpc driver, naming some other field
        with pytest.raises(ValueError, match=re.escape(field)):
            build()

    def test_per_dst_pause_is_the_scenario_field_on_both_designs(self):
        for fc in ("floodgate", "floodgate-ideal"):
            cfg = ScenarioConfig(
                flow_control=fc, per_dst_pause=True, pattern="none", **QUICK
            )
            assert Scenario(cfg).extensions[0].per_dst_pause

    @pytest.mark.parametrize(
        "fc, kwargs",
        [
            ("none", dict(per_dst_pause=True)),
            ("bfc", dict(per_dst_pause=True)),
            ("pfc-tag", dict(delay_credit_bdp=2.0)),
            ("ndp", dict(floodgate=FloodgateConfig(credit_timer=us(5)))),
            ("none", dict(floodgate=FloodgateConfig())),
            ("none", dict(bfc_queues=4)),
            ("floodgate", dict(bfc_queues=0)),
            ("floodgate-ideal", dict(bfc_queues=128)),
        ],
    )
    def test_a_field_only_another_scheme_reads_fails_at_construction(self, fc, kwargs):
        # these used to build and run the scheme with the field ignored:
        # ScenarioConfig(per_dst_pause=True) ran plain DCQCN
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"{field} is set, but flow_control='{fc}'"):
            ScenarioConfig(flow_control=fc, **kwargs)

    def test_incastmix_on_two_hosts_fails_in_the_fabric_check(self):
        # this used to fail inside the Poisson generator with "need at
        # least two hosts", although the fabric has two: the incast
        # destination takes no Poisson traffic
        cfg = ScenarioConfig(n_tors=2, hosts_per_tor=1, duration=20_000)
        with pytest.raises(ValueError, match="incastmix' needs at least three hosts.* has 2"):
            Scenario(cfg)

    @pytest.mark.parametrize("pattern", ["poisson", "successive", "staggered"])
    def test_one_host_fails_in_the_fabric_check(self, pattern):
        # these used to fail inside the Poisson generator, build a run
        # of zero flows, or divide by zero partway through the build
        cfg = ScenarioConfig(pattern=pattern, n_tors=1, hosts_per_tor=1, duration=20_000)
        with pytest.raises(
            ValueError,
            match=f"pattern='{pattern}' needs at least two hosts, but the leaf-spine fabric has 1",
        ):
            Scenario(cfg)

    @pytest.mark.parametrize("pattern", ["incastmix", "incast"])
    def test_incast_on_one_rack_is_rejected(self, pattern):
        # no host outside the destination's rack: the build used to
        # divide by zero here, or spin forever with incast_fan_in=0
        cfg = ScenarioConfig(
            n_tors=1, hosts_per_tor=4, duration=20_000, pattern=pattern,
            incast_fan_in=4,
        )
        with pytest.raises(ValueError, match="one rack"):
            Scenario(cfg)

    def test_out_of_range_hot_rack_fails_at_construction(self):
        # this used to build, and fail only when the runner built the
        # hybrid engine
        cfg = ScenarioConfig(fidelity="hybrid", hot_racks=(3,), **QUICK)
        with pytest.raises(ValueError, match="hot rack 3 out of range: topology has 3 racks"):
            Scenario(cfg)

    def test_periodic_incast_rejects_no_senders(self):
        import random

        from repro.workloads.incast import periodic_incast

        # duration 0, so the old loop (interval 0) returns instead of
        # spinning if the check is ever lost
        with pytest.raises(ValueError, match="at least one sender"):
            periodic_incast([], 0, gbps(10), 0, random.Random(1))


class TestEcnThresholds:
    def test_inverted_thresholds_fail_at_construction(self):
        # this used to build with kmax silently raised to kmin
        with pytest.raises(ValueError, match="ecn_kmax 20000 is below ecn_kmin 50000"):
            ScenarioConfig(ecn_kmin=50_000, ecn_kmax=20_000)

    def test_kmax_below_the_derived_kmin_fails_before_the_build(self):
        cfg = ScenarioConfig(ecn_kmax=5_000, **QUICK)  # kmin floor is 10 KB
        with pytest.raises(ValueError, match="ecn_kmax 5000 .* default ecn_kmin"):
            Scenario(cfg)

    @pytest.mark.parametrize("cc", ["timely", "hpcc", "static"])
    @pytest.mark.parametrize("field", ["ecn_kmin", "ecn_kmax"])
    def test_thresholds_under_a_law_that_reads_no_marks_fail(self, field, cc):
        # these used to build and ignore the thresholds
        with pytest.raises(ValueError, match=f"{field} is set, but cc='{cc}'"):
            ScenarioConfig(cc=cc, **{field: 20_000})

    @pytest.mark.parametrize("kmin, kmax", [(20_000, 80_000), (20_000, 20_000)])
    def test_fig16_settings_are_accepted(self, kmin, kmax):
        sc = Scenario(ScenarioConfig(ecn_kmin=kmin, ecn_kmax=kmax, **QUICK))
        configs = {sw.ecn.config for sw in sc.topology.switches}
        assert {(c.kmin, c.kmax) for c in configs} == {(kmin, kmax)}


class TestBuild:
    @pytest.mark.parametrize("cc", ["dcqcn", "timely", "hpcc", "static"])
    def test_all_ccs_build(self, cc):
        sc = Scenario(ScenarioConfig(cc=cc, **QUICK))
        law = {
            "dcqcn": "Dcqcn", "timely": "Timely", "hpcc": "Hpcc",
            "static": "CcAlgorithm",
        }[cc]
        assert type(sc.cc).__name__ == law
        assert all(h.cc is sc.cc for h in sc.topology.hosts)

    @pytest.mark.parametrize(
        "fc",
        ["none", "floodgate", "floodgate-ideal", "bfc", "pfc-tag", "ndp"],
    )
    def test_all_flow_controls_build(self, fc):
        sc = Scenario(ScenarioConfig(flow_control=fc, **QUICK))
        if fc == "none":
            assert not sc.extensions
        else:
            assert len(sc.extensions) == len(sc.topology.switches)

    def test_hpcc_enables_int(self):
        """Every delivered data packet carries one INT record per
        switch on its path (ToR, or ToR-spine-ToR)."""
        sc = Scenario(ScenarioConfig(cc="hpcc", **QUICK))
        assert all(h.int_enabled for h in sc.topology.hosts)
        rack_of = sc.topology.rack_of
        stacks = []  # (records, switch hops)
        for host in sc.topology.hosts:

            def spy(pkt, port, receive=host.receive):
                if pkt.kind == PacketKind.DATA:
                    hops = 1 if rack_of[pkt.src] == rack_of[pkt.dst] else 3
                    stacks.append((len(pkt.int_records), hops))
                receive(pkt, port)

            host.receive = spy
        run_scenario(sc.config, scenario=sc)
        assert stacks and all(n == hops for n, hops in stacks)

    @pytest.mark.parametrize("cc", ["dcqcn", "timely", "hpcc", "static"])
    def test_only_a_law_that_reads_marks_gets_ecn_markers(self, cc):
        # HPCC's switches used to mark packets no receiver read
        sc = Scenario(ScenarioConfig(cc=cc, **QUICK))
        assert {sw.ecn is not None for sw in sc.topology.switches} == {
            cc == "dcqcn"
        }

    def test_ndp_disables_pfc(self):
        sc = Scenario(ScenarioConfig(flow_control="ndp", cc="static", **QUICK))
        assert all(not sw.pfc_enabled for sw in sc.topology.switches)

    def test_rack_of_partition(self):
        sc = Scenario(ScenarioConfig(**QUICK))
        rack_of = sc.rack_of()
        assert len(rack_of) == len(sc.topology.hosts)
        assert len(set(rack_of.values())) == 3

    def test_incast_senders_exclude_dst_rack(self):
        sc = Scenario(ScenarioConfig(incast_dst=0, **QUICK))
        rack_of = sc.rack_of()
        senders = sc.incast_senders()
        assert all(rack_of[s] != rack_of[0] for s in senders)

    def test_incast_fan_in_wraps(self):
        sc = Scenario(ScenarioConfig(incast_dst=0, incast_fan_in=10, **QUICK))
        senders = sc.incast_senders()
        assert len(senders) == 10  # only 4 eligible: wrapped

    def test_fat_tree_builds(self):
        sc = Scenario(
            ScenarioConfig(
                topology="fat-tree", fat_tree_k=4, duration=100_000
            )
        )
        assert len(sc.topology.hosts) == 16

    def test_testbed_builds(self):
        sc = Scenario(ScenarioConfig(topology="testbed", duration=100_000))
        assert len(sc.topology.hosts) == 6

    def test_traffic_generated_for_incastmix(self):
        sc = Scenario(ScenarioConfig(**QUICK))
        assert sc.flows
        # every flow's class is on the hub once the build returns
        assert set(sc.stats.flow_class) == {f.flow_id for f in sc.flows}

    def test_pattern_none_generates_nothing(self):
        sc = Scenario(ScenarioConfig(pattern="none", **QUICK))
        assert sc.flows == []


class TestRunner:
    def test_completes_and_reports(self):
        cfg = ScenarioConfig(workload="memcached", **QUICK)
        r = run_scenario(cfg)
        assert r.total_flows > 0
        assert r.completed_flows == r.total_flows
        assert r.sim_time > 0
        assert r.events > 0
        assert 0 < r.completion_rate <= 1.0

    def test_early_stop_before_hard_end(self):
        cfg = ScenarioConfig(
            workload="memcached", max_runtime_factor=100.0, **QUICK
        )
        r = run_scenario(cfg)
        assert r.sim_time < cfg.resolved().duration * 100

    def test_fct_summaries_accessible(self):
        cfg = ScenarioConfig(workload="memcached", **QUICK)
        r = run_scenario(cfg)
        assert r.poisson_fct.count > 0
        assert r.incast_fct.count > 0
        assert r.max_switch_buffer_mb > 0

    def test_same_seed_same_result(self):
        cfg = ScenarioConfig(workload="memcached", seed=9, **QUICK)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.poisson_fct.avg_ns == b.poisson_fct.avg_ns
        assert a.events == b.events

    def test_different_seed_different_traffic(self):
        base = ScenarioConfig(workload="memcached", **QUICK)
        a = run_scenario(replace(base, seed=1))
        b = run_scenario(replace(base, seed=2))
        assert a.total_flows != b.total_flows or (
            a.poisson_fct.avg_ns != b.poisson_fct.avg_ns
        )


def test_config_field_budget():
    """Every ScenarioConfig field doubles the configurations tests and
    benchmarks must cover (and changes every cached run's fingerprint by
    itself): adding one is a deliberate edit of this number, not drift.
    Likewise the nested telemetry config and the registry's entry
    record."""
    import dataclasses

    from repro.experiments.registry import ScenarioEntry
    from repro.telemetry.registry import TelemetryConfig

    assert len(dataclasses.fields(ScenarioConfig)) == 40
    assert len(dataclasses.fields(TelemetryConfig)) == 2
    assert len(dataclasses.fields(ScenarioEntry)) == 6


def test_reference_config_names_the_twin_a_run_is_judged_against():
    from repro.experiments.scenario import reference_config

    packet = ScenarioConfig(**QUICK)
    assert reference_config(packet) is None
    assert reference_config(replace(packet, shards=2)) == ("serial", packet)
    assert reference_config(replace(packet, fidelity="flow")) == (
        "packet",
        packet,
    )
    hybrid = replace(packet, fidelity="hybrid", hot_racks=(1,))
    assert reference_config(hybrid) == ("packet", packet)
