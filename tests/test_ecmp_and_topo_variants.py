"""Per-destination ECMP, oversubscription, and topology variants."""

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.units import gbps, ms
from tests.conftest import MiniNet


class TestEcmp:
    def test_per_dst_uses_single_spine(self):
        # four flows from tor1's hosts to host 0 (on tor0) all leave
        # tor1 on one uplink: the route depends on the dst alone
        net = MiniNet("leaf-spine")
        tor = net.topo.switches_of_kind("tor")[1]
        for f, src in enumerate((4, 5, 6, 7)):
            net.flow(f, src, 0, 20_000)
        net.run(ms(5))
        idle, busy = sorted(
            port.tx_bytes
            for port, role in zip(tor.ports, tor.port_roles, strict=True)
            if role == "tor-up"
        )
        assert idle == 0 and busy >= 80_000


class TestOversubscription:
    def test_oversubscribed_fabric_congests_uplinks(self):
        # 4 hosts x 10G feeding a single 10G uplink: ToR-Up queues grow
        cfg = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(10),
            workload="websearch",
            poisson_load=0.5,
            pattern="poisson",
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        r = run_scenario(cfg)
        assert r.stats.max_port_buffer_by_role("tor-up") > 0

    def test_nonblocking_fabric_has_idle_uplinks(self):
        over = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(10),
            workload="websearch",
            pattern="poisson",
            poisson_load=0.5,
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        non = ScenarioConfig(
            n_spines=1,
            fabric_bandwidth=gbps(40),
            workload="websearch",
            pattern="poisson",
            poisson_load=0.5,
            n_tors=3,
            hosts_per_tor=4,
            duration=200_000,
            max_runtime_factor=30.0,
        )
        r_over = run_scenario(over)
        r_non = run_scenario(non)
        assert (
            r_non.stats.max_port_buffer_by_role("tor-up")
            <= r_over.stats.max_port_buffer_by_role("tor-up")
        )


class TestPaperScaleBuild:
    def test_paper_scale_topology_builds_and_moves_packets(self):
        """The full 160-host, 100/400G fabric is constructible and
        functional (we only run it briefly — full runs are for real
        reproduction hardware)."""
        from repro.experiments.scenario import Scale

        cfg = ScenarioConfig(
            scale=Scale.PAPER,
            pattern="none",
            duration=1_000_000,
        )
        sc = Scenario(cfg)
        assert len(sc.topology.hosts) == 160
        assert len(sc.topology.switches) == 14
        f = sc.topology.make_flow(1, 0, 159, 100_000, 0)
        sc.topology.start_flow(f)
        sc.sim.run(until=ms(1))
        assert f.receiver_done

    def test_paper_scale_floodgate_windows(self):
        from repro.experiments.scenario import Scale

        cfg = ScenarioConfig(
            scale=Scale.PAPER,
            flow_control="floodgate",
            pattern="none",
            duration=1_000_000,
        )
        sc = Scenario(cfg)
        ext = sc.extensions[0]
        # paper-scale windows: BDP_hop + C*T at 400G/10us ~ 500+ KB
        win_pkts = ext._initial_window(120)
        assert win_pkts > 100  # hundreds of packets, as in the paper
