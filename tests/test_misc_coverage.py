"""Remaining corners: engine guards, config derivation, pause reporting."""

import pytest

from repro.analysis.models import hop_bdp_bytes
from repro.experiments.scenario import Scale, Scenario, ScenarioConfig
from repro.floodgate.config import FloodgateConfig
from repro.floodgate.extension import M, MAX_VOQS
from repro.sim.engine import Simulator
from repro.units import MTU, SEC, ms, us
from tests.conftest import MiniNet


class TestEngineGuards:
    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1, reenter)
        sim.run()
        assert errors

    def test_clock_never_goes_backward(self):
        sim = Simulator()
        stamps = []
        for delay in (30, 10, 20, 10, 0):
            sim.schedule(delay, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == sorted(stamps)


#: (case, scenario fields, expected credit timer, delayCredit multiple,
#: ideal) — what ``floodgate.extension.install`` derives from a scenario
INSTALL_CASES = [
    ("ci", {}, us(2), 2.0, False),
    ("paper", dict(scale=Scale.PAPER), us(10), 10.0, False),
    ("explicit", dict(floodgate=FloodgateConfig(credit_timer=us(5))), us(5), 2.0, False),
    ("delay-credit", dict(delay_credit_bdp=4.0), us(2), 4.0, False),
    ("ideal", dict(flow_control="floodgate-ideal"), 0, 2.0, True),
    ("per-dst-pause", dict(per_dst_pause=True), us(2), 2.0, False),
]


class TestFloodgateConfigDerivation:
    @pytest.mark.parametrize(
        "fields, timer, multiple, ideal",
        [case[1:] for case in INSTALL_CASES],
        ids=[case[0] for case in INSTALL_CASES],
    )
    def test_install_derives(self, fields, timer, multiple, ideal):
        cfg = ScenarioConfig(
            **{
                "flow_control": "floodgate",
                "pattern": "none",
                "n_tors": 3,
                "hosts_per_tor": 2,
                **fields,
            }
        )
        scenario = Scenario(cfg)
        bdp = scenario.base_bdp
        for ext in scenario.extensions:
            assert ext.credits.timer == timer
            assert ext.credits.threshold == int(multiple * bdp)
            assert (ext.thre_off, ext.thre_on) == (bdp, bdp // 2)
            assert ext.ideal is ideal
            assert ext.per_dst_pause is cfg.per_dst_pause
            assert ext.pool.max_voqs == MAX_VOQS
        # the ideal design's window is M next-hop BDPs; the practical
        # one adds a credit timer's worth of line rate
        ext = scenario.extensions[0]
        dst = next(
            h.node_id
            for h in scenario.topology.hosts
            if h.node_id not in ext.switch.connected_hosts
        )
        link = ext.switch.links[ext.switch.route_for_dst(dst)]
        bdp_pkts = -(-hop_bdp_bytes(link.bandwidth, link.delay) // MTU)
        if ideal:
            assert ext._initial_window(dst) == int(M * bdp_pkts + 0.5)
        else:
            timer_pkts = -(-int(link.bandwidth * timer / (8 * SEC)) // MTU)
            assert ext._initial_window(dst) == bdp_pkts + timer_pkts

    def test_frozen(self):
        cfg = FloodgateConfig()
        with pytest.raises(Exception):
            cfg.credit_timer = 5  # type: ignore[misc]


class TestPauseReporting:
    def test_topology_reports_all_nodes(self):
        net = MiniNet(buffer_bytes=30_000)
        for i, src in enumerate((0, 1, 2, 3)):
            net.flow(i, src, 6, 60_000)
        net.run(ms(20))
        net.topo.report_to_hub()
        # at least one node class accumulated pause time under this
        # overload (PFC pauses ToR->host or ToR->ToR ports)
        assert sum(net.stats.pfc_paused_time.values()) > 0

    def test_ongoing_pause_counted_at_report_time(self):
        net = MiniNet()
        port = net.topo.switches[0].ports[0]
        port.pause()
        net.run(us(100))
        net.topo.switches[0].report_to_hub()
        assert net.stats.pfc_paused_time.get("tor", 0) >= us(100)

    def test_a_second_report_moves_nothing(self):
        """The flush moves: pause time, queueing sums and maxima reach
        the hub once however often the books are closed, and a pause
        still running keeps accruing between two flushes."""
        net = MiniNet()
        tor = net.topo.switches[0]
        tor.ports[0].pause()
        net.flow(1, 0, 6, 50_000)
        net.run(us(100))
        tor.report_to_hub()
        net.topo.report_to_hub()
        assert net.stats.pfc_paused_time == {"tor": us(100)}
        queuing = {k: list(v) for k, v in net.stats.queuing_normal.items()}
        maxima = dict(net.stats.port_max_buffer)
        assert queuing and maxima
        net.topo.report_to_hub()
        assert net.stats.queuing_normal == queuing
        assert net.stats.port_max_buffer == maxima
        net.run(us(200))
        net.topo.report_to_hub()
        assert net.stats.pfc_paused_time == {"tor": us(200)}


class TestWorkloadDeterminism:
    def test_incastmix_flow_ids_unique(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        sc = Scenario(
            ScenarioConfig(
                workload="memcached",
                n_tors=3,
                hosts_per_tor=2,
                duration=150_000,
            )
        )
        ids = [f.flow_id for f in sc.flows]
        assert len(ids) == len(set(ids))

    def test_same_config_same_flows(self):
        from repro.experiments.scenario import Scenario, ScenarioConfig

        cfg = ScenarioConfig(
            workload="memcached", n_tors=3, hosts_per_tor=2, duration=150_000
        )
        a = Scenario(cfg)
        b = Scenario(cfg)
        assert [(f.src, f.dst, f.size, f.start_time) for f in a.flows] == [
            (f.src, f.dst, f.size, f.start_time) for f in b.flows
        ]
