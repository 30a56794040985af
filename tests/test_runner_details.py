"""Runner internals and result-object helpers."""


from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.stats.collector import FlowClass

QUICK = dict(n_tors=3, hosts_per_tor=2, duration=100_000)


class TestRunnerEdges:
    def test_empty_traffic_terminates(self):
        cfg = ScenarioConfig(pattern="none", **QUICK)
        r = run_scenario(cfg)
        assert r.total_flows == 0
        assert r.completion_rate == 1.0

    def test_prebuilt_scenario_reused(self):
        cfg = ScenarioConfig(workload="memcached", **QUICK)
        sc = Scenario(cfg)
        r = run_scenario(cfg, scenario=sc)
        assert r.scenario is sc

    def test_hard_end_caps_runtime(self):
        # absurdly slow drain: one flow to a paused destination never
        # completes, but the runner still returns at the hard end
        cfg = ScenarioConfig(pattern="none", max_runtime_factor=2.0, **QUICK)
        sc = Scenario(cfg)
        host = sc.topology.hosts[0]
        host.paused_keys = {3}  # flow will never start moving
        f = sc.topology.make_flow(1, 0, 3, 10_000, 0)
        sc.topology.start_flow(f)
        r = run_scenario(cfg, scenario=sc)
        assert r.completed_flows == 0
        assert r.sim_time <= 2 * cfg.resolved().duration

    def test_wall_time_and_events_reported(self):
        cfg = ScenarioConfig(workload="memcached", **QUICK)
        r = run_scenario(cfg)
        assert r.wall_seconds > 0
        assert r.events > 0


class TestResultHelpers:
    def _result(self):
        return run_scenario(ScenarioConfig(workload="memcached", **QUICK))

    def test_per_hop_buffers_mb(self):
        r = self._result()
        table = r.per_hop_buffers_mb(["tor-up", "core", "tor-down"])
        assert set(table) == {"tor-up", "core", "tor-down"}
        assert all(v >= 0 for v in table.values())

    def test_fct_summary_by_class(self):
        r = self._result()
        incast = r.fct_summary(FlowClass.INCAST)
        assert incast.count == r.incast_fct.count

    def test_max_voqs_zero_without_extensions(self):
        r = self._result()
        assert r.max_voqs_used == 0
