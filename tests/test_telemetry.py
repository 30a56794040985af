"""The unified telemetry layer: instruments, samplers, exports, CLI."""

import inspect
import json
import pickle
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.experiments.parallel import (
    ResultSummary,
    SweepTask,
    run_sweep,
)
from repro.experiments import registry
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.sim.engine import Simulator
from repro.stats.collector import FlowClass, StatsHub
from repro.telemetry import (
    EngineProfiler,
    Histogram,
    RateSampler,
    TelemetryConfig,
    TelemetryExport,
    render_export,
)
from repro.telemetry.recorder import build_export
from repro.telemetry.report import _bin_quantile
from repro.units import us


def quick_config(**kw) -> ScenarioConfig:
    params = dict(
        n_tors=2,
        hosts_per_tor=3,
        duration=150_000,
        buffer_bytes=200_000,
        incast_fan_in=4,
        flow_control="floodgate",
        telemetry=TelemetryConfig(interval=us(5)),
    )
    params.update(kw)
    return ScenarioConfig(**params)


class TestInstruments:
    def test_histogram_bins_powers_of_two(self):
        h = Histogram("fct")
        for v in (1, 2, 3, 4, 1000):
            h.observe(v)
        bins = dict(h.bins())
        # bin i holds values with bit_length i, i.e. [2**(i-1), 2**i)
        assert bins[2] == 1      # value 1
        assert bins[4] == 2      # values 2, 3
        assert bins[8] == 1      # value 4
        assert bins[1024] == 1   # value 1000
        assert h.total == 5 and h.sum == 1010
        assert h.min == 1 and h.max == 1000
        assert h.mean() == pytest.approx(202.0)

    def test_histogram_order_independent(self):
        a, b = Histogram("x"), Histogram("x")
        values = [5, 17, 3, 900, 17, 64]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        assert a.bins() == b.bins()

    def test_quantile_hits_bin_edge(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(v)
        assert _bin_quantile(h.bins(), 0.5) <= _bin_quantile(h.bins(), 0.99)
        assert _bin_quantile(h.bins(), 1.0) == 128  # bin holding 100

    def test_empty_histogram(self):
        h = Histogram("x")
        assert h.bins() == [] and h.mean() == 0.0


class TestSamplers:
    def test_rate_sampler_started_mid_run(self):
        # the pre-RateSampler monitor divided the first sample by the
        # nominal interval even when started at sim.now > 0 or off the
        # tick grid — the rate must use the actual elapsed window
        sim = Simulator()
        box = {"bytes": 0}
        sim.schedule(us(7), lambda: None)  # advance to an off-grid time
        sim.run(until=us(7))
        assert sim.now == us(7)
        s = RateSampler(
            sim, {"x": lambda: box["bytes"]}, interval=us(10), scale=8.0
        )
        s.start()
        box["bytes"] = 12_500  # arrives within the first window
        sim.run(until=us(40))
        t0, v0 = s.samples["x"][0]
        assert t0 == us(17)
        # 12500 B over exactly 10 us = 10 Gbps; a nominal-interval
        # division would only be right by luck of grid alignment
        assert v0 == pytest.approx(12_500 * 8.0 / us(10))

    def test_rate_sampler_restart_rebaselines(self):
        sim = Simulator()
        box = {"bytes": 0}
        s = RateSampler(sim, {"x": lambda: box["bytes"]}, interval=us(10))
        s.start()
        sim.run(until=us(20))
        s.stop()
        box["bytes"] = 1_000_000  # counted while stopped: belongs to no window
        sim.schedule(us(30), lambda: None)
        sim.run(until=us(30))
        s.start()
        sim.run(until=us(50))
        post = [v for t, v in s.samples["x"] if t > us(30)]
        assert post and all(v == 0 for v in post)

    def test_monitor_started_late_first_sample_correct(self):
        # end-to-end shape of the historical bug: monitor starts at
        # 50 us into the run; the first sample must not be inflated
        sim = Simulator()
        box = {"bytes": 0}
        from repro.sim.process import PeriodicTask

        feed = PeriodicTask(sim, us(1), lambda: box.__setitem__(
            "bytes", box["bytes"] + 1_250))  # steady 10 Gbps
        feed.start()
        sim.run(until=us(50))
        mon = RateSampler(
            sim, {"x": lambda: box["bytes"]}, interval=us(10), scale=8.0
        )
        mon.start()
        sim.run(until=us(100))
        series = mon.series("x")
        assert series
        # every sample, including the first, reads ~10 Gbps; the old
        # code reported the first as 50 us of backlog / 10 us = 50 Gbps
        assert all(v == pytest.approx(10.0, rel=0.2) for _, v in series)

    def test_same_instant_restart_tick_skipped(self):
        sim = Simulator()
        s = RateSampler(sim, {"x": lambda: 100}, interval=us(10))
        s.start()
        s._sample()  # elapsed == 0: must record nothing, not divide by 0
        assert s.samples["x"] == []


class TestProfiler:
    def test_profile_counts_callbacks(self):
        sim = Simulator()
        prof = EngineProfiler()
        sim.set_profiler(prof)
        hits = []
        for i in range(5):
            sim.schedule(i * 10, hits.append, i)
        sim.run(until=1_000)
        assert len(hits) == 5
        assert prof.events == 5
        rows = prof.count_rows()
        assert rows and rows[0][1] == 5  # list.append dominates
        assert prof.max_heap_depth >= 1
        assert "events" in prof.report()

    def test_profiled_run_matches_unprofiled(self):
        def build():
            sim = Simulator()
            out = []
            for i in range(20):
                sim.schedule(i * 7, out.append, i)
            return sim, out

        plain_sim, plain_out = build()
        plain_sim.run(until=500)
        prof_sim, prof_out = build()
        prof_sim.set_profiler(EngineProfiler())
        prof_sim.run(until=500)
        assert plain_out == prof_out
        assert plain_sim.now == prof_sim.now
        assert plain_sim.events_executed == prof_sim.events_executed

    def test_recorded_run_counts_in_the_loop_and_reads_no_clock(self, monkeypatch):
        """The export's profile block is counted by the engine itself:
        a recorded run completes with the engine's clock taken away,
        and the block equals what an ``EngineProfiler`` installed by
        hand (the wall-clock half's carrier) counts over the same run."""
        import repro.sim.engine as engine

        def no_clock():
            raise AssertionError("a recorded run read the wall clock")

        with monkeypatch.context() as patch:
            patch.setattr(engine, "perf_counter", no_clock)
            counted = run_scenario(quick_config())
        assert counted.scenario.sim.profiler is None
        scenario = Scenario(quick_config())
        by_hand = EngineProfiler()
        scenario.sim.set_profiler(by_hand)
        timed = run_scenario(scenario.config, scenario=scenario)
        assert timed.telemetry.profile == counted.telemetry.profile
        assert counted.telemetry.profile == {
            "events": by_hand.events,
            "max_heap_depth": by_hand.max_heap_depth,
            "callbacks": [list(row) for row in by_hand.count_rows()],
        }
        assert by_hand.events == counted.events > 0
        assert by_hand.wall_seconds > 0 and sum(by_hand.seconds.values()) > 0

    def test_unrecorded_run_counts_nothing(self):
        result = run_scenario(quick_config(telemetry=None))
        sim = result.scenario.sim
        assert sim.profiler is None
        assert sim.callback_counts is None and sim.max_heap_depth == 0
        off = run_scenario(
            quick_config(telemetry=TelemetryConfig(engine_profile=False))
        )
        assert off.scenario.sim.callback_counts is None
        assert off.telemetry.profile is None


class TestScenarioTelemetry:
    def test_run_produces_export(self):
        result = run_scenario(quick_config())
        export = result.telemetry
        assert export is not None
        assert export.meta["sim_time_ns"] == result.sim_time
        assert export.meta["events"] == result.events
        assert export.counter_value("flows.total") == result.total_flows
        assert export.series_named("rx_gbps.total") is not None
        assert export.series_named("buffer_bytes.total") is not None
        assert any(h["name"] == "fct_ns" for h in export.histograms)
        assert export.profile is not None and export.profile["events"] > 0
        # floodgate counter surfaces were harvested
        assert export.counter_value("floodgate.credits_sent") is not None

    def test_telemetry_off_keeps_outcome_identical(self):
        # sampler ticks add engine events, but they must not perturb
        # the simulation itself: same completions, same FCTs, same end
        off = run_scenario(quick_config(telemetry=None))
        on = run_scenario(quick_config())
        assert off.telemetry is None
        assert off.sim_time == on.sim_time
        assert off.completed_flows == on.completed_flows
        assert [r.fct for r in off.stats.fct_records] == [
            r.fct for r in on.stats.fct_records
        ]
        assert off.stats.pfc_pause_events == on.stats.pfc_pause_events
        assert off.stats.packets_dropped == on.stats.packets_dropped

    def test_jsonl_round_trip(self):
        export = run_scenario(quick_config()).telemetry
        back = TelemetryExport.from_jsonl(export.to_jsonl())
        assert back.meta == export.meta
        assert back.counters == export.counters
        assert back.series == export.series
        assert back.histograms == export.histograms
        assert back.profile == export.profile
        assert back.to_jsonl() == export.to_jsonl()

    def test_csv_has_all_kinds(self):
        export = run_scenario(quick_config()).telemetry
        lines = export.to_csv().splitlines()
        assert lines[0] == "kind,name,x,value"
        kinds = {line.split(",", 1)[0] for line in lines[1:]}
        assert kinds == {"counter", "series", "hist", "profile"}


class TestOneRecorder:
    """The serial recorder is the one-domain case of the domain recorder:
    it records raw cumulatives and exports through the same builder a
    sharded run merges its per-domain recordings with."""

    @staticmethod
    def _run_with_reference_sampler(cfg):
        """Run ``cfg`` with a tick-time RateSampler riding along."""
        sc = Scenario(cfg)
        hub = sc.stats
        reference = RateSampler(
            sc.sim,
            {
                "rx_gbps.incast": lambda: hub.rx_bytes_of_class(FlowClass.INCAST),
                "rx_gbps.total": lambda: sum(
                    h.rx_data_bytes for h in sc.topology.hosts
                ),
            },
            cfg.telemetry.interval,
            scale=8.0,
        )
        reference.start()
        return run_scenario(cfg, scenario=sc), reference

    @staticmethod
    def _rebuilt(result):
        """The export again, from the recording as a pipe would carry it."""
        sc = result.scenario
        recorder = sc.telemetry
        recording = SimpleNamespace(
            series=recorder.raw_series(),
            profile=recorder.raw_profile(),
        )
        return build_export(result, [pickle.loads(pickle.dumps(recording))])

    def _check(self, cfg):
        result, reference = self._run_with_reference_sampler(cfg)
        export = result.telemetry
        assert self._rebuilt(result).to_jsonl() == export.to_jsonl()
        # differentiating the recorded cumulatives after the run lands on
        # the very floats a sampler differentiating at tick time records
        for name, samples in reference.samples.items():
            assert samples, name
            assert export.series_named(name)["points"] == [
                [t, v] for t, v in samples
            ]
        return result, export

    def test_rpc_fanout_histograms_and_rpc_counters(self):
        (base,) = registry.get("rpc-fanout").configs
        cfg = replace(
            base, duration=base.duration // 8, telemetry=TelemetryConfig()
        )
        result, export = self._check(cfg)
        driver = result.scenario.rpc_driver
        assert result.completed_requests > 0
        assert export.counter_value("rpc.requests_issued") == driver.requests_issued
        assert (
            export.counter_value("rpc.requests_completed")
            == len(result.stats.rpc_records)
        )
        totals = {h["name"]: h["total"] for h in export.histograms}
        assert totals["rpc_latency_ns"] == len(result.stats.rpc_records)
        assert totals["fct_ns"] == len(result.stats.fct_records)

    def test_floodgate_counters_sum_except_the_maximum(self):
        result, export = self._check(quick_config())
        exts = result.scenario.extensions
        per_switch = [ext.telemetry_counters() for ext in exts]
        pools = [ext.pool.max_in_use for ext in exts]
        assert len(exts) > 1
        # one hub per switch, merged as a sharded run merges domains:
        # the counters sum per name, the VOQ pool is a maximum
        merged = StatsHub()
        for counters, in_use in zip(per_switch, pools):
            hub = StatsHub()
            hub.record_extension_counters(
                {f"floodgate.{name}": value for name, value in counters.items()}
            )
            hub.record_voqs_used(in_use)
            merged.merge_from(hub)
        for name in per_switch[0]:
            value = sum(c[name] for c in per_switch)
            assert merged.extension_counters[f"floodgate.{name}"] == value
            assert export.counter_value(f"floodgate.{name}") == value, name
        assert "voq_max_in_use" not in per_switch[0]
        assert merged.max_voqs_used == max(pools) == result.max_voqs_used
        assert export.counter_value("floodgate.voq_max_in_use") == max(pools)
        assert max(pools) < sum(pools)


class TestCountOnce:
    """Every end-of-run number is a hub row: the export adds only the
    run facts no hub holds, and names no extension counter itself."""

    @staticmethod
    def _config(kind):
        if kind == "rpc":
            (base,) = registry.get("rpc-fanout").configs
            return replace(
                base, duration=base.duration // 8, telemetry=TelemetryConfig()
            )
        return {
            "packet": quick_config(),
            "fluid": quick_config(fidelity="flow"),
            "barrier": quick_config(shards=2, shard_mode="barrier"),
        }[kind]

    @pytest.mark.parametrize("kind", ["packet", "fluid", "rpc", "barrier"])
    def test_export_counters_are_the_hub_rows_plus_run_facts(self, kind):
        result = run_scenario(self._config(kind))
        sc = result.scenario
        facts = {"flows.total": result.total_flows}
        if sc.rpc_driver is not None:
            facts["rpc.requests_issued"] = sc.rpc_driver.requests_issued
        if sc.hybrid is not None:
            facts.update(sc.hybrid.telemetry_counters())
        rows = list(result.stats.counter_rows())
        want = sorted([(name, "", v) for name, v in facts.items()] + rows)
        assert result.telemetry.counters == want
        hub = dict((name, v) for name, _, v in rows)
        assert hub["flows.completed"] == result.completed_flows
        assert hub["retransmissions"] == result.retransmitted_packets
        assert hub["floodgate.voq_max_in_use"] == result.max_voqs_used
        if kind == "rpc":
            assert hub["rpc.requests_completed"] == result.completed_requests > 0
        else:
            assert "rpc.requests_completed" not in hub
            assert hub["floodgate.credits_sent"] > 0 or kind == "fluid"
        source = inspect.getsource(build_export)
        assert "floodgate" not in source and "max_in_use" not in source

    def test_pfc_tag_export_carries_the_voq_maximum(self):
        result = run_scenario(quick_config(flow_control="pfc-tag"))
        assert result.max_voqs_used > 0
        assert (
            result.telemetry.counter_value("floodgate.voq_max_in_use")
            == result.max_voqs_used
        )


class TestSweepDeterminism:
    def test_export_identical_serial_pooled_cached(self, tmp_path):
        cfg = quick_config()
        tasks = [SweepTask(key="run", config=cfg)]
        serial = run_sweep(tasks, serial=True)["run"]
        pooled_tasks = [
            SweepTask(key=f"run{i}", config=quick_config(seed=1 + i))
            for i in range(2)
        ]
        pooled = run_sweep(pooled_tasks, max_workers=2)["run0"]
        cold = run_sweep(tasks, cache=tmp_path, serial=True)["run"]
        warm = run_sweep(tasks, cache=tmp_path, serial=True)["run"]
        assert warm.from_cache and not cold.from_cache
        blobs = [
            s.telemetry.to_jsonl() for s in (serial, pooled, cold, warm)
        ]
        assert len(set(blobs)) == 1, "telemetry export not byte-identical"
        assert serial.canonical_bytes() == warm.canonical_bytes()

    def test_telemetry_config_changes_cache_key(self, tmp_path):
        base = SweepTask(key="a", config=quick_config())
        other = SweepTask(
            key="a", config=quick_config(telemetry=TelemetryConfig(interval=us(9)))
        )
        run_sweep([base], cache=tmp_path, serial=True)
        fresh = run_sweep([other], cache=tmp_path, serial=True)["a"]
        assert not fresh.from_cache

    def test_summary_pickles_with_telemetry(self, tmp_path):
        import pickle

        summary = run_sweep(
            [SweepTask(key="a", config=quick_config())], serial=True
        )["a"]
        clone = pickle.loads(pickle.dumps(summary))
        assert isinstance(clone, ResultSummary)
        assert clone.telemetry.to_jsonl() == summary.telemetry.to_jsonl()


class TestReportRendering:
    def test_render_live_export(self):
        scenario = Scenario(quick_config())
        profiler = EngineProfiler()
        scenario.sim.set_profiler(profiler)
        result = run_scenario(scenario.config, scenario=scenario)
        text = render_export(result.telemetry, profiler=profiler)
        assert "events/sec" in text  # the wall-clock half
        assert "throughput by flow class" in text
        assert "buffer occupancy" in text
        assert "histogram fct_ns" in text
        assert "engine profile" in text
        assert "run:" in text

    def test_render_reloaded_export_no_profiler(self):
        export = run_scenario(quick_config()).telemetry
        back = TelemetryExport.from_jsonl(export.to_jsonl())
        text = render_export(back)
        assert "engine profile" in text  # deterministic half still renders

    def test_cli_report_from_file(self, tmp_path, capsys):
        export = run_scenario(quick_config()).telemetry
        path = tmp_path / "run.jsonl"
        export.write(path)
        assert cli_main(["report", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run:" in out and "counters" in out

    def test_export_write_csv_suffix(self, tmp_path):
        export = run_scenario(quick_config()).telemetry
        path = export.write(tmp_path / "run.csv")
        assert path.read_text().startswith("kind,name,x,value")

    def test_meta_line_carries_schema(self):
        export = run_scenario(quick_config()).telemetry
        first = json.loads(export.to_jsonl().splitlines()[0])
        assert first["type"] == "meta" and first["schema"] == 1
