"""Determinism and caching tests for the parallel sweep runner.

The contract under test: the same seeded sweep produces byte-identical
``ResultSummary`` objects whether it runs serially in-process, fanned
out over a ``ProcessPoolExecutor``, or served from a warm disk cache.
"""

import dataclasses
import pickle

import pytest

from repro.experiments.parallel import (
    SweepTask,
    config_fingerprint,
    run_sweep,
    summarize,
    task_fingerprint,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        workload="webserver",
        cc="dcqcn",
        n_tors=2,
        hosts_per_tor=2,
        duration=100_000,
        buffer_bytes=200_000,
        incast_load=0.5,
        incast_fan_in=3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def tiny_tasks():
    return [
        SweepTask(key=f"seed{s}", config=tiny_config(seed=s))
        for s in (7, 8, 9)
    ]


class TestDeterminism:
    def test_serial_matches_direct_run(self):
        cfg = tiny_config()
        direct = summarize(run_scenario(cfg))
        swept = run_sweep([SweepTask(key="k", config=cfg)], serial=True)["k"]
        assert swept.canonical_bytes() == direct.canonical_bytes()

    def test_pool_matches_serial(self):
        # max_workers=2 forces a real process pool even on 1-CPU boxes
        serial = run_sweep(tiny_tasks(), serial=True)
        pooled = run_sweep(tiny_tasks(), max_workers=2)
        assert list(pooled) == list(serial)  # key order preserved
        for key in serial:
            assert (
                pooled[key].canonical_bytes() == serial[key].canonical_bytes()
            )

    def test_warm_cache_matches_serial(self, tmp_path):
        serial = run_sweep(tiny_tasks(), serial=True)
        cache = tmp_path / "sweep-cache"
        cold = run_sweep(tiny_tasks(), serial=True, cache=cache)
        warm = run_sweep(tiny_tasks(), serial=True, cache=cache)
        for key in serial:
            assert not cold[key].from_cache
            assert warm[key].from_cache
            assert warm[key].canonical_bytes() == serial[key].canonical_bytes()
            assert cold[key].canonical_bytes() == serial[key].canonical_bytes()

    def test_duplicate_keys_are_rejected_before_anything_runs(self, tmp_path):
        """Results map by key: a second task under the same key would
        silently replace the first run's summary."""
        tasks = [
            SweepTask(key="k", config=tiny_config(seed=1)),
            SweepTask(key="k", config=tiny_config(seed=2)),
        ]
        with pytest.raises(ValueError, match="'k'"):
            run_sweep(tasks, serial=True, cache=tmp_path)
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing cached

    def test_declared_traffic_figures_ride_the_sweep_runner(self, tmp_path, monkeypatch):
        """Figs. 2, 12 and 14-16 are task lists like every other figure:
        their loss pattern, their time series and their traffic
        (``pattern="incast"`` as one burst, ``"successive"``,
        ``"staggered"``) are in the config, so serial, pooled and
        cache-served runs agree to the byte."""
        from repro.experiments.figures import (
            fig02_throughput,
            fig12_loss,
            fig14_scaleup,
            fig15_successive,
            fig16_ecn,
        )

        # one point of each swept axis
        monkeypatch.setattr(fig12_loss, "LOSS_RATES", (0.05,))
        monkeypatch.setattr(fig14_scaleup, "QUICK_TOR_COUNTS", (3,))
        monkeypatch.setattr(fig15_successive, "QUICK_ROUND_COUNTS", (2,))
        monkeypatch.setattr(fig16_ecn, "QUICK_N_FLOWS", 4)
        monkeypatch.setattr(fig16_ecn, "ECN_SETTINGS", ((20_000, 80_000),))
        # keys are only unique within a figure: prefix them
        tasks = [
            SweepTask(key=(fig, task.key), config=task.config)
            for fig, module in (
                ("fig02", fig02_throughput),
                ("fig12", fig12_loss),
                ("fig14", fig14_scaleup),
                ("fig15", fig15_successive),
                ("fig16", fig16_ecn),
            )
            for task in module.tasks(quick=True)
        ]
        serial = run_sweep(tasks, serial=True, cache=tmp_path)
        pooled = run_sweep(tasks, max_workers=2, cache=False)
        warm = run_sweep(tasks, serial=True, cache=tmp_path)
        assert len(serial) == len(tasks) == 11
        for key, run in serial.items():
            assert run.total_flows > 0 and not run.from_cache
            assert run.telemetry is None or run.telemetry.series
            assert warm[key].from_cache
            assert (
                run.canonical_bytes()
                == pooled[key].canonical_bytes()
                == warm[key].canonical_bytes()
            )


class TestCache:
    def test_cache_writes_one_file_per_task(self, tmp_path):
        cache = tmp_path / "c"
        run_sweep(tiny_tasks(), serial=True, cache=cache)
        assert len(list(cache.glob("*.pkl"))) == 3

    def test_cache_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        run_sweep([SweepTask(key="k", config=tiny_config())], serial=True)
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        run_sweep([SweepTask(key="k", config=tiny_config())], serial=True)
        warm = run_sweep(
            [SweepTask(key="k", config=tiny_config())], serial=True
        )
        assert warm["k"].from_cache

    @pytest.mark.parametrize(
        "junk",
        [
            b"not a pickle",
            b"garbage\n",  # first byte is the GET opcode -> ValueError
            b"",
            pickle.dumps({"wrong": "type"}),
        ],
    )
    def test_corrupt_cache_entry_is_rerun(self, tmp_path, junk):
        cache = tmp_path / "c"
        task = SweepTask(key="k", config=tiny_config())
        run_sweep([task], serial=True, cache=cache)
        (pkl,) = cache.glob("*.pkl")
        pkl.write_bytes(junk)
        again = run_sweep([task], serial=True, cache=cache)
        assert not again["k"].from_cache
        assert again["k"].completed_flows > 0

    def test_fingerprint_sensitive_to_config(self):
        t1 = SweepTask(key="a", config=tiny_config(seed=1))
        t2 = SweepTask(key="a", config=tiny_config(seed=2))
        assert task_fingerprint(t1) != task_fingerprint(t2)
        # the key is not part of the identity: same work, same digest
        assert task_fingerprint(
            SweepTask(key="b", config=tiny_config(seed=1))
        ) == task_fingerprint(t1)

    def test_cached_runs_answer_only_the_sources_that_made_them(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import parallel

        task = SweepTask(key="k", config=tiny_config())
        before = task_fingerprint(task)
        run_sweep([task], serial=True, cache=tmp_path)
        assert run_sweep([task], serial=True, cache=tmp_path)["k"].from_cache
        # the package was edited: same config, different code
        monkeypatch.setattr(parallel, "source_digest", lambda: "edited")
        assert task_fingerprint(task) != before
        assert not run_sweep([task], serial=True, cache=tmp_path)["k"].from_cache
        # ... and back: the first entry is still there to be hit
        monkeypatch.undo()
        assert task_fingerprint(task) == before
        assert run_sweep([task], serial=True, cache=tmp_path)["k"].from_cache

    def test_config_fingerprint_stable(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(
            tiny_config()
        )
        assert config_fingerprint(tiny_config()) != config_fingerprint(
            tiny_config(seed=8)
        )

    def test_repro_parallel_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        out = run_sweep(tiny_tasks(), max_workers=2)
        assert len(out) == 3  # still correct, just in-process


class TestResultSummary:
    def test_summary_is_picklable_and_round_trips(self):
        summary = summarize(run_scenario(tiny_config()))
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.canonical_bytes() == summary.canonical_bytes()
        assert clone.events == summary.events
        assert clone.poisson_fct == summary.poisson_fct

    def test_wall_time_excluded_from_identity(self):
        summary = summarize(run_scenario(tiny_config()))
        other = dataclasses.replace(
            summary, wall_seconds=summary.wall_seconds + 1.0, from_cache=True
        )
        assert other == summary
        assert other.canonical_bytes() == summary.canonical_bytes()

    def test_mirrors_scenario_result_metrics(self):
        result = run_scenario(tiny_config())
        summary = summarize(result)
        assert summary.poisson_fct == result.poisson_fct
        assert summary.incast_fct == result.incast_fct
        assert summary.max_switch_buffer_mb == result.max_switch_buffer_mb
        assert summary.pfc_pause_events == result.pfc_pause_events
        assert summary.completion_rate == result.completion_rate
        assert summary.events == result.events
