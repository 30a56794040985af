"""Cheap smoke coverage of the figure modules within the unit suite.

The benchmarks exercise every figure thoroughly; these keep the figure
modules covered by a plain ``pytest tests/`` run using the smallest
meaningful sweeps: a test shrinks a figure's axis by monkeypatching the
module constant that holds it.
"""

from repro.experiments.figures import (
    fig02_throughput,
    fig07_workloads,
    fig12_loss,
    fig14_scaleup,
    fig16_ecn,
    fig17_params,
    fig18_overhead,
    sec74_resources,
)


class TestFigureSmoke:
    def test_fig07(self, monkeypatch):
        monkeypatch.setattr(fig07_workloads, "SAMPLES", 2_000)
        result = fig07_workloads.run()
        assert set(result["properties"]) == {
            "memcached",
            "webserver",
            "hadoop",
            "websearch",
        }
        for cdf in result["cdf"].values():
            fractions = [p for _, p in cdf]
            assert fractions == sorted(fractions)
            assert fractions[-1] == 1.0

    def test_fig14(self, monkeypatch):
        monkeypatch.setattr(fig14_scaleup, "QUICK_TOR_COUNTS", (3,))
        result = fig14_scaleup.run(quick=True)
        assert result["dcqcn"][3]["completion"] == 1.0
        assert result["dcqcn+floodgate"][3]["completion"] == 1.0
        assert (
            result["dcqcn+floodgate"][3]["tor-down_mb"]
            < result["dcqcn"][3]["tor-down_mb"]
        )

    def test_fig16(self, monkeypatch):
        monkeypatch.setattr(fig16_ecn, "QUICK_N_FLOWS", 8)
        monkeypatch.setattr(fig16_ecn, "ECN_SETTINGS", ((20_000, 80_000),))
        result = fig16_ecn.run(quick=True)
        key = next(iter(result))
        assert set(result[key]) == {
            "dcqcn",
            "dcqcn+ideal",
            "dcqcn+floodgate",
        }
        for row in result[key].values():
            assert len(row["buffer_vs_flows"]) == 8

    def test_fig02_and_fig16_outputs_are_pinned(self):
        """Read off the live-monitor figures before they moved onto the
        telemetry export: the export must say what the monitors said."""
        fig02 = fig02_throughput.run(quick=True)
        # (time_ms, gbps) pairs on the 20 us sampling grid
        assert fig02["series"]["dcqcn"]["victim_pfc"][0][0] == 0.02
        assert fig02["summary"] == {
            "dcqcn": {
                "victim_incast_first_rx_ms": 0.06,
                "pfc_events": 27,
                "mean_victim_pfc_gbps": 20.12305999999999,
            },
            "dcqcn+floodgate": {
                "victim_incast_first_rx_ms": 0.06,
                "pfc_events": 0,
                "mean_victim_pfc_gbps": 21.676393333333312,
            },
        }
        levels = {
            setting: {
                label: (row["final_kb"], row["mid_kb"])
                for label, row in by_variant.items()
            }
            for setting, by_variant in fig16_ecn.run(quick=True).items()
        }
        assert levels == {
            "kmin=20KB,kmax=80KB": {
                "dcqcn": (394, 378),
                "dcqcn+ideal": (70, 75),
                "dcqcn+floodgate": (86, 75),
            },
            "kmin=20KB,kmax=20KB": {
                "dcqcn": (394, 314),
                "dcqcn+ideal": (73, 69),
                "dcqcn+floodgate": (74, 75),
            },
        }

    def test_fig12_goodput_and_incast_fct(self, monkeypatch):
        monkeypatch.setattr(fig12_loss, "LOSS_RATES", (0.0, 0.05))
        rows = fig12_loss.run(quick=True)["summary"]
        clean, lossy = rows["0%"], rows["5%"]
        # the receive-rate mean reads the lossy run as the faster one
        # (longer run, discarded out-of-order packets counted) ...
        assert lossy["mean_gbps"] > clean["mean_gbps"]
        # ... goodput and the incast flows' FCT say it is the slower one
        assert lossy["goodput_gbps"] < 0.5 * clean["goodput_gbps"]
        assert lossy["incast_fct_us"][0] > 2 * clean["incast_fct_us"][0]
        assert clean["incast_fct_us"][0] <= clean["incast_fct_us"][1]

    def test_goodput_is_payload_over_first_start_to_last_finish(self):
        from repro.stats.fct import FctRecord

        records = [
            FctRecord(1, 0, 1, 1_000, 0, 1_000),
            FctRecord(2, 0, 1, 3_000, 100, 2_000),
        ]
        # (1 000 + 3 000) B x 8 over the 2 000 ns from 0 to 2 000
        assert fig12_loss.goodput_gbps(records) == 16.0
        assert fig12_loss.goodput_gbps([]) == 0.0

    def test_fig17_delay_credit(self, monkeypatch):
        monkeypatch.setattr(fig17_params, "QUICK_MULTIPLES", (2,))
        result = fig17_params.run_delay_credit(quick=True)
        assert 2 in result
        assert result[2]["tor-down_mb"] >= 0

    def test_fig18(self):
        result = fig18_overhead.run(quick=True)
        for row in result.values():
            total = row["data_pct"] + row["ctrl_pct"] + row["credit_pct"]
            assert abs(total - 100.0) < 0.1

    def test_sec74(self):
        result = sec74_resources.run(quick=True)
        assert result["n_hosts"] == 16
        assert result["window_entries_vs_hosts"] <= 1.0


def test_figures_shape_runs_through_the_config_only():
    """A figure is a list of configs: no figure module builds a
    ``Scenario`` or hands one to ``run_scenario``, and only §7.4 —
    whose subject is per-switch live state no outcome carries — reads
    the one its result holds."""
    import re
    from pathlib import Path

    from repro.experiments import figures

    live_readers = []
    for path in sorted(Path(figures.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"\bScenario\(|\bscenario=", source), path.name
        if re.search(r"\w\.scenario\b(?! import)", source):  # attribute reads
            live_readers.append(path.name)
    assert live_readers == ["sec74_resources.py"]
