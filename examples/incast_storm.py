#!/usr/bin/env python3
"""The motivating scenario (paper §1/§2): an incast storm, blow by blow.

Recreates Fig. 2's experiment: periodic incast mixed with Poisson
traffic, realtime throughput sampled per flow class.  Without
Floodgate, flows destined to the incast rack stall behind the incast
(HOL blocking) and PFC pause storms hit everyone else; with Floodgate
both victim classes flow freely.

Run:  python examples/incast_storm.py
"""


from repro.experiments import ScenarioConfig, run_scenario
from repro.telemetry import TelemetryConfig
from repro.units import us

#: label -> the telemetry export's per-class receive-rate series
SERIES = {
    "incast": "rx_gbps.incast",
    "victim of incast": "rx_gbps.victim_incast",
    "victim of PFC": "rx_gbps.victim_pfc",
}


def run_variant(label: str, flow_control: str) -> None:
    cfg = ScenarioConfig(
        workload="webserver",
        flow_control=flow_control,
        duration=600_000,
        n_tors=4,
        hosts_per_tor=4,
        incast_load=0.8,
        incast_fan_in=16,
        telemetry=TelemetryConfig(interval=us(25), engine_profile=False),
    )
    result = run_scenario(cfg)
    # [time_ns, gbps] samples per class
    points = {
        name: result.telemetry.series_named(series)["points"]
        for name, series in SERIES.items()
    }

    print(f"=== {label} ===")
    print(f"  PFC pause events: {result.stats.pfc_pause_events}")
    for name, pts in points.items():
        rates = [v for _, v in pts]
        mean = sum(rates) / len(rates)
        first = next((t / 1e6 for t, v in pts if v > 0), -1.0)
        print(
            f"  {name:18s} mean {mean:6.2f} Gbps  peak {max(rates):6.2f} Gbps"
            f"  first byte at {first:.3f} ms"
        )
    # a tiny ASCII sparkline of the victim-of-incast series
    series = points["victim of incast"]
    if series:
        peak = max(v for _, v in series) or 1.0
        blocks = " .:-=+*#%@"
        line = "".join(
            blocks[min(int(v / peak * (len(blocks) - 1)), len(blocks) - 1)]
            for _, v in series[:72]
        )
        print(f"  victim-of-incast throughput over time: |{line}|")
    print()


def main() -> None:
    run_variant("DCQCN", "none")
    run_variant("DCQCN + Floodgate", "floodgate")


if __name__ == "__main__":
    main()
