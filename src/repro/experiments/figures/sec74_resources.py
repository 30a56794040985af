"""§7.4: Floodgate's switch resource overhead.

The paper argues the runtime state is modest: sending-window entries
scale with *active* destinations (not all hosts), VOQ usage stays in
the dozens, and credit bandwidth is negligible.  This experiment
measures all three on a live incastmix run.

The one figure that does not ride ``run_sweep``: its subject is
per-switch live state (window tables, per-switch VOQ and credit
counts) that no run outcome carries, so it runs in-process and reads
the result's scenario.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig

WORKLOAD = "webserver"


def run(quick: bool = True) -> Dict:
    cfg = ScenarioConfig(
        workload=WORKLOAD,
        flow_control="floodgate",
        duration=400_000 if quick else 1_500_000,
        n_tors=4,
        hosts_per_tor=4,
        incast_load=0.8,
        incast_fan_in=16,
        track_bandwidth=True,
    )
    result = run_scenario(cfg)
    sc = result.scenario
    n_hosts = len(sc.topology.hosts)
    per_switch = []
    for sw, ext in zip(sc.topology.switches, sc.extensions, strict=True):
        per_switch.append(
            {
                "switch": sw.name,
                "window_entries": len(ext.windows.window),
                "active_windows": ext.windows.active_destinations(),
                "max_voqs": ext.pool.max_in_use,
                "hash_fallbacks": ext.pool.hash_fallbacks,
                "credits_sent": ext.credits.credits_sent,
            }
        )
    total_tx = sum(result.stats.tx_bytes_by_category.values()) or 1
    worst = max(per_switch, key=lambda r: r["window_entries"])
    return {
        "n_hosts": n_hosts,
        "per_switch": per_switch,
        "worst_case_window_entries": worst["window_entries"],
        "window_entries_vs_hosts": worst["window_entries"] / n_hosts,
        "max_voqs_any_switch": max(r["max_voqs"] for r in per_switch),
        "credit_bandwidth_pct": 100.0
        * result.stats.tx_bytes_by_category["credit"]
        / total_tx,
    }
