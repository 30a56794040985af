"""Fig. 13: the 3-tier fat-tree robustness experiment (§6.2).

Paper: on an 8-ary fat tree, Floodgate still reduces FCT and buffer
occupancy, though less dramatically than on the 2-tier fabric
(fewer hosts per rack means fewer victims of incast).  Per-hop
buffers show the same reallocation pattern across the five hop roles.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import FAT_TREE_ROLES, run_variants
from repro.experiments.scenario import ScenarioConfig

WORKLOADS = ("memcached",)


def run(quick: bool = True) -> Dict:
    duration = 300_000 if quick else 1_000_000
    k = 4 if quick else 8
    out: Dict = {"fct": {}, "buffers_mb": {}}
    for workload in WORKLOADS:
        base = ScenarioConfig(
            topology="fat-tree",
            fat_tree_k=k,
            hosts_per_edge=2 if quick else 4,
            workload=workload,
            duration=duration,
            # keep the burst-to-buffer pressure of the 2-tier runs
            # (fewer hosts per edge means fewer natural senders)
            incast_load=0.8,
            incast_fan_in=16 if quick else 0,
            buffer_bytes=300_000 if quick else 0,
        )
        results = run_variants(base)
        out["fct"][workload] = {
            label: {
                "avg_us": r.poisson_fct.avg_us,
                "p99_us": r.poisson_fct.p99_us,
            }
            for label, r in results.items()
        }
        out["buffers_mb"][workload] = {
            label: r.per_hop_buffers_mb(FAT_TREE_ROLES)
            for label, r in results.items()
        }
    return out
