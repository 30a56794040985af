"""Fig. 11: traffic reallocation and per-hop queueing analysis.

(a) max buffer per hop (ToR-Up / Core / ToR-Down): DCQCN piles on the
incast aggregation points; Floodgate shifts occupancy to ToR-Up.
(b) split of non-incast flows' queueing time per hop: Floodgate's
larger ToR-Up occupancy does NOT translate into queueing delay for
non-incast flows, because incast sits isolated in VOQs.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import (
    LEAF_SPINE_ROLES,
    incastmix_base,
    run_variants,
)

WORKLOADS = ("webserver",)


def run(quick: bool = True) -> Dict:
    out: Dict = {"buffers_mb": {}, "queuing_us": {}}
    for workload in WORKLOADS:
        base = incastmix_base(quick, workload)
        results = run_variants(base)
        out["buffers_mb"][workload] = {
            label: r.per_hop_buffers_mb(LEAF_SPINE_ROLES)
            for label, r in results.items()
        }
        out["queuing_us"][workload] = {
            label: {
                role: r.stats.avg_queuing_by_role(role, incast=False) / 1e3
                for role in LEAF_SPINE_ROLES
            }
            for label, r in results.items()
        }
    return out
