"""Fig. 10: maximum switch buffer occupancy across workloads.

Paper: Floodgate reduces the max buffer 2.4-3.7x vs DCQCN (the ideal
design more), because every switch holds back a share of the incast
in its VOQs instead of letting it pile onto the destination ToR.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import incastmix_base, run_variants

WORKLOADS = ("memcached", "webserver")


def run(quick: bool = True) -> Dict:
    """Returns {workload: {variant: max_buffer_mb}} plus factors."""
    out: Dict = {"max_buffer_mb": {}, "reduction_factor": {}}
    for workload in WORKLOADS:
        base = incastmix_base(quick, workload)
        results = run_variants(base)
        row = {
            label: r.max_switch_buffer_mb for label, r in results.items()
        }
        out["max_buffer_mb"][workload] = row
        if row.get("floodgate"):
            out["reduction_factor"][workload] = (
                row["baseline"] / row["floodgate"]
            )
    return out
