"""Fig. 21 (Appendix A.1): incast flows' own FCT under incastmix.

Paper: Floodgate does not degrade the incast flows — their bandwidth
is fully used (often slightly better, since they avoid the huge
last-hop queueing delay); the ideal design trades a small incast
slowdown for bigger Poisson gains.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import incastmix_base, run_variants

WORKLOADS = ("memcached", "webserver")


def run(quick: bool = True) -> Dict:
    out: Dict = {}
    for workload in WORKLOADS:
        base = incastmix_base(quick, workload)
        results = run_variants(base)
        out[workload] = {
            label: {
                "avg_us": r.incast_fct.avg_us,
                "p99_us": r.incast_fct.p99_us,
                "count": r.incast_fct.count,
            }
            for label, r in results.items()
        }
    return out
