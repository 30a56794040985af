"""Fig. 9: FCT CDFs by flow class under the Web Server incastmix.

Separates incast flows, victims of incast (same destination rack),
and victims of PFC (everyone else).  The paper's claim: Floodgate
removes the HOL blocking of both victim classes without hurting the
incast flows themselves.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import incastmix_base, run_variants
from repro.stats.collector import FlowClass
from repro.stats.fct import fct_cdf, summarize_fct

WORKLOAD = "webserver"


def run(quick: bool = True) -> Dict:
    base = incastmix_base(quick, WORKLOAD)
    results = run_variants(base)
    out: Dict = {"cdf": {}, "summary": {}}
    for label, r in results.items():
        out["cdf"][label] = {}
        out["summary"][label] = {}
        for cls in (
            FlowClass.INCAST,
            FlowClass.VICTIM_INCAST,
            FlowClass.VICTIM_PFC,
        ):
            records = r.stats.fct_of_class(cls)
            out["cdf"][label][cls.value] = fct_cdf(records)
            s = summarize_fct(records)
            out["summary"][label][cls.value] = {
                "avg_us": s.avg_us,
                "p99_us": s.p99_us,
                "count": s.count,
            }
    return out
