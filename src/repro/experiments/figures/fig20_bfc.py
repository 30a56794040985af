"""Fig. 20 / §8: comparison against BFC under incastmix.

Variants per the paper: HPCC, HPCC+Floodgate, BFC-32Q, BFC-128Q, and
BFC-ideal (infinite per-flow queues, no hash collisions).  Expected
shape: BFC with limited queues suffers HOL blocking when incast and
non-incast flows share a queue, so Floodgate beats BFC-32/128Q;
BFC-ideal is competitive (it wins on Memcached, where HPCC's INT
overhead costs Floodgate; Floodgate wins on Web Server).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.experiments.figures.common import incastmix_base
from repro.experiments.parallel import SweepTask, run_sweep
from repro.stats.collector import NON_INCAST
from repro.stats.fct import fct_cdf

WORKLOADS = ("memcached",)


def run(quick: bool = True) -> Dict:
    # Queue counts scale with the incast degree: the paper's 32/128
    # queues face 144-flow incasts (ratio ~0.2/0.9); the quick scale's
    # 16-flow incasts need 4/16 queues to hit the same
    # collision-probability regimes.
    low_q, high_q = (4, 16) if quick else (32, 128)
    variants = (
        ("hpcc", "hpcc", "none", 32),
        ("hpcc+floodgate", "hpcc", "floodgate", 32),
        ("bfc-lowq", "static", "bfc", low_q),
        ("bfc-highq", "static", "bfc", high_q),
        ("bfc-ideal", "static", "bfc", 0),
    )
    tasks = [
        SweepTask(
            key=(workload, label),
            config=replace(
                incastmix_base(quick, workload, cc=cc, flow_control=fc),
                bfc_queues=queues,
            ),
        )
        for workload in WORKLOADS
        for label, cc, fc, queues in variants
    ]
    out: Dict = {}
    for (workload, label), r in run_sweep(tasks).items():
        s = r.poisson_fct
        out.setdefault(workload, {})[label] = {
            "avg_us": s.avg_us,
            "p99_us": s.p99_us,
            "cdf": fct_cdf(r.stats.fct_of_class(NON_INCAST)),
        }
    return out
