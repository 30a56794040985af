"""Fig. 7: flow-size CDFs of the four evaluation workloads.

Checks the qualitative properties the paper highlights: Memcached is
dominated by sub-KB flows, and in the other three a small fraction of
large flows carries most of the bytes.

Sampling draws from a named :class:`~repro.sim.rng.RngRegistry` stream
per workload (``fig07:<name>``) rather than an ad-hoc
``random.Random(seed)``: stream seeding is derived from
``sha256(f"{seed}:{name}")``, so the figure is reproducible across
platforms and immune to hash-seed changes, and the asserted properties
(sub-KB fraction, top-10% byte share) are distributional, not tied to
one sample sequence.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.rng import RngRegistry
from repro.workloads.distributions import WORKLOADS

#: flow sizes drawn per workload, and the registry's seed
SAMPLES = 20_000
SEED = 7


def run() -> Dict:
    out: Dict = {"cdf": {}, "properties": {}}
    streams = RngRegistry(SEED)
    for name, dist in WORKLOADS.items():
        rng = streams.stream(f"fig07:{name}")
        draws = sorted(dist.sample(rng) for _ in range(SAMPLES))
        n = len(draws)
        frac_below_1kb = sum(1 for v in draws if v <= 1_000) / n
        mean = sum(draws) / n
        # bytes carried by the largest 10% of flows
        top10_bytes = sum(draws[int(0.9 * n):])
        out["cdf"][name] = dist.cdf()
        out["properties"][name] = {
            "frac_below_1kb": frac_below_1kb,
            "mean_bytes": mean,
            "median_bytes": draws[n // 2],
            "top10pct_byte_share": top10_bytes / sum(draws),
        }
    return out
