"""Empirical flow-size distributions (paper Fig. 7).

The four workloads the paper draws Poisson traffic from:

* **Memcached** [Homa]      — almost entirely sub-KB key-value flows;
* **Web Server** [Facebook] — small request/response flows with a thin
  tail into the hundreds of KB;
* **Hadoop** [Facebook]     — small control flows mixed with shuffle
  transfers up to several MB;
* **Web Search** [DCTCP]    — the classic heavy-tailed search workload
  where a small fraction of multi-MB flows dominates bytes.

The paper references the distributions by citation rather than
printing the tables, so the CDFs here are the widely-used published
shapes from those sources (the same ones the HPCC/Homa artifacts
ship).  Sampling is inverse-transform with log-linear interpolation
between CDF knots, which reproduces both the small-flow mass and the
heavy tails.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Dict, List, Sequence, Tuple


class FlowSizeDistribution:
    """Inverse-transform sampler over an empirical CDF.

    ``points`` are ``(size_bytes, cumulative_probability)`` knots in
    increasing order, ending at probability 1.0.
    """

    def __init__(self, name: str, points: Sequence[Tuple[int, float]]) -> None:
        if not points:
            raise ValueError("distribution needs at least one CDF point")
        probs = [p for _, p in points]
        sizes = [s for s, _ in points]
        if any(b < a for a, b in zip(probs, probs[1:], strict=False)):
            raise ValueError(f"{name}: CDF must be non-decreasing")
        if any(b < a for a, b in zip(sizes, sizes[1:], strict=False)):
            raise ValueError(f"{name}: sizes must be non-decreasing")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError(f"{name}: CDF must end at 1.0, got {probs[-1]}")
        self.name = name
        self.points = [(int(s), float(p)) for s, p in points]
        self._probs = probs

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes (>= 1)."""
        u = rng.random()
        idx = bisect.bisect_left(self._probs, u)
        if idx == 0:
            return max(1, self.points[0][0])
        s0, p0 = self.points[idx - 1]
        s1, p1 = self.points[idx]
        if p1 <= p0 or s1 <= s0:
            return max(1, s1)
        # log-linear interpolation keeps heavy tails heavy
        frac = (u - p0) / (p1 - p0)
        log_size = math.log(max(s0, 1)) + frac * (
            math.log(s1) - math.log(max(s0, 1))
        )
        return max(1, int(round(math.exp(log_size))))

    def mean(self) -> float:
        """Analytic mean of the interpolated distribution (approx).

        Uses the midpoint of each CDF segment, which is accurate enough
        for computing Poisson arrival rates at a target load.
        """
        total = 0.0
        prev_s, prev_p = self.points[0]
        total += prev_s * prev_p
        for s, p in self.points[1:]:
            seg_mean = math.sqrt(max(prev_s, 1) * s)  # geometric midpoint
            total += seg_mean * (p - prev_p)
            prev_s, prev_p = s, p
        return total

    def cdf(self) -> List[Tuple[int, float]]:
        """The raw CDF knots (for plotting Fig. 7)."""
        return list(self.points)


#: Homa-style memcached: "most of the flows are smaller than 1 KB".
MEMCACHED = FlowSizeDistribution(
    "Memcached",
    [
        (64, 0.30),
        (128, 0.50),
        (256, 0.70),
        (512, 0.85),
        (1_000, 0.95),
        (2_000, 0.98),
        (10_000, 1.00),
    ],
)

#: Facebook front-end web server traffic [Roy et al., SIGCOMM '15].
WEB_SERVER = FlowSizeDistribution(
    "Web Server",
    [
        (100, 0.12),
        (300, 0.30),
        (1_000, 0.55),
        (2_000, 0.70),
        (10_000, 0.85),
        (50_000, 0.93),
        (200_000, 0.97),
        (1_000_000, 0.99),
        (5_000_000, 1.00),
    ],
)

#: Facebook Hadoop cluster traffic [Roy et al., SIGCOMM '15].
HADOOP = FlowSizeDistribution(
    "Hadoop",
    [
        (130, 0.20),
        (250, 0.40),
        (1_000, 0.63),
        (10_000, 0.80),
        (100_000, 0.90),
        (1_000_000, 0.96),
        (10_000_000, 1.00),
    ],
)

#: DCTCP web search [Alizadeh et al., SIGCOMM '10].
WEB_SEARCH = FlowSizeDistribution(
    "Web Search",
    [
        (6_000, 0.15),
        (13_000, 0.28),
        (19_000, 0.39),
        (33_000, 0.54),
        (53_000, 0.63),
        (133_000, 0.71),
        (667_000, 0.80),
        (1_333_000, 0.86),
        (3_333_000, 0.93),
        (6_667_000, 0.97),
        (20_000_000, 0.99),
        (30_000_000, 1.00),
    ],
)

#: All four evaluation workloads, keyed as the figures label them.
WORKLOADS: Dict[str, FlowSizeDistribution] = {
    "memcached": MEMCACHED,
    "webserver": WEB_SERVER,
    "hadoop": HADOOP,
    "websearch": WEB_SEARCH,
}
