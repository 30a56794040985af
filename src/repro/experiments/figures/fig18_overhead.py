"""Fig. 18 / §7.4: bandwidth breakdown — data vs control vs credit.

Paper: control (ACK/CNP) traffic is ~4.5 % of bandwidth under DCQCN
either way; Floodgate's aggregated credits add only 0.175 % while the
ideal per-packet-credit design costs ~3 %.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.figures.common import run_variants
from repro.experiments.scenario import ScenarioConfig

WORKLOAD = "webserver"


def run(quick: bool = True) -> Dict:
    base = ScenarioConfig(
        workload=WORKLOAD,
        duration=300_000 if quick else 1_000_000,
        n_tors=3 if quick else 0,
        hosts_per_tor=4 if quick else 0,
        track_bandwidth=True,
    )
    variants = {"dcqcn": "none", "ideal": "floodgate-ideal", "floodgate": "floodgate"}
    out: Dict = {}
    for label, r in run_variants(base, variants).items():
        cat = r.stats.tx_bytes_by_category
        total = sum(cat.values()) or 1
        out[label] = {
            "data_pct": 100.0 * cat["data"] / total,
            "ctrl_pct": 100.0 * cat["ctrl"] / total,
            "credit_pct": 100.0 * cat["credit"] / total,
        }
    return out
