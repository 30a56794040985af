"""Shared helpers for the figure modules."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import ResultSummary, SweepTask, run_sweep
from repro.experiments.scenario import ScenarioConfig

#: the three protocol variants most figures compare
VARIANTS = {
    "baseline": "none",
    "ideal": "floodgate-ideal",
    "floodgate": "floodgate",
}

#: per-hop port roles in 2-tier topologies, in packet-path order
LEAF_SPINE_ROLES = ["tor-up", "core", "tor-down"]
#: per-hop port roles in the 3-tier fat tree (Fig. 13)
FAT_TREE_ROLES = ["edge-up", "agg-up", "core", "agg-down", "edge-down"]


def quick_overrides(quick: bool) -> dict:
    """Topology/duration shrink for bench-time runs.

    The buffer shrinks with the host count so the incast burst stays
    comparable to the shared buffer (the ratio that drives the PFC and
    HOL dynamics every incastmix figure depends on).
    """
    if not quick:
        return {}
    # incast_load 0.8 shortens the burst interval so the 600 us window
    # still covers several incast rounds
    # fan-in 16 wraps the 12 eligible senders so the burst stays
    # comparable to the shared buffer and to the spine link's drain
    # rate (the ratios that create the HOL/PFC pressure the incastmix
    # figures measure)
    return dict(
        n_tors=4,
        hosts_per_tor=4,
        duration=600_000,
        buffer_bytes=500_000,
        incast_load=0.8,
        incast_fan_in=16,
    )


def incastmix_base(
    quick: bool, workload: str, cc: str = "dcqcn", **kw
) -> ScenarioConfig:
    """The standard §6.1 incastmix scenario at bench or CI scale."""
    params = dict(cc=cc, workload=workload, **quick_overrides(quick))
    params.update(kw)
    return ScenarioConfig(**params)


def variant_tasks(
    base: ScenarioConfig, variants: Optional[Dict[str, str]] = None
) -> List[SweepTask]:
    """One pure-config task per flow-control variant, keyed by label."""
    return [
        SweepTask(key=label, config=replace(base, flow_control=fc))
        for label, fc in (variants or VARIANTS).items()
    ]


def run_variants(
    base: ScenarioConfig, variants: Optional[Dict[str, str]] = None
) -> Dict[str, ResultSummary]:
    """Run the same scenario under several flow-control variants.

    The variants fan out over the parallel sweep runner (one process
    per variant, results cached on disk when ``REPRO_CACHE_DIR`` is
    set) and come back as slim
    :class:`~repro.experiments.parallel.ResultSummary` objects.
    """
    return run_sweep(variant_tasks(base, variants))


# -- presentation of telemetry-export series ---------------------------------
#
# The time-resolved figures (2, 12, 16) read ``ResultSummary.telemetry``;
# an export series' ``points`` are ``[time_ns, value]`` pairs.

Points = Sequence[Sequence[float]]


def points_ms(points: Points) -> List[Tuple[float, float]]:
    """Export points as ``(time_ms, value)`` pairs, the unit figures plot."""
    return [(t / 1_000_000.0, v) for t, v in points]


def mean_value(points: Points) -> float:
    """Mean sampled value (0.0 for an empty series)."""
    return sum(v for _, v in points) / len(points) if points else 0.0


def first_nonzero_ms(points: Points) -> float:
    """Time (ms) of the first sample with a non-zero value, or -1."""
    for t, v in points:
        if v > 0:
            return t / 1_000_000.0
    return -1.0
