"""Human-readable run reports: the `report` CLI's rendering layer.

Takes a :class:`TelemetryExport` (live or re-loaded from a JSONL
file) and renders the run's timeline with the same ASCII plotting the
figure modules use — throughput per flow class, buffer occupancy,
cumulative PFC/drop counters, histograms, and the engine profile.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.stats.asciiplot import line_chart
from repro.telemetry.export import TelemetryExport
from repro.telemetry.profile import EngineProfiler


def _as_ms(points: Sequence[Sequence[float]]) -> List[Tuple[float, float]]:
    return [(t / 1_000_000.0, v) for t, v in points]


def _chart_block(
    title: str,
    series: Dict[str, List[Tuple[float, float]]],
    y_label: str,
    width: int,
) -> List[str]:
    lines = [f"--- {title} " + "-" * max(0, width - len(title) - 5)]
    lines.append(
        line_chart(series, width=width, height=12, x_label="time (ms)",
                   y_label=y_label)
    )
    return lines


def _bin_quantile(bins: Sequence[Sequence[int]], q: float) -> int:
    """Upper edge of the bin holding the ``q``-quantile (0..1)."""
    total = sum(count for _, count in bins)
    target = q * total
    seen = 0
    for edge, count in bins:
        seen += count
        if seen >= target:
            return edge
    return bins[-1][0]


def _slo_block(export: TelemetryExport, width: int) -> List[str]:
    """Request-level SLOs, rendered only when rpc telemetry is present.

    The export carries the raw power-of-two latency bins, so the
    quantiles here are bin upper edges — coarse but deterministic and
    computable offline from the JSONL file alone.
    """
    hist = next(
        (h for h in export.histograms if h["name"] == "rpc_latency_ns"), None
    )
    if hist is None:
        return []
    lines = ["--- request-level SLOs " + "-" * max(0, width - 23)]
    bins = hist["bins"]
    if not bins:
        lines.append("  (no completed requests)")
        return lines
    for label, q in (("p50", 0.50), ("p99", 0.99), ("p999", 0.999)):
        edge = _bin_quantile(bins, q)
        lines.append(f"  {label:<5s} <= {edge / 1000.0:>12,.1f} us")
    lines.append(
        f"  n={hist['total']:,}  mean={hist['sum'] / hist['total'] / 1000.0:,.1f} us"
    )
    completed = export.counter_value("rpc.requests_completed")
    sim_ns = export.meta.get("sim_time_ns", 0)
    if completed is not None and sim_ns:
        rate = completed / (sim_ns / 1e9)
        lines.append(f"  achieved {rate:,.0f} requests/s (simulated time)")
    return lines


def _hist_block(hist: Dict, width: int) -> List[str]:
    name, bins = hist["name"], hist["bins"]
    lines = [f"--- histogram {name} ({hist['unit']}) " + "-" * 8]
    if not bins:
        lines.append("(no observations)")
        return lines
    peak = max(count for _, count in bins)
    for edge, count in bins:
        bar = "#" * max(1, int(count / peak * (width - 28)))
        lines.append(f"  <= {edge:>12,d}  {count:>8,d} {bar}")
    lines.append(
        f"  n={hist['total']:,}  mean={hist['sum'] / hist['total']:,.0f}"
        f"  min={hist['min']:,}  max={hist['max']:,}"
    )
    return lines


def render_export(
    export: TelemetryExport,
    width: int = 72,
    profiler: Optional[EngineProfiler] = None,
) -> str:
    """Render every section of an export as one terminal page.

    ``profiler`` (only available on a live run) adds the wall-clock
    time-share half of the engine profile; the export alone carries
    the deterministic half.
    """
    meta = export.meta
    out: List[str] = []
    out.append(
        "run: "
        + "  ".join(
            f"{k}={meta[k]}"
            for k in ("topology", "cc", "flow_control", "workload", "seed")
            if k in meta
        )
    )
    if "sim_time_ns" in meta:
        out.append(
            f"sim time {meta['sim_time_ns'] / 1e6:.3f} ms, "
            f"{meta.get('events', 0):,} events"
        )

    rate = {
        s["name"].split(".", 1)[1]: _as_ms(s["points"])
        for s in export.series_prefixed("rx_gbps.")
        if s["points"] and any(v > 0 for _, v in s["points"])
    }
    if rate:
        out += _chart_block("throughput by flow class", rate, "Gbps", width)

    total = export.series_named("buffer_bytes.total")
    if total is not None and total["points"]:
        buf = {"total": [(t, v / 1000.0) for t, v in _as_ms(total["points"])]}
        # the busiest individual switch gives the hotspot view
        per_switch = [
            s
            for s in export.series_prefixed("buffer_bytes.")
            if s["name"] != "buffer_bytes.total" and s["points"]
        ]
        if per_switch:
            hottest = max(
                per_switch, key=lambda s: max(v for _, v in s["points"])
            )
            buf[hottest["name"].split(".", 1)[1]] = [
                (t, v / 1000.0) for t, v in _as_ms(hottest["points"])
            ]
        out += _chart_block("buffer occupancy", buf, "KB", width)

    cum = {
        s["name"]: _as_ms(s["points"])
        for s in export.series
        if s["name"] in ("pfc_pause_events", "packets_dropped")
        and s["points"]
        and any(v > 0 for _, v in s["points"])
    }
    if cum:
        out += _chart_block("cumulative events", cum, "count", width)

    out += _slo_block(export, width)

    for hist in export.histograms:
        out += _hist_block(hist, width)

    nonzero = [(n, u, v) for n, u, v in export.counters if v]
    if nonzero:
        out.append("--- counters " + "-" * (width - 13))
        name_w = max(len(n) for n, _, _ in nonzero)
        for name, unit, value in nonzero:
            out.append(f"  {name:<{name_w}s}  {value:>14,d} {unit}")

    if export.profile is not None:
        prof = export.profile
        out.append("--- engine profile " + "-" * (width - 19))
        out.append(
            f"  events {prof['events']:,}   "
            f"max heap depth {prof['max_heap_depth']:,}"
        )
        if profiler is not None:
            out.append("")
            out.append(profiler.report())
        else:
            for name, count in prof["callbacks"][:12]:
                out.append(f"  {name:<44s} {count:>10,d}")

    return "\n".join(out)
