"""Bench: Fig. 7 — flow-size distributions of the four workloads."""

from benchmarks.conftest import show
from repro.experiments.figures import fig07_workloads


def test_fig07_flow_size_cdfs(once):
    result = once(fig07_workloads.run)
    lines = []
    for name, props in result["properties"].items():
        lines.append(
            f"{name:10s} <=1KB: {props['frac_below_1kb']:5.1%}"
            f"  mean: {props['mean_bytes']:12,.0f} B"
            f"  median: {props['median_bytes']:8,d} B"
            f"  top-10% byte share: {props['top10pct_byte_share']:.1%}"
        )
    show("Fig. 7: workload flow-size CDFs", "\n".join(lines))

    p = result["properties"]
    # "Memcached is composed of small flows ... most smaller than 1KB"
    assert p["memcached"]["frac_below_1kb"] > 0.85
    # "the left three are large flows mixed with small flows where a
    #  small ratio of large flows dominates the average flow size"
    for name in ("webserver", "hadoop", "websearch"):
        assert p[name]["top10pct_byte_share"] > 0.5
        assert p[name]["mean_bytes"] > 5 * p[name]["median_bytes"]
    # web search is the heaviest workload
    assert p["websearch"]["mean_bytes"] > p["webserver"]["mean_bytes"]
    assert p["websearch"]["mean_bytes"] > p["hadoop"]["mean_bytes"]
