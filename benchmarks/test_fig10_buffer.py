"""Bench: Fig. 10 — maximum switch buffer occupancy."""

from benchmarks.conftest import show
from repro.experiments.figures import fig10_buffer


def test_fig10_max_buffer(once):
    result = once(fig10_buffer.run, quick=True)
    lines = []
    for workload, row in result["max_buffer_mb"].items():
        lines.append(
            f"{workload:10s} "
            + "  ".join(f"{k}={v:.3f}MB" for k, v in row.items())
            + f"  (reduction {result['reduction_factor'][workload]:.2f}x,"
            f" paper band 2.4-3.7x)"
        )
    show("Fig. 10: max switch buffer", "\n".join(lines))

    for workload, factor in result["reduction_factor"].items():
        assert factor > 1.2, f"{workload}: no meaningful buffer reduction"
    for workload, row in result["max_buffer_mb"].items():
        # the ideal design is at least as good as practical (small slack)
        assert row["ideal"] <= row["floodgate"] * 1.25
