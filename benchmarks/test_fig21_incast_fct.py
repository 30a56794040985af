"""Bench: Fig. 21 (App. A.1) — incast flows' own FCT."""

from benchmarks.conftest import show
from repro.experiments.figures import fig21_incast_fct


def test_fig21_incast_flows_unharmed(once):
    result = once(fig21_incast_fct.run, quick=True)
    lines = []
    for workload, rows in result.items():
        for variant, v in rows.items():
            lines.append(
                f"{workload:10s} {variant:10s} n={v['count']:4d}"
                f"  avg {v['avg_us']:8.1f} us  p99 {v['p99_us']:8.1f} us"
            )
    show("Fig. 21: incast flows' FCT", "\n".join(lines))

    for workload, rows in result.items():
        # Floodgate does not compromise the incast flows themselves
        assert rows["floodgate"]["avg_us"] <= rows["baseline"]["avg_us"] * 1.3
        assert rows["floodgate"]["count"] == rows["baseline"]["count"]
