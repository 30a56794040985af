"""Bench: Fig. 16 — convergence under different ECN thresholds."""

from benchmarks.conftest import show
from repro.experiments.figures import fig16_ecn


def test_fig16_ecn_convergence(once):
    result = once(fig16_ecn.run, quick=True)
    lines = []
    for setting, by_variant in result.items():
        for variant, row in by_variant.items():
            lines.append(
                f"{setting:26s} {variant:16s}"
                f" buffer@mid {row['mid_kb']:7.1f} KB"
                f"  buffer@end {row['final_kb']:7.1f} KB"
            )
    show("Fig. 16: buffer vs arriving flows", "\n".join(lines))

    for setting, by_variant in result.items():
        dcqcn_end = by_variant["dcqcn"]["final_kb"]
        fg_end = by_variant["dcqcn+floodgate"]["final_kb"]
        # Floodgate's destination-ToR buffer converges well below
        # DCQCN's, which keeps growing with the flow count
        assert fg_end < dcqcn_end
    # Floodgate is insensitive to the ECN setting; DCQCN is not
    settings = list(result)
    fg_spread = abs(
        result[settings[0]]["dcqcn+floodgate"]["final_kb"]
        - result[settings[1]]["dcqcn+floodgate"]["final_kb"]
    )
    fg_level = max(
        result[settings[0]]["dcqcn+floodgate"]["final_kb"],
        result[settings[1]]["dcqcn+floodgate"]["final_kb"],
        1.0,
    )
    assert fg_spread <= 0.5 * fg_level + 20.0
