"""Bench: Fig. 14 — buffer growth as the ToR count scales up."""

from benchmarks.conftest import show
from repro.experiments.figures import fig14_scaleup


def test_fig14_tor_scaleup(once):
    result = once(fig14_scaleup.run, quick=True)
    lines = []
    for variant, by_tors in result.items():
        for n_tors, row in by_tors.items():
            lines.append(
                f"{variant:18s} {n_tors:2d} ToRs ({row['n_flows']:3d} flows):"
                f" tor-up {row['tor-up_mb']:.3f}"
                f" core {row['core_mb']:.3f}"
                f" tor-down {row['tor-down_mb']:.3f} MB"
                f"  pfc {row['pfc_events']}"
            )
    show("Fig. 14: pure incast vs #ToRs", "\n".join(lines))

    dcqcn = result["dcqcn"]
    fg = result["dcqcn+floodgate"]
    small, large = min(dcqcn), max(dcqcn)
    # DCQCN's destination-ToR buffer grows with the flow count
    assert dcqcn[large]["tor-down_mb"] > dcqcn[small]["tor-down_mb"] * 1.2
    # Floodgate's stays (nearly) flat
    assert fg[large]["tor-down_mb"] < fg[small]["tor-down_mb"] * 1.5
    # and far below DCQCN's at the larger scale
    assert fg[large]["tor-down_mb"] < dcqcn[large]["tor-down_mb"] / 3
    # everything completed
    for variant in result.values():
        for row in variant.values():
            assert row["completion"] == 1.0
