"""Bench: Fig. 15 — successive incasts and per-dst PAUSE."""

from benchmarks.conftest import show
from repro.experiments.figures import fig15_successive


def test_fig15_successive_incast(once):
    result = once(fig15_successive.run, quick=True)
    lines = []
    for variant, by_rounds in result.items():
        for rounds, row in by_rounds.items():
            lines.append(
                f"{variant:30s} {rounds} rounds:"
                f" tor-up {row['tor-up_mb']:.3f}"
                f" core {row['core_mb']:.3f}"
                f" tor-down {row['tor-down_mb']:.3f} MB"
            )
    show("Fig. 15: successive incast", "\n".join(lines))

    fg = result["dcqcn+floodgate"]
    pause = result["dcqcn+floodgate(per-dst pause)"]
    dcqcn = result["dcqcn"]
    lo, hi = min(fg), max(fg)
    # Floodgate's ToR-Up grows with the number of incast rounds
    assert fg[hi]["tor-up_mb"] > fg[lo]["tor-up_mb"] * 1.3
    # its aggregation points stay small vs DCQCN
    assert fg[hi]["tor-down_mb"] < dcqcn[hi]["tor-down_mb"]
    # per-dst PAUSE keeps even the ToR-Up tiny
    assert pause[hi]["tor-up_mb"] < fg[hi]["tor-up_mb"] / 2
    # everything still completes
    for variant in result.values():
        for row in variant.values():
            assert row["completion"] == 1.0
