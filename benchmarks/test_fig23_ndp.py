"""Bench: Fig. 23 (App. B) — comparison with NDP."""

from benchmarks.conftest import show
from repro.experiments.figures import fig23_ndp


def test_fig23_vs_ndp(once):
    result = once(fig23_ndp.run, quick=True)
    rows = result["memcached"]
    lines = []
    for variant, v in rows.items():
        lines.append(
            f"{variant:16s} non-incast avg {v['nonincast_avg_us']:7.1f} us"
            f" p99 {v['nonincast_p99_us']:8.1f} us |"
            f" incast avg {v['incast_avg_us']:8.1f} us"
            f"  trimmed {v['trimmed_packets']}"
        )
    show("Fig. 23: Floodgate vs NDP (Memcached)", "\n".join(lines))

    # NDP trims under incast
    assert rows["ndp"]["trimmed_packets"] > 0
    # Floodgate beats NDP for non-incast flows (trimming penalizes
    # innocent flows; retransmission costs an RTT)
    assert (
        rows["dcqcn+floodgate"]["nonincast_avg_us"]
        < rows["ndp"]["nonincast_avg_us"]
    )
    # NDP prolongs incast flows (header bandwidth + pull pacing)
    assert rows["ndp"]["incast_avg_us"] > rows["dcqcn+floodgate"]["incast_avg_us"]
