"""Bench: Fig. 13 — the 3-tier fat-tree topology."""

from benchmarks.conftest import show
from repro.experiments.figures import fig13_fattree


def test_fig13_fat_tree(once):
    result = once(fig13_fattree.run, quick=True)
    fct = result["fct"]["memcached"]
    buffers = result["buffers_mb"]["memcached"]
    lines = []
    for variant, v in fct.items():
        b = buffers[variant]
        hops = " ".join(f"{role}={b[role]:.3f}" for role in b)
        lines.append(
            f"{variant:10s} avg {v['avg_us']:7.1f} us"
            f"  p99 {v['p99_us']:8.1f} us | MB: {hops}"
        )
    show("Fig. 13: 8-ary fat tree (scaled to k=4)", "\n".join(lines))

    # Floodgate still reduces FCT on the 3-tier fabric
    assert fct["floodgate"]["avg_us"] <= fct["baseline"]["avg_us"]
    # last-hop (edge-down) buffer shrinks
    assert (
        buffers["floodgate"]["edge-down"] <= buffers["baseline"]["edge-down"]
    )
