"""Bench: Fig. 11 — per-hop buffer reallocation and queueing split."""

from benchmarks.conftest import show
from repro.experiments.figures import fig11_realloc


def test_fig11_traffic_reallocation(once):
    result = once(fig11_realloc.run, quick=True)
    buffers = result["buffers_mb"]["webserver"]
    queuing = result["queuing_us"]["webserver"]
    lines = []
    for variant in buffers:
        b, q = buffers[variant], queuing[variant]
        lines.append(
            f"{variant:10s} buffers MB:"
            f" tor-up {b['tor-up']:.3f} core {b['core']:.3f}"
            f" tor-down {b['tor-down']:.3f} | queuing us:"
            f" tor-up {q['tor-up']:.1f} core {q['core']:.1f}"
            f" tor-down {q['tor-down']:.1f}"
        )
    show("Fig. 11: reallocation + queueing (Web Server)", "\n".join(lines))

    base, fg = buffers["baseline"], buffers["floodgate"]
    # DCQCN: aggregation points (core, tor-down) dominate
    assert base["tor-down"] > base["tor-up"]
    # Floodgate shifts occupancy to the first hop and empties the last
    assert fg["tor-up"] > base["tor-up"]
    assert fg["tor-down"] < base["tor-down"]
    assert fg["core"] < base["core"]
    # non-incast queueing time: the larger ToR-Up occupancy does NOT
    # hurt non-incast flows (they bypass the VOQs)
    qb, qf = queuing["baseline"], queuing["floodgate"]
    total_base = qb["tor-up"] + qb["core"] + qb["tor-down"]
    total_fg = qf["tor-up"] + qf["core"] + qf["tor-down"]
    assert total_fg <= total_base
