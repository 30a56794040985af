"""Bench: Fig. 17 — parameter selection (credit timer, delayCredit)."""

from benchmarks.conftest import show
from repro.experiments.figures import fig17_params


def test_fig17a_credit_timer_tradeoff(once):
    result = once(fig17_params.run_credit_timer, quick=True)
    lines = []
    for t, row in result.items():
        lines.append(
            f"T={t:4.0f} us: credit {row['credit_share_pct']:.3f}% of bytes,"
            f" tor-up {row['tor-up_mb']:.3f}"
            f" core {row['core_mb']:.3f}"
            f" tor-down {row['tor-down_mb']:.3f} MB,"
            f" avg fct {row['avg_fct_us']:.1f} us"
        )
    show("Fig. 17a-c: credit timer sweep", "\n".join(lines))

    timers = sorted(result)
    # (a) larger T -> lower credit bandwidth share
    assert (
        result[timers[0]]["credit_share_pct"]
        > result[timers[-1]]["credit_share_pct"]
    )
    # (b) larger T -> larger windows -> less held at the source ToRs
    assert (
        result[timers[-1]]["tor-up_mb"] <= result[timers[0]]["tor-up_mb"]
    )


def test_fig17d_delay_credit_robust(once):
    result = once(fig17_params.run_delay_credit, quick=True)
    lines = []
    for m, row in result.items():
        lines.append(
            f"thre={m:4.0f} BDP: tor-up {row['tor-up_mb']:.3f}"
            f" core {row['core_mb']:.3f}"
            f" tor-down {row['tor-down_mb']:.3f} MB"
        )
    show("Fig. 17d: delayCredit threshold sweep", "\n".join(lines))

    # robustness: ToR-Down occupancy essentially unchanged across the
    # paper's robust range
    tds = [row["tor-down_mb"] for row in result.values()]
    assert max(tds) <= 2.0 * min(tds) + 0.02
