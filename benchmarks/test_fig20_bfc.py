"""Bench: Fig. 20 / §8 — comparison with BFC."""

from benchmarks.conftest import show
from repro.experiments.figures import fig20_bfc


def test_fig20_vs_bfc(once):
    result = once(fig20_bfc.run, quick=True)
    rows = result["memcached"]
    lines = []
    for variant, v in rows.items():
        lines.append(
            f"{variant:16s} avg {v['avg_us']:7.1f} us  p99 {v['p99_us']:8.1f} us"
        )
    show("Fig. 20: Floodgate vs BFC (Memcached)", "\n".join(lines))

    # Floodgate improves on plain HPCC
    assert rows["hpcc+floodgate"]["avg_us"] < rows["hpcc"]["avg_us"]
    # limited-queue BFC suffers HOL blocking: worse than Floodgate
    assert rows["hpcc+floodgate"]["avg_us"] < rows["bfc-lowq"]["avg_us"]
    # more queues help BFC; ideal (per-flow queues) is the best BFC
    assert rows["bfc-ideal"]["avg_us"] <= rows["bfc-lowq"]["avg_us"]
    # BFC-ideal is competitive with Floodgate on Memcached (paper: it
    # wins there because HPCC's INT overhead taxes Floodgate)
    assert rows["bfc-ideal"]["avg_us"] < rows["hpcc"]["avg_us"]
