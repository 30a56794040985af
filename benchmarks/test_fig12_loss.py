"""Bench: Fig. 12 — robustness to manufactured packet loss."""

from benchmarks.conftest import show
from repro.experiments.figures import fig12_loss


def test_fig12_loss_robustness(once):
    result = once(fig12_loss.run, quick=True)
    lines = []
    for rate, s in result["summary"].items():
        lines.append(
            f"loss {rate:>4s}: completion {s['completion_rate']:.1%}, "
            f"mean rx {s['mean_gbps']:.2f} Gbps, "
            f"{s['link_drops']} packets dropped on links, "
            f"{s['switch_syn_sent']} switchSYN probes"
        )
    show("Fig. 12: throughput under packet loss", "\n".join(lines))

    # all flows complete even at 10% loss (PSN recovery works)
    for rate, s in result["summary"].items():
        assert s["completion_rate"] == 1.0, f"stalled at loss {rate}"
    # loss was actually injected
    assert result["summary"]["5%"]["link_drops"] > 0
    assert (
        result["summary"]["10%"]["link_drops"]
        > result["summary"]["5%"]["link_drops"]
    )
    # throughput under 5% loss stays close to lossless
    clean = result["summary"]["0%"]["mean_gbps"]
    lossy = result["summary"]["5%"]["mean_gbps"]
    assert lossy > 0.5 * clean
