"""Ablations: what each Floodgate design choice buys.

DESIGN.md calls out three load-bearing mechanisms; these benches
disable them one at a time and measure the damage:

* **VOQ isolation** (§3.2) — without the dedicated low-priority queue,
  drained incast re-enters the normal egress queue ahead of non-incast
  traffic and HOL-blocks it;
* **delayCredit** (§4.1) — without it, credits flow even when VOQs are
  backed up, so aggregation-point buffers (core) grow;
* **PSN loss recovery** (§4.3) — without it, a lost credit silently
  shrinks a window forever; under loss, flows stall until host RTOs
  mask the damage.
"""

from dataclasses import replace

from benchmarks.conftest import show
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.faults import RandomLoss, plan_of
from repro.floodgate.config import FloodgateConfig
from repro.stats.collector import FlowClass
from repro.units import us


BASE = ScenarioConfig(
    workload="webserver",
    flow_control="floodgate",
    n_tors=4,
    hosts_per_tor=4,
    duration=600_000,
    buffer_bytes=500_000,
    incast_load=0.8,
    incast_fan_in=16,
)


def test_ablation_voq_isolation(once):
    """Isolation matters when windows let real incast bytes reach the
    egress queue — i.e. with the larger windows of a big credit timer."""

    def run_pair():
        with_iso = run_scenario(
            replace(BASE, floodgate=FloodgateConfig(credit_timer=us(10)))
        )
        without_iso = run_scenario(
            replace(
                BASE,
                floodgate=FloodgateConfig(
                    credit_timer=us(10), isolate_incast=False
                ),
            )
        )
        return with_iso, without_iso

    with_iso, without_iso = once(run_pair)
    vi_with = with_iso.fct_summary(FlowClass.VICTIM_INCAST)
    vi_without = without_iso.fct_summary(FlowClass.VICTIM_INCAST)
    show(
        "Ablation: VOQ isolation (T=10us windows)",
        f"victim-of-incast avg FCT: isolated {vi_with.avg_us:.1f} us"
        f" (p99 {vi_with.p99_us:.1f}), not isolated"
        f" {vi_without.avg_us:.1f} us (p99 {vi_without.p99_us:.1f})",
    )
    # removing isolation hurts (or at best does not help) the victims
    assert vi_without.avg_us >= vi_with.avg_us * 0.95


def test_ablation_delay_credit(once):
    """delayCredit's value shows in the ToR scale-up regime (§6.2):
    the core's VOQ absorbs one window per source ToR unless credits
    back toward the ToRs are withheld."""

    def run_pair():
        results = {}
        for label, multiple in (("enabled", 0.5), ("disabled", 10_000.0)):
            # one burst: the interval (1.57 ms at 28 senders) exceeds
            # the duration
            cfg = ScenarioConfig(
                pattern="incast",
                incast_dst=0,
                flow_control="floodgate",
                delay_credit_bdp=multiple,
                n_tors=8,
                hosts_per_tor=4,
                duration=200_000,
                max_runtime_factor=60.0,
            )
            results[label] = run_scenario(cfg)
        return results

    results = once(run_pair)
    show(
        "Ablation: delayCredit (8-ToR all-to-one)",
        "\n".join(
            f"{label}: core max {r.max_port_buffer_mb('core'):.3f} MB, "
            f"tor-up max {r.max_port_buffer_mb('tor-up'):.3f} MB"
            for label, r in results.items()
        ),
    )
    # without delayCredit the core absorbs more of the incast
    assert (
        results["disabled"].max_port_buffer_mb("core")
        > results["enabled"].max_port_buffer_mb("core")
    )


def test_ablation_loss_recovery(once):
    def run_pair():
        results = {}
        for label, recovery in (("with-psn", True), ("without-psn", False)):
            cfg = replace(
                BASE,
                workload=ScenarioConfig.workload,  # pattern="incast" draws from no CDF
                pattern="incast",
                duration=300_000,
                floodgate=FloodgateConfig(
                    credit_timer=us(2),
                    loss_recovery=recovery,
                    syn_timeout=us(50),
                ),
                max_runtime_factor=25.0,
                fault_plan=plan_of(
                    RandomLoss(
                        link="switch-switch", data_rate=0.05, ctrl_rate=0.05
                    )
                ),
            )
            results[label] = run_scenario(cfg)
        return results

    results = once(run_pair)
    lines = [
        f"{label}: completion {r.completion_rate:.1%}, "
        f"avg incast FCT {r.incast_fct.avg_us:.1f} us"
        for label, r in results.items()
    ]
    show("Ablation: PSN loss recovery under 5% loss", "\n".join(lines))
    # recovery keeps everything completing
    assert results["with-psn"].completion_rate == 1.0
    # without PSN, lost credits shrink windows forever: completion can
    # only degrade, never improve
    assert (
        results["without-psn"].completion_rate
        <= results["with-psn"].completion_rate
    )