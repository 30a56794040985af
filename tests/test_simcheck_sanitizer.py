"""Runtime invariant sanitizer: clean runs stay clean, seeded bugs get caught."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.parallel import summarize
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.faults import Corruption, LinkDown, RandomLoss, plan_of
from repro.net.packet import Packet, PacketKind
from repro.simcheck.sanitizer import MAX_VIOLATIONS, SanitizerConfig, SimSanitizer
from repro.units import us


def small_cfg(flow_control: str, sanitize=True, **kw) -> ScenarioConfig:
    return ScenarioConfig(
        flow_control=flow_control,
        n_tors=3,
        hosts_per_tor=4,
        duration=us(300),
        seed=3,
        sanitize=SanitizerConfig() if sanitize else None,
        **kw,
    )


def run_sanitized(flow_control: str, **kw):
    cfg = small_cfg(flow_control, **kw)
    sc = Scenario(cfg)
    result = run_scenario(cfg, scenario=sc)
    return sc, result


# -- clean runs stay clean ----------------------------------------------------


@pytest.mark.parametrize("scheme", ["none", "floodgate", "bfc", "ndp", "pfc-tag"])
def test_clean_run_has_zero_violations(scheme):
    sc, result = run_sanitized(scheme)
    assert result.sanitizer_violations == []
    assert sc.sanitizer is not None
    assert sc.sanitizer.checks_run > 1  # periodic sweeps + the final one
    assert sc.sanitizer.violations == []


def test_per_dst_pause_run_is_clean():
    _, result = run_sanitized("floodgate", per_dst_pause=True)
    assert result.sanitizer_violations == []


def test_unsanitized_run_builds_no_sanitizer():
    cfg = small_cfg("floodgate", sanitize=False)
    result = run_scenario(cfg)
    sc = result.scenario
    assert sc.sanitizer is None
    assert result.sanitizer_violations == []
    assert all(h.sanitizer is None for h in sc.topology.hosts)
    assert all(sw.sanitizer is None for sw in sc.topology.switches)


def test_sanitizer_does_not_change_results():
    """Same (config, seed) with and without the sanitizer: same physics."""
    plain = summarize(run_scenario(small_cfg("floodgate", sanitize=False)))
    sanitized = summarize(run_scenario(small_cfg("floodgate")))
    # the sanitizer adds its own periodic events and rides in the config,
    # so normalize those two fields; everything physical must match
    comparable = dataclasses.replace(
        sanitized, config=plain.config, events=plain.events
    )
    assert comparable.canonical_bytes() == plain.canonical_bytes()


# -- seeded violations are caught with useful messages ------------------------


def fresh_violations(san: SimSanitizer):
    before = len(san.violations)
    san.check_now()
    return san.violations[before:]


def test_leaked_packet_breaks_conservation():
    sc, result = run_sanitized("floodgate")
    assert result.sanitizer_violations == []
    sc.topology.hosts[0].tx_data_packets += 1  # a packet the fabric never saw
    msgs = fresh_violations(sc.sanitizer)
    assert any("DATA packet conservation broken" in m for m in msgs)
    assert any("off by 1" in m for m in msgs)
    assert all(m.startswith("t=") for m in msgs)  # timestamps for triage


def test_buffer_occupancy_mismatch_is_flagged():
    sc, _ = run_sanitized("floodgate")
    sw = sc.topology.switches[0]
    sw.buffer.used += 512  # occupancy no longer backed by any charge
    msgs = fresh_violations(sc.sanitizer)
    assert any("per-ingress charges" in m for m in msgs)
    assert any("per-port occupancy" in m for m in msgs)


def test_negative_buffer_is_flagged():
    sc, _ = run_sanitized("floodgate")
    sc.topology.switches[0].buffer.used = -5
    msgs = fresh_violations(sc.sanitizer)
    assert any("occupancy negative" in m for m in msgs)


def test_voq_oversend_violates_theorem_1():
    sc, _ = run_sanitized("floodgate")
    ext = next(e for e in sc.extensions if hasattr(e, "windows"))
    ext.pool.overflow_bypasses = 0  # the bound applies
    ext.windows.initial[7] = 4
    ext.windows.window[7] = -1  # one more packet in flight than the window
    msgs = fresh_violations(sc.sanitizer)
    assert any("Theorem-1 bound violated" in m for m in msgs)


def test_window_overshoot_is_flagged():
    sc, _ = run_sanitized("floodgate")
    ext = next(e for e in sc.extensions if hasattr(e, "windows"))
    ext.pool.overflow_bypasses = 0
    ext.windows.initial[7] = 4
    ext.windows.window[7] = 9  # more credits returned than packets sent
    msgs = fresh_violations(sc.sanitizer)
    assert any("window overshoot" in m for m in msgs)


def test_overflow_bypass_exempts_the_window_bound():
    """Forced bypasses send without consuming window: the paper's bound
    explicitly excludes them, so the sweep must not cry wolf."""
    sc, _ = run_sanitized("floodgate")
    ext = next(e for e in sc.extensions if hasattr(e, "windows"))
    ext.windows.initial[7] = 4
    ext.windows.window[7] = -1
    ext.pool.overflow_bypasses = 3
    assert fresh_violations(sc.sanitizer) == []


def test_credit_loss_breaks_credit_conservation():
    sc, result = run_sanitized("floodgate")
    assert result.sanitizer_violations == []
    ext = next(e for e in sc.extensions if hasattr(e, "credits"))
    if ext.credits.credits_sent == 0:
        pytest.skip("run generated no credits")
    ext.credit_frames_rx -= 1  # pretend one applied frame vanished
    msgs = fresh_violations(sc.sanitizer)
    assert any("credit conservation broken" in m for m in msgs)


def test_pfc_resume_without_pause_is_flagged():
    cfg = small_cfg("none")
    sc = Scenario(cfg)  # unrun: every port starts unpaused
    host = sc.topology.hosts[0]
    host.receive(Packet.control(PacketKind.RESUME, 0, host.node_id), 0)
    assert any(
        "RESUME without matching PAUSE at h0 port 0" in m
        for m in sc.sanitizer.violations
    )


def test_double_pfc_pause_is_flagged():
    cfg = small_cfg("none")
    sc = Scenario(cfg)
    host = sc.topology.hosts[0]
    pause = Packet.control(PacketKind.PAUSE, 0, host.node_id)
    host.receive(pause, 0)
    assert sc.sanitizer.violations == []
    host.receive(pause, 0)
    assert any("double PAUSE at h0 port 0" in m for m in sc.sanitizer.violations)


def test_double_dst_pause_is_flagged():
    cfg = small_cfg("floodgate")
    sc = Scenario(cfg)
    host = sc.topology.hosts[0]
    pkt = Packet.control(PacketKind.PAUSE, 0, host.node_id)
    pkt.target = 5
    host.receive(pkt, 0)
    assert sc.sanitizer.violations == []
    host.receive(pkt, 0)
    assert any("double PAUSE at h0 key 5" in m for m in sc.sanitizer.violations)


def test_double_keyed_pause_at_a_pfc_tag_switch_is_flagged():
    """PFC w/ tag's per-dst pause between switches is paired like any
    other key; BFC's queue keys stay exempt."""
    sc = Scenario(small_cfg("pfc-tag"))
    sw = sc.topology.switches[0]
    pause = Packet.control(PacketKind.PAUSE, 0, sw.node_id)
    pause.target = 5
    sw.receive(pause, 0)
    assert sc.sanitizer.violations == []
    sw.receive(pause, 0)
    assert any(
        f"double PAUSE at {sw.name} key 5" in m for m in sc.sanitizer.violations
    )

    sc = Scenario(small_cfg("bfc"))
    sw = sc.topology.switches[0]
    sw.receive(pause, 0)
    sw.receive(pause, 0)
    assert sc.sanitizer.violations == []


@pytest.mark.parametrize(
    "fault",
    [Corruption(link="*", rate=0.02), RandomLoss(link="*", data_rate=0.05)],
    ids=["corruption", "data-only-loss"],
)
def test_faults_that_spare_control_frames_keep_pairing_armed(fault):
    """Only a lost control frame excuses an unmatched RESUME."""
    sc = Scenario(small_cfg("none", fault_plan=plan_of(fault)))
    host = sc.topology.hosts[0]
    host.receive(Packet.control(PacketKind.RESUME, 0, host.node_id), 0)
    assert any(
        "RESUME without matching PAUSE" in m for m in sc.sanitizer.violations
    )


def test_lossy_links_disable_pairing_but_not_conservation():
    """A dropped PAUSE makes the later RESUME look unmatched; that is
    loss, not a bug, so pairing checks stand down when control frames
    can be lost (control-frame loss, or a link that dies with frames in
    flight)."""
    for fault in (
        RandomLoss(link="#0", ctrl_rate=0.5),
        LinkDown(link="#0", at=us(1)),
    ):
        sc = Scenario(small_cfg("none", fault_plan=plan_of(fault)))
        host = sc.topology.hosts[0]
        host.receive(Packet.control(PacketKind.RESUME, 0, host.node_id), 0)
        assert sc.sanitizer.violations == []  # pairing stood down
        host.tx_data_packets += 1
        sc.sanitizer.check_now()
        assert any(  # conservation still armed
            "conservation broken" in m for m in sc.sanitizer.violations
        )


def test_violation_flood_is_truncated():
    sc = Scenario(small_cfg("none"))
    for i in range(MAX_VIOLATIONS + 3):
        sc.sanitizer.record(f"violation {i}")
    assert len(sc.sanitizer.violations) == MAX_VIOLATIONS
    assert sc.sanitizer.violations[-1].endswith(f"violation {MAX_VIOLATIONS - 1}")
    assert sc.sanitizer.truncated == 3


# -- the acceptance scenarios: sanitized Fig. 8 and Fig. 12 -------------------


def test_fig08_style_incastmix_is_clean():
    """The §6.1 incastmix scenario (Fig. 8's workload) under the sanitizer."""
    from repro.experiments.figures.common import incastmix_base

    cfg = incastmix_base(
        quick=True,
        workload="websearch",
        flow_control="floodgate",
        duration=200_000,
        sanitize=SanitizerConfig(),
    )
    result = run_scenario(cfg)
    assert result.completed_flows > 0
    assert result.sanitizer_violations == []


def test_fig12_style_lossy_incast_is_clean():
    """Fig. 12's lossy-fabric incast: conservation must hold through
    Bernoulli loss on every switch-to-switch link."""
    cfg = ScenarioConfig(
        pattern="incast",
        flow_control="floodgate",
        duration=200_000,
        n_tors=3,
        hosts_per_tor=4,
        max_runtime_factor=20.0,
        seed=1,
        sanitize=SanitizerConfig(),
        fault_plan=plan_of(
            RandomLoss(link="switch-switch", data_rate=0.05, ctrl_rate=0.05)
        ),
    )
    result = run_scenario(cfg)
    assert result.scenario.fault_injector.states
    assert result.fault_drops_total > 0
    assert result.sanitizer_violations == []
    assert result.scenario.sanitizer.checks_run > 1
