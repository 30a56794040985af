"""Fault injection: plans, selectors, injected failures, determinism."""

import pytest

from repro.experiments.figures import fig12_loss
from repro.experiments.parallel import SweepTask, run_sweep, summarize
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.faults import (
    Corruption,
    FaultPlan,
    LinkDown,
    RandomLoss,
    StallWatchdog,
    match_links,
    plan_of,
)
from repro.net.packet import Packet, PacketKind
from repro.units import ms, us
from tests.conftest import install


class TestPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert plan_of(LinkDown(at=0))
        assert FaultPlan(stall_window=100)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: RandomLoss(data_rate=1.5),
            lambda: RandomLoss(start=-1),
            lambda: LinkDown(at=-1),
            lambda: Corruption(rate=1.5),
            lambda: LinkDown(duration=-1),
            lambda: FaultPlan(stall_window=-1),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestSelectors:
    def test_wildcard_matches_all(self, mini):
        assert match_links("*", mini.topo) == list(mini.topo.links)

    def test_switch_switch_excludes_host_links(self, mini):
        trunk = match_links("switch-switch", mini.topo)
        host_side = match_links("host-switch", mini.topo)
        assert trunk and host_side
        assert len(trunk) + len(host_side) == len(mini.topo.links)

    def test_named_pair_either_order(self, mini):
        assert match_links("torL<->torR", mini.topo) == match_links(
            "torR<->torL", mini.topo
        )

    def test_node_wildcard(self, mini):
        links = match_links("torL:*", mini.topo)
        assert all(
            "torL" in (l.node_a.name, l.node_b.name) for l in links
        )

    def test_index_selector(self, mini):
        assert match_links("#0", mini.topo) == [mini.topo.links[0]]

    def test_bad_selectors_raise(self, mini):
        for sel in ("#999", "nosuch<->torL", "nosuch:*", "garbage"):
            with pytest.raises(ValueError):
                match_links(sel, mini.topo)


class TestLinkDown:
    def test_permanent_down_blocks_delivery(self, mini):
        install(mini, plan_of(LinkDown(at=0, link="torL<->torR")))
        f = mini.flow(1, 0, 6, 20_000)  # cross-rack: must use the trunk
        mini.run(ms(2))
        assert not f.receiver_done
        assert mini.stats.fault_drops_total > 0

    def test_drop_mode_kills_in_flight(self, mini):
        # packets on the wire at cut time die with the link
        mini.topo.hosts[0].rto = us(200)
        install(
            mini,
            plan_of(LinkDown(at=us(10), link="torL<->torR", duration=us(50))),
        )
        f = mini.flow(1, 0, 6, 40_000)
        mini.run(ms(10))
        assert f.receiver_done  # RTO + go-back-N recover the holes
        assert mini.stats.fault_drops_total > 0


class TestLossClasses:
    def test_data_only_loss_counts_data(self, mini):
        install(
            mini,
            plan_of(
                RandomLoss(link="torL<->torR", data_rate=1.0, ctrl_rate=0.0)
            ),
        )
        mini.flow(1, 0, 6, 20_000)
        mini.run(ms(1))
        assert mini.stats.fault_drops["data"] > 0
        assert mini.stats.fault_drops["ctrl"] == 0

    def test_ctrl_only_loss_spares_data(self, mini):
        install(
            mini,
            plan_of(
                RandomLoss(link="torL<->torR", data_rate=0.0, ctrl_rate=1.0)
            ),
        )
        f = mini.flow(1, 0, 6, 20_000)
        mini.run(ms(1))
        # every byte arrives, but the ACKs die on the return path
        assert f.delivered_bytes == 20_000
        assert mini.stats.fault_drops["ctrl"] > 0
        assert mini.stats.fault_drops["data"] == 0

    def test_burst_window_bounds_the_damage(self, mini):
        mini.topo.hosts[0].rto = us(200)
        install(
            mini,
            plan_of(
                RandomLoss(
                    start=us(10),
                    link="torL<->torR",
                    duration=us(40),
                    data_rate=1.0,
                    ctrl_rate=1.0,
                )
            ),
        )
        f = mini.flow(1, 0, 6, 40_000)
        mini.run(ms(10))
        assert f.receiver_done
        assert mini.stats.fault_drops_total > 0


class TestCorruption:
    def test_corrupted_packets_nacked_and_recovered(self, mini):
        mini.topo.hosts[0].rto = us(300)
        install(
            mini,
            plan_of(
                Corruption(
                    start=0, link="torL<->torR", duration=us(50), rate=1.0
                )
            ),
        )
        f = mini.flow(1, 0, 6, 40_000)
        mini.run(ms(10))
        assert f.receiver_done
        assert mini.stats.fault_corruptions > 0
        assert mini.stats.corrupt_rx > 0
        # corrupted bytes were never credited to the flow
        assert f.delivered_bytes == 40_000


class TestWatchdog:
    def test_stall_detected_on_permanent_cut(self, mini):
        install(mini, plan_of(LinkDown(at=us(5), link="torL<->torR")))
        dog = StallWatchdog(mini.sim, mini.topo, mini.stats, window=us(100))
        dog.start()
        mini.flow(1, 0, 6, 40_000)
        mini.run(ms(2))
        assert mini.stats.stall_events == 1  # one episode, reported once

    def test_no_stall_on_healthy_run(self, mini):
        dog = StallWatchdog(mini.sim, mini.topo, mini.stats, window=us(100))
        dog.start()
        f = mini.flow(1, 0, 6, 40_000)
        mini.run(ms(2))
        assert f.receiver_done
        assert mini.stats.stall_events == 0

    def test_out_of_order_bytes_are_not_progress(self, mini):
        # go-back-N counts a discarded out-of-order packet in
        # rx_data_bytes: a retransmission livelock must read as a stall
        dog = StallWatchdog(mini.sim, mini.topo, mini.stats, window=us(100))
        f = mini.flow(1, 0, 6, 40_000)
        dog._check()
        mini.topo.hosts[6].rx_data_bytes += 1_000
        dog._check()
        assert f.delivered_bytes == 0
        assert mini.stats.stall_events == 1

    def test_watchdog_stops_itself_when_done(self, mini):
        dog = StallWatchdog(mini.sim, mini.topo, mini.stats, window=us(100))
        dog.start()
        mini.flow(1, 0, 6, 10_000)
        mini.run(ms(5))
        events = mini.sim.events_executed
        mini.run(ms(50))
        assert mini.sim.events_executed == events  # no idle ticking

    def test_rejects_non_positive_window(self, mini):
        with pytest.raises(ValueError):
            StallWatchdog(mini.sim, mini.topo, mini.stats, window=0)


class TestUnclaimedControl:
    def test_unclaimed_control_frame_counted(self, mini):
        sw = mini.topo.switches[0]
        credit = Packet.control(PacketKind.CREDIT, 999, sw.node_id)
        credit.credits = [(0, 1)]
        sw.receive(credit, 0)
        assert sw.unclaimed_control_frames == 1
        assert mini.stats.unclaimed_control_frames == 1


FAULTED_CFG = ScenarioConfig(
    flow_control="floodgate",
    duration=150_000,
    seed=11,
    fault_plan=FaultPlan(
        (
            RandomLoss(start=0, link="switch-switch", data_rate=0.02, ctrl_rate=0.02),
            LinkDown(at=30_000, link="tor0<->spine0", duration=20_000),
        ),
        stall_window=75_000,
    ),
)


class TestDeterminism:
    def test_same_seed_same_plan_byte_identical(self):
        a = summarize(run_scenario(FAULTED_CFG))
        b = summarize(run_scenario(FAULTED_CFG))
        assert a.canonical_bytes() == b.canonical_bytes()

    def test_serial_pooled_cached_identical(self, tmp_path):
        tasks = [SweepTask(key="x", config=FAULTED_CFG)]
        serial = run_sweep(tasks, serial=True)["x"]
        pooled = run_sweep(
            [
                SweepTask(key="x", config=FAULTED_CFG),
                SweepTask(
                    key="y",
                    config=ScenarioConfig(
                        flow_control="floodgate", duration=150_000, seed=12
                    ),
                ),
            ],
            max_workers=2,
        )["x"]
        _ = run_sweep(tasks, serial=True, cache=tmp_path)
        cached = run_sweep(tasks, serial=True, cache=tmp_path)["x"]
        assert cached.from_cache
        assert (
            serial.canonical_bytes()
            == pooled.canonical_bytes()
            == cached.canonical_bytes()
        )

    def test_plan_changes_cache_key(self):
        from repro.experiments.parallel import task_fingerprint

        base = SweepTask(key="x", config=FAULTED_CFG)
        import dataclasses

        plan = FAULTED_CFG.fault_plan
        other_plan = dataclasses.replace(
            plan, faults=plan.faults + (Corruption(rate=0.5),)
        )
        changed = SweepTask(
            key="x",
            config=dataclasses.replace(FAULTED_CFG, fault_plan=other_plan),
        )
        assert task_fingerprint(base) != task_fingerprint(changed)

    def test_loss_rate_is_in_the_cache_key(self):
        """Fig. 12's rows differ only in their plan's rate: a cached 5 %
        run must never answer for the 10 % one."""
        from repro.experiments.parallel import task_fingerprint

        _, five, ten = fig12_loss.tasks(quick=True)
        assert (five.key, ten.key) == ("5%", "10%")
        assert five.config.fault_plan != ten.config.fault_plan
        assert task_fingerprint(five) != task_fingerprint(ten)

    def test_lossy_boundary_link_cannot_run_sharded(self):
        """The fault plan is the one way to make a link lossy, so its
        boundary rule is the one that guards a sharded run."""
        import dataclasses

        (task,) = [t for t in fig12_loss.tasks(quick=True) if t.key == "5%"]
        cfg = dataclasses.replace(task.config, shards=2)
        with pytest.raises(ValueError, match="matches boundary link"):
            run_scenario(cfg)

    def test_empty_plan_equals_no_plan(self):
        """Acceptance: an installed-but-empty plan changes nothing."""
        import dataclasses

        bare = ScenarioConfig(flow_control="floodgate", duration=150_000, seed=3)
        empty = dataclasses.replace(bare, fault_plan=FaultPlan())
        a = run_scenario(bare)
        b = run_scenario(empty)
        assert a.events == b.events
        assert a.sim_time == b.sim_time
        assert a.stats.fct_records == b.stats.fct_records
        assert a.stats.pfc_pause_events == b.stats.pfc_pause_events
        assert b.scenario.fault_injector is None
        assert b.scenario.watchdog is None
