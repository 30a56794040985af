"""Shared fixtures: small topologies wired for direct unit testing."""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro.cc.base import CcAlgorithm
from repro.faults import FaultInjector, FaultPlan, LinkFaultState
from repro.net.host import Host
from repro.net.switch import Switch
from repro.net.topology import (
    Topology,
    build_dumbbell,
    build_leaf_spine,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.stats.collector import StatsHub
from repro.units import gbps, kb, mb, us


def lossy_link(link, rate: float, rng) -> LinkFaultState:
    """Bernoulli loss on a raw link, data and control alike.

    Installs what a ``RandomLoss`` plan's injector installs — a
    :class:`LinkFaultState` with one loss window open — without a
    topology to resolve a selector against.
    """
    link.fault = state = LinkFaultState(link.sim, link, rng)
    state.add_loss(rate, rate)
    return state


class MiniNet:
    """A hand-buildable test network with direct component access."""

    def __init__(
        self,
        topology: str = "dumbbell",
        cc: Optional[CcAlgorithm] = None,
        buffer_bytes: int = mb(1),
        pfc: bool = True,
        pfc_alpha: float = 2.0,
        host_bandwidth: float = gbps(10),
        fabric_bandwidth: float = gbps(40),
        n_tors: int = 3,
        hosts_per_tor: int = 4,
    ) -> None:
        self.sim = Simulator()
        self.stats = StatsHub()
        self.flow_table: Dict[int, object] = {}
        self.cc = cc or CcAlgorithm(host_bandwidth, kb(30), us(10))
        self.hosts = []

        def host_factory(sim, nid, name):
            host = Host(sim, nid, name, self.cc, self.flow_table, stats=self.stats)
            self.hosts.append(host)
            return host

        def switch_factory(sim, nid, name, kind, level):
            sw = Switch(
                sim,
                nid,
                name,
                buffer_capacity=buffer_bytes,
                kind=kind,
                pfc_enabled=pfc,
                stats=self.stats,
            )
            sw.level = level
            return sw

        if topology == "dumbbell":
            self.topo: Topology = build_dumbbell(
                self.sim,
                host_factory,
                switch_factory,
                hosts_per_tor=hosts_per_tor,
                host_bandwidth=host_bandwidth,
                fabric_bandwidth=fabric_bandwidth,
                link_delay=500,
            )
        else:
            self.topo = build_leaf_spine(
                self.sim,
                host_factory,
                switch_factory,
                n_spines=2,
                n_tors=n_tors,
                hosts_per_tor=hosts_per_tor,
                host_bandwidth=host_bandwidth,
                fabric_bandwidth=fabric_bandwidth,
                link_delay=600,
                host_link_delay=600,
            )
        # hosts and topology share one flow table
        self.topo.flow_table = self.flow_table
        for sw in self.topo.switches:
            sw.buffer.alpha = pfc_alpha

    def flow(self, flow_id, src, dst, size, start=0):
        f = self.topo.make_flow(flow_id, src, dst, size, start)
        self.topo.start_flow(f)
        return f

    def run(self, until):
        self.sim.run(until=until)

    def all_buffers_empty(self) -> bool:
        return all(sw.buffer.used == 0 for sw in self.topo.switches)


def install(net: MiniNet, plan: FaultPlan, seed: int = 1) -> FaultInjector:
    """Arm a plan on a MiniNet the way Scenario does."""
    inj = FaultInjector(
        net.sim, net.topo, plan, RngRegistry(seed), stats=net.stats
    )
    inj.install()
    return inj


@pytest.fixture
def mini():
    """A 2-ToR dumbbell with static-window hosts."""
    return MiniNet()


@pytest.fixture
def leaf_spine():
    """A 2-spine, 3-ToR leaf-spine fabric."""
    return MiniNet(topology="leaf-spine")


@pytest.fixture
def checked_reallocations(monkeypatch):
    """Hold every fluid rate installation to the full-recompute reference.

    The tolerance-free anchor for the incremental max-min allocator:
    after *each* ``_apply_rates`` — the hybrid override reaches the
    patched base through ``super()`` — the installed rates of all
    active flows, recomputed component and untouched ones alike, must
    equal a from-scratch max-min over the whole fabric
    (``FluidSimulation.allocation_errors``).  Yields the list of
    ``(flows recomputed, flows active)`` per checked reallocation.
    """
    from repro.flowsim.model import FluidSimulation

    apply_rates = FluidSimulation._apply_rates
    checked = []

    def checking(self, now, flows, rates):
        apply_rates(self, now, flows, rates)
        assert self.allocation_errors() == []
        checked.append((len(flows), len(self._active)))

    monkeypatch.setattr(FluidSimulation, "_apply_rates", checking)
    return checked
