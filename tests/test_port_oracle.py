"""Whole runs on the busy-until port vs the two-event port it replaced.

``tests/port_pr15.py`` is the old transmit path verbatim.  The new
port's contract is that nothing simulated moved; ``oracle_harness``
states what that means for a run and holds the config matrix this file
shares with ``test_host_oracle.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given

import repro.net.node as node_module
from oracle_harness import (
    PACKET_CONFIGS,
    SMALL_RPC,
    assert_same_simulation,
    blanked,
    matrix_config,
    on_shards,
    small_config_settings,
    small_configs,
)
from port_pr15 import TwoEventPort
from repro.experiments import registry
from repro.experiments.scenario import FLOW_CONTROLS, ScenarioConfig
from repro.units import us


def two_event_port(patch) -> None:
    patch.setattr(node_module, "EgressPort", TwoEventPort)


def assert_same_on_both_ports(cfg: ScenarioConfig, monkeypatch) -> None:
    _, new_events, old_events = assert_same_simulation(cfg, two_event_port, monkeypatch)
    # the oracle really ran: it spends an extra event on every hop the
    # new port fuses, so on a run with traffic it executes strictly more
    assert old_events > new_events


@pytest.mark.parametrize("flow_control", FLOW_CONTROLS)
@pytest.mark.parametrize("cfg", PACKET_CONFIGS)
def test_registry_config_under_every_scheme(cfg, flow_control, monkeypatch):
    """Every packet/rpc registry fabric and traffic pattern (sharded
    entries too: their boundary links take the fused path) x every
    flow-control scheme, on a shortened arrivals window."""
    assert_same_on_both_ports(matrix_config(cfg, flow_control), monkeypatch)


@pytest.mark.parametrize("name", ["quick", "rpc-fanout"])
def test_registry_config_at_full_length(name, monkeypatch):
    for cfg in registry.get(name).configs:
        assert_same_on_both_ports(cfg, monkeypatch)


def four_hosts(seed: int, shards: int, faulted: bool) -> ScenarioConfig:
    """A ``small_configs`` draw with next to no traffic: 2 ToRs x 2 hosts
    at 0.3 load start a handful of flows in 80 us, on some seeds none."""
    cfg = ScenarioConfig(
        flow_control="none",
        pattern="poisson",
        workload="webserver",
        n_tors=2,
        hosts_per_tor=2,
        poisson_load=0.3,
        duration=us(80),
        seed=seed,
    )
    return on_shards(cfg, shards, faulted)


@given(cfg=small_configs)
# no flow starts at all: both ports execute the same (zero) events
@example(cfg=four_hosts(seed=10, shards=1, faulted=False))
# two flows, h1->h0 and h2->h3, neither leaves its ToR, and the sharded
# plan has a loss draw on every host link: no hop they cross can fuse
@example(cfg=four_hosts(seed=33, shards=2, faulted=True))
# the same fabric and plan with flows that do cross (h0->h2, h2->h0)
@example(cfg=four_hosts(seed=2, shards=2, faulted=True))
@small_config_settings
def test_hypothesis_drawn_small_configs(cfg, monkeypatch):
    new, new_events, old_events = assert_same_simulation(
        cfg, two_event_port, monkeypatch, live=blanked
    )
    # A drawn config may carry no traffic over a link that can fuse, and
    # only the run tells: a faulted link keeps the tx-done path, and the
    # sharded plan (``edge_faults``) faults every host link, which leaves
    # the ToR uplinks.  Whenever a finished flow crossed a fault-free
    # link the proof that the oracle ran stays strict.
    finished = new.stats.fct_records
    if cfg.shards > 1 and cfg.fault_plan is not None:
        per_tor = cfg.hosts_per_tor
        finished = [r for r in finished if r.src // per_tor != r.dst // per_tor]
    if finished:
        assert old_events > new_events
    else:
        assert old_events >= new_events


def test_closed_loop_rpc_on_a_small_fabric(monkeypatch):
    assert_same_on_both_ports(SMALL_RPC, monkeypatch)
