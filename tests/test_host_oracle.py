"""Whole runs on the lazy timer and the one-frame host send/ACK path vs
the eager timer and the cancel-and-reschedule loop they replaced.

``tests/host_pr17.py`` is the old code verbatim, grafted onto ``Host``
itself so ``BfcHost``'s hook overrides and ``NdpHost``'s own RTO path
run over it.  The contract is the port oracle's (``oracle_harness``),
``sim_time`` included: a lazy timer's carrier is live work to
``peek_next_time`` exactly when the eager timer's expiry is, so a run
that drains ends at the same clock.
"""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import given

import host_pr17
import repro.net.host as host_module
from oracle_harness import (
    PACKET_CONFIGS,
    SMALL_RPC,
    assert_same_simulation,
    blanked,
    matrix_config,
    shared_live,
    small_config_settings,
    small_configs,
)
from repro.experiments import registry
from repro.experiments.scenario import FLOW_CONTROLS, ScenarioConfig
from repro.net.host import Host
from repro.sim.process import Timer


def assert_same_on_both_hosts(
    cfg: ScenarioConfig, monkeypatch, live: Callable = shared_live
) -> int:
    """Returns how many more events the live run executed."""
    _, new_events, old_events = assert_same_simulation(
        cfg, host_pr17.install, monkeypatch, live
    )
    # a superseded carrier executes as a no-op where the eager timer's
    # cancelled expiry was skipped uncounted; nothing else may differ
    assert new_events >= old_events
    return new_events - old_events


def test_the_oracle_is_grafted_and_removed(monkeypatch):
    with monkeypatch.context() as patch:
        host_pr17.install(patch)
        assert host_module.Timer is host_pr17.EagerTimer
        assert Host._try_send is host_pr17._try_send
        assert Host._emit_data is host_pr17._emit_data
    assert host_module.Timer is Timer
    assert Host._try_send is not host_pr17._try_send
    assert not hasattr(Host, "_emit_data")


@pytest.mark.parametrize("flow_control", FLOW_CONTROLS)
@pytest.mark.parametrize("cfg", PACKET_CONFIGS)
def test_registry_config_under_every_scheme(cfg, flow_control, monkeypatch):
    """Every packet/rpc registry fabric and traffic pattern x every
    flow-control scheme — ``ndp`` runs ``NdpHost``'s own RTO path over
    the timer, ``bfc`` runs ``BfcHost``'s ``_pause_key_of`` /
    ``_stamp_packet`` overrides and its resume kicks over the send loop."""
    assert_same_on_both_hosts(matrix_config(cfg, flow_control), monkeypatch)


@pytest.mark.parametrize("name", ["quick", "rpc-fanout"])
def test_registry_config_at_full_length(name, monkeypatch):
    extra = sum(
        assert_same_on_both_hosts(cfg, monkeypatch)
        for cfg in registry.get(name).configs
    )
    if name == "quick":
        # the oracle really ran: quick's long flows outlive an RTO
        # period while ACKs keep pushing the deadline back, so the live
        # run has stale carriers to execute and the eager one has none
        assert extra > 0


@given(cfg=small_configs)
@small_config_settings
def test_hypothesis_drawn_small_configs(cfg, monkeypatch):
    """Scheme / cc / pattern / load / buffer / shards / fault plan: the
    plans lose data and ACKs and drop a link's traffic, so NACK and RTO
    rewinds (``_on_rto`` -> ``_kick``) and dstPause/dstResume kicks fire."""
    assert_same_on_both_hosts(cfg, monkeypatch, live=blanked)


def test_closed_loop_rpc_on_a_small_fabric(monkeypatch):
    assert_same_on_both_hosts(SMALL_RPC, monkeypatch)
