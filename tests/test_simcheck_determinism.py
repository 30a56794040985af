"""Determinism harness: digests repeat, survive hash-seed changes, pool == serial."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.simcheck.determinism import (
    SCHEMES,
    EventStreamDigest,
    check_pool_equivalence,
    check_repeatable,
    run_digest,
    run_suite,
)
from repro.units import us

REPO_ROOT = Path(__file__).resolve().parents[1]

SCHEME_FIELDS = dict(SCHEMES)


def tiny_cfg(flow_control: str = "none", seed: int = 5, **fields) -> ScenarioConfig:
    return ScenarioConfig(
        flow_control=flow_control,
        n_tors=3,
        hosts_per_tor=2,
        duration=us(200),
        seed=seed,
        **fields,
    )


def test_schemes_cover_the_acceptance_set():
    assert set(SCHEME_FIELDS) == {
        "dcqcn", "floodgate", "bfc", "ndp", "pfc_tag", "floodgate_ideal",
        "timely", "hpcc", "static", "hpcc_floodgate",
        "flow", "hybrid", "hybrid_floodgate",
    }


def test_event_stream_digest_hashes_sim_state_only():
    class _FakeSim:
        now = 0

    sim = _FakeSim()
    a, b = EventStreamDigest(sim), EventStreamDigest(sim)
    # wall durations must not enter the hash: same events, wild dt values
    a.note(print, 0.0, 3)
    b.note(print, 123.456, 3)
    assert a.hexdigest() == b.hexdigest()
    assert a.events == b.events == 1
    # ...but sim time, callback identity, and heap depth all do
    sim.now = 7
    a.note(print, 0.0, 3)
    assert a.hexdigest() != b.hexdigest()


@pytest.mark.parametrize("scheme", sorted(SCHEME_FIELDS))
def test_same_seed_runs_are_byte_identical(scheme):
    fields = SCHEME_FIELDS[scheme]
    rep = check_repeatable(tiny_cfg(**fields))
    assert rep["ok"], rep
    # the fluid tier steps per rate change (7 here), not per packet hop
    assert rep["events"] > (0 if fields.get("fidelity") == "flow" else 100)
    assert rep["violations"] == []
    assert len(set(rep["event_digests"])) == 1
    assert len(set(rep["summary_digests"])) == 1


def test_different_seeds_give_different_digests():
    a = run_digest(tiny_cfg("floodgate", seed=5))
    b = run_digest(tiny_cfg("floodgate", seed=6))
    assert a.event_digest != b.event_digest


def test_digest_installs_via_profiler_slot():
    cfg = tiny_cfg("floodgate")
    sc = Scenario(cfg)
    digest = EventStreamDigest(sc.sim)
    sc.sim.set_profiler(digest)
    sc.schedule_flows()
    sc.sim.run(until=us(50))
    assert digest.events == sc.sim.events_executed
    assert len(digest.hexdigest()) == 64


def test_serial_and_pooled_sweeps_agree():
    rep = check_pool_equivalence(
        {name: tiny_cfg(**f) for name, f in sorted(SCHEME_FIELDS.items())[:2]}
    )
    assert rep["ok"], rep["mismatched"]


@pytest.mark.parametrize("fidelity", ["packet", "flow", "hybrid"])
def test_fidelity_roundtrip_serial_pooled_cached_identical(fidelity, tmp_path):
    """Serial, pooled, and cache-served sweeps agree at both fidelities.

    The summary round-trips through the process pool and the disk
    cache with the fidelity field intact and byte-identical canonical
    payloads — the same guarantee the packet tier already has.
    """
    from repro.experiments.parallel import SweepTask, run_sweep

    configs = {
        "a": replace(tiny_cfg("floodgate", seed=5), fidelity=fidelity),
        "b": replace(tiny_cfg("floodgate", seed=6), fidelity=fidelity),
    }
    tasks = [SweepTask(key=k, config=c) for k, c in sorted(configs.items())]
    serial = run_sweep(tasks, cache=False, serial=True)
    pooled = run_sweep(tasks, cache=False, serial=False)
    primed = run_sweep(tasks, cache=tmp_path, serial=True)
    cached = run_sweep(tasks, cache=tmp_path, serial=True)
    for key in configs:
        assert cached[key].from_cache
        assert cached[key].config.fidelity == fidelity
        assert serial[key].completed_flows > 0
        payloads = {
            run[key].canonical_bytes()
            for run in (serial, pooled, primed, cached)
        }
        assert len(payloads) == 1, key


def rpc_cfg(fidelity: str, seed: int = 5) -> ScenarioConfig:
    from repro.rpc import RpcWorkloadSpec

    return ScenarioConfig(
        pattern="rpc",
        rpc=RpcWorkloadSpec(
            n_clients=4,
            fan_out=4,
            think_time=us(10),
        ),
        flow_control="floodgate",
        fidelity=fidelity,
        n_tors=3,
        hosts_per_tor=2,
        duration=us(200),
        seed=seed,
    )


def test_rpc_same_seed_runs_are_byte_identical():
    """The closed loop replays exactly: every think-time draw, shard
    pick, and response size comes from named RngRegistry streams."""
    rep = check_repeatable(rpc_cfg("packet"))
    assert rep["ok"], rep
    assert rep["events"] > 100
    assert rep["violations"] == []
    assert len(set(rep["event_digests"])) == 1
    assert len(set(rep["summary_digests"])) == 1


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_rpc_serial_pooled_cached_identical(fidelity, tmp_path):
    """Closed-loop results survive the pool and the disk cache
    byte-identically at both fidelities, rpc records included."""
    from repro.experiments.parallel import SweepTask, run_sweep

    configs = {
        "a": rpc_cfg(fidelity, seed=5),
        "b": rpc_cfg(fidelity, seed=6),
    }
    tasks = [SweepTask(key=k, config=c) for k, c in sorted(configs.items())]
    serial = run_sweep(tasks, cache=False, serial=True)
    pooled = run_sweep(tasks, cache=False, serial=False)
    primed = run_sweep(tasks, cache=tmp_path, serial=True)
    cached = run_sweep(tasks, cache=tmp_path, serial=True)
    for key in configs:
        assert cached[key].from_cache
        assert serial[key].completed_requests > 0
        assert serial[key].rpc_summary.p999_ns > 0
        payloads = {
            run[key].canonical_bytes()
            for run in (serial, pooled, primed, cached)
        }
        assert len(payloads) == 1, key


def test_rpc_spec_changes_the_cache_key(tmp_path):
    """Two configs differing only inside the RpcWorkloadSpec must not
    collide in the sweep cache."""
    from dataclasses import replace as _replace

    from repro.experiments.parallel import SweepTask, run_sweep

    base = rpc_cfg("packet")
    other = _replace(base, rpc=_replace(base.rpc, fan_out=2))
    first = run_sweep(
        [SweepTask(key="x", config=base)], cache=tmp_path, serial=True
    )
    second = run_sweep(
        [SweepTask(key="x", config=other)], cache=tmp_path, serial=True
    )
    assert not second["x"].from_cache
    assert (
        first["x"].canonical_bytes() != second["x"].canonical_bytes()
    )


def test_run_suite_rejects_unknown_schemes():
    with pytest.raises(ValueError, match="unknown scheme"):
        run_suite(schemes=["dcqcn", "dctcp"])


# -- satellite regression: event order must not depend on the hash seed -------

_HASHSEED_SCRIPT = """\
import sys
from repro.experiments.scenario import ScenarioConfig
from repro.simcheck.determinism import run_digest
from repro.units import us

cfg = ScenarioConfig(
    flow_control=sys.argv[1],
    n_tors=3,
    hosts_per_tor=2,
    duration=us(200),
    seed=5,
    fidelity=sys.argv[2],
)
print(run_digest(cfg).event_digest)
"""


def _digest_under_hashseed(scheme: str, fidelity: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT, scheme, fidelity],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        cwd=REPO_ROOT,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize(
    ("scheme", "fidelity"),
    [
        pytest.param("floodgate", "packet", id="floodgate"),
        pytest.param("bfc", "packet", id="bfc"),
        pytest.param("floodgate", "flow", id="floodgate-flow"),
        pytest.param("floodgate", "hybrid", id="floodgate-hybrid"),
    ],
)
def test_event_stream_survives_hash_seed_changes(scheme, fidelity):
    """The SIM003 fixes (sorted() over pause/VOQ sets) make the event
    stream independent of set iteration order; two interpreters with
    different hash seeds must replay the identical stream.  The fluid
    tiers are held to it too: their allocator iterates the buckets of
    the flow/resource incidence index (insertion-ordered dicts keyed by
    flow objects) and every completion time is a function of its rates."""
    d0 = _digest_under_hashseed(scheme, fidelity, "0")
    d1 = _digest_under_hashseed(scheme, fidelity, "4242")
    assert d0 == d1
    assert len(d0) == 64
