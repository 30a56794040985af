"""Shard-safety tooling: SIM005..SIM008 lints, ownership dataflow,
allowlist hygiene, and the runtime isolation sanitizer."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.sim import sharded as sharded_module
from repro.sim.sharded import run_domains
from repro.simcheck.determinism import (
    EventStreamDigest,
    check_sharded_equivalence,
    sharded_battery_fault_plan,
)
from repro.simcheck.isolation import ShardIsolationSanitizer
from repro.simcheck.sanitizer import MAX_VIOLATIONS
from repro.simcheck.linter import rule_applies, run_check
from repro.simcheck.ownership import (
    _BOUNDARY_SEED,
    boundary_contexts,
    foreign_locals,
)
from repro.simcheck.rules import RULES, scan_source
from repro.telemetry.registry import TelemetryConfig
from repro.units import us
from repro.workloads.poisson import FlowSpec

NET = "src/repro/net/example.py"
SHARDED = "src/repro/sim/sharded.py"


def scan(src: str, relpath: str = NET, enabled=frozenset(RULES)):
    return scan_source(textwrap.dedent(src), relpath, enabled)


def rules_of(findings):
    return [f.rule for f in findings]


def tiny_cfg(**kw) -> ScenarioConfig:
    params = dict(
        workload="websearch",
        cc="dcqcn",
        n_tors=4,
        hosts_per_tor=2,
        duration=us(200),
        seed=2,
    )
    params.update(kw)
    return ScenarioConfig(**params)


# -- SIM005: writes through foreign handles -----------------------------------


def test_sim005_flags_direct_foreign_attribute_write():
    (finding,) = scan(
        """
        def corrupt(self, link):
            link.dst_port.credits = 0
        """
    )
    assert finding.rule == "SIM005"
    assert "foreign" in finding.message


def test_sim005_flags_mutation_via_foreign_local():
    findings = scan(
        """
        def pause(self, i):
            peer = self.switch.peer(i)
            peer.paused_queues.add(i)
        """
    )
    assert rules_of(findings) == ["SIM005"]


def test_sim005_tracks_alias_chains_to_fixpoint():
    findings = scan(
        """
        def deep(self, link):
            a = link.peer_of(self.node)
            b = a
            b.buffer.push(1)
        """
    )
    assert rules_of(findings) == ["SIM005"]


def test_sim005_clean_for_reads_and_owned_writes():
    findings = scan(
        """
        def classify(self, i):
            peer = self.switch.peer(i)
            if peer.level < self.switch.level:
                self.groups[i] = 1
            self.pauses_sent += 1
        """
    )
    assert findings == []


def test_sim005_boundary_contexts_exempt_in_sharded_py():
    src = """
        class _TestChannel:
            def send(self, peer, item):
                peer.inbox.append(item)

        def elsewhere(link):
            link.dst_port.queue.append(1)
        """
    findings = scan(src, relpath=SHARDED)
    # only the non-boundary function is flagged
    assert rules_of(findings) == ["SIM005"]
    assert "elsewhere" not in findings[0].message  # flagged at the call site


# -- SIM006: shared module/class-level mutable state --------------------------


def test_sim006_flags_module_registry_and_class_cache():
    findings = scan(
        """
        REGISTRY = {}

        class Lookup:
            _cache = {}
        """,
        relpath="src/repro/stats/example.py",
    )
    assert rules_of(findings) == ["SIM006", "SIM006"]
    assert "REGISTRY" in findings[0].message
    assert "Lookup._cache" in findings[1].message


def test_sim006_ignores_dunders_frozensets_and_comprehensions():
    findings = scan(
        """
        __all__ = ["a"]
        FROZEN = frozenset({1, 2})
        DERIVED = [x * 2 for x in range(4)]
        """,
        relpath="src/repro/stats/example.py",
    )
    assert findings == []


# -- SIM007: foreign callbacks registered on the local engine -----------------


def test_sim007_flags_foreign_bound_callback():
    findings = scan(
        """
        def transmit(self, link, pkt):
            peer = link.peer_of(self.node)
            self.sim.schedule_call(link.delay, peer.receive, pkt)
        """
    )
    assert rules_of(findings) == ["SIM007"]
    assert "peer.receive" in findings[0].message


def test_sim007_clean_for_self_callbacks():
    findings = scan(
        """
        def arm(self, dt):
            self.sim.schedule_call(dt, self._fire, 1)
        """
    )
    assert findings == []


# -- SIM008: accumulation into module globals ---------------------------------


def test_sim008_flags_global_accumulation():
    findings = scan(
        """
        TOTALS = {}

        def record(name, v):
            TOTALS[name] = TOTALS.get(name, 0) + v
        """,
        relpath="src/repro/telemetry/example.py",
    )
    assert "SIM006" in rules_of(findings)  # the definition
    assert "SIM008" in rules_of(findings)  # the accumulation


def test_sim008_clean_for_instance_collectors():
    findings = scan(
        """
        def record(self, name, v):
            self.totals[name] = v
        """,
        relpath="src/repro/telemetry/example.py",
    )
    assert findings == []


# -- rule scoping & catalogue -------------------------------------------------


def test_shard_rules_scoped_to_domain_code():
    assert rule_applies("SIM005", "src/repro/net/port.py")
    assert rule_applies("SIM005", "src/repro/sim/sharded.py")
    assert not rule_applies("SIM005", "src/repro/experiments/runner.py")
    assert rule_applies("SIM006", "src/repro/workloads/distributions.py")
    assert not rule_applies("SIM006", "src/repro/cli.py")
    assert rule_applies("SIM008", "src/repro/stats/collector.py")
    assert not rule_applies("SIM008", "tests/test_sharded.py")


def test_rule_catalogue_covers_shard_rules():
    for rule in ("SIM005", "SIM006", "SIM007", "SIM008"):
        assert rule in RULES
        assert rule in __import__("repro.simcheck.rules", fromlist=["x"]).__doc__


def test_cli_rules_listing_is_generated_from_catalogue(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["check", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


# -- ownership dataflow -------------------------------------------------------


def test_foreign_locals_fixpoint():
    tree = ast.parse(
        textwrap.dedent(
            """
            def f(self, link):
                a = link.peer_of(self.node)
                b = a
                c = self.own_thing
            """
        )
    ).body[0]
    env = foreign_locals(tree)
    assert env == {"a", "b"}


def test_boundary_contexts_name_live_scopes_only():
    # a seed entry naming a function sharded.py no longer defines is a
    # silently vanished exemption; a widened heuristic shows up here too
    contexts = boundary_contexts(ast.parse(Path(sharded_module.__file__).read_text()))
    assert _BOUNDARY_SEED <= contexts
    assert contexts - _BOUNDARY_SEED == {
        "_DirectChannel",
        "_OutboxChannel",
        "_LocalTransport",
        "_LockstepTransport",
        "_ForkedTransport",
    }


# -- allowlist hygiene --------------------------------------------------------


def _mini_repo(tmp_path, allowlist_lines):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src"
    pkg.mkdir()
    (pkg / "mod.py").write_text("x = 1\n")
    (tmp_path / "simcheck-allowlist.txt").write_text(
        "\n".join(allowlist_lines) + "\n"
    )
    return tmp_path


def test_dead_allowlist_entry_fails_the_check(tmp_path):
    root = _mini_repo(
        tmp_path, ["SIM002 src/deleted_long_ago.py -- stale justification"]
    )
    report = run_check(root=root)
    assert len(report.dead_allowlist) == 1
    assert report.dead_allowlist[0].glob == "src/deleted_long_ago.py"
    assert not report.ok
    assert "1 dead allowlist entry" in report.summary()


def test_live_allowlist_entry_is_not_dead(tmp_path):
    root = _mini_repo(tmp_path, ["SIM002 src/mod.py -- justified"])
    report = run_check(root=root)
    assert report.dead_allowlist == []
    assert report.ok


def test_partial_scans_skip_hygiene(tmp_path):
    # linting a subtree must not flag entries for files outside it
    root = _mini_repo(
        tmp_path, ["SIM002 elsewhere/other.py -- lives outside src"]
    )
    report = run_check(root=root, paths=["src"])
    assert report.dead_allowlist == []


def test_repo_allowlist_has_no_dead_entries():
    report = run_check()
    assert report.dead_allowlist == []


# -- runtime isolation sanitizer ---------------------------------------------


class _Clock:
    now = 42


class _Victim:
    def poke(self):
        pass


def test_isolation_probe_flags_cross_domain_dispatch():
    iso = ShardIsolationSanitizer()
    victim = _Victim()
    iso.tag(victim, 1, "tor2.port[0]")
    probe = iso.probe(0, _Clock())
    probe.note(victim.poke, 0.0, 3)
    assert len(iso.violations) == 1
    assert "domain 0 executed" in iso.violations[0]
    assert "owned by domain 1" in iso.violations[0]


def test_isolation_probe_silent_for_owner_and_untagged():
    iso = ShardIsolationSanitizer()
    victim = _Victim()
    iso.tag(victim, 0, "tor0.port[0]")
    probe = iso.probe(0, _Clock())
    probe.note(victim.poke, 0.0, 3)  # owner executing its own object
    probe.note(_Victim().poke, 0.0, 3)  # untagged object
    probe.note(len, 0.0, 3)  # unbound callable
    assert iso.violations == []


def test_isolation_violation_cap():
    iso = ShardIsolationSanitizer()
    victim = _Victim()
    iso.tag(victim, 1, "x")
    probe = iso.probe(0, _Clock())
    for _ in range(MAX_VIOLATIONS + 3):
        probe.note(victim.poke, 0.0, 0)
    assert len(iso.violations) == MAX_VIOLATIONS
    assert iso.truncated == 3


def test_sharded_run_is_isolation_clean():
    for mode in ("lockstep", "barrier", "process"):
        sc = Scenario(tiny_cfg(shards=2, shard_mode=mode))
        run = run_domains(sc, isolate=True)
        assert run.isolation_violations == []


# -- faults + telemetry under the sharded engine ------------------------------


def test_equivalence_with_faults_telemetry_and_isolation():
    cfg = tiny_cfg(
        fault_plan=sharded_battery_fault_plan(),
        telemetry=TelemetryConfig(engine_profile=False),
    )
    report = check_sharded_equivalence(cfg, shards=2, isolate=True)
    assert report["ok"], report
    for mode, rep in report["modes"].items():
        assert rep["isolation_violations"] == [], mode


def test_fault_counters_survive_process_merge():
    cfg = tiny_cfg(
        fault_plan=sharded_battery_fault_plan(),
        shards=2,
        shard_mode="process",
    )
    serial = run_scenario(tiny_cfg(fault_plan=sharded_battery_fault_plan()))
    sharded = run_scenario(cfg)
    assert sharded.stats.fault_drops == serial.stats.fault_drops
    assert sharded.stats.fault_corruptions == serial.stats.fault_corruptions
    assert sharded.stats.fault_drops["data"] > 0


def test_drained_domain_receives_boundary_tuple_mid_window():
    """Satellite: a domain whose heap empties mid-window must still
    merge late boundary tuples at the serial position (process mode)."""
    # one cross-domain flow: domain 1 (hosts 4..7) has nothing scheduled
    # until the first packet crosses the spine, so its heap drains at
    # the first barrier and the flow's packets arrive into an idle heap
    flow = FlowSpec(flow_id=1, src=0, dst=7, size=50_000, start_time=us(10))

    def build(**kw):
        sc = Scenario(tiny_cfg(pattern="none", **kw))
        sc.flows = [flow]
        return sc

    serial_sc = build()
    digest = EventStreamDigest(serial_sc.sim, include_depth=False)
    serial_sc.sim.set_profiler(digest)
    serial = run_scenario(serial_sc.config, scenario=serial_sc)
    assert serial.completed_flows == 1

    reference = None
    for mode in ("lockstep", "process"):
        sc = build(shards=2, shard_mode=mode)
        run = run_domains(sc, collect_digests=True)
        assert sum(len(r.stats.fct_records) for r in run.reports) == 1, mode
        if mode == "lockstep":
            assert run.global_digest == digest.hexdigest()
            reference = run.domain_digests
        else:
            assert run.domain_digests == reference
