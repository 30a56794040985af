"""The simcheck static pass: rules, suppression, scoping, repo cleanliness."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.simcheck.linter import (
    ALLOWLIST_NAME,
    AllowlistEntry,
    check_file,
    find_root,
    load_allowlist,
    rule_applies,
    run_check,
)
from repro.simcheck.rules import RULES, Finding, scan_source

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_RULES = frozenset(RULES)


def scan(src: str, relpath: str = "src/repro/net/example.py", enabled=ALL_RULES):
    return scan_source(textwrap.dedent(src), relpath, enabled)


def rules_of(findings):
    return [f.rule for f in findings]


# -- SIM001: ad-hoc randomness ------------------------------------------------


def test_sim001_flags_random_construction_and_calls():
    findings = scan(
        """
        import random

        def jitter():
            rng = random.Random(7)
            random.shuffle([1, 2])
            return random.random()
        """
    )
    assert rules_of(findings) == ["SIM001", "SIM001", "SIM001"]
    assert "RngRegistry" in findings[0].message


def test_sim001_flags_from_import():
    (finding,) = scan("from random import shuffle, choice\n")
    assert finding.rule == "SIM001"
    assert "shuffle" in finding.message


def test_sim001_clean_for_registry_streams():
    findings = scan(
        """
        from repro.sim.rng import RngRegistry

        def draws(seed):
            rng = RngRegistry(seed).stream("workload")
            return rng.random()
        """
    )
    assert findings == []


# -- SIM002: wall-clock reads -------------------------------------------------


def test_sim002_flags_time_and_datetime_reads():
    findings = scan(
        """
        import time
        import datetime

        def stamp():
            a = time.time()
            b = time.perf_counter()
            c = time.monotonic_ns()
            d = datetime.datetime.now()
            return a, b, c, d
        """
    )
    assert rules_of(findings) == ["SIM002"] * 4


def test_sim002_flags_from_time_import():
    (finding,) = scan("from time import perf_counter\n")
    assert finding.rule == "SIM002"


def test_sim002_ignores_non_clock_time_attrs():
    # sleep/strftime do not read a clock into simulation state
    assert scan("import time\ntime.sleep(0.1)\n") == []


# -- SIM003: hash-ordered set iteration ---------------------------------------


def test_sim003_flags_direct_and_wrapped_iteration():
    findings = scan(
        """
        def resume(self):
            for dst in self.paused_dsts:
                self.kick(dst)
            for fid in list(state.fids):
                self.kick(fid)
        """
    )
    assert rules_of(findings) == ["SIM003", "SIM003"]
    assert "sorted()" in findings[0].message


def test_sim003_flags_comprehensions():
    (finding,) = scan("pending = [f for f in self.active_flows]\n")
    assert finding.rule == "SIM003"


def test_sim003_sorted_iteration_is_clean():
    findings = scan(
        """
        def resume(self):
            for dst in sorted(self.paused_dsts):
                self.kick(dst)
        """
    )
    assert findings == []


def test_sim003_ignores_unrelated_attributes():
    assert scan("for port in self.ports:\n    port.kick()\n") == []


# -- SIM004: float time in schedule calls -------------------------------------


def test_sim004_flags_float_delays():
    findings = scan(
        """
        def go(sim, delay):
            sim.schedule(1.5, None)
            sim.schedule_call(delay / 2, print)
            sim.schedule_at(float(delay), None)
        """
    )
    assert rules_of(findings) == ["SIM004"] * 3


def test_sim004_int_wrapped_and_plain_names_are_clean():
    findings = scan(
        """
        def go(sim, delay):
            sim.schedule(int(delay / 2), None)
            sim.schedule_call(round(delay * 0.5), print)
            sim.schedule_at(delay, None)
        """
    )
    assert findings == []


# -- SIM009: wall-clock comparisons in tests/ ---------------------------------


def test_sim009_flags_comparisons_on_elapsed_time():
    findings = scan(
        """
        import time

        def test_pool_is_fast():
            t0 = time.monotonic()
            work()
            serial_wall = time.monotonic() - t0
            budget = 0.6 * serial_wall
            assert time.perf_counter() - t0 < 1.0
            assert pool_wall() <= budget
        """,
        relpath="tests/test_example.py",
        enabled=frozenset({"SIM009"}),
    )
    # the direct read, and the name two assignments away from one
    assert rules_of(findings) == ["SIM009", "SIM009"]
    assert "benchmarks/" in findings[0].message


def test_sim009_clean_when_time_is_only_reported():
    findings = scan(
        """
        import time

        def test_result_is_right():
            t0 = time.monotonic()
            result = work()
            print(f"took {time.monotonic() - t0:.2f}s")
            assert result == 3
            assert result.sim_time < 1_000  # simulated time is fair game
        """,
        relpath="tests/test_example.py",
        enabled=frozenset({"SIM009"}),
    )
    assert findings == []


# -- SIM010: raw pushes onto the simulator's heap -----------------------------

RAW_PUSH = """
    import heapq
    from heapq import heappush

    def wake(self):
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, 0, sim._seq, None, self._wake, ()))
        heapq.heappush(self.sim._heap, (sim.now, 0, 7, None, self._wake, ()))
        heappush(self.backlog, (sim.now, self))  # someone else's heap
        sim.schedule_call(0, self._wake)
    """


def test_sim010_flags_raw_pushes_onto_a_simulator_heap():
    findings = scan(RAW_PUSH, enabled=frozenset({"SIM010"}))
    assert rules_of(findings) == ["SIM010", "SIM010"]
    assert "sim._heap" in findings[0].message
    assert "sim._seq" in findings[0].message


def test_sim010_suppression_names_where_the_seq_comes_from(tmp_path):
    target = tmp_path / "src" / "repro" / "net" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from heapq import heappush\n"
        "def wake(sim, fn):\n"
        "    sim._seq += 1\n"
        "    heappush(  # simcheck: ignore[SIM010] -- sim._seq is drawn on the line above\n"
        "        sim._heap, (sim.now, 0, sim._seq, None, fn, ())\n"
        "    )\n"
        "    heappush(sim._heap, (sim.now, 0, 7, None, fn, ()))\n"
    )
    active, suppressed, _ = check_file(target, tmp_path, [])
    assert [(f.rule, f.line) for f in active] == [("SIM010", 7)]
    assert [(f.rule, f.line) for f in suppressed] == [("SIM010", 4)]


def test_sim010_exempts_the_engine_package():
    assert rule_applies("SIM010", "src/repro/net/port.py")
    assert rule_applies("SIM010", "src/repro/hybrid/model.py")
    assert rule_applies("SIM010", "tests/port_pr15.py")
    assert not rule_applies("SIM010", "src/repro/sim/engine.py")
    assert not rule_applies("SIM010", "src/repro/sim/process.py")


# -- SIM000 + suppression machinery -------------------------------------------


def test_sim000_reports_syntax_errors():
    (finding,) = scan("def broken(:\n")
    assert finding.rule == "SIM000"
    assert "syntax error" in finding.message


def test_finding_format_is_path_line_col_rule():
    finding = Finding("SIM001", "src/repro/x.py", 3, 4, "msg")
    assert finding.format() == "src/repro/x.py:3:4: SIM001 msg"


def test_inline_suppression_moves_finding_aside(tmp_path):
    target = tmp_path / "src" / "repro" / "net" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "import time\n"
        "a = time.time()  # simcheck: ignore[SIM002] -- timing a banner\n"
        "b = time.monotonic()\n"
    )
    active, suppressed, allowlisted = check_file(target, tmp_path, [])
    assert rules_of(active) == ["SIM002"]
    assert active[0].line == 3
    assert rules_of(suppressed) == ["SIM002"]
    assert allowlisted == []


def test_allowlist_entry_matching_is_per_rule_and_glob():
    entry = AllowlistEntry("SIM002", "src/repro/cli.py", "operator timings")
    hit = Finding("SIM002", "src/repro/cli.py", 1, 0, "m")
    assert entry.matches(hit)
    assert not entry.matches(Finding("SIM001", "src/repro/cli.py", 1, 0, "m"))
    globbed = AllowlistEntry("SIM002", "tests/*.py", "r")
    assert globbed.matches(Finding("SIM002", "tests/test_x.py", 1, 0, "m"))
    assert not globbed.matches(Finding("SIM002", "src/x.py", 1, 0, "m"))


def test_allowlist_requires_justification(tmp_path):
    good = tmp_path / "ok.txt"
    good.write_text(
        "# comment\n\nSIM002 src/repro/cli.py -- operator-facing timings\n"
    )
    entries = load_allowlist(good)
    assert len(entries) == 1
    assert entries[0].reason == "operator-facing timings"

    bare = tmp_path / "bare.txt"
    bare.write_text("SIM002 src/repro/cli.py\n")
    with pytest.raises(ValueError, match="justification"):
        load_allowlist(bare)

    unknown = tmp_path / "unknown.txt"
    unknown.write_text("SIM999 src/x.py -- reason\n")
    with pytest.raises(ValueError, match="RULE path-glob"):
        load_allowlist(unknown)


# -- per-rule path scoping ----------------------------------------------------


def test_rule_scopes_match_the_design():
    # SIM001: only simulator sources, and never the RNG module itself
    assert rule_applies("SIM001", "src/repro/net/host.py")
    assert not rule_applies("SIM001", "src/repro/sim/rng.py")
    assert not rule_applies("SIM001", "tests/test_x.py")
    # SIM002: everywhere except benchmarks and the profiler
    assert rule_applies("SIM002", "src/repro/experiments/runner.py")
    assert rule_applies("SIM002", "tests/test_x.py")
    assert not rule_applies("SIM002", "benchmarks/test_perf_engine.py")
    assert not rule_applies("SIM002", "src/repro/telemetry/profile.py")
    # SIM003: the packet-path packages where set order reaches schedule()
    assert rule_applies("SIM003", "src/repro/net/switch.py")
    assert rule_applies("SIM003", "src/repro/floodgate/extension.py")
    assert rule_applies("SIM003", "src/repro/baselines/bfc.py")
    assert not rule_applies("SIM003", "src/repro/experiments/scenario.py")
    # SIM009: the test suite only (benchmarks/ is where timing lives)
    assert rule_applies("SIM009", "tests/test_x.py")
    assert not rule_applies("SIM009", "benchmarks/test_perf_engine.py")
    assert not rule_applies("SIM009", "src/repro/cli.py")
    # SIM000/SIM004: everywhere
    assert rule_applies("SIM000", "examples/paper_scale.py")
    assert rule_applies("SIM004", "tests/test_x.py")


# -- end-to-end over a synthetic tree -----------------------------------------


def _make_repo(tmp_path: Path) -> Path:
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    bad = tmp_path / "src" / "repro" / "net" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import random\n"
        "r = random.random()\n"
        "for d in paused_dsts:\n"
        "    pass\n"
    )
    ok = tmp_path / "tests" / "test_ok.py"
    ok.parent.mkdir()
    ok.write_text("x = 1\n")
    return tmp_path


def test_run_check_reports_and_allowlists(tmp_path):
    root = _make_repo(tmp_path)
    report = run_check(root=root)
    assert rules_of(report.findings) == ["SIM001", "SIM003"]
    assert report.files_scanned == 2
    assert not report.ok
    assert "2 finding(s)" in report.summary()

    (root / ALLOWLIST_NAME).write_text(
        "SIM001 src/repro/net/bad.py -- fixture exercises the rule\n"
        "SIM003 src/repro/net/*.py -- fixture exercises the rule\n"
    )
    report = run_check(root=root)
    assert report.ok
    assert len(report.allowlisted) == 2


def test_find_root_ascends_to_pyproject(tmp_path, monkeypatch):
    root = _make_repo(tmp_path)
    monkeypatch.chdir(root / "src" / "repro" / "net")
    assert find_root() == root.resolve()


# -- the repo itself must lint clean ------------------------------------------


def test_repo_lints_clean():
    report = run_check(root=REPO_ROOT)
    assert report.files_scanned > 100
    assert report.ok, "\n".join(f.format() for f in report.findings)
    # every sidestep of a rule carries an in-tree justification
    entries = load_allowlist(REPO_ROOT / ALLOWLIST_NAME)
    assert all(e.reason for e in entries)


def test_cli_check_exits_zero_on_clean_repo(capsys):
    assert cli_main(["check", "--root", str(REPO_ROOT)]) == 0
    err = capsys.readouterr().err
    assert "0 finding(s)" in err


def test_cli_check_rules_catalogue(capsys):
    assert cli_main(["check", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_check_exits_nonzero_on_findings(tmp_path, capsys):
    root = _make_repo(tmp_path)
    assert cli_main(["check", "--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM003" in out
