"""Driver for the simcheck static pass.

Walks the tree, applies the per-rule path scopes, honours inline
suppressions (``# simcheck: ignore[SIM001] -- reason``) and the
committed repo-root allowlist (``simcheck-allowlist.txt``), and
returns a :class:`CheckReport`.

Allowlist format, one entry per line::

    SIM002 src/repro/cli.py -- operator-facing wall timings

i.e. ``RULE path-glob -- justification``.  The justification is
mandatory: an entry without one is a configuration error, so every
suppression in the repo carries its reason in-tree.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.simcheck.rules import RULES, Finding, scan_source

ALLOWLIST_NAME = "simcheck-allowlist.txt"

#: directories scanned when no explicit paths are given
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: directory names never descended into
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", ".cache", "build"}
)

_SUPPRESS_RE = re.compile(r"#\s*simcheck:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True)
class AllowlistEntry:
    rule: str
    glob: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        return finding.rule == self.rule and (
            fnmatch.fnmatchcase(finding.path, self.glob)
            or finding.path == self.glob
        )


@dataclass
class CheckReport:
    """Outcome of one linter run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    allowlisted: List[Finding] = field(default_factory=list)
    #: suppression hygiene: allowlist entries whose path-glob matched
    #: no scanned file (stale after a rename/delete).  Only populated
    #: on full default-path runs — a partial `check path/` would
    #: otherwise cry wolf about entries for files outside the subset.
    dead_allowlist: List[AllowlistEntry] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.dead_allowlist

    def summary(self) -> str:
        return (
            f"{len(self.findings)} finding(s) in {self.files_scanned} file(s) "
            f"({len(self.suppressed)} inline-suppressed, "
            f"{len(self.allowlisted)} allowlisted, "
            f"{len(self.dead_allowlist)} dead allowlist entr"
            f"{'y' if len(self.dead_allowlist) == 1 else 'ies'})"
        )


def find_root() -> Path:
    """Repo root: nearest ancestor of the working directory holding
    pyproject.toml."""
    here = Path.cwd().resolve()
    for cand in (here, *here.parents):
        if (cand / "pyproject.toml").is_file():
            return cand
    return here


def rule_applies(rule: str, relpath: str) -> bool:
    """Per-rule path scope (see the rule catalogue in DESIGN.md)."""
    if rule == "SIM001":
        return relpath.startswith("src/repro/") and relpath != "src/repro/sim/rng.py"
    if rule == "SIM002":
        return (
            not relpath.startswith("benchmarks/")
            and relpath != "src/repro/telemetry/profile.py"
        )
    if rule == "SIM003":
        return any(
            relpath.startswith(f"src/repro/{pkg}/")
            for pkg in ("net", "floodgate", "baselines")
        )
    if rule in ("SIM005", "SIM007"):
        # domain-executed code, plus the sharded engine itself (whose
        # boundary contexts are exempted inside the rule)
        return relpath == "src/repro/sim/sharded.py" or any(
            relpath.startswith(f"src/repro/{pkg}/")
            for pkg in ("net", "floodgate", "baselines", "faults")
        )
    if rule == "SIM006":
        # packages imported by both the sharded workers and per-domain
        # code: a module/class-level mutable there is cross-domain state
        return any(
            relpath.startswith(f"src/repro/{pkg}/")
            for pkg in (
                "net",
                "floodgate",
                "baselines",
                "faults",
                "workloads",
                "stats",
                "telemetry",
            )
        )
    if rule == "SIM008":
        return any(
            relpath.startswith(f"src/repro/{pkg}/")
            for pkg in ("net", "floodgate", "baselines", "stats", "telemetry")
        )
    if rule == "SIM009":
        return relpath.startswith("tests/")
    if rule == "SIM010":
        # the engine and its helpers own the heap
        return not relpath.startswith("src/repro/sim/")
    # SIM000 (parse errors) and SIM004 apply everywhere
    return True


def load_allowlist(path: Path) -> List[AllowlistEntry]:
    """Parse the allowlist; raises on entries without a justification."""
    entries: List[AllowlistEntry] = []
    if not path.is_file():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, reason = line.partition("--")
        reason = reason.strip()
        if not sep or not reason:
            raise ValueError(
                f"{path.name}:{lineno}: allowlist entry needs a "
                f"`-- justification`: {line!r}"
            )
        parts = head.split()
        if len(parts) != 2 or parts[0] not in RULES:
            raise ValueError(
                f"{path.name}:{lineno}: expected `RULE path-glob -- reason`, "
                f"got: {line!r}"
            )
        entries.append(AllowlistEntry(parts[0], parts[1], reason))
    return entries


def iter_py_files(root: Path, paths: Sequence[str]) -> Iterable[Path]:
    for rel in paths:
        base = root / rel
        if base.is_file() and base.suffix == ".py":
            yield base
        elif base.is_dir():
            for sub in sorted(base.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.relative_to(root).parts):
                    yield sub


def _inline_suppressed(finding: Finding, lines: Sequence[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    m = _SUPPRESS_RE.search(lines[finding.line - 1])
    if m is None:
        return False
    rules = {r.strip() for r in m.group(1).split(",")}
    return finding.rule in rules


def check_file(
    path: Path, root: Path, allowlist: Sequence[AllowlistEntry]
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Lint one file -> (active, inline-suppressed, allowlisted) findings."""
    relpath = path.relative_to(root).as_posix()
    enabled = [rule for rule in RULES if rule_applies(rule, relpath)]
    source = path.read_text(encoding="utf-8")
    raw = scan_source(source, relpath, enabled)
    if not raw:
        return [], [], []
    lines = source.splitlines()
    active: List[Finding] = []
    suppressed: List[Finding] = []
    allowlisted: List[Finding] = []
    for finding in raw:
        if _inline_suppressed(finding, lines):
            suppressed.append(finding)
        elif any(entry.matches(finding) for entry in allowlist):
            allowlisted.append(finding)
        else:
            active.append(finding)
    return active, suppressed, allowlisted


def run_check(
    root: Optional[Path] = None,
    paths: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Lint `paths` (default: the standard tree) under the repo `root`,
    against the allowlist at its top."""
    root = (root or find_root()).resolve()
    allowlist = load_allowlist(root / ALLOWLIST_NAME)
    report = CheckReport()
    scanned: List[str] = []
    for path in iter_py_files(root, paths or DEFAULT_PATHS):
        active, suppressed, allowlisted = check_file(path, root, allowlist)
        scanned.append(path.relative_to(root).as_posix())
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
        report.allowlisted.extend(allowlisted)
        report.files_scanned += 1
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if paths is None:
        report.dead_allowlist = [
            entry
            for entry in allowlist
            if not any(
                fnmatch.fnmatchcase(rel, entry.glob) or rel == entry.glob
                for rel in scanned
            )
        ]
    return report
