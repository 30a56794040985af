"""AST rules for the simcheck determinism linter.

Each rule flags a construct that can make a simulation run depend on
something other than ``(config, seed)``:

SIM001
    Direct ``random.Random(...)`` construction or module-level
    ``random.*`` calls inside ``src/repro`` (outside ``sim/rng.py``).
    All randomness must come from named :class:`~repro.sim.rng.RngRegistry`
    streams so serial, pooled and cached runs draw identically.
SIM002
    Wall-clock reads (``time.time``, ``time.perf_counter``,
    ``time.monotonic``, ``datetime.now``, ...) outside ``benchmarks/``
    and ``telemetry/profile.py``.  Wall time must never leak into
    simulated state.
SIM003
    Iteration over set-typed simulator state (``paused_keys``,
    ``paused_queues``, ``paused_upstreams``, ``fids``, ...) in
    ``net/``, ``floodgate/`` or ``baselines/``.  Set order is
    hash-dependent; when the loop body schedules events, the event
    order — and therefore the whole run — inherits that order.
    Wrap the iterable in ``sorted(...)``.
SIM004
    Float-valued delays/timestamps passed to ``Engine.schedule*``.
    The clock is integer nanoseconds; floats make event ordering
    platform- and rounding-dependent.  Wrap in ``int(...)`` or
    ``round(...)``.

The shard-safety rules keep domain-executed code safe to run under the
conservative-parallel engine (``repro.sim.sharded``); ownership
classification comes from :mod:`repro.simcheck.ownership` and the
runtime complement is :mod:`repro.simcheck.isolation`:

SIM005
    Writes through another domain's topology handle (``port.peer``,
    ``link.dst_port``, a local bound from ``switch.peer(i)``/
    ``link.peer_of(node)``) outside the boundary-tuple exchange in
    ``sim/sharded.py``.  Foreign objects may be read (schemes inspect
    ``peer.level``); mutating them races with the owning domain.
SIM006
    Module-level or class-level mutable containers in packages
    imported by both the sharded workers and per-domain code.  A
    global registry or class-level cache written at runtime is shared
    across domains with no merge path; freeze it, or allowlist it with
    a justification that it is populated at import time only.
SIM007
    ``schedule*`` calls registering a callback (or argument) derived
    from a foreign handle on the local engine — domain 0's engine
    executing a method bound to domain 1's object is exactly the race
    the runtime :class:`~repro.simcheck.isolation.ShardIsolationSanitizer`
    traps under ``check --sharded --isolate``.
SIM008
    Accumulation into a module-global collector (``X[...] += ...``,
    ``X.append(...)``) from simulation code.  Per-domain stats must
    land in domain-owned shards and merge deterministically at
    barriers; a process-global singleton silently loses worker writes.

One rule guards the test suite itself:

SIM009
    A comparison on wall-clock time inside ``tests/`` — an operand
    that reads ``time.monotonic()``/``perf_counter()``/``time()`` or a
    local computed from one (``elapsed = time.monotonic() - t0``).
    How long something took depends on the machine and its neighbours,
    so such an assertion makes tier-1 red or green by luck; wall-clock
    claims belong in ``benchmarks/`` with a bound derived from the
    hardware they ran on.

And one guards the engine's ordering contract:

SIM010
    ``heappush(<expr>._heap, ...)`` outside ``src/repro/sim/`` — a raw
    tuple pushed onto the simulator's heap, past ``schedule*``.  Runs
    are reproducible (and sharded runs replay the serial order) because
    every entry's ``seq`` was drawn from, or reserved on, the one
    ``sim._seq`` counter at the point the scheduling call it replaces
    would have drawn it; a site that invents a seq, or skips a draw,
    reorders ties silently.  Each such site says where its seq comes
    from in the suppression that permits it.

Suppression: append ``# simcheck: ignore[SIM00X] -- reason`` to the
flagged line, or add a ``RULE path-glob -- justification`` line to the
repo-root ``simcheck-allowlist.txt``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set

from repro.simcheck.ownership import (
    MUTATING_METHODS,
    SHARDED_RELPATH,
    _is_foreign_expr,
    boundary_contexts,
    foreign_locals,
    tainted_locals,
)

#: rule id -> one-line description (shown by ``repro.cli check --rules``)
RULES = {
    "SIM000": "file does not parse (syntax error)",
    "SIM001": (
        "direct random.* construction/call outside sim/rng.py "
        "(draw from an RngRegistry stream instead)"
    ),
    "SIM002": (
        "wall-clock read outside benchmarks/ and telemetry/profile.py "
        "(simulated state must not see wall time)"
    ),
    "SIM003": (
        "iteration over set-typed simulator state "
        "(hash order can leak into event scheduling; wrap in sorted())"
    ),
    "SIM004": (
        "float-valued delay/timestamp passed to Engine.schedule* "
        "(the clock is integer ns; wrap in int()/round())"
    ),
    "SIM005": (
        "write through another domain's topology handle "
        "(peer/node_a/dst_port/...) outside the sharded boundary exchange"
    ),
    "SIM006": (
        "module/class-level mutable container shared by sharded workers "
        "and per-domain code (global registry or cache without a merge path)"
    ),
    "SIM007": (
        "schedule* registers a callback derived from a foreign-domain "
        "handle on the local engine (cross-domain mutation at dispatch)"
    ),
    "SIM008": (
        "accumulation into a module-global collector from simulation code "
        "(per-domain stats need domain shards + deterministic merge)"
    ),
    "SIM009": (
        "comparison on elapsed wall-clock time inside tests/ "
        "(machine-dependent; timing claims belong in benchmarks/)"
    ),
    "SIM010": (
        "raw heappush onto a simulator's _heap outside sim/ "
        "(say where the entry's seq is drawn or reserved on sim._seq)"
    ),
}

#: ``time.<attr>`` reads that observe the wall clock
WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: ``datetime.<attr>`` / ``date.<attr>`` constructors that observe it
WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: attribute names of set-typed simulator state whose iteration order
#: can reach ``schedule()`` (see net/, floodgate/, baselines/)
SET_STATE_NAMES = frozenset(
    {
        "active_flows",
        "dsts",
        "fids",
        "paused",
        "paused_dsts",
        "paused_keys",
        "paused_queues",
        "paused_sources",
        "paused_upstreams",
    }
)

#: Simulator scheduling entry points whose first argument is a time
SCHEDULE_METHODS = frozenset(
    {"schedule", "schedule_at", "schedule_call", "schedule_call_at"}
)

#: call wrappers that preserve the order of the underlying iterable
#: (so iterating through them is still hash-order iteration)
_ORDER_PRESERVING_WRAPPERS = frozenset(
    {"list", "tuple", "iter", "set", "frozenset", "reversed", "enumerate"}
)

#: constructors whose result is a mutable container (SIM006)
_MUTABLE_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)


def _called_name(func: ast.expr) -> str | None:
    """``f`` of ``f(...)``, ``attr`` of ``x.attr(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _is_mutable_container(value: ast.expr) -> bool:
    """Does this module/class-level value build a mutable container?

    Display literals and container constructors count; comprehensions
    do not — a comprehension at module scope is a derived constant,
    not a registry that runtime code appends into.
    """
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call):
        return _called_name(value.func) in _MUTABLE_CONTAINER_CALLS
    return False


def _assign_name(target: ast.expr) -> str | None:
    return target.id if isinstance(target, ast.Name) else None


def _root_name(node: ast.expr) -> str | None:
    """Leftmost Name of an attribute/subscript/call chain, if any."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def _reads_wall_clock(node: ast.expr, tainted: FrozenSet[str]) -> bool:
    """Does this expression contain a wall-clock read or a tainted name?

    Wall-clock reads are ``time.<attr>()`` calls and bare calls of the
    same names (``from time import perf_counter``).
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
        if isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in WALL_CLOCK_TIME_ATTRS
            ) or (
                isinstance(func, ast.Name) and func.id in WALL_CLOCK_TIME_ATTRS
            ):
                return True
    return False


def wall_clock_locals(scope: ast.AST) -> FrozenSet[str]:
    """Names this scope binds to wall-clock-derived values (SIM009)."""
    return tainted_locals(scope, _reads_wall_clock, aug=True)


@dataclass(frozen=True)
class Finding:
    """One linter hit: rule, location, human-readable message."""

    rule: str
    path: str  # posix-style path relative to the repo root
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _unwrap_order_preserving(node: ast.expr) -> ast.expr:
    """Strip ``list(...)``/``iter(...)``-style wrappers off an iterable.

    ``sorted(...)`` is deliberately *not* stripped: it fixes the order,
    which is exactly what SIM003 asks for.
    """
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ORDER_PRESERVING_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    return node


def _set_state_name(node: ast.expr) -> str | None:
    """Name of the set-typed state attribute iterated over, if any."""
    node = _unwrap_order_preserving(node)
    if isinstance(node, ast.Attribute) and node.attr in SET_STATE_NAMES:
        return node.attr
    if isinstance(node, ast.Name) and node.id in SET_STATE_NAMES:
        return node.id
    return None


def _is_floatish(node: ast.expr) -> bool:
    """Conservative: does this expression obviously produce a float?

    ``int(...)``/``round(...)`` wrappers and plain integer arithmetic
    are clean; literal floats, true division and ``float(...)`` are
    flagged.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in ("int", "round"):
                return False
            if node.func.id == "float":
                return True
        return False
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.IfExp):
        return _is_floatish(node.body) or _is_floatish(node.orelse)
    return False


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor producing raw findings for the enabled rules."""

    def __init__(
        self,
        relpath: str,
        enabled: frozenset,
        boundary: FrozenSet[str] = frozenset(),
    ) -> None:
        self.relpath = relpath
        self.enabled = enabled
        #: boundary-exchange scope names (non-empty only for sharded.py)
        self.boundary = boundary
        self.findings: List[Finding] = []
        self._scopes: List[str] = []
        self._func_depth = 0
        #: foreign-derived locals of the innermost function (SIM005/7)
        self._env: FrozenSet[str] = frozenset()
        #: module-level names bound to mutable containers (SIM006/8)
        self._module_globals: Set[str] = set()
        #: wall-clock-derived names of the innermost scope (SIM009)
        self._wall: FrozenSet[str] = frozenset()

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(rule, self.relpath, node.lineno, node.col_offset, message)
        )

    def _in_boundary(self) -> bool:
        return any(name in self.boundary for name in self._scopes)

    # -- scope bookkeeping + SIM006 definitions ---------------------------
    def visit_Module(self, node: ast.Module) -> None:
        if "SIM009" in self.enabled:
            self._wall = wall_clock_locals(node)
        for stmt in node.body:
            targets, value = [], None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_container(value):
                continue
            for target in targets:
                name = _assign_name(target)
                if name is None or name.startswith("__"):
                    continue  # __all__ and friends: interpreter protocol
                self._module_globals.add(name)
                if "SIM006" in self.enabled:
                    self._add(
                        "SIM006",
                        stmt,
                        f"module-level mutable container `{name}` is shared "
                        "by sharded workers and per-domain code; freeze it "
                        "or justify (import-time-only) in the allowlist",
                    )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if "SIM006" in self.enabled and self._func_depth == 0:
            for stmt in node.body:
                targets, value = [], None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None or not _is_mutable_container(value):
                    continue
                for target in targets:
                    name = _assign_name(target)
                    if name is not None:
                        self._add(
                            "SIM006",
                            stmt,
                            f"class-level mutable cache `{node.name}.{name}` "
                            "is shared across domains; make it per-instance "
                            "or per-domain",
                        )
        self._scopes.append(node.name)
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        prev_env, prev_wall = self._env, self._wall
        if self.enabled & {"SIM005", "SIM007"}:
            self._env = foreign_locals(node)
        if "SIM009" in self.enabled:
            self._wall = prev_wall | wall_clock_locals(node)
        self._scopes.append(node.name)
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1
        self._scopes.pop()
        self._env, self._wall = prev_env, prev_wall

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- SIM005 / SIM008: attribute & subscript stores --------------------
    def _check_store(self, node: ast.AST, target: ast.expr) -> None:
        if self._func_depth == 0:
            return
        if (
            "SIM005" in self.enabled
            and isinstance(target, (ast.Attribute, ast.Subscript))
            and not self._in_boundary()
        ):
            inner = (
                target.value
                if isinstance(target, (ast.Attribute, ast.Subscript))
                else target
            )
            if _is_foreign_expr(inner, self._env):
                self._add(
                    "SIM005",
                    target,
                    f"write to `{ast.unparse(target)}` reaches another "
                    "domain's object through a foreign handle; only the "
                    "owning domain may mutate it",
                )
        if "SIM008" in self.enabled and isinstance(
            target, (ast.Attribute, ast.Subscript)
        ):
            root = _root_name(target)
            if root is not None and root in self._module_globals:
                self._add(
                    "SIM008",
                    target,
                    f"accumulates into module-global `{root}`; route stats "
                    "through a domain-owned collector with a merge path",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node, node.target)
        self.generic_visit(node)

    # -- SIM001 / SIM002: imports that smuggle the primitives in ---------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and "SIM001" in self.enabled:
            names = ", ".join(a.name for a in node.names)
            self._add(
                "SIM001",
                node,
                f"`from random import {names}` bypasses RngRegistry",
            )
        if node.module == "time" and "SIM002" in self.enabled:
            clocky = [a.name for a in node.names if a.name in WALL_CLOCK_TIME_ATTRS]
            if clocky:
                self._add(
                    "SIM002",
                    node,
                    f"`from time import {', '.join(clocky)}` imports a wall clock",
                )
        self.generic_visit(node)

    # -- SIM001: module-level random.* calls -----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            "SIM001" in self.enabled
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            self._add(
                "SIM001",
                node,
                f"random.{func.attr}(...) must come from an RngRegistry stream",
            )
        if (
            "SIM010" in self.enabled
            and _called_name(func) == "heappush"
            and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "_heap"
        ):
            self._add(
                "SIM010",
                node,
                f"raw push onto `{ast.unparse(node.args[0])}` bypasses schedule*(); "
                "the ordering contract rests on the entry's seq being drawn "
                "or reserved on sim._seq — justify where it comes from",
            )
        if "SIM004" in self.enabled and isinstance(func, ast.Attribute):
            if func.attr in SCHEDULE_METHODS and node.args:
                if _is_floatish(node.args[0]):
                    self._add(
                        "SIM004",
                        node,
                        f"float-valued time passed to .{func.attr}(); "
                        "the clock is integer ns — wrap in int()/round()",
                    )
        if self._func_depth > 0 and isinstance(func, ast.Attribute):
            if (
                "SIM005" in self.enabled
                and func.attr in MUTATING_METHODS
                and not self._in_boundary()
                and _is_foreign_expr(func.value, self._env)
            ):
                self._add(
                    "SIM005",
                    node,
                    f"`{ast.unparse(func)}(...)` mutates an object reached "
                    "through a foreign-domain handle; only the owning "
                    "domain may mutate it",
                )
            if (
                "SIM007" in self.enabled
                and func.attr in SCHEDULE_METHODS
                and not self._in_boundary()
            ):
                for arg in (*node.args[1:], *(kw.value for kw in node.keywords)):
                    if _is_foreign_expr(arg, self._env):
                        self._add(
                            "SIM007",
                            node,
                            f".{func.attr}() registers "
                            f"`{ast.unparse(arg)}` — a callback/argument "
                            "derived from a foreign-domain handle — on the "
                            "local engine",
                        )
                        break
            if (
                "SIM008" in self.enabled
                and func.attr in MUTATING_METHODS
            ):
                root = _root_name(func.value)
                if root is not None and root in self._module_globals:
                    self._add(
                        "SIM008",
                        node,
                        f"`{ast.unparse(func)}(...)` accumulates into "
                        f"module-global `{root}`; route stats through a "
                        "domain-owned collector with a merge path",
                    )
        self.generic_visit(node)

    # -- SIM002: wall-clock attribute reads -------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if "SIM002" in self.enabled:
            value = node.value
            if (
                isinstance(value, ast.Name)
                and value.id == "time"
                and node.attr in WALL_CLOCK_TIME_ATTRS
            ):
                self._add("SIM002", node, f"time.{node.attr} reads the wall clock")
            elif node.attr in WALL_CLOCK_DATETIME_ATTRS and (
                (isinstance(value, ast.Name) and value.id in ("datetime", "date"))
                or (
                    isinstance(value, ast.Attribute)
                    and value.attr in ("datetime", "date")
                )
            ):
                self._add(
                    "SIM002",
                    node,
                    f"datetime.{node.attr} reads the wall clock",
                )
        self.generic_visit(node)

    # -- SIM009: comparisons on elapsed wall time -------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if "SIM009" in self.enabled and any(
            _reads_wall_clock(operand, self._wall)
            for operand in (node.left, *node.comparators)
        ):
            self._add(
                "SIM009",
                node,
                f"`{ast.unparse(node)}` compares wall-clock time; elapsed "
                "time depends on the machine — move the claim to "
                "benchmarks/ with a hardware-derived bound",
            )
        self.generic_visit(node)

    # -- SIM003: set iteration --------------------------------------------
    def _check_iter(self, iter_node: ast.expr) -> None:
        name = _set_state_name(iter_node)
        if name is not None:
            self._add(
                "SIM003",
                iter_node,
                f"iteration over set-typed `{name}` is hash-ordered; "
                "wrap in sorted() so event order cannot depend on it",
            )

    def visit_For(self, node: ast.For) -> None:
        if "SIM003" in self.enabled:
            self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if "SIM003" in self.enabled:
            for gen in node.generators:
                self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


def scan_source(
    source: str, relpath: str, enabled: Iterable[str]
) -> List[Finding]:
    """Run the enabled rules over one file's source.

    Returns raw findings; inline-suppression and allowlist filtering
    happen in :mod:`repro.simcheck.linter`.
    """
    enabled = frozenset(enabled)
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [
            Finding(
                "SIM000",
                relpath,
                exc.lineno or 1,
                exc.offset or 0,
                f"syntax error: {exc.msg}",
            )
        ]
    # sharded.py's channel classes / partition / flush helpers ARE the
    # boundary-tuple exchange: cross-domain access there is the design
    boundary = (
        boundary_contexts(tree) if relpath == SHARDED_RELPATH else frozenset()
    )
    visitor = _RuleVisitor(relpath, enabled, boundary)
    visitor.visit(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return visitor.findings
