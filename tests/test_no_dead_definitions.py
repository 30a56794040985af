"""Every definition under ``src/repro`` is reachable from a root.

A root is code that runs without a test calling it: the module-level
statements of every non-``__init__`` module under ``src/repro`` (which
covers ``repro.cli``'s ``main()``), the statement of a package
``__init__`` that assigns its module ``__getattr__`` / ``__dir__``,
every word under ``benchmarks/``, and the frozen oracles
(``tests/*_pr*.py`` + ``tests/oracle_harness.py``).  Tests,
``examples/`` and ``__init__`` re-exports are not roots: a definition
whose only callers are its own tests is dead code with a test suite.

The walk is name-level.  A definition is a ``def`` / ``class``; what it
*uses* is every identifier, attribute name and keyword in its body,
nested definitions excluded (they are definitions of their own) and
strings excluded (a docstring that mentions a name does not call it).
A name used by a root, or by a live definition, makes every definition
of that name live; dunders and ``visit_*`` hooks live with their class.
To a fixpoint.

The walk does not see attributes, so a second test holds the slots:
every ``__slots__`` entry of a class under ``src/repro`` is loaded
somewhere in ``src/`` outside that class's own ``__init__``.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD_ROOTS = (
    sorted((ROOT / "benchmarks").rglob("*.py"))
    + sorted((ROOT / "tests").glob("*_pr*.py"))
    + [ROOT / "tests" / "oracle_harness.py"]
)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: module attributes the interpreter calls (PEP 562): like a class's
#: dunders they are live, and so is the statement binding them in a
#: package ``__init__`` (a lazy façade)
MODULE_HOOKS = {"__getattr__", "__dir__"}

#: a definition's name, or a module's path for all of it -> why it stays
#: although only tests (or an example) reach it.  Ten entries at most.
ALLOWED = {
    "repro/analysis/models.py": "the paper's closed forms, the one outside reference "
    "tests/test_analysis.py holds the packet engine to (the bounds wait for ROADMAP item 5)",
    "allocation_errors": "full-recompute reference of the incremental fluid allocator",
    "RateSampler": "tick-time differentiation test_telemetry holds the merged export to",
    "serialization_delay_of": "spelled-out form of the delay memo _try_transmit inlines; "
    "the rate-change tests probe the memo through it",
    "assign_psn": "spelled-out form of the PSN draw _stamp_psn inlines (with consume, "
    "what WindowTable documents); test_floodgate_window drives reconcile with it",
    "switches_of_kind": "fixture helper with dozens of test call sites",
    "bar_chart": "terminal plot kind examples/plot_figures.py draws",
    "cdf_chart": "terminal plot kind examples/plot_figures.py draws",
}


@functools.cache
def _src() -> dict:
    """``repro/...py`` -> parsed module, for every file under ``src/repro``."""
    return {
        path.relative_to(ROOT / "src").as_posix(): ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    }


def _uses(nodes) -> set:
    """Names used under ``nodes``: not descending into nested
    definitions (their decorators, bases and argument defaults are
    evaluated here and do count), not counting imports."""
    out: set = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, DEFS):
            stack += node.decorator_list + getattr(node, "bases", [])
            if not isinstance(node, ast.ClassDef):
                stack += node.args.defaults + [d for d in node.args.kw_defaults if d]
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(path: str, node: ast.AST, owner=None):
    """``(name, path, uses, owner)`` for every definition under
    ``node``; ``owner`` names the class a dunder or ``visit_*`` hook
    lives and dies with, else it is None."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, DEFS):
            yield from _definitions(path, child, owner)
            continue
        tied = owner and child.name.startswith(("__", "visit_"))
        yield child.name, path, _uses(child.body), owner if tied else None
        inner = child.name if isinstance(child, ast.ClassDef) else None
        yield from _definitions(path, child, inner)


def _binds_hook(stmt: ast.stmt) -> bool:
    """True for a module-level statement assigning a PEP 562 hook (a
    ``def __getattr__`` is live by its name)."""
    return any(
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id in MODULE_HOOKS
        for node in ast.walk(stmt)
    )


def _unreachable() -> list:
    defs = [d for path, tree in _src().items() for d in _definitions(path, tree)]
    live: set = set(MODULE_HOOKS)
    for path, tree in _src().items():
        if not path.endswith("__init__.py"):
            live |= _uses(tree.body)
        else:
            live |= _uses([s for s in tree.body if _binds_hook(s)])
    for path in WORD_ROOTS:
        live.update(re.findall(r"\w+", path.read_text()))
    grew = True
    while grew:
        grew = False
        for name, _, uses, owner in defs:
            if (name in live or owner in live) and not uses <= live:
                live |= uses
                grew = True
    return sorted(
        {
            (path, name)
            for name, path, _, owner in defs
            if name not in live and owner not in live
        }
    )


def test_every_definition_is_named_somewhere_else():
    """... by a root, or by a definition a root reaches (the id predates
    the reachability walk and is kept: tier-1 ids are a floor)."""
    dead = _unreachable()
    excused = {key for pair in dead for key in pair if key in ALLOWED}
    assert [f"{p}: {n}" for p, n in dead if p not in ALLOWED and n not in ALLOWED] == []
    assert sorted(set(ALLOWED) - excused) == [], "allow-listed, but reachable or gone"
    assert len(ALLOWED) <= 10


def test_every_slot_is_read_outside_its_own_init():
    def loads(trees) -> Counter:
        return Counter(
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )

    everywhere = loads(_src().values())
    unread = []
    for path, tree in _src().items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            in_own_init = loads(
                item
                for item in cls.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            )
            slots = [
                const.value
                for item in cls.body
                if isinstance(item, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__" for t in item.targets)
                for const in ast.walk(item.value)
                if isinstance(const, ast.Constant)
            ]
            unread += [
                f"{path}: {cls.name}.{slot}"
                for slot in slots
                if everywhere[slot] == in_own_init[slot]
            ]
    assert unread == []
