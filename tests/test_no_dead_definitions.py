"""Every name defined under ``src/repro`` is used somewhere.

A definition is dead when its name occurs nowhere but at its own
``def`` / ``class`` lines: not called, not imported, not overridden-and-
dispatched, not even mentioned by a test.  Word occurrence is a loose
test on purpose (a comment counts), so it flags only what nothing in
the repository names at all.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "benchmarks", "examples")

#: name -> why nothing names it (empty today; keep it short)
ALLOWED: dict = {}


def _definitions(tree: ast.AST):
    """Names of the functions, methods and classes ``tree`` defines,
    minus dunders and the ``visit_*`` hooks ``ast.NodeVisitor`` calls."""
    dispatched = {
        item
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any("NodeVisitor" in ast.unparse(base) for base in cls.bases)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name.startswith("visit_")
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node not in dispatched
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ):
            yield node.name


def test_every_definition_is_named_somewhere_else():
    words: Counter = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text()))
    defined: Counter = Counter()
    where = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name in _definitions(ast.parse(path.read_text())):
            defined[name] += 1
            where.setdefault(name, path.relative_to(ROOT).as_posix())
    dead = sorted(
        f"{where[name]}: {name}"
        for name, count in defined.items()
        if words[name] <= count and name not in ALLOWED
    )
    assert dead == []
    stale = sorted(name for name in ALLOWED if words[name] > defined[name])
    assert stale == [], "allowlisted names that are used after all"
