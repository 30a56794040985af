"""One row per choice (``repro.experiments.choices``) — flow-control
scheme, fidelity tier, topology and traffic pattern — and one class per
CC law (``repro.experiments.scenario``).

The builder, the runner, the fabric check, the fluid tiers, the
sanitizer and the validator read a choice's row; only the tables and
the modules the scheme rows name may compare a ``flow_control``,
``fidelity``, ``topology`` or ``pattern`` value with a name.  What a CC
law needs from the fabric is read off its class, so no module compares
a ``cc`` value with a law's name.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.experiments.choices import FABRICS, FIDELITIES, FLOW_CONTROLS, PATTERNS, load
from repro.net.host import Host

SRC = Path(__file__).resolve().parents[1] / "src"

#: the table, and every module a row names
EXEMPT = {SRC / "repro" / "experiments" / "choices.py"} | {
    SRC.joinpath(*row.module.split(".")).with_suffix(".py")
    for row in FLOW_CONTROLS.values()
    if row.module
}


def _names(node: ast.AST, field: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == field) or (
        isinstance(node, ast.Attribute) and node.attr == field
    )


def _is_string(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def name_tests(root: Path, field: str, exempt=frozenset()):
    """``path:line`` of every comparison of ``field`` with a string
    literal (or a collection of them) under ``root``, outside
    ``exempt``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path in exempt:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(_names(op, field) for op in operands) and any(
                map(_is_string, operands)
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_module_outside_the_rows_compares_a_scheme_name():
    assert name_tests(SRC / "repro", "flow_control", EXEMPT) == []


@pytest.mark.parametrize("field", ["fidelity", "topology", "pattern"])
def test_no_module_outside_the_rows_compares_a_choice_name(field):
    assert name_tests(SRC / "repro", field, EXEMPT) == []


def test_no_module_compares_a_cc_law_name():
    assert name_tests(SRC / "repro", "cc") == []


@pytest.mark.parametrize(
    "flow_control", [fc for fc, row in FLOW_CONTROLS.items() if row.module]
)
def test_every_row_module_installs_its_scheme(flow_control):
    row = FLOW_CONTROLS[flow_control]
    module = importlib.import_module(row.module)
    assert callable(getattr(module, "install", None))
    if row.host is not None:
        host = getattr(module, row.host)
        assert issubclass(host, Host)
        assert host.__module__ == row.module


#: every ``"module:name"`` a fidelity, topology or pattern row names
NAMED = sorted(
    {row.engine for row in FIDELITIES.values() if row.engine}
    | {row.build for row in FABRICS.values()}
    | {row.traffic for row in PATTERNS.values() if row.traffic}
)


#: a topology builder's case is named for its topology: ``build_`` dropped
@pytest.mark.parametrize(
    "path", NAMED, ids=lambda path: path.replace(":build_", ":")
)
def test_every_row_names_a_callable_in_its_module(path):
    named = load(path)
    assert callable(named)
    assert named.__module__ == path.partition(":")[0]
