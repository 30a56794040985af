"""Cross-module ownership dataflow for the shard-safety rules.

The sharded engine (:mod:`repro.sim.sharded`) partitions the topology
into execution domains keyed by ``node_id`` — ``partition()`` builds
``domain_of[node.node_id]`` and every object hanging off a node (ports,
intra-domain links, VOQ state, credit tables) inherits that domain.
Cross-domain traffic is only allowed through the boundary-tuple
exchange: the channel and transport classes, the window loop and the
partition/binding helpers defined in ``sim/sharded.py``.

This module is the static mirror of that contract.  It provides:

* :func:`build_ownership_map` — parse ``sim/sharded.py`` and recover
  the ownership model from the source of truth: the attribute
  ``partition()`` keys domains on, and the names of the boundary
  contexts (channel and transport classes, ``partition``, domain
  binding, the window loop) inside which cross-domain access is the
  whole point.
* :func:`foreign_locals` — per-function dataflow marking local names
  bound to another domain's objects (``peer = switch.peer(i)``,
  ``other = link.peer_of(node)``, ...).
* :func:`classify` — classify one mutation site as ``owned`` (root is
  ``self``/a domain-local name), ``boundary`` (inside a boundary
  context of ``sim/sharded.py``), or ``foreign`` (the write reaches
  its target through a foreign alias attribute or a foreign-derived
  local).

SIM005 flags ``foreign`` sites; SIM007 flags callbacks/arguments
derived from foreign handles being registered on the local engine.
The runtime complement is :mod:`repro.simcheck.isolation`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, FrozenSet, Iterable, List, Optional, Set, Tuple

#: attributes that cross to *another* node's object graph.  Reading
#: them is fine (schemes inspect ``peer.level`` to classify hops);
#: writing through them mutates state the peer's domain owns.
FOREIGN_ALIAS_ATTRS = frozenset(
    {"peer", "_peer", "node_a", "node_b", "dst_port", "src_port", "upstream"}
)

#: method calls that *return* another node's object (``switch.peer(i)``,
#: ``link.peer_of(node)``, ``link.port_of(node)``)
FOREIGN_ALIAS_CALLS = frozenset({"peer", "peer_of", "port_of"})

#: method names that mutate their receiver — a call through a foreign
#: handle to one of these is a cross-domain write
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "enqueue",
        "enqueue_control",
        "extend",
        "insert",
        "pop",
        "popleft",
        "push",
        "receive",
        "remove",
        "setdefault",
        "update",
    }
)

#: functions in sim/sharded.py that are boundary contexts even though
#: their names do not say "channel": partitioning and binding assign
#: ownership, and ``step`` (a runtime merging incoming deliveries, a
#: transport carrying them), the window loop that routes them and the
#: forked worker serving one domain are the exchange itself
_BOUNDARY_SEED = frozenset(
    {
        "partition_nodes",
        "_bind_domains",
        "_validate_fault_plan",
        "step",
        "_window_loop",
        "_serve_domain",
    }
)

SHARDED_RELPATH = "src/repro/sim/sharded.py"


@dataclass(frozen=True)
class OwnershipMap:
    """What ``sim/sharded.py`` says about domain ownership."""

    #: node attribute partition() keys domains on (``node_id``)
    domain_key: str
    #: class/function names forming the boundary-tuple exchange
    boundary_contexts: FrozenSet[str]
    #: where the map was read from (for error messages)
    source: str = SHARDED_RELPATH

    def is_boundary_scope(self, scope_names: Iterable[str]) -> bool:
        return any(name in self.boundary_contexts for name in scope_names)


@dataclass(frozen=True)
class MutationSite:
    """One classified write, for tests and the ownership report."""

    path: str
    line: int
    col: int
    target: str
    classification: str  # "owned" | "boundary" | "foreign"


def _find_domain_key(tree: ast.AST) -> str:
    """The attribute ``partition_nodes()`` subscripts ``domain_of`` with."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith(
            "partition"
        ):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "domain_of"
                    and isinstance(sub.slice, ast.Attribute)
                ):
                    return sub.slice.attr
    return "node_id"


def boundary_contexts(tree: ast.AST) -> FrozenSet[str]:
    """Boundary context names present in a parsed ``sim/sharded.py``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (
            "Channel" in node.name or "Transport" in node.name
        ):
            names.add(node.name)
        elif isinstance(node, ast.FunctionDef) and node.name in _BOUNDARY_SEED:
            names.add(node.name)
    return frozenset(names)


def build_ownership_map(root: Optional[Path] = None) -> OwnershipMap:
    """Parse ``sim/sharded.py`` under ``root`` into an OwnershipMap.

    Falls back to the seed boundary set when the file is missing (the
    lint rules still work; only sharded.py's own exemptions narrow).
    """
    if root is not None:
        path = Path(root) / SHARDED_RELPATH
    else:
        path = Path(__file__).resolve().parents[1] / "sim" / "sharded.py"
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return OwnershipMap("node_id", frozenset(_BOUNDARY_SEED))
    return OwnershipMap(_find_domain_key(tree), boundary_contexts(tree))


# -- expression classification ---------------------------------------------


def _is_foreign_expr(node: ast.expr, env: FrozenSet[str]) -> bool:
    """Does this expression reach another domain's object graph?

    True when the attribute/call chain crosses a foreign alias
    (``link.dst_port``, ``switch.peer(i)``) or is rooted at a local
    name ``env`` marked foreign-derived.
    """
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr in FOREIGN_ALIAS_ATTRS:
                return True
            node = node.value
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in FOREIGN_ALIAS_CALLS
            ):
                return True
            node = func
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            return node.id in env
        else:
            return False


def tainted_locals(
    scope: ast.AST,
    is_tainted: Callable[[ast.expr, FrozenSet[str]], bool],
    aug: bool = False,
) -> FrozenSet[str]:
    """Local names ``scope`` binds to expressions ``is_tainted`` accepts.

    Conservative flow-insensitive pass: a name assigned a tainted
    expression *anywhere* in the scope counts everywhere in it, even
    across rebinding.  ``is_tainted(value, names_so_far)`` sees the
    names found so far, so chains propagate; ``aug`` also follows
    augmented assignments (``x += tainted``).
    """
    env: Set[str] = set()
    # iterate to a fixpoint so chains (`peer = sw.peer(i); p2 = peer`)
    # propagate; bounded by the number of assignments
    changed = True
    while changed:
        changed = False
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif aug and isinstance(node, ast.AugAssign):
                value, targets = node.value, [node.target]
            else:
                continue
            if not is_tainted(value, frozenset(env)):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in env:
                    env.add(target.id)
                    changed = True
    return frozenset(env)


def foreign_locals(func: ast.AST) -> FrozenSet[str]:
    """Local names this function binds to foreign-derived expressions,
    so later writes through them are classified foreign."""
    return tainted_locals(func, _is_foreign_expr)


def _root_and_chain(node: ast.expr) -> Tuple[Optional[str], List[str]]:
    """(root name, attribute chain) of an attribute/subscript path."""
    chain: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                chain.append(func.attr)
                node = func.value
            else:
                node = func
        elif isinstance(node, ast.Name):
            chain.reverse()
            return node.id, chain
        else:
            chain.reverse()
            return None, chain


def classify(
    target: ast.expr,
    env: FrozenSet[str],
    scope_names: Iterable[str] = (),
    omap: Optional[OwnershipMap] = None,
) -> str:
    """Classify one mutation target: owned | boundary | foreign."""
    if omap is not None and omap.is_boundary_scope(scope_names):
        return "boundary"
    # the final attribute is the slot being written; only the *path to
    # the object* decides ownership, so classify the value under it
    inner = target.value if isinstance(target, ast.Attribute) else target
    if _is_foreign_expr(inner, env):
        return "foreign"
    return "owned"


def describe(node: ast.expr) -> str:
    """Compact source-ish rendering of a target for messages."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs
        root, chain = _root_and_chain(node)
        return ".".join(filter(None, [root, *chain]))


def classify_file(
    source: str, relpath: str, omap: Optional[OwnershipMap] = None
) -> List[MutationSite]:
    """Every attribute-write site in a file, classified.

    Used by tests and the ownership report; the lint rules (SIM005/7)
    consume the same helpers directly from the rule visitor.
    """
    tree = ast.parse(source, filename=relpath)
    sites: List[MutationSite] = []
    boundary = (
        omap.boundary_contexts
        if omap is not None and relpath == omap.source
        else frozenset()
    )

    def walk_scope(node: ast.AST, scopes: Tuple[str, ...]) -> None:
        env = frozenset()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            env = foreign_locals(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                walk_scope(child, scopes + (child.name,))
                continue
            for sub in ast.walk(child):
                targets: List[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = [
                        t for t in sub.targets if isinstance(t, ast.Attribute)
                    ]
                elif isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Attribute
                ):
                    targets = [sub.target]
                for tgt in targets:
                    in_boundary = any(s in boundary for s in scopes)
                    cls = (
                        "boundary"
                        if in_boundary
                        else classify(tgt, env)
                    )
                    sites.append(
                        MutationSite(
                            relpath,
                            tgt.lineno,
                            tgt.col_offset,
                            describe(tgt),
                            cls,
                        )
                    )

    walk_scope(tree, ())
    sites.sort(key=lambda s: (s.line, s.col))
    return sites
