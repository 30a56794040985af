"""Cross-module ownership dataflow for the shard-safety rules.

The sharded engine (:mod:`repro.sim.sharded`) partitions the topology
into execution domains keyed by ``node_id`` — ``partition()`` builds
``domain_of[node.node_id]`` and every object hanging off a node (ports,
intra-domain links, VOQ state, credit tables) inherits that domain.
Cross-domain traffic is only allowed through the boundary-tuple
exchange: the channel and transport classes, the window loop and the
partition/binding helpers defined in ``sim/sharded.py``.

This module is the static mirror of that contract.  It provides:

* :func:`boundary_contexts` — recover from a parsed ``sim/sharded.py``
  the names of the boundary contexts (channel and transport classes,
  partitioning, domain binding, the window loop) inside which
  cross-domain access is the whole point.
* :func:`foreign_locals` — per-function dataflow marking local names
  bound to another domain's objects (``peer = switch.peer(i)``,
  ``other = link.peer_of(node)``, ...).
* :func:`_is_foreign_expr` — does an expression reach its object
  through a foreign alias attribute or a foreign-derived local.

SIM005 flags writes whose path to the object is foreign (outside a
boundary context); SIM007 flags callbacks/arguments derived from
foreign handles being registered on the local engine.
The runtime complement is :mod:`repro.simcheck.isolation`.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, Set

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
