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
strings excluded (a docstring that mentions a name does not call it),
but for a ``"repro.module:name"`` path: a row of
``repro.experiments.choices`` names its function that way, and
``choices.load`` resolves it.
A name used by a root, or by a live definition, makes every definition
of that name live; dunders and ``visit_*`` hooks live with their class.
To a fixpoint.

The walk does not see attributes, so a second test holds the slots:
every ``__slots__`` entry of a class under ``src/repro`` is loaded
somewhere in ``src/`` outside that class's own ``__init__``.  Two more
hold what a run can select: every enumerated config value is named by
a root, and every model parameter is set by a caller.
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
#: a string that names a definition: ``choices.load`` resolves it
LOAD_PATH = re.compile(r"repro(?:\.\w+)+:(\w+)")
#: module attributes the interpreter calls (PEP 562): like a class's
#: dunders they are live, and so is the statement binding them in a
#: package ``__init__`` (a lazy façade)
MODULE_HOOKS = {"__getattr__", "__dir__"}

#: a definition's name, or a module's path for all of it -> why it stays
#: although only tests (or an example) reach it.  Ten entries at most.
ALLOWED = {
    "repro/analysis/models.py": "the paper's closed forms, the one outside reference "
    "tests/test_analysis.py holds the packet engine to (the bounds wait for ROADMAP item 10)",
    "allocation_errors": "full-recompute reference of the incremental fluid allocator",
    "RateSampler": "tick-time differentiation test_telemetry holds the merged export to",
    "serialization_delay_of": "spelled-out form of the delay memo _try_transmit inlines; "
    "test_link_port probes the memo through it",
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            path = LOAD_PATH.fullmatch(node.value)
            if path:
                out.add(path.group(1))
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


#: where a selectable value must be named to count as something a run
#: turns on: the figures, the registry, simcheck, the CLI, the benchmarks
SELECTING_FILES = (
    sorted((ROOT / "src" / "repro" / "experiments" / "figures").rglob("*.py"))
    + [ROOT / "src" / "repro" / "experiments" / "registry.py"]
    + sorted((ROOT / "src" / "repro" / "simcheck").rglob("*.py"))
    + [ROOT / "src" / "repro" / "cli.py"]
    + sorted((ROOT / "benchmarks").rglob("*.py"))
)


def test_every_selectable_value_is_selected_by_a_root():
    """Each enumerated config value and each fault kind is named by a
    figure, the registry, simcheck, the CLI or a benchmark (or is the
    field's default): a value only tests select is a code path no
    result depends on — delete it rather than keep it behind an
    option."""
    from dataclasses import fields
    from typing import get_args

    from repro.experiments import choices, scenario
    from repro.faults.plan import FaultSpec

    strings = {
        f.default for f in fields(scenario.ScenarioConfig) if isinstance(f.default, str)
    }
    names: set = set()
    for path in SELECTING_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    values = (
        tuple(scenario._CC_LAWS)
        + tuple(choices.FLOW_CONTROLS)
        + tuple(choices.PATTERNS)
        + tuple(choices.FABRICS)
        + tuple(choices.FIDELITIES)
    )
    assert [v for v in values if v not in strings] == []
    assert [t.__name__ for t in get_args(FaultSpec) if t.__name__ not in names] == []


#: where a call must set a parameter for it to count as varied
CALLER_FILES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "benchmarks").rglob("*.py")
)
#: more positionals than any call passes: a parameter only a keyword sets
KEYWORD_ONLY = 1 << 30
#: callees that call their first argument with the rest:
#: ``once(f, *args)`` in ``benchmarks/conftest.py`` is a call of ``f``
APPLIERS = {"once"}
#: why a pickled config field stays settable although no caller sets it:
#: every registry and e2e ``canonical_bytes`` pickles the config, and
#: every cache key hashes it, so dropping a field moves every digest
PICKLED = "pickled into every canonical_bytes and cache key: dropping it moves every digest"
#: ``Owner.param`` -> why it stays settable although no caller sets it.
#: Three entries at most.
ALLOWED_PARAMETERS = {
    "ScenarioConfig.rto": f"{PICKLED}; also tests/oracle_harness.py's RTO axis",
    "ScenarioConfig.scale": f"{PICKLED}; Scale.PAPER is examples/paper_scale.py's scale",
    "RpcWorkloadSpec.request_size": f"ScenarioConfig.rpc is {PICKLED}",
}


def _callee(call: ast.Call):
    """The name a call reaches, name-level: ``f(...)`` and ``x.f(...)``
    give ``f``; None for anything else (a call on a call's result)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and getattr(func.value.func, "id", None) == "super"
    )


def _owner(fn: ast.AST, cls) -> str:
    """What :func:`_model_parameters` calls the owner of ``fn``'s
    parameters: the class for an ``__init__``, else ``Class.method`` or
    the function's name."""
    if cls is None:
        return fn.name
    return cls if fn.name == "__init__" else f"{cls}.{fn.name}"


def _defaulted(fn: ast.AST, cls) -> dict:
    """``name -> "Owner.name"`` for each parameter of ``fn`` with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]
    return {arg.arg: f"{_owner(fn, cls)}.{arg.arg}" for arg in named}


def _calls() -> dict:
    """callee name -> ``(positional count, keyword names, forwards)`` of
    every call under ``src/`` and ``benchmarks/``; a ``super().__init__``
    call counts as a call of each base of its class, and ``once(f, ...)``
    as a call of ``f``.  A ``*args`` reaches every later positional;
    a ``**kwargs`` names nothing: a forwarding ``__init__`` is followed
    through its class instead (``_model_parameters``).  ``forwards``
    maps an argument (its position or keyword) that is the calling
    function's own defaulted parameter to that parameter's
    ``Owner.name``: it passes on whatever the caller was given."""
    out: dict = {}

    def record(name, call: ast.Call, args, own: dict) -> None:
        positional = 0
        forwards = {}
        for arg in args:
            if isinstance(arg, ast.Starred):
                positional = KEYWORD_ONLY
                break
            if isinstance(arg, ast.Name) and arg.id in own:
                forwards[positional] = own[arg.id]
            positional += 1
        keywords = {k.arg for k in call.keywords if k.arg}
        for k in call.keywords:
            if k.arg and isinstance(k.value, ast.Name) and k.value.id in own:
                forwards[k.arg] = own[k.value.id]
        out.setdefault(name, []).append((positional, keywords, forwards))

    def walk(node: ast.AST, bases: tuple, cls, own: dict) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, tuple(getattr(b, "id", "") for b in child.bases), child.name, {})
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, bases, None, _defaulted(child, cls))
                continue
            if isinstance(child, ast.Call):
                if _is_super_init(child):
                    for base in bases:
                        record(base, child, child.args, own)
                elif _callee(child) in APPLIERS and child.args:
                    applied = child.args[0]
                    name = getattr(applied, "id", getattr(applied, "attr", None))
                    record(name, child, child.args[1:], own)
                else:
                    name = _callee(child)
                    if name is not None:
                        record(name, child, child.args, own)
            walk(child, bases, cls, own)

    for path in CALLER_FILES:
        walk(ast.parse(path.read_text()), (), None, {})
    return out


def _is_config(cls: ast.ClassDef) -> bool:
    """A ``@dataclass(frozen=True)``: its fields are what a caller
    configures.  A mutable one is a result record its builder fills
    (``ScopeReport``, ``RunOutcome``, ...), and its fields are not
    parameters."""
    return any(
        getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in cls.decorator_list
        if isinstance(d, ast.Call)
    )


def _is_init_field(item: ast.AnnAssign) -> bool:
    """False for a ``ClassVar`` or a ``field(init=False)``."""
    if "ClassVar" in ast.unparse(item.annotation):
        return False
    value = item.value
    return not (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in value.keywords
        )
    )


def _model_parameters():
    """``(owner, param, reach)`` for every parameter with a default and
    every config dataclass field under ``src/repro``, but those of an
    ``ALLOWED`` definition (a reference only tests run); ``reach`` maps
    each callee name that can set it to the positionals a call of that
    name passes to reach it (``replace`` sets a field by keyword only)."""
    subclasses: dict = {}
    for path, tree in _src().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    subclasses.setdefault(getattr(base, "id", None), []).append(node)

    def forwards(cls: ast.ClassDef) -> bool:
        """True when ``cls`` inherits ``__init__`` or its own takes
        ``*args, **kwargs`` (and passes them up)."""
        return all(
            item.args.vararg and item.args.kwarg
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        )

    def constructors(cls: ast.ClassDef) -> set:
        """The names a call of ``cls.__init__`` goes by: the class, and
        each subclass that forwards to it."""
        names = {cls.name}
        for sub in subclasses.get(cls.name, []):
            if forwards(sub):
                names |= constructors(sub)
        return names

    for path, tree in _src().items():
        if path in ALLOWED:
            continue
        owners = {
            id(item): cls
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            cls = owners.get(id(node))
            if getattr(cls, "name", None) in ALLOWED or getattr(node, "name", None) in ALLOWED:
                continue
            if isinstance(node, ast.ClassDef) and _is_config(node):
                fields = [
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and _is_init_field(item)
                ]
                for i, field in enumerate(fields):
                    reach = dict.fromkeys(constructors(node), i)
                    yield node.name, field, {**reach, "replace": KEYWORD_ONLY}
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
            ) else 0
            if cls is not None and node.name == "__init__":
                owner, names = cls.name, constructors(cls)
            else:
                owner = f"{cls.name}.{node.name}" if cls is not None else node.name
                names = {node.name}
            first_default = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional):
                if i >= first_default:
                    yield owner, arg.arg, dict.fromkeys(names, i - skip)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield owner, arg.arg, dict.fromkeys(names, KEYWORD_ONLY)


def _unset_model_parameters() -> list:
    """Every model parameter no call sets, to a fixpoint: an argument
    that only forwards the caller's own defaulted parameter sets
    nothing until that parameter is set."""
    calls = _calls()
    params = [(f"{owner}.{param}", param, reach) for owner, param, reach in _model_parameters()]
    keys = {key for key, _, _ in params}
    done: set = set()

    def sets(param, position, call) -> bool:
        positional, keywords, forwards = call
        if param in keywords:
            source = forwards.get(param)
        elif positional > position:
            source = forwards.get(position)
        else:
            return False
        return source is None or source in done or source not in keys

    grew = True
    while grew:
        grew = False
        for key, param, reach in params:
            if key not in done and any(
                sets(param, position, call)
                for name, position in reach.items()
                for call in calls.get(name, ())
            ):
                done.add(key)
                grew = True
    return sorted(keys - done)


def test_every_model_parameter_has_a_caller():
    """A parameter with a default, or a config dataclass field, under
    ``src/repro`` is set by some call or
    ``replace(...)`` under ``src/`` or ``benchmarks/`` (name-level, as
    above): with one value in use it is a constant, not an option.  A
    test that needs another value sets the instance attribute."""
    unset = _unset_model_parameters()
    assert [p for p in unset if p not in ALLOWED_PARAMETERS] == []
    assert sorted(set(ALLOWED_PARAMETERS) - set(unset)) == [], "allow-listed, but set"
    assert len(ALLOWED_PARAMETERS) <= 3
