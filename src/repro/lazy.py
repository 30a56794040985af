"""Package façades that import a name's module when the name is first read.

A package ``__init__`` re-exports its public names so callers can write
``from repro.faults import RandomLoss``.  Importing every module behind
those names up front would make ``import repro.faults.plan`` pay for
the injector and the watchdog as well, and a run pays for what it
touches.  A façade built here imports nothing: PEP 562's module
``__getattr__`` imports the name's module on first access and stores
the value on the package, so every later read is a plain attribute
lookup (DESIGN.md "An import pays for what the run touches").

Usage, in a package ``__init__``::

    __getattr__, __dir__, __all__ = exports(
        __name__, {"plan": ("FaultPlan", "RandomLoss"), "watchdog": ("StallWatchdog",)}
    )
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``table[submodule]``, each read from ``package.submodule``."""
    home = {
        name: f"{package}.{submodule}"
        for submodule, names in table.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
