"""Lazy package exports (PEP 562).

Each package ``__init__`` under :mod:`repro` names its exports in a
table from submodule to names instead of importing those submodules.
:func:`lazy_exports` turns the table into the package's module-level
``__getattr__`` and ``__dir__``. The first access to an exported name
imports the submodule that defines it and binds the name in the
package, so later accesses are plain global lookups. Importing a
package therefore runs only the submodules whose names are used;
``from repro.X import Name`` and ``from repro.X import *`` work as if
the package had imported everything.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    table: Dict[str, Iterable[str]],
    built: Optional[Dict[str, Callable[[], object]]] = None,
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule, relative to ``package`` (".driver",
    "..workloads.request"), to the names the package re-exports from
    it. ``built`` maps a name to the function that builds its value on
    first access (a registry that has to import every entry).
    """
    namespace = sys.modules[package].__dict__
    source = {name: module for module, names in table.items() for name in names}
    built = built or {}

    def __getattr__(name: str):
        if name in built:
            value = built[name]()
        elif name in source:
            value = getattr(import_module(source[name], package), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source) | set(built))

    return __getattr__, __dir__
