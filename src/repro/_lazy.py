"""Lazy re-exports for package ``__init__`` modules.

A package whose ``__init__`` imports the names it re-exports makes every
import of any of its modules pay for all of them: ``import
repro.obs.critical_path`` would load the engine, the placers and NumPy
through ``repro/__init__.py``.  :func:`lazy_exports` builds a module
``__getattr__`` that imports a re-exported name's submodule on the
name's first access instead, so ``from repro import build_load_model``
keeps working and importing one small module costs only that module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a relative submodule name (``".engine"``) to the
    names the package re-exports from it.  The first access of a name
    imports its submodule and caches the value in the package namespace,
    so later accesses are plain attribute lookups.
    """
    table = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
