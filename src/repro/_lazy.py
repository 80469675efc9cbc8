"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes
every importer of *one* submodule pay for all of them: ``repro.solver``
loaded ``scipy.sparse`` into every process that only wanted a problem
dataclass, ``repro.runtime`` loaded ``asyncio`` and the service daemon
into every pool worker, ``repro.lint`` compiled every rule module for
every reader of the ruleset version.  :func:`lazy_exports` keeps the
public surface (``from package import name``, ``package.name``,
``package.submodule``, ``__all__``, ``dir()``) and defers each
submodule's import to the first use of a name it defines.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the ``__init__`` of ``package``.

    ``exports`` maps each re-exported name to the submodule (relative to
    ``package``) that defines it.  The submodule is imported when the
    name is first read and the value is then bound on the package, so
    the hook runs once per name; the submodules themselves resolve as
    attributes the same way.
    """
    submodules = frozenset(exports.values())

    def __getattr__(name: str) -> object:
        if name in exports:
            value = getattr(
                importlib.import_module(f"{package}.{exports[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package]))
                      | set(exports) | submodules)

    return __getattr__, __dir__
