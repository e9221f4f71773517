"""Lazy package surfaces (PEP 562).

Every package ``__init__`` of :mod:`repro` declares its public names
with :func:`surface` instead of importing its submodules, so importing
a package, or one submodule of it, loads only the code that is used.
A public name is imported from its submodule on each access, so the
package always shows the submodule's current attribute.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def surface(package: str, exports: Dict[str, Iterable[str]],
            modules: Iterable[str] = ()
            ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` of ``package``.

    ``exports`` maps a submodule path relative to ``package`` (dotted
    for one in a subpackage) to the names it provides; ``modules`` are
    submodules that are themselves public names.
    """
    owners = {name: f"{package}.{module}"
              for module, names in exports.items() for name in names}
    modules = tuple(modules)

    def __getattr__(name: str):
        if name in modules:
            return importlib.import_module(f"{package}.{name}")
        if name not in owners:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(owners[name]), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners)
                      | set(modules))

    return [*modules, *owners], __getattr__, __dir__
