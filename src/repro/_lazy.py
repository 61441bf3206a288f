"""PEP 562 package facades: a public name loads its defining module on
first use, so importing a package costs nothing its caller does not ask
for.  Stateless: nothing is cached on the facade, every access goes to
the defining module (a ``sys.modules`` hit after the first)."""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(namespace: Dict[str, Any], exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``; ``exports`` maps each public name to the (relative)
    module that defines it."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(import_module(module, package), name)

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
