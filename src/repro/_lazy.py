"""Lazy package surface (PEP 562): a package lists what it exports and
imports each name's module on first use, so ``import repro.service``
loads what the caller runs and not every sibling of it.

A package ``__init__`` keeps its ``from .x import ...`` lines under
``if TYPE_CHECKING:`` (type checkers read those) and ends with
``__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {".x": (...)})``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` from a ``{relative module: names}`` table."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name in home:
            # Cached in the package's globals: the hook fires once per name.
            value = namespace[name] = getattr(import_module(home[name], package), name)
            return value
        try:  # ``pkg.submodule`` without a prior import, as eager packages allowed
            return import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, sorted(home)
