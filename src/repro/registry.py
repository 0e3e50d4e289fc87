"""Generic component registry with decorator-based registration.

The simulation stack is a cross-product of pluggable components —
predictors, Branch Runahead configurations, named experiment variants,
benchmarks.  Each family keeps a
:class:`Registry` instance and exposes a ``register_*`` decorator,
replacing the hand-maintained literal dicts the harness grew up with
(``PREDICTOR_FACTORIES``, ``VARIANTS``, the ``BENCHMARKS`` list):

    @register_predictor("tage64", predictor_only=True)
    def tage64():
        return tage_scl_64kb()

Entries keep registration (insertion) order — the paper's figures plot
benchmarks in a fixed order, so order is meaningful — while
:meth:`Registry.names` offers a stable sorted view for CLI discovery.
Duplicate names raise immediately (a silent overwrite would let two
modules fight over a component), and unknown lookups raise
:class:`UnknownComponentError` with near-miss suggestions.
"""

from __future__ import annotations

import difflib
from typing import Any, Dict, Iterator, List, Optional, Tuple


class RegistryError(ValueError):
    """Invalid registration (duplicate name, bad metadata)."""


class UnknownComponentError(KeyError):
    """Lookup of a name the registry has never seen.

    Subclasses :class:`KeyError` so existing ``except KeyError`` /
    ``pytest.raises(KeyError)`` call sites keep working; the message names
    the component kind, close matches, and the full (sorted) choice list.
    """

    def __init__(self, kind: str, name: str, known: List[str]):
        self.kind = kind
        self.name = name
        self.known = sorted(known)
        suggestions = difflib.get_close_matches(name, known, n=3,
                                                cutoff=0.5)
        message = f"unknown {kind} {name!r}"
        if suggestions:
            message += ("; did you mean "
                        + " or ".join(repr(s) for s in suggestions) + "?")
        message += f" (choose from {self.known})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError str() would repr() the message
        return self.args[0]


class Entry:
    """One registered component: its name, the object, and free-form meta."""

    __slots__ = ("name", "obj", "meta")

    def __init__(self, name: str, obj: Any, meta: Dict[str, Any]):
        self.name = name
        self.obj = obj
        self.meta = meta

    def __repr__(self) -> str:
        return f"Entry({self.name!r}, {self.obj!r}, {self.meta!r})"


class Registry:
    """Insertion-ordered name → component mapping with decorator support."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Entry] = {}

    # -- registration -----------------------------------------------------

    def register(self, name: str, obj: Optional[Any] = None,
                 **meta: Any) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        ``register("x", thing)`` registers directly and returns ``thing``;
        ``@register("x")`` decorates.  Either way the object comes back
        unchanged, so decorating a function leaves it callable under its
        own name.
        """
        if obj is None:
            def decorator(target: Any) -> Any:
                return self.register(name, target, **meta)
            return decorator
        if not name or not isinstance(name, str):
            raise RegistryError(
                f"{self.kind} name must be a non-empty string, "
                f"got {name!r}")
        if name in self._entries:
            raise RegistryError(
                f"duplicate {self.kind} {name!r} (already registered as "
                f"{self._entries[name].obj!r})")
        self._entries[name] = Entry(name, obj, meta)
        return obj

    def unregister(self, name: str) -> None:
        """Remove an entry (test isolation for toy components)."""
        if name not in self._entries:
            raise UnknownComponentError(self.kind, name, list(self._entries))
        del self._entries[name]

    # -- lookup -----------------------------------------------------------

    def entry(self, name: str) -> Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownComponentError(self.kind, name, list(self._entries))
        return entry

    def get(self, name: str) -> Any:
        return self.entry(name).obj

    def meta(self, name: str) -> Dict[str, Any]:
        return self.entry(name).meta

    # -- views ------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def names(self, sort: bool = False) -> List[str]:
        """Names in registration order; ``sort=True`` for the stable
        alphabetical view the CLI lists."""
        names = list(self._entries)
        return sorted(names) if sort else names

    def items(self) -> List[Tuple[str, Any]]:
        return [(name, entry.obj) for name, entry in self._entries.items()]

    def entries(self) -> List[Entry]:
        return list(self._entries.values())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {list(self._entries)})"
