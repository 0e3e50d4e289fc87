"""Hierarchical statistic registry.

The Scarab infrastructure behind the paper's evaluation dumps every counter
of every mechanism into a structured stats database; each figure is a query
over that database.  :class:`StatRegistry` is our equivalent: a flat
dot-namespaced store of typed statistics (``core.fetch.mispredicts``,
``dce.chains.launched``, ``pq.occupancy``) that every stats object in the
simulator registers into, replacing the free-form ``summary()`` strings as
the machine-readable path.

Three stat kinds:

* :class:`Counter` — monotonically accumulated integer (events).
* :class:`Gauge` — point-in-time value (occupancy, ratios, seconds).
* :class:`Histogram` — distribution with count/mean/min/max/percentiles.

``scope(prefix)`` returns a namespaced view, so a mechanism registers its
stats without knowing where it sits in the hierarchy.  One registry
describes one run; its nested :meth:`StatRegistry.to_dict` export is the
``stats`` section of that run's result payload.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically accumulated event count."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (used when mirroring an existing field)."""
        self.value = value

    def export(self) -> Number:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0.0

    def set(self, value: Number) -> None:
        self.value = value

    def export(self) -> Number:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A value distribution; exports count/mean/min/max and percentiles."""

    kind = "histogram"
    __slots__ = ("name", "values")

    #: Percentiles included in :meth:`export`.
    EXPORT_PERCENTILES = (50, 90, 99)

    def __init__(self, name: str):
        self.name = name
        self.values: List[Number] = []

    def record(self, value: Number) -> None:
        self.values.append(value)

    def record_many(self, values: Iterable[Number]) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> Number:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, p: float) -> Number:
        """Nearest-rank percentile; 0 for an empty histogram."""
        if not self.values:
            return 0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(self.values)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil, 1-based
        return ordered[int(rank) - 1]

    def export(self) -> Dict[str, Number]:
        if not self.values:
            return {"count": 0, "mean": 0.0, "min": 0, "max": 0,
                    **{f"p{p}": 0 for p in self.EXPORT_PERCENTILES}}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": min(self.values),
            "max": max(self.values),
            **{f"p{p}": self.percentile(p)
               for p in self.EXPORT_PERCENTILES},
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


Stat = Union[Counter, Gauge, Histogram]


class StatScope:
    """A namespaced view of a registry: every name gains ``prefix.``."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "StatRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix

    def _qualify(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._qualify(name))

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._qualify(name))

    def histogram(self, name: str) -> Histogram:
        return self._registry.histogram(self._qualify(name))

    def scope(self, sub: str) -> "StatScope":
        return StatScope(self._registry, self._qualify(sub))


class StatRegistry:
    """Flat store of dot-namespaced stats with nested dict/JSON export."""

    def __init__(self):
        self._stats: Dict[str, Stat] = {}

    # -- creation / lookup ---------------------------------------------------

    def _get_or_create(self, name: str, cls):
        stat = self._stats.get(name)
        if stat is None:
            if not name or name.startswith(".") or name.endswith("."):
                raise ValueError(f"malformed stat name {name!r}")
            stat = cls(name)
            self._stats[name] = stat
            return stat
        if not isinstance(stat, cls):
            raise TypeError(
                f"stat {name!r} already registered as {stat.kind}, "
                f"requested {cls.kind}")
        return stat

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def scope(self, prefix: str) -> StatScope:
        return StatScope(self, prefix)

    def get(self, name: str) -> Optional[Stat]:
        return self._stats.get(name)

    def names(self) -> List[str]:
        return sorted(self._stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    # -- export ----------------------------------------------------------------

    def to_flat_dict(self) -> Dict[str, Union[Number, Dict[str, Number]]]:
        """``{"core.fetch.mispredicts": 12, ...}`` in sorted name order."""
        return {name: self._stats[name].export() for name in self.names()}

    def to_dict(self) -> Dict:
        """Nested dict keyed by namespace components."""
        tree: Dict = {}
        for name in self.names():
            parts = name.split(".")
            node = tree
            for part in parts[:-1]:
                existing = node.get(part)
                if not isinstance(existing, dict):
                    # a leaf stat shadows an inner namespace; nest its value
                    existing = {} if existing is None \
                        else {"_value": existing}
                    node[part] = existing
                node = existing
            leaf = self._stats[name].export()
            if isinstance(node.get(parts[-1]), dict):
                node[parts[-1]]["_value"] = leaf
            else:
                node[parts[-1]] = leaf
        return tree

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
