"""A do-nothing map adapter: replaying against it measures the dispatch floor.

Every operation returns at once with a "miss", so a replay against NullMap
costs the dispatch loop plus one method call per opcode (one per step for
iterator advances) and no map work. RefMap time minus NullMap time is the
share of a replay spent inside the map.
"""

from __future__ import annotations

from mapreplay.refmap import DEFAULT_CONFIG, MapAdapter, MapConfig, MapIterator, View


class NullIterator(MapIterator):
    __slots__ = ()

    def advance(self):
        return None

    def remove(self) -> None:
        return None


class NullMap(MapAdapter):
    __slots__ = ()

    def __init__(self, config: MapConfig = DEFAULT_CONFIG):
        pass

    @classmethod
    def copy_of(cls, source: MapAdapter, config: MapConfig = DEFAULT_CONFIG) -> "NullMap":
        return cls(config)

    def get(self, key):
        return None

    def put(self, key, value):
        return None

    def remove(self, key):
        return None

    def contains_key(self, key) -> bool:
        return False

    def clear(self) -> None:
        return None

    def size(self) -> int:
        return 0

    def iterator(self, view: View = View.ENTRIES) -> NullIterator:
        return NullIterator()
