"""The six spinorcalc modules seen as benchmark layers, from outside.

Nothing here edits the package.  Layers are read through their module
namespaces: memo caches are found by duck typing (anything with
``cache_clear`` and ``cache_info`` that the module itself defines), and
public functions are listed so the span recorder can wrap them.
"""

from __future__ import annotations

import importlib
import inspect
from types import ModuleType

LAYERS = ("rootdata", "bbw", "sections", "intersect", "mukai", "cli")

# Layers whose cold path is defined by their memo caches.  If a refactor
# leaves one of them without any cache, the cold/warm distinction the
# workloads rely on is no longer known, so discovery fails instead of
# silently measuring a different regime.
CACHED_LAYERS = ("rootdata", "bbw", "intersect", "mukai")

# Cache groups the traced run reports: metric prefix -> (layer, name
# fragments).  An empty fragment tuple selects every cache of the layer.
CACHE_GROUPS = {
    "rootdata.lr_cache": ("rootdata", ("lr", "tensor")),
    "bbw.irreducible_cache": ("bbw", ("irreducible",)),
    "intersect.cache": ("intersect", ()),
    "mukai.cache": ("mukai", ()),
}


def load_modules() -> dict[str, ModuleType]:
    return {layer: importlib.import_module(f"spinorcalc.{layer}") for layer in LAYERS}


def _defined_here(obj, mod: ModuleType) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def public_functions(mods: dict[str, ModuleType]) -> list[tuple[str, str, object]]:
    """(layer, name, function) for each public module-level function a layer defines.

    Memoized functions count too: they are callables carrying ``cache_info``.
    """
    out = []
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not _defined_here(obj, mod):
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                out.append((layer, name, obj))
    return out


class CacheSet:
    """Every memo cache of the six layers, with hit/miss totals across resets.

    Build it before any wrapping, so it holds the cache objects themselves.
    """

    def __init__(self, mods: dict[str, ModuleType]) -> None:
        self.caches: dict[tuple[str, str], object] = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (_defined_here(obj, mod) and callable(getattr(obj, "cache_clear", None))
                        and callable(getattr(obj, "cache_info", None))):
                    self.caches[(layer, name)] = obj
        bare = [layer for layer in CACHED_LAYERS
                if not any(key[0] == layer for key in self.caches)]
        if bare:
            raise RuntimeError(f"expected memo caches in layer(s) {', '.join(bare)}, found none")
        for group in CACHE_GROUPS:
            if not self.group(group):
                raise RuntimeError(f"no cache matches the {group} group")
        # (layer, name) -> [hits, misses, largest size seen at a reset]
        self.totals: dict[tuple[str, str], list[int]] = {}

    def group(self, group: str) -> list[tuple[str, str]]:
        layer, fragments = CACHE_GROUPS[group]
        return [key for key in self.caches
                if key[0] == layer and (not fragments or any(f in key[1] for f in fragments))]

    def reset(self) -> None:
        """Fold each cache's counters into the totals, clear it and check it is empty."""
        for key, cache in self.caches.items():
            info = cache.cache_info()
            total = self.totals.setdefault(key, [0, 0, 0])
            total[0] += info.hits
            total[1] += info.misses
            total[2] = max(total[2], info.currsize)
            cache.cache_clear()
            if cache.cache_info().currsize != 0:
                raise RuntimeError(f"{key[0]}.{key[1]} still holds entries after cache_clear")

    def clear_totals(self) -> None:
        self.totals = {}

    def hit_ratio(self, group: str) -> float:
        hits = sum(self.totals.get(key, (0, 0, 0))[0] for key in self.group(group))
        misses = sum(self.totals.get(key, (0, 0, 0))[1] for key in self.group(group))
        return hits / (hits + misses) if hits + misses else 0.0

    def peak_entries(self, group: str) -> int:
        return sum(self.totals.get(key, (0, 0, 0))[2] for key in self.group(group))
