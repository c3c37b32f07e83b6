"""In-memory span recorder for the traced run.

Each layer's public functions are wrapped from outside and the wrappers are
bound wherever callers look them up: the defining module, every other layer
module that imported the function (``sections.cohomology`` as well as
``bbw.cohomology``), and dicts at module level such as ``mukai.KERNELS``.
``CohClass.__mul__`` is wrapped on the class, since ring products are the
unit of work in ``intersect``.  A span is (name, start, end, parent, failed);
self time is a span's duration minus the durations of its direct children,
which in a single thread are nested inside it.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

# Extra methods to wrap: (layer, span name, module attribute of the class, method).
METHODS = (("intersect", "cohclass_mul", "CohClass", "__mul__"),)


class SpanRecorder:
    """Spans of one traced round, in parallel lists indexed by span number."""

    def __init__(self, keep: Callable[[str], bool] = lambda name: False) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.op_starts: list[int] = []    # first span number of each op
        self.kept: dict[int, tuple] = {}  # span number -> (args, result) where keep(name)
        self.keep = keep
        self._stack: list[int] = []

    def mark_op(self) -> None:
        self.op_starts.append(len(self.names))

    def wrap(self, name: str, fn):
        names, starts, ends, parents, failed = (
            self.names, self.starts, self.ends, self.parents, self.failed)
        stack, kept, keep = self._stack, self.kept, self.keep(name)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            failed.append(False)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[i] = True
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if keep:
                kept[i] = (args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def root_time(self) -> float:
        return sum(self.ends[i] - self.starts[i]
                   for i, parent in enumerate(self.parents) if parent < 0)

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line, times in microseconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\tfailed\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{(self.starts[i] - t0) * 1e6:.1f}\t"
                         f"{(self.ends[i] - t0) * 1e6:.1f}\t{int(self.failed[i])}\n")


class Installed:
    """Wrappers bound into the layer namespaces; ``remove`` restores the originals."""

    def __init__(self, recorder: SpanRecorder, mods: dict[str, ModuleType],
                 functions: list[tuple[str, str, object]]) -> None:
        self._undo: list[tuple] = []
        wrapped = {id(fn): recorder.wrap(f"{layer}.{name}", fn) for layer, name, fn in functions}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrapped:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = wrapped[id(value)]
        for layer, name, cls_attr, method in METHODS:
            cls = getattr(mods[layer], cls_attr)
            original = cls.__dict__[method]
            self._undo.append((setattr, cls, method, original))
            setattr(cls, method, recorder.wrap(f"{layer}.{name}", original))

    def remove(self) -> None:
        for put, target, key, original in reversed(self._undo):
            put(target, key, original)
        self._undo = []
