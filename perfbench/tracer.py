"""Span tracing of cyclotile's public functions, installed from outside.

`instrument()` replaces every public function of the traced modules, and the
public methods, properties, static methods and `__init__` of the classes
they define, by wrappers that record a span.  It also rebinds the names
other modules imported by value (`cyclotile.reduce.verify_direct`, the
package namespace, ...), so calls made inside the library are seen.

A span is (name, start, end, parent span, op id).  Spans stay in memory in
flat arrays and are written once, at the end.  Self time is a span's
duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("zm", "multiset", "cyclo", "tiling", "structure", "reduce", "search", "io")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        # Inclusive time of spans with no enclosing span of the same name, so
        # recursive calls are not counted twice.
        self.outer = array("b")
        self.nonempty: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[int] = []
        self._active: dict[int, int] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        depth = self._active.get(nid, 0)
        self.outer.append(depth == 0)
        self._active[nid] = depth + 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[nid] -= 1

    def wrap(self, name: str, fn, count_nonempty: bool = False):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if count_nonempty and out:
                self.nonempty[name] = self.nonempty.get(name, 0) + 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, nid: int, fn):
        tracer = self
        name = self.names[nid]

        class TracedIterator:
            """Each next() is one span: the time spent inside the generator."""

            def __init__(self, gen):
                self._gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open(nid)
                try:
                    out = next(self._gen)
                finally:
                    tracer._close(idx, nid)
                tracer.yielded[name] = tracer.yielded.get(name, 0) + 1
                return out

        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "outer": np.array(self.outer, dtype=np.int8),
        }

    def summary(self, first_op: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls and inclusive seconds (outermost spans only);
        per layer: calls and self seconds.  Spans of ops before `first_op`
        are left out."""
        arr = self.arrays()
        n = arr["start"].size
        dur = arr["end"] - arr["start"]
        has_parent = arr["parent"] >= 0
        child = np.bincount(
            arr["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        keep = arr["op"] >= first_op
        ids, dur, self_time = arr["name_id"][keep], dur[keep], (dur - child)[keep]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur * (arr["outer"][keep] == 1), minlength=k)
        selfs = np.bincount(ids, weights=self_time, minlength=k)
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[name] = {"calls": int(calls[i]), "s": float(incl[i])}
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += int(calls[i])
            agg["self_s"] += float(selfs[i])
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _targets(layer_mod):
    """(attribute holder, attribute name, span name, original) to wrap."""
    layer = layer_mod.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(layer_mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != layer_mod.__name__:
            continue
        if inspect.isclass(obj):
            for name, member in list(vars(obj).items()):
                if name.startswith("_") and name != "__init__":
                    continue
                yield obj, name, f"{layer}.{attr}.{name}", member
        elif callable(obj):
            yield layer_mod, attr, f"{layer}.{attr}", obj


class Patch:
    """The wrapped bindings, which on() installs and off() takes out again."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object, object]] = []

    def on(self) -> None:
        for holder, attr, _, new in self.bindings:
            setattr(holder, attr, new)

    def off(self) -> None:
        for holder, attr, old, _ in self.bindings:
            setattr(holder, attr, old)


def instrument(tracer: Tracer, package: str = "cyclotile") -> Patch:
    """Wrap the public callables of every traced layer and rebind every
    module-level reference to them across the package.  The wrappers are
    installed; the returned Patch takes them out and puts them back."""
    mods = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
    replaced: dict[int, object] = {}
    patch = Patch()
    for mod in mods.values():
        for holder, attr, span, member in _targets(mod):
            nonempty = span == "search.find_complements"
            if isinstance(member, staticmethod):
                new = staticmethod(tracer.wrap(span, member.__func__))
            elif isinstance(member, classmethod):
                new = classmethod(tracer.wrap(span, member.__func__))
            elif isinstance(member, property):
                new = property(tracer.wrap(span, member.fget), member.fset, member.fdel)
            elif callable(member) and not inspect.isclass(member):
                new = tracer.wrap(span, member, count_nonempty=nonempty)
                replaced[id(member)] = new
            else:
                continue
            setattr(holder, attr, new)
            patch.bindings.append((holder, attr, member, new))
    # Names imported by value elsewhere still point at the originals.
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            new = replaced.get(id(obj))
            if new is not None and new is not obj:
                setattr(mod, attr, new)
                patch.bindings.append((mod, attr, obj, new))
    return patch
