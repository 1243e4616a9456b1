"""Span tracing of eccmat's layers from outside the package.

`Tracer.install()` rebinds every public function of the layer modules at
each place eccmat binds it (its defining module and every module that
imports it) to a wrapper that records a span. Nothing under src/ changes.
Spans live in flat arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("families", "graphs", "matrices", "exact", "spectra", "checks", "cli")

# Private cli functions that carry the serialization and the instance loop.
_CLI_PRIVATE = ("_emit", "_range_instances", "_fixed_battery")
_SINK_METHODS = ("add", "text")


def _layer_of(fn):
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("eccmat."):
        return None
    layer = module.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Records (name, start, end, parent, instance) for every wrapped call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.instance = array("I")
        self._stack: list = []
        self.current_instance = 0
        self.coeff_bits_max = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """A function that records a span around each call of `fn`."""
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_generator(self, nid: int, fn):
        # One span per item: the generator's own work between yields.
        # The instance loop also starts a new instance id per item.
        new_instance = fn.__name__ == "_range_instances"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if new_instance:
                    self.new_instance()
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def _note_poly(self, poly) -> None:
        bits = max(abs(c).bit_length() for c in poly.coeffs)
        if bits > self.coeff_bits_max:
            self.coeff_bits_max = bits

    def install(self) -> None:
        """Wrap the layers' functions at every eccmat module that binds them."""
        import eccmat.cli

        for layer in LAYERS:
            module = sys.modules[f"eccmat.{layer}"]
            for attr, value in list(vars(module).items()):
                fn_layer = _layer_of(value) if inspect.isfunction(value) else None
                if fn_layer is None:
                    continue
                private = attr.startswith("_")
                if private and not (layer == "cli" and attr in _CLI_PRIVATE):
                    continue
                name = f"{fn_layer}.{value.__name__}"
                after = self._note_poly if name == "exact.char_poly" else None
                setattr(module, attr, self.wrap(name, value, after))
        sink = getattr(eccmat.cli, "_VerdictSink", None)
        for method in _SINK_METHODS:
            fn = getattr(sink, method, None) if sink is not None else None
            if inspect.isfunction(fn):
                setattr(sink, method, self.wrap(f"cli._VerdictSink.{method}", fn))

    def new_instance(self) -> None:
        self.current_instance += 1

    def aggregate(self) -> dict:
        """Per span name: calls and self time (duration minus child spans)."""
        count = len(self.start)
        child = [0] * count
        start, end, parent = self.start, self.end, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += end[i] - start[i] - child[i]
        return {
            name: {"calls": calls[nid], "self_ns": self_ns[nid]}
            for nid, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tinstance\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.instance[i]}\n"
                )
