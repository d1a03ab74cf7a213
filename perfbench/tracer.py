"""Call tracer for the benchmark's traced pass.

``Tracer`` wraps the public functions of each cspmon layer from outside the
package: every module-level binding that refers to such a function (in the
defining module, in modules that imported it by name, and in the package
namespace) is pointed at a wrapper.  Calls between layers, calls through the
package namespace and recursive calls therefore all pass through it, and no
file of the package changes.

Per function it keeps the call count (recursive calls included), the time
of outermost entries only, and self time: a frame's time minus the time of
the frames opened inside it.  An outermost entry that crosses a layer
boundary (called from the benchmark or from another layer) is also recorded
as a span ``(id, name, start, end, parent span id)``, kept in memory up to a
cap and written out at the end.  A function that a later version of the package
renames or drops is simply absent from the stats.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "cspmon"
LAYERS = ("syntax", "terms", "sos", "monitor", "traces", "conformance")
SPAN_CAP = 100_000


@dataclass
class Stat:
    calls: int = 0
    depth: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        # Open frames: [child seconds, start, layer, span id, parent span id];
        # a frame inside its own layer carries the enclosing span's id.
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []
        self._cache_start: dict[str, tuple] = {}

    # -- installing ---------------------------------------------------------

    def install(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped where defined
                key = f"{layer}.{name}"
                self.stats[key] = Stat()
                self.originals[key] = obj
                wrappers[id(obj)] = self._wrap(key, obj)
                info = _cache_info(obj)
                if info is not None:
                    self._cache_start[key] = info
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        layer = key.split(".", 1)[0]

        if inspect.isgeneratorfunction(fn):
            # Each resumption is one entry, so only the generator's own work
            # is timed, never its consumer's.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = self._enter(stat, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(key, stat, frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.depth:
                stat.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat.depth -= 1
            frame = self._enter(stat, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, stat, frame)

        return wrapper

    def _enter(self, stat: Stat, layer: str) -> list:
        stat.depth = 1
        top = self._stack[-1] if self._stack else None
        if top is not None and top[2] == layer:
            frame = [0.0, 0.0, layer, top[3], None]
        else:
            frame = [0.0, 0.0, layer, self._next_id, top[3] if top else -1]
            self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, key: str, stat: Stat, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        stat.depth = 0
        child_s, start, _, span_id, parent = frame
        duration = end - start
        stat.total_s += duration
        stat.self_s += duration - child_s
        if self._stack:
            self._stack[-1][0] += duration
        if parent is None:
            return  # a call inside its own layer: no span
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, key, start, end, parent))
        else:
            self.spans_dropped += 1

    # -- reading ------------------------------------------------------------

    def cache_delta(self, key: str):
        """``(hits, misses, entries)`` since install, or None without a cache."""
        start = self._cache_start.get(key)
        info = _cache_info(self.originals.get(key))
        if start is None or info is None:
            return None
        return info[0] - start[0], info[1] - start[1], info[2]


def _cache_info(fn):
    try:
        info = fn.cache_info()
    except AttributeError:
        return None
    return info.hits, info.misses, info.currsize
