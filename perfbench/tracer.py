"""Per-function call tracer that works from outside the traced package.

`Tracer.install(prefix)` wraps every public module-level function defined in
a loaded module under `prefix` and rebinds the wrapper wherever a loaded
module of that package holds the original object (the defining module, the
modules that imported the name, the package re-exports).  Calls made through
those names are then counted and timed; nothing inside the package changes.

A split function can file a call under a sub-key as well (a layer width,
say), and an observer sees each call's arguments and result.

Self time is a call's wall time minus the wall time of wrapped calls nested
inside it.  Names that do not exist are simply never seen, so callers ask for
them with `stats(...)` and get `None` back: a function removed or renamed by
a later change reads as absent, not as an error.

The span stack is a plain list, so a traced program must call the wrapped
functions from one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Maps a call's arguments to a sub-key (such as a layer width) or None.
SplitFn = Callable[[tuple, dict], "str | None"]
# Sees a call's arguments and its return value.
ObserveFn = Callable[[tuple, dict, object], None]


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    start: float
    child_s: float = 0.0  # wall time of wrapped calls nested in this one


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    table: dict[str, Stats] = field(default_factory=dict)
    splits: dict[str, SplitFn] = field(default_factory=dict)
    observers: dict[str, ObserveFn] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)

    def wrap(self, key: str, fn: Callable) -> Callable:
        """Return a wrapper of `fn` that records its spans under `key`."""
        split = self.splits.get(key)
        observe = self.observers.get(key)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sub = split(args, kwargs) if split is not None else None
            frame = _Frame(clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - frame.start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                self._record(key, elapsed, elapsed - frame.child_s)
                if sub is not None:
                    self._record(f"{key}.{sub}", elapsed, elapsed - frame.child_s)

        traced.__wrapped_by_tracer__ = True
        return traced

    def _record(self, key: str, total: float, self_time: float) -> None:
        entry = self.table.get(key)
        if entry is None:
            entry = self.table[key] = Stats()
        entry.calls += 1
        entry.total_s += total
        entry.self_s += self_time

    def install(self, prefix: str) -> list[str]:
        """Wrap the public functions of every loaded `prefix` module.

        Returns the keys wrapped, as `<module>.<function>` with the package
        prefix dropped (`dccl.gpm.decode` -> `gpm.decode`).
        """
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        wrappers: dict[int, Callable] = {}
        keys = []
        for module in modules:
            short = module.__name__[len(prefix) + 1 :] or module.__name__
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or getattr(obj, "__wrapped_by_tracer__", False)
                ):
                    continue
                key = f"{short}.{name}"
                wrappers[id(obj)] = self.wrap(key, obj)
                keys.append(key)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
        return keys

    def stats(self, key: str) -> Stats | None:
        return self.table.get(key)
