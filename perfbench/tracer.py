"""Spans and counters recorded around symon's functions from outside symon.

symon's modules import each other's functions by name (``from .x import f``),
so a function is replaced in every symon module that holds it, not only in
the module that defines it.  Methods are replaced on their class.

Spans nest per thread.  A span's self time is its duration minus the spans
it encloses.  When a wrapped function returns a generator, every resumption
of that generator is timed under the function's name, so a lazy scan is
charged to the function that produced it and not to its consumer.
"""

from __future__ import annotations

import functools
import sys
import threading
import types
from time import perf_counter

_DONE = object()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # (open-span stack of enclosed time, spans, counts)
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append(state[1:])
        return state

    def _close(self, name: str, t0: float, calls: int) -> None:
        dt = perf_counter() - t0
        stack, spans, _ = self._state()
        inner = stack.pop()
        if stack:
            stack[-1] += dt
        rec = spans.get(name)
        if rec is None:
            rec = spans[name] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - inner

    def count(self, name: str, n) -> None:
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + n

    def _tally(self, name: str, tally, args, value) -> None:
        if tally is not None:
            for key, n in tally(args, value).items():
                self.count(f"{name}.{key}", n)

    def span(self, name: str, fn, tally=None):
        """Wrap fn in a span.

        tally(args, result) returns extra counts; for a generator it runs on
        each item the generator yields.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state()[0].append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0, 1)
            if isinstance(result, types.GeneratorType):
                return self._timed(name, result, tally, args)
            self._tally(name, tally, args, result)
            return result
        return wrapper

    def _timed(self, name: str, gen, tally, args):
        while True:
            self._state()[0].append(0.0)
            t0 = perf_counter()
            try:
                item = next(gen, _DONE)
            finally:
                self._close(name, t0, 0)
            if item is _DONE:
                return
            self._tally(name, tally, args, item)
            yield item

    def counter(self, name: str, fn):
        """Wrap fn to count its calls only: for functions too hot to time."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name, 1)
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` (dotted for a method) by make(original)."""
        owner = sys.modules[module]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[last]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                setattr(owner, last, classmethod(make(raw.__func__)))
            else:
                setattr(owner, last, make(raw))
            return
        wrapped = make(raw)
        for name, mod in list(sys.modules.items()):
            if name == "symon" or name.startswith("symon."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def totals(self) -> tuple[dict, dict]:
        """Spans {name: [calls, seconds, self seconds]} and counts, all threads."""
        spans: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for t_spans, t_counts in threads:
            for name, rec in t_spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, n in t_counts.items():
                counts[name] = counts.get(name, 0) + n
        return spans, counts
