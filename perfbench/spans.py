"""Per-layer self time, measured from outside the program.

The traced run replaces a layer's public functions with timing
wrappers (and puts the originals back afterwards); the program itself
is not changed.  Each wrapper is a span: its duration minus the time
of the wrapped calls it encloses is the layer's *self* time.  Spans
nest per thread.

Work done in forked worker processes cannot report back through the
parent's counters, so :meth:`Tracer.wrap_shared` accumulates into
process-shared values created before the fork.
"""

from __future__ import annotations

import inspect
import multiprocessing
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    """Self-time accumulators for a set of wrapped layer functions."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._shared: dict[str, Any] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: "str | Callable[[], str]", fn: Callable) -> Callable:
        """``fn`` wrapped as a span of ``layer`` (self time recorded)."""
        name_of = layer if callable(layer) else (lambda: layer)

        def traced(*args: object, **kwargs: object) -> object:
            stack = self._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                self.self_s[name_of()] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def _install(self, owner: object, attr: str, make: Callable) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original if own else None))

    def wrap(self, owner: object, attr: str, layer: "str | Callable[[], str]") -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``layer`` may be a zero-argument callable, asked at each call,
        for a layer whose time is split by what the caller is doing.
        """
        self._install(owner, attr, lambda fn: self.span(layer, fn))

    def wrap_shared(self, owner: object, attr: str, layer: str) -> None:
        """Time ``owner.attr`` into a process-shared total.

        For functions that run in forked workers.  These spans do not
        nest with the parent's (the worker time overlaps the parent's
        wait), so they never feed the parent's self-time stack.
        """
        total = self._shared.get(layer)
        if total is None:
            total = multiprocessing.get_context("fork").Value("d", 0.0)
            self._shared[layer] = total

        def make(fn: Callable) -> Callable:
            def traced(*args: object, **kwargs: object) -> object:
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    with total.get_lock():
                        total.value += elapsed

            return traced

        self._install(owner, attr, make)

    def totals(self) -> dict[str, float]:
        """Seconds per layer so far, shared (worker) layers included."""
        out = dict(self.self_s)
        for layer, total in self._shared.items():
            with total.get_lock():
                out[layer] = total.value
        return out

    def restore(self) -> None:
        """Put every wrapped function back (newest first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)  # the wrapper shadowed an inherited one
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Per-layer seconds spent between two :meth:`Tracer.totals` reads."""
    return {
        layer: value - before.get(layer, 0.0) for layer, value in after.items()
    }
