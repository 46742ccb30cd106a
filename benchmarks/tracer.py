"""Spans recorded from outside the program, around the public names it calls.

The tracer swaps a module attribute or a class method for a wrapper that
times the call, keeps a stack of open spans so each span knows its parent,
and folds the span into running totals, so memory stays constant however
many calls a run makes.  A call made inside an open span of the same name
is part of that span, not a new one: a composed operator's product calls
its parts' products, and only the outermost product is one matvec.

Totals are keyed ``<span>.calls``, ``.time`` (seconds), ``.self`` (time no
child span covers), ``.peak_max`` and ``.peak_sum`` (tracemalloc bytes,
for hooks with ``peak``), ``.work`` (a count read from the result) and
``<span><<parent>.calls``; a hook's ``count`` counter is bumped on every
call, nested or not.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One wrapped name.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  ``peak``
    takes the tracemalloc peak inside the span; ``work`` maps the call's
    result to a count (edges sampled, steps taken).
    """

    target: str
    span: str
    count: str | None = None
    peak: bool = False
    work: Callable | None = None


def resolve(target: str):
    """(owner, attribute name, current value) of a hook target, or None
    when the module, class or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Installs hooks, records spans into totals, and removes the hooks."""

    def __init__(self, hooks):
        self.hooks = list(hooks)
        self.missing = [h.target for h in self.hooks if resolve(h.target) is None]
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    @property
    def missing_names(self) -> set[str]:
        """Span and counter names fed by at least one missing hook."""
        names = set()
        for h in self.hooks:
            if h.target in self.missing:
                names.add(h.span)
                if h.count:
                    names.add(h.count)
        return names

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("hooks already installed")
        for h in self.hooks:
            found = resolve(h.target)
            if found is None:
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self._wrap(h, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)

    def call(self, span: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span of the given name."""
        return self._timed(span, None, fn, args, kwargs)

    def _wrap(self, hook: Hook, fn):
        totals = self.totals
        stack = self._stack

        def wrapper(*args, **kwargs):
            if hook.count:
                totals[hook.count] += 1
            if stack and stack[-1][0] == hook.span:
                return fn(*args, **kwargs)
            return self._timed(hook.span, hook, fn, args, kwargs)

        # Classes are wrapped too (operator constructors): copy names only.
        return functools.update_wrapper(wrapper, fn, updated=())

    def _timed(self, span: str, hook: Hook | None, fn, args, kwargs):
        totals = self.totals
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [span, 0.0]
        stack.append(frame)
        peak = hook is not None and hook.peak
        if peak:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                totals[span + ".peak_sum"] += peak_bytes
                if peak_bytes > totals[span + ".peak_max"]:
                    totals[span + ".peak_max"] = peak_bytes
            stack.pop()
            if stack:
                stack[-1][1] += dt
            totals[span + ".calls"] += 1
            totals[span + ".time"] += dt
            totals[span + ".self"] += dt - frame[1]
            if parent is not None:
                totals[f"{span}<{parent}.calls"] += 1
        if hook is not None and hook.work is not None:
            totals[span + ".work"] += hook.work(result)
        return result
