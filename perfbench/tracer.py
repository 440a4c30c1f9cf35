"""In-memory span tracer that wraps library functions from the outside.

The tracer replaces a function with a wrapper at every place a
``querybn`` module binds it: modules that import a function by name hold
their own reference, so patching only the defining module would miss
those call sites.  Methods are patched on their class.  Every binding is
restored when the :meth:`Tracer.patch` context exits.

A span records its name, start, end, the span that was open when it
started (its parent) and the run id it belongs to.  Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

# (result, args, kwargs) -> attributes stored on the span, or None
Hook = Callable[[Any, tuple, dict], "dict | None"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner`` is a module name or a class."""

    span: str
    owner: Any
    attr: str
    hook: Hook | None = None


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    run: str = ""
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """Wrapper that records a span around each call of ``fn``.

        The return value and any exception pass through untouched; the span
        is closed either way.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                span.attrs = hook(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, targets: Sequence[Target]) -> Iterator[None]:
        """Trace every target for the duration of the block."""
        restore: list[tuple[Any, str, Any]] = []
        try:
            for t in targets:
                if isinstance(t.owner, str):
                    original = getattr(importlib.import_module(t.owner), t.attr)
                    wrapper = self.wrap(t.span, original, t.hook)
                    for mod in _library_modules():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                restore.append((mod, key, value))
                                setattr(mod, key, wrapper)
                else:
                    original = t.owner.__dict__[t.attr]
                    restore.append((t.owner, t.attr, original))
                    setattr(t.owner, t.attr, self.wrap(t.span, original, t.hook))
            yield
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "attrs": s.attrs}))
                fh.write("\n")


def _library_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "querybn" or name.startswith("querybn."))]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out
