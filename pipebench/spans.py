"""In-memory spans around the package's public functions.

The tracer patches functions by name from the outside, so the package
carries no instrumentation of its own. A name that no longer resolves (a
module or function deleted by a refactor) is recorded as absent and its
metrics read 0; it never stops the run. Spans are kept in a list and turned
into metrics after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "densigraph"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    stage: str
    start: float
    end: float
    ok: bool
    size: int  # work measured by the target's `size` hook (pixels, bytes), else 0


@dataclass(frozen=True)
class Target:
    """A function to wrap. ``where`` lists ``module:attr.path`` locations to
    try in order; the first that resolves is wrapped everywhere the package
    binds it."""

    name: str
    where: tuple[str, ...]
    namer: object = None  # (args, kwargs) -> span name, for dispatchers
    size: object = None  # (args, kwargs) -> int
    count_only: bool = False  # count calls per stage, record no span


def _resolve(location: str):
    module_name, _, path = location.partition(":")
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    owner, attr = None, None
    for part in path.split("."):
        owner, attr = obj, part
        try:
            obj = inspect.getattr_static(obj, part)
        except AttributeError:
            return None
    return owner, attr, obj


class Tracer:
    """Records spans while installed; ``close`` puts every function back."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.absent: list[str] = []
        self.stage = ""
        self._stage_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # resolve (and so import) every target before patching any, so that no
        # module binds a wrapper by `from ... import` while it is installed
        found = [(target, self._find(target)) for target in self.targets]
        self.absent = [target.name for target, where in found if where is None]
        for target, where in found:
            if where is not None:
                self._install(target, *where)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def _find(target: Target):
        for location in target.where:
            found = _resolve(location)
            if found is not None:
                return found
        return None

    def _install(self, target: Target, owner, attr: str, raw) -> None:
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapper = self._count(target, fn) if target.count_only else self._wrap(target, fn)
        if inspect.isclass(owner):
            self._patch(owner, attr, staticmethod(wrapper) if static else wrapper)
            return
        # module-level function: rebind it in every package module that holds it
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _count(self, target: Target, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (self.stage, target.name)
            with self._count_lock:
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.name
            size = target.size(args, kwargs) if target.size else 0
            stack = self._stack()
            # threads the stage starts (the density pool) parent to the stage
            parent = stack[-1] if stack else self._stage_id
            span_id = next(self._ids)
            stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, self.stage, start, end, ok, size))

        return traced

    def stage_span(self, stage: str, call):
        """Run ``call()`` as the root span ``cli.<stage>``; returns its result."""
        self.stage = stage
        self._stage_id = span_id = next(self._ids)
        self._stack().append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            result = call()
            ok = result == 0
            return result
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._stage_id = None
            self.spans.append(Span(span_id, None, f"cli.{stage}", stage, start, end, ok, 0))

    def take(self) -> tuple[list[Span], dict[tuple[str, str], int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.start
        for a, b in sorted(children.get(s.span_id, ())):
            a, b = max(a, end), min(b, s.end)
            if b > a:
                covered += b - a
                end = b
        out[s.span_id] = (s.end - s.start) - covered
    return out
