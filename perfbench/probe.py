"""Hooks the benchmark installs on spinsc's functions from outside.

A hook replaces one function or method everywhere spinsc refers to it, so a
call made through any module's imported name passes through it.  A hook can
run callbacks around every call (to capture a result or check counters) and,
while tracing is active, record a span: name, start, end, parent span and run
id.  A span's self time is its duration minus the time its child spans cover.

Spans are kept in memory; the caller writes them out at the end of a run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s")

    def __init__(self, name: str, start: float, parent: int, run: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


class Probe:
    """Owns the installed hooks, the span log, counters and captured results."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.run_id = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.captured: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans and counters --------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[self.run_id][name] += amount

    def self_times(self, run: int) -> dict[str, float]:
        """Self seconds per span name within one run id."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.run == run:
                out[span.name] += span.self_s
        return out

    def take(self, key: str) -> list:
        """Remove and return what hooks captured under key."""
        return self.captured.pop(key, [])

    # -- hooks ---------------------------------------------------------------
    def hook(self, owner: Any, attr: str, *, span: str | None = None,
             before: Callable[..., Any] | None = None,
             after: Callable[..., None] | None = None) -> bool:
        """Wrap owner.attr, a module function or a class attribute.

        before(*args, **kwargs) returns a token that is handed to
        after(token, result, *args, **kwargs); both run on every call, the
        span only while tracing is active.  Returns False, and notes the
        name in self.missing, when owner has no such attribute.
        """
        where = owner.__dict__ if isinstance(owner, type) else vars(owner)
        if attr not in where:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        raw = where[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        probe = self

        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            index = probe.open(span) if span is not None and probe.active else -1
            try:
                result = original(*args, **kwargs)
            finally:
                if index >= 0:
                    probe.close(index)
            if after is not None:
                after(token, result, *args, **kwargs)
            return result

        if isinstance(owner, type):
            self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            return True
        # A module function: rebind every spinsc name that refers to it.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "spinsc" or name.startswith("spinsc.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)
        return True

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def mark(self) -> int:
        return len(self._patches)

    def uninstall(self, mark: int = 0) -> None:
        """Undo the hooks installed since mark, newest first."""
        while len(self._patches) > mark:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
