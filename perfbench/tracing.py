"""Spans for the traced benchmark run, recorded from outside the package.

`Tracer.installed(targets)` replaces public planloc functions and methods
with wrappers that record one span per call and restores the originals on
exit; nothing under `src/` knows about it. A span holds its name, start and
end (perf_counter_ns), the index of the span that caused it, the id of the
operation (request or frame) it belongs to, and counts taken at the call
boundary. Spans stay in memory until `write` dumps them as JSON lines.

A layer is the first component of a span name (`registration.localize` ->
`registration`); its self time is the time its spans cover minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: int
    parent: int | None
    op: str | None
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


@dataclass(frozen=True)
class Target:
    """One function to trace: `owner.attr` (module or class), recorded under
    `name`; `probe(args, kwargs, result)` returns counts for the span."""

    owner: object
    attr: str
    name: str
    probe: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Root or explicit span; `op` tags it and every span opened inside."""
        previous = self.op
        if op is not None:
            self.op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.op = previous

    def _wrap(self, fn: Callable, name: str, probe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                span.attrs.update(probe(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block.

        A function imported by name into other modules (`from .registration
        import localize`) is replaced in each of them, so calls made from
        inside the package are traced too. Methods are replaced on their class.
        """
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "planloc" or k.startswith("planloc."))
        ]
        undo: list[tuple[object, str, object]] = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                wrapped = self._wrap(original, t.name, t.probe)
                if isinstance(t.owner, type):
                    undo.append((t.owner, t.attr, original))
                    setattr(t.owner, t.attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start_ns": s.start,
                            "end_ns": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )
