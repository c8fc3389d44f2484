"""Spans at the boundaries between hopmap's modules.

A Tracer replaces a function, as bound in one module's namespace (or one
dict entry), by a wrapper that records a span: name, start, end and the
span that was open when it was called. Times are CPU seconds of the
process, like every time the benchmark reports. Spans stay in memory; the caller
writes them out once the run ends. `remove` restores every original
binding, so code that never installs a tracer runs unwrapped.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so that each call records a span called name. After the
        span ends, on_return(args, result) is called if given."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.process_time(), 0.0, parent)
            self.spans.append(span)
            self._open.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._open.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a traced wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.span(name, original, on_return)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self.span(name, original, on_return))
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every binding patched by this tracer, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by direct
        children. Calls are single-threaded and nested, so children of one
        span never overlap."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]
