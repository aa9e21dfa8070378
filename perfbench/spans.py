"""In-memory span tracer and call-site patching for the traced benchmark run.

A span covers one call into a wrapped function: name, start, end, the span
that caused it, and the benchmark item being worked on.  Self time is the
span's duration minus the part of it its child spans cover.  Calls run on
one thread and nest strictly, so that coverage is the sum of the direct
children's durations, accumulated as each child closes.

Hot leaf calls (``keep=False``) are folded into their parent and the
per-name totals instead of being stored one record each: a repair pass
makes millions of ``NavGraph.out_edges`` calls.

Wrapping happens only inside ``patched``; untraced passes call the
library's own functions.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Optional


@dataclass
class _Frame:
    name: str
    start: float
    index: Optional[int]   # position in Tracer.spans, None when folded
    child_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One call site: `owner.attr` is looked up by the library's callers."""
    owner: object          # module or class whose attribute callers read
    attr: str
    name: str              # span name, "<layer>.<function>"
    keep: bool = True      # store one span record per call
    hook: Optional[Callable] = None  # hook(result, args) after the span


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 under: tuple[str, ...] = ()):
        self.clock = clock
        self.active = True
        self.item = ""
        self.spans: list[list] = []   # [name, start, end, parent, item, self_s]
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._under = under    # count spans nested under these names
        self._open: Counter = Counter()
        self._stack: list[_Frame] = []

    def begin(self, name: str, keep: bool = True) -> _Frame:
        index = None
        if keep:
            parent = self._stack[-1].index if self._stack else None
            index = len(self.spans)
            self.spans.append([name, None, None, parent, self.item, None])
        self._open[name] += 1
        frame = _Frame(name, self.clock(), index)
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        self._open[frame.name] -= 1
        duration = end - frame.start
        self_s = duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        calls, total, own = self.totals.get(frame.name, (0, 0.0, 0.0))
        self.totals[frame.name] = [calls + 1, total + duration, own + self_s]
        for outer in self._under:
            if self._open[outer] > 0:
                self.counters[f"{frame.name}@{outer}"] += 1
        if frame.index is not None:
            record = self.spans[frame.index]
            record[1], record[2], record[5] = frame.start, end, self_s

    def untimed(self, fn: Callable, *args) -> None:
        """Run bookkeeping so that no open span counts it as self time."""
        start = self.clock()
        fn(*args)
        if self._stack:
            self._stack[-1].child_s += self.clock() - start

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.begin(target.name, target.keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if target.hook is not None:
                tracer.untimed(target.hook, result, args)
            return result
        return traced

    def take_totals(self) -> tuple[dict, Counter]:
        """Per-name totals and counters since the last call; resets both."""
        out = (self.totals, self.counters)
        self.totals, self.counters = {}, Counter()
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, self_s in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "self_s": self_s,
                }) + "\n")


@contextmanager
def patched(tracer: Tracer, targets: list[Target]):
    """Replace each target with a traced wrapper; restore on exit."""
    saved = []
    try:
        for t in targets:
            original = vars(t.owner)[t.attr]  # KeyError: not defined there
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, t))
            else:
                wrapped = tracer.wrap(original, t)
            saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
