"""Machine-speed reference for the end-to-end timings.

The benchmark runs on shared machines whose speed swings by 20-60 % within
seconds to minutes while CPU time stays equal to wall time: the slowdown
is in hardware others share, not in scheduling.  Repeats inside one run
cannot remove that.  So the run also times a fixed kernel between items,
at most every `every_s` seconds, and scales each item's time by the mean
of the kernel times just before and just after it.  The kernel does the
kind of work the library does, and it never changes with the library:
frozen dataclasses hashed into dict and set indices, whole-index copies of
a small and of a large graph (small and large working sets slow down
differently), a breadth-first walk, and JSON lines written with a flush
per line and read back.

A time at nominal speed is raw seconds x ``NOMINAL_S / kernel seconds``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from statistics import median

NOMINAL_S = 0.025   # the kernel's time at nominal speed
SIDES = (20, 34)    # lattice sides of the kernel's small and large graphs
COPIES = 2
WAL_LINES = 100


@dataclass(frozen=True, order=True)
class _Edge:
    src: str
    dst: str
    direction: str
    step: int


def _graph_work(side: int) -> int:
    edges: dict[tuple, _Edge] = {}
    out: dict[tuple, set[_Edge]] = {}
    step = 0
    for x in range(side):
        for y in range(side):
            for direction, nx, ny in (("east", x + 1, y), ("north", x, y + 1)):
                if nx < side and ny < side:
                    e = _Edge(f"Room {x}-{y}", f"Room {nx}-{ny}", direction, step)
                    step += 1
                    edges[(e.src, e.direction, e.step)] = e
                    out.setdefault((e.src, e.direction), set()).add(e)
    for _ in range(COPIES):
        fresh_edges: dict[tuple, _Edge] = {}
        fresh_out: dict[tuple, set[_Edge]] = {}
        for e in edges.values():
            f = _Edge(e.src, e.dst, e.direction, e.step)
            fresh_edges[(f.src, f.direction, f.step)] = f
            fresh_out.setdefault((f.src, f.direction), set()).add(f)
        edges, out = fresh_edges, fresh_out
    seen = {"Room 0-0"}
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for direction in ("east", "north"):
            for e in sorted(out.get((node, direction), ())):
                if e.dst not in seen:
                    seen.add(e.dst)
                    queue.append(e.dst)
    return len(seen)


def kernel(path: Path) -> int:
    """A fixed unit of index, copy, walk and log work; returns a checksum."""
    total = sum(_graph_work(side) for side in SIDES)
    with open(path, "w", encoding="utf-8") as fh:
        for step in range(WAL_LINES):
            fh.write(json.dumps({"op": "+", "src": f"n{step}",
                                 "dst": f"n{step + 1}", "dir": "east",
                                 "step": step}) + "\n")
            fh.flush()
    with open(path, encoding="utf-8") as fh:
        total += sum(json.loads(line)["step"] for line in fh)
    path.unlink()
    return total


class SpeedReference:
    """Kernel timings; `scale()` turns raw seconds into nominal seconds."""

    def __init__(self, path: Path, every_s: float = 0.5,
                 clock=time.perf_counter, work=kernel):
        self.path = path
        self.every_s = every_s
        self.clock = clock
        self.work = work
        self.samples: list[float] = []
        self._last_at = float("-inf")

    def sample(self) -> int:
        """Time the kernel now; returns the sample's index."""
        start = self.clock()
        self.work(self.path)
        end = self.clock()
        self.samples.append(end - start)
        self._last_at = end
        return len(self.samples) - 1

    def maybe_sample(self) -> int:
        """Index of the latest sample, taking one if it is `every_s` old."""
        if self.clock() - self._last_at >= self.every_s:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Raw-to-nominal factor for work done between sample `before` and
        the next one (or after `before`, when it is the last)."""
        bracket = self.samples[before:before + 2]
        return NOMINAL_S * len(bracket) / sum(bracket)

    def median_ms(self) -> float:
        return 1e3 * median(self.samples)
