"""Order statistics and result printing shared by both benchmark modes."""

from __future__ import annotations

import json
import math
import re
from typing import Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MIN_BEYOND = 10  # a tail percentile needs this many samples past it


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 100."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank q-th percentile of n."""
    return n - math.ceil(q / 100 * n)


def tail_ok(n: int, q: float) -> bool:
    return beyond(n, q) >= MIN_BEYOND


class Report:
    """Metrics in print order: name -> (value, unit, sample note)."""

    def __init__(self):
        self.rows: dict[str, tuple[float, str, str]] = {}

    def add(self, name: str, value, unit: str, samples: str) -> None:
        if not NAME_RE.fullmatch(name) or not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad metric name or unit: {name!r} {unit!r}")
        if name in self.rows:
            raise ValueError(f"metric reported twice: {name}")
        self.rows[name] = (value, unit, samples)

    def table(self) -> str:
        width = max((len(n) for n in self.rows), default=0)
        lines = [f"{'metric'.ljust(width)}  {'value':>14}  {'unit':<10}  samples"]
        for name, (value, unit, samples) in self.rows.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"{name.ljust(width)}  {shown:>14}  {unit:<10}  {samples}")
        return "\n".join(lines)

    def result_line(self, correct: bool, attempted: int, failed: int) -> str:
        return json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in self.rows.items()},
        })
