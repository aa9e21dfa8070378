"""Repair-session metrics and benchmark table emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

OUTCOME_REPAIRED = "repaired"
OUTCOME_EXHAUSTED = "exhausted"

# the metrics in the order `Metrics.to_json`, the table and the CSV give them
METRICS = ("avg_loops", "total_conflicts", "repaired", "correct",
           "repair_rate_pct", "accuracy_pct")


@dataclass(frozen=True)
class Metrics:
    avg_loops: Optional[float]
    total_conflicts: int
    repaired: int
    correct: Optional[int]

    @property
    def repair_rate_pct(self) -> Optional[float]:
        if self.total_conflicts == 0:
            return None
        return 100.0 * self.repaired / self.total_conflicts

    @property
    def accuracy_pct(self) -> Optional[float]:
        # undefined rather than zero when nothing was repaired
        if self.correct is None or self.repaired == 0:
            return None
        return 100.0 * self.correct / self.repaired

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in METRICS}


def compute_metrics(sessions: Sequence, ledger=None, graph=None) -> Metrics:
    """Aggregate repair sessions.

    A session counts as correct when it ended repaired and the final graph
    matches ground truth at every ledger fault that could have produced a
    visible conflict (silent faults are out of reach of conflict-driven
    repair and are not held against it).  Without a ledger and final graph,
    correctness is unknown (None).
    """
    total = len(sessions)
    avg = (sum(s.loop_count for s in sessions) / total) if total else None
    repaired = sum(1 for s in sessions if s.outcome == OUTCOME_REPAIRED)
    correct: Optional[int] = None
    if ledger is not None and graph is not None:
        truth_ok = ledger.all_fixed(graph, ignore_silent=True)
        correct = repaired if truth_ok else 0
    return Metrics(avg_loops=avg, total_conflicts=total,
                   repaired=repaired, correct=correct)


_COLUMNS = ("config",) + METRICS


def _cell(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _rows(entries: Sequence[tuple[str, Metrics]]) -> list[list[str]]:
    return [[name] + [_cell(getattr(m, metric)) for metric in METRICS]
            for name, m in entries]


def emit_table(entries: Sequence[tuple[str, Metrics]]) -> str:
    rows = [list(_COLUMNS)] + _rows(entries)
    widths = [max(len(r[i]) for r in rows) for i in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def emit_csv(entries: Sequence[tuple[str, Metrics]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    writer.writerows(_rows(entries))
    return buf.getvalue()
