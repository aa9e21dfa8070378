"""Linear append-only commit chain over the graph: replay, recall, diff.

Each commit logs edge deltas plus any node bookkeeping (introductions,
renames, drops).  The chain is never truncated: a past state is rebuilt by
replaying the chain (`materialize`) and, when used for repair, is recorded
as a fresh commit of inverse deltas.

A commit is applied to the live graph; a rejected step undoes the steps
before it, so a rejected commit leaves no trace.  With a log path set, the
commit's JSONL line is then appended to the log, unbuffered (and, with
`fsync=True`, synced to disk with `os.fsync`).  A failed write or sync
undoes the commit and cuts the log back to where the line started, so no
part of the line stays in the file or in a buffer: a commit becomes visible
only after its whole line is written.

Loading drops a torn final line (cut off before its newline, so it does not
parse) with a warning.  Any other line that does not parse, or a commit whose
index is out of sequence, raises `CorruptLog`.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Optional

from .errors import CorruptLog, InvalidDelta, UnknownVersion
from .graph_core import Edge, NavGraph

TRIGGER_OBSERVATION = "observation_update"
TRIGGER_REPAIR = "conflict_repair"


@dataclass(frozen=True)
class EdgeDelta:
    op: str  # "+" or "-"
    edge: Edge

    def to_json(self) -> dict:
        d = {"op": self.op}
        d.update(self.edge.to_json())
        return d

    @classmethod
    def from_json(cls, d: dict) -> "EdgeDelta":
        return cls(d["op"], Edge(d["src"], d["dst"], d["dir"], d["step"]))


def add(edge: Edge) -> EdgeDelta:
    return EdgeDelta("+", edge)


def remove(edge: Edge) -> EdgeDelta:
    return EdgeDelta("-", edge)


@dataclass(frozen=True)
class Commit:
    index: int
    step_id: int
    deltas: tuple[EdgeDelta, ...]
    trigger: str
    obs_id: int
    analysis: str
    new_nodes: tuple[tuple[str, str], ...] = ()   # (id, name) introduced
    renames: tuple[tuple[str, str, str], ...] = ()  # (id, old, new)
    drops: tuple[tuple[str, str], ...] = ()       # (id, name) removed

    def to_json(self) -> dict:
        d = {
            "index": self.index,
            "step_id": self.step_id,
            "deltas": [x.to_json() for x in self.deltas],
            "trigger": self.trigger,
            "obs_id": self.obs_id,
            "analysis": self.analysis,
        }
        if self.new_nodes:
            d["nodes"] = [{"id": i, "name": n} for i, n in self.new_nodes]
        if self.renames:
            d["renames"] = [{"id": i, "old": o, "new": n}
                            for i, o, n in self.renames]
        if self.drops:
            d["drops"] = [{"id": i, "name": n} for i, n in self.drops]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Commit":
        return cls(
            index=d["index"],
            step_id=d["step_id"],
            deltas=tuple(EdgeDelta.from_json(x) for x in d["deltas"]),
            trigger=d["trigger"],
            obs_id=d["obs_id"],
            analysis=d["analysis"],
            new_nodes=tuple((n["id"], n["name"]) for n in d.get("nodes", ())),
            renames=tuple((r["id"], r["old"], r["new"])
                          for r in d.get("renames", ())),
            drops=tuple((n["id"], n["name"]) for n in d.get("drops", ())),
        )


def _steps(c: Commit) -> list[tuple]:
    """The commit as (sign, node id or edge, *names) steps, in apply order."""
    return ([("+", nid, name) for nid, name in c.new_nodes]
            + [(d.op, d.edge) for d in c.deltas]
            + [("~", nid, old, new) for nid, old, new in c.renames]
            + [("-", nid, name) for nid, name in c.drops])


def _run(g: NavGraph, step: tuple, forward: bool) -> None:
    """Apply one step, or its inverse: a rename swaps its names, and an
    addition and a removal trade places."""
    sign, target, *names = step
    if sign == "~":
        g.rename_node(target, names[1] if forward else names[0])
    elif (sign == "+") == forward:
        if isinstance(target, Edge):
            g.add_edge(target.src, target.dst, target.direction,
                       target.step_id)
        else:
            g.add_node(names[0], node_id=target)
    elif not isinstance(target, Edge):
        g.remove_node(target)
    elif not g.has_edge(target):
        raise InvalidDelta(f"remove of absent edge: {target}")
    else:
        g.remove_edge(target)


def _apply_commit(g: NavGraph, c: Commit) -> None:
    """Apply `c` whole or not at all: a rejected step first undoes the
    steps before it, then re-raises."""
    origin = g.origin
    for done, step in enumerate(_steps(c)):
        try:
            _run(g, step, forward=True)
        except BaseException:
            _unapply_commit(g, c, done)
            g.origin = origin
            raise


def _unapply_commit(g: NavGraph, c: Commit,
                    applied: Optional[int] = None) -> None:
    """Inverse of _apply_commit (of its first `applied` steps), last step
    first.  A dropped origin comes back as a node, not as the origin."""
    for step in reversed(_steps(c)[:applied]):
        _run(g, step, forward=False)


class VersionChain:
    """Owns a NavGraph; all mutation goes through commit().

    A `log_path` starts a new log: an existing file raises
    `FileExistsError` and is left as it was.  `load(append=True)` goes on
    with an existing one.  With `fsync`, each commit's line is synced to
    disk before the commit counts, so it survives a power loss."""

    def __init__(self, log_path: Optional[str | Path] = None,
                 fsync: bool = False):
        self.graph = NavGraph()
        self.commits: list[Commit] = []
        self._log: Optional[IO[bytes]] = None
        self._log_end = 0  # log size after the last line written
        self.fsync = fsync
        self.log_path = Path(log_path) if log_path else None
        if self.log_path:
            self._log = _open_log(self.log_path, exclusive=True)

    @property
    def head(self) -> int:
        return len(self.commits) - 1

    def allocate_node_id(self) -> str:
        return self.graph.fresh_id()

    # -- core operations ----------------------------------------------------

    def commit(self, deltas: Iterable[EdgeDelta], trigger: str, obs_id: int,
               analysis: str,
               new_nodes: Iterable[tuple[str, str]] = (),
               renames: Iterable[tuple[str, str, str]] = (),
               drops: Iterable[tuple[str, str]] = ()) -> Commit:
        commit = Commit(
            index=self.head + 1,
            step_id=obs_id,
            deltas=tuple(deltas),
            trigger=trigger,
            obs_id=obs_id,
            analysis=analysis,
            new_nodes=tuple(new_nodes),
            renames=tuple(renames),
            drops=tuple(drops),
        )
        origin = self.graph.origin
        _apply_commit(self.graph, commit)
        if self._log is not None:
            line = (json.dumps(commit.to_json()) + "\n").encode()
            try:
                written = 0
                while written < len(line):
                    written += self._log.write(line[written:])
                if self.fsync:
                    os.fsync(self._log.fileno())
            except BaseException:
                _unapply_commit(self.graph, commit)
                self.graph.origin = origin
                os.truncate(self.log_path, self._log_end)
                raise
            self._log_end += len(line)
        self.commits.append(commit)
        return commit

    def _check_version(self, version: int) -> None:
        if not isinstance(version, int) or not 0 <= version <= self.head:
            raise UnknownVersion(f"version {version} not in 0..{self.head}")

    def materialize(self, version: int) -> NavGraph:
        """Rebuild the state as of `version` by replaying from empty."""
        self._check_version(version)
        g = NavGraph()
        for c in self.commits[: version + 1]:
            _apply_commit(g, c)
        return g

    def recall_step(self, version: int) -> Commit:
        self._check_version(version)
        return self.commits[version]

    def diff(self, i: int, j: int) -> dict[str, set[Edge]]:
        """Edges of version j relative to version i."""
        self._check_version(i)
        self._check_version(j)
        a = self.materialize(i).edge_set()
        b = self.materialize(j).edge_set()
        return {"added": b - a, "removed": a - b}

    # -- persistence ----------------------------------------------------------

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    @classmethod
    def load(cls, log_path: str | Path, append: bool = False,
             fsync: bool = False) -> "VersionChain":
        """Replay the log at `log_path`.  With `append`, later commits go
        to its end, after a torn final line is cut off, and are synced to
        disk when `fsync` is set."""
        chain = cls(fsync=fsync)
        good_end, kept = 0, b"\n"  # end of the last line kept, and that line
        with open(log_path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.strip():
                    try:
                        c = Commit.from_json(json.loads(raw))
                    except (ValueError, KeyError, TypeError) as exc:
                        if raw.endswith(b"\n"):
                            raise CorruptLog(
                                f"{log_path}:{lineno}: {exc}") from exc
                        warnings.warn(f"{log_path}:{lineno}: dropped a torn "
                                      f"final line ({len(raw)} bytes)")
                        break
                    if c.index != len(chain.commits):
                        raise CorruptLog(
                            f"{log_path}:{lineno}: commit {c.index} where "
                            f"{len(chain.commits)} was expected")
                    _apply_commit(chain.graph, c)
                    chain.commits.append(c)
                good_end, kept = good_end + len(raw), raw
        if append:
            with open(log_path, "r+b") as fh:
                fh.truncate(good_end)
                if not kept.endswith(b"\n"):
                    fh.seek(good_end)
                    good_end += fh.write(b"\n")
            chain.log_path = Path(log_path)
            chain._log = _open_log(chain.log_path)
            chain._log_end = good_end
        return chain


def _open_log(path: Path, exclusive: bool = False) -> IO[bytes]:
    """Open `path` for unbuffered appends; with `exclusive`, create it and
    raise `FileExistsError` if it exists.  Every write goes to the end of
    the file, also after the file was cut back."""
    flags = os.O_EXCL if exclusive else 0
    return open(path, "ab", buffering=0,
                opener=lambda p, f: os.open(p, f | flags))
