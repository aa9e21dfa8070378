"""Linear append-only commit chain over the graph: replay, recall, diff.

Each commit logs edge deltas plus any node bookkeeping (introductions,
renames, drops).  The chain is never truncated: a past state is rebuilt by
replaying the chain (`materialize`) and, when used for repair, is recorded
as a fresh commit of inverse deltas.  `VersionChain.from_commits` is the
one replay of recorded commits; `materialize` and the fault trials of
`fault_injector` both start from it.

One check, `_check_commit`, decides whether a commit is well-formed, that
is, whether `_line` can write it as a line `load` reads back as the same
commit.  `commit` runs it before any step applies, with or without a log,
and `Commit.from_row` (or, on an object line, `Commit.from_json`) runs it
on each line `load` reads, so both refuse the same commits.

A commit is applied to the live graph in straight-line code
(`_apply_commit`), the only code that turns a commit into graph edits: new
nodes, then deltas, renames and drops, each by a direct `NavGraph` call,
counting the steps done.  Undo is data, not a second walk: `_inverse`
returns the commit that undoes a commit (or its first steps), and
`_apply_commit` applies it.  A rejected step (a map error) applies the
inverse of the steps done before it, an exact undo since the origin never
moves (`NavGraph.remove_node`), so a rejected commit leaves no trace.  A
rename or drop whose recorded name is not the node's own is a rejected
step (`InvalidDelta`), since undoing it would leave that name behind.

With a log path set, the commit's JSONL line is then written by the one
line writer, `_line`, and appended to the log, unbuffered (and, with
`fsync=True`, synced to disk with `os.fsync`).  The line is a row, one
JSON array of 8 columns read by position: `[index, [[op, src, dst, dir,
step], ...], trigger, obs_id, analysis, [[id, name], ...], [[id, old,
new], ...], [[id, name], ...]]`, the last three the new nodes, renames and
drops.  `_line` formats it in one pass, byte for byte what `json.dumps` of
that list and a newline would be: strings through the C escaper of
`json.dumps` under `ensure_ascii`, ints as `int.__repr__` writes them.  A
failed write and a failed sync undo the commit and cut the log back to
where the line started, so no part of the line stays in the file or in a
buffer: a commit becomes visible only after its whole line is written.

Loading reads the log line by line.  A line is decoded with the C scanner
of one `json.JSONDecoder`, which skips the encoding detection and the
whitespace passes of `json.loads`.  A line the scanner does not take whole
(not UTF-8, led by whitespace, not JSON, or followed by anything but JSON
whitespace) goes to `json.loads`, so the values accepted and the errors
raised are those of `json.loads` (but for a value nested near the
recursion limit; see `_decode`).  `Commit`, `EdgeDelta` and `Edge` are
named tuples, built from a decoded line (and by `commit`) with
`tuple.__new__`, which skips their Python-level `__new__`.

A row is built into its commit by `Commit.from_row`; a line that decodes
to anything else goes to `Commit.from_json`, which reads the object lines
earlier versions wrote (keys `index`, `deltas` of `op`, `src`, `dst`,
`dir` and `step`, `trigger`, `obs_id`, `analysis`, and `nodes`, `renames`
and `drops` when non-empty).  A log may mix the two, as `load(append=True)`
continues an object-line log with rows.  A line loads only if it has the
shape its writer gave it (a row of 8 columns whose step lists hold arrays
of 5, 2, 3 and 2 items; an object whose step lists are JSON arrays), its
commit passes the check, comes next in sequence and applies to the graph
the lines before it built; a key an object line does not need (an older
line's `step_id`) is ignored.  A torn final line (cut off before its
newline) that does not decode to a commit passing the check is dropped
with a warning, and `load(append=True)` cuts it off the file, ends a kept
final line that lacks its newline, and otherwise leaves the file as it
was, its modification time included; any other line that does not load
raises `CorruptLog` with the file and line.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Optional

from .errors import CorruptLog, InvalidDelta, MapRepairError, UnknownVersion
from .graph_core import REVERSE, Edge, NavGraph

TRIGGER_OBSERVATION = "observation_update"
TRIGGER_REPAIR = "conflict_repair"


class EdgeDelta(NamedTuple):
    op: str  # "+" or "-"
    edge: Edge


_new = tuple.__new__  # builds a named tuple without its Python-level __new__


def add(edge: Edge) -> EdgeDelta:
    return EdgeDelta("+", edge)


def remove(edge: Edge) -> EdgeDelta:
    return EdgeDelta("-", edge)


class Commit(NamedTuple):
    index: int
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
            "deltas": [{"op": op, "src": e[0], "dst": e[1], "dir": e[2],
                        "step": e[3]} for op, e in self.deltas],
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
        return _check_commit(_new(cls, (
            d["index"],
            tuple([_new(EdgeDelta, (x["op"], _new(Edge, (x["src"], x["dst"],
                   x["dir"], x["step"]))))
                   for x in _array(d, "deltas", required=True)]),
            d["trigger"],
            d["obs_id"],
            d["analysis"],
            tuple([(n["id"], n["name"]) for n in _array(d, "nodes")]),
            tuple([(r["id"], r["old"], r["new"])
                   for r in _array(d, "renames")]),
            tuple([(n["id"], n["name"]) for n in _array(d, "drops")]),
        )))

    @classmethod
    def from_row(cls, row: list) -> "Commit":
        """The commit of a row, the JSON array `_line` writes.  A row
        `_line` could not have written raises before `_check_commit` runs:
        one of other than 8 columns `ValueError`, and a step list that is
        not an array of arrays of 5 (a delta), 2 (a node or drop) or 3 (a
        rename) items `TypeError` (`_items`)."""
        if len(row) != 8:
            raise ValueError(f"a row has {len(row)} columns, not 8")
        index, deltas, trigger, obs_id, analysis, nodes, renames, drops = row
        return _check_commit(_new(cls, (
            index,
            tuple([_new(EdgeDelta, (op, _new(Edge, (src, dst, direction,
                                                     step))))
                   for op, src, dst, direction, step
                   in _items(deltas, 5, "deltas")]),
            trigger, obs_id, analysis,
            tuple(map(tuple, _items(nodes, 2, "nodes"))),
            tuple(map(tuple, _items(renames, 3, "renames"))),
            tuple(map(tuple, _items(drops, 2, "drops"))),
        )))


def _array(d: dict, key: str, required: bool = False) -> list:
    """`d[key]` (`[]` if absent and not `required`) if it is a JSON array;
    any other value, `""` and `{}` included, raises `TypeError`."""
    value = d[key] if required else d.get(key, [])
    if type(value) is not list:
        raise TypeError(f"{key} is not an array: {value!r}")
    return value


def _items(value: list, size: int, key: str) -> list:
    """`value`, the `key` column of a row, if it is a JSON array of JSON
    arrays of `size` items each; anything else raises `TypeError`, an item
    that is a str or an object of `size` items included."""
    if type(value) is not list:
        raise TypeError(f"{key} is not an array: {value!r}")
    for item in value:
        if type(item) is not list or len(item) != size:
            raise TypeError(f"{key} holds {item!r}, not an array of {size} "
                            f"items")
    return value


def _check_commit(c: Commit) -> Commit:
    """`c`, if `_line` can write it as a line that loads back as `c`: an
    index, obs_id or delta step that is not an exact int (`True` is not),
    an op other than "+" or "-", a direction not among the 14 and a str
    holding a surrogate pair (`_check_text`) raise `ValueError`; a
    trigger, analysis, room id or name that is not a str raises
    `TypeError`.  Scalars come first, then deltas, new nodes, renames and
    drops, so the first fault met is reported; each group is tested at
    once, and `_check_types` names the bad field.  Only a str that is not
    ASCII is searched for a surrogate pair."""
    index, deltas, trigger, obs_id, analysis, nodes, renames, drops = c
    if not (type(index) is type(obs_id) is int):
        _check_types(int, ("commit index", index), ("obs_id", obs_id))
    if not (type(trigger) is type(analysis) is str):
        _check_types(str, ("trigger", trigger), ("analysis", analysis))
    if not (trigger.isascii() and analysis.isascii()):
        _check_text(trigger, analysis)
    for op, (src, dst, direction, step) in deltas:
        if op != "+" and op != "-":
            raise ValueError(f"unknown delta op: {op!r}")
        if not (type(src) is type(dst) is str):
            _check_types(str, ("room id", src), ("room id", dst))
        if not (src.isascii() and dst.isascii()):
            _check_text(src, dst)
        if direction not in REVERSE:  # an unhashable one raises TypeError
            raise ValueError(f"unknown direction: {direction!r}")
        if type(step) is not int:
            raise ValueError(f"step id is not an int: {step!r}")
    for nid, name in nodes:
        if not (type(nid) is type(name) is str):
            _check_types(str, ("room id", nid), ("room name", name))
        if not (nid.isascii() and name.isascii()):
            _check_text(nid, name)
    for nid, *names in (*renames, *drops):
        _check_types(str, ("room id", nid), *[("room name", n) for n in names])
        _check_text(nid, *names)
    return c


_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _check_text(*texts: str) -> None:
    """Refuse, with `ValueError`, a str holding a high surrogate right
    before a low one: `json.dumps` escapes the pair exactly as it escapes
    the one character the pair encodes, so the line would load back with
    that character in its place."""
    for text in texts:
        if _SURROGATE_PAIR.search(text):
            raise ValueError(f"a str holds a surrogate pair: {text!r}")


def _check_types(kind: type, *fields: tuple[str, object]) -> None:
    """Refuse the first (name, value) field whose value is not of type
    `kind`, an int with `ValueError` and a str with `TypeError`."""
    for what, value in fields:
        if type(value) is not kind:
            if kind is int:
                raise ValueError(f"{what} is not an int: {value!r}")
            raise TypeError(f"{what} is not a str: {value!r}")


def _apply_commit(g: NavGraph, c: Commit) -> None:
    """Apply `c` whole or not at all, in step order: new nodes, deltas,
    renames, drops.  A rejected step first applies the inverse of the
    `done` steps before it, then re-raises."""
    done = 0
    try:
        for nid, name in c.new_nodes:
            g.add_node(name, node_id=nid)
            done += 1
        for op, edge in c.deltas:
            if op == "+":
                g.insert_edge(edge)
            elif g.has_edge(edge):
                g.remove_edge(edge)
            else:
                raise InvalidDelta(f"remove of absent edge: {edge}")
            done += 1
        for nid, old, new in c.renames:
            _check_name(g, nid, old)
            g.rename_node(nid, new)
            done += 1
        for nid, name in c.drops:
            _check_name(g, nid, name)
            g.remove_node(nid)
            done += 1
    except BaseException:
        _apply_commit(g, _inverse(c, done))
        raise


def _check_name(g: NavGraph, nid: str, name: str) -> None:
    """Refuse a rename or drop whose recorded name is not the node's own:
    undoing it would give the node that name."""
    if g.node_name(nid) != name:
        raise InvalidDelta(f"{nid} is named {g.nodes[nid]!r}, not {name!r}")


def _inverse(c: Commit, applied: Optional[int] = None) -> Commit:
    """The commit undoing `c`, or only its first `applied` steps in apply
    order (new nodes, deltas, renames, drops): it re-adds `c`'s drops,
    reverts its deltas with flipped ops and its renames with the names
    swapped, and drops its new nodes, each group last step first.  It keeps
    `c`'s index, trigger, obs_id and analysis, and is applied by
    `_apply_commit` but never committed.  Applying it after `c` restores
    the whole state, origin included, since the origin never moves."""
    kept = []
    for steps in (c.new_nodes, c.deltas, c.renames, c.drops):
        kept.append(steps[:applied])
        if applied is not None:
            applied = max(applied - len(steps), 0)
    nodes, deltas, renames, drops = kept
    return _new(Commit, (
        c.index,
        tuple([_new(EdgeDelta, ("-" if op == "+" else "+", edge))
               for op, edge in reversed(deltas)]),
        c.trigger, c.obs_id, c.analysis,
        drops[::-1],
        tuple([(nid, new, old) for nid, old, new in reversed(renames)]),
        nodes[::-1]))


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
            self._log = _open_log(self.log_path)

    @classmethod
    def from_commits(cls, commits: Iterable[Commit]) -> "VersionChain":
        """A log-less chain holding `commits`, which some chain already
        holds, each applied in order by `_apply_commit`: the one replay of
        a recorded history."""
        chain = cls()
        for c in commits:
            _apply_commit(chain.graph, c)
            chain.commits.append(c)
        return chain

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
        commit = _check_commit(_new(Commit, (
            len(self.commits), tuple(deltas), trigger, obs_id, analysis,
            tuple(new_nodes), tuple(renames), tuple(drops))))
        _apply_commit(self.graph, commit)
        if self._log is not None:
            try:
                line = _line(commit)
                written = 0
                while written < len(line):
                    written += self._log.write(line[written:])
                if self.fsync:
                    os.fsync(self._log.fileno())
            except BaseException:
                _apply_commit(self.graph, _inverse(commit))
                os.truncate(self.log_path, self._log_end)
                raise
            self._log_end += len(line)
        self.commits.append(commit)
        return commit

    def _check_version(self, version: int) -> None:
        """Refuse a version that is not an exact int (`True` is not) in
        0..head with `UnknownVersion`."""
        if type(version) is not int or not 0 <= version <= self.head:
            raise UnknownVersion(f"version {version} not in 0..{self.head}")

    def materialize(self, version: int) -> NavGraph:
        """Rebuild the state as of `version` by replaying from empty."""
        self._check_version(version)
        return VersionChain.from_commits(self.commits[:version + 1]).graph

    def recall_step(self, version: int) -> Commit:
        self._check_version(version)
        return self.commits[version]

    def diff(self, i: int, j: int) -> dict[str, set[Edge]]:
        """Edges of version j relative to version i."""
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
        """Replay the log at `log_path`.  With `append`, the log is opened
        once, for reading and appending, and later commits go to its end,
        after a torn final line is cut off, and are synced to disk when
        `fsync` is set."""
        chain = cls(fsync=fsync)
        good_end, kept = 0, b"\n"  # end of the last line kept, and that line
        torn = False
        fd = os.open(log_path,
                     os.O_RDWR | os.O_APPEND if append else os.O_RDONLY)
        try:
            with open(fd, "rb", closefd=False) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    if raw.strip():
                        try:
                            value = _decode(raw)
                            c = (Commit.from_row(value)
                                 if type(value) is list
                                 else Commit.from_json(value))
                        except (ValueError, KeyError, TypeError) as exc:
                            if raw.endswith(b"\n"):
                                raise CorruptLog(
                                    f"{log_path}:{lineno}: {exc}") from exc
                            warnings.warn(f"{log_path}:{lineno}: dropped a "
                                          f"torn final line ({len(raw)} "
                                          f"bytes)")
                            torn = True
                            break
                        if c.index != len(chain.commits):
                            raise CorruptLog(
                                f"{log_path}:{lineno}: commit {c.index} "
                                f"where {len(chain.commits)} was expected")
                        try:
                            _apply_commit(chain.graph, c)
                        except MapRepairError as exc:
                            raise CorruptLog(
                                f"{log_path}:{lineno}: {exc}") from exc
                        chain.commits.append(c)
                    good_end, kept = good_end + len(raw), raw
            if append:
                if torn:  # a same-size truncate would still touch the file
                    os.ftruncate(fd, good_end)
                if not kept.endswith(b"\n"):
                    good_end += os.write(fd, b"\n")
                chain._log = open(fd, "ab", buffering=0)
                chain.log_path, chain._log_end = Path(log_path), good_end
        finally:
            if chain._log is None:  # the chain did not take the descriptor
                os.close(fd)
        return chain


_str = json.encoder.encode_basestring_ascii  # json.dumps's, ensure_ascii


def _line(c: Commit) -> bytes:
    """The log line of `c`, its row: `json.dumps([index, [[op, src, dst,
    dir, step], ...], trigger, obs_id, analysis, [[id, name], ...], [[id,
    old, new], ...], [[id, name], ...]]) + "\\n"`, byte for byte, formatted
    in one pass.  All 8 columns are written, empty step lists included.
    Strings go through the C escaper `json.dumps` uses under
    `ensure_ascii`.  Every int field is an exact int (`_check_commit` saw
    to it), so `!r` writes it as `int.__repr__` does, which is what
    `json.dumps` writes."""
    index, deltas, trigger, obs_id, analysis, nodes, renames, drops = c
    delta_items = ", ".join([
        f"[{_str(op)}, {_str(src)}, {_str(dst)}, {_str(direction)}, "
        f"{step!r}]" for op, (src, dst, direction, step) in deltas])
    # an empty step list skips its comprehension, a call of its own
    node_items = ", ".join([f"[{_str(nid)}, {_str(name)}]"
                            for nid, name in nodes]) if nodes else ""
    rename_items = ", ".join([f"[{_str(nid)}, {_str(old)}, {_str(new)}]"
                              for nid, old, new in renames]) if renames else ""
    drop_items = ", ".join([f"[{_str(nid)}, {_str(name)}]"
                            for nid, name in drops]) if drops else ""
    return (f"[{index!r}, [{delta_items}], {_str(trigger)}, {obs_id!r}, "
            f"{_str(analysis)}, [{node_items}], [{rename_items}], "
            f"[{drop_items}]]\n").encode()


_scan_once = json.JSONDecoder().scan_once


def _decode(raw: bytes):
    """`json.loads(raw)`, without its encoding detection and whitespace
    passes on a line that is UTF-8, starts with its value and has only JSON
    whitespace after it.  Any other line goes to `json.loads`, so the values
    accepted and the exceptions raised are the same, but for one: a value
    nested within a few frames of the recursion limit can decode here where
    `json.loads`, called a few frames deeper, raises `RecursionError`."""
    try:
        s = raw.decode()
        value, end = _scan_once(s, 0)
    except (StopIteration, ValueError):  # no value at 0, or not UTF-8/JSON
        return json.loads(raw)
    if s[end:].strip(" \t\n\r"):
        return json.loads(raw)
    return value


def _open_log(path: Path) -> IO[bytes]:
    """Create `path` for unbuffered appends, raising `FileExistsError` if
    it exists.  Every write goes to the end of the file, also after the
    file was cut back."""
    return open(path, "ab", buffering=0,
                opener=lambda p, f: os.open(p, f | os.O_EXCL))
