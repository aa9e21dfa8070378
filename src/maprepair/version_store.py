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
and `Commit.from_row` runs it on each line `load` reads, so both refuse the
same commits.  It checks every field before it searches any str for a
surrogate pair, so a commit holding both a pair and a wrongly typed field
is refused for the field by `commit` and by `load` of its line, where the
pair decodes to one character.

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
line writer, `_formatted`, and appended to the log, unbuffered (and, with
`fsync=True`, synced to disk with `os.fsync`).  The line is a row, one
JSON array of 8 columns read by position: `[index, [[op, src, dst, dir,
step], ...], trigger, obs_id, analysis, [[id, name], ...], [[id, old,
new], ...], [[id, name], ...]]`, the last three the new nodes, renames and
drops.  `_formatted` formats it in one pass (`_line` is that line), byte
for byte what `json.dumps` of that list and a newline would be: strings
through the C escaper of `json.dumps` under `ensure_ascii`, ints as
`int.__repr__` writes them.  A
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

The row is the one line format `load` reads: `Commit.from_row` builds it
into its commit, and a line that decodes to any other JSON value (an
object, as versions before rows wrote, a number, a string or null) is
refused as not a row, naming the value's type.  A line loads only if it
is a row of the shape its writer gave it (8 columns whose step lists hold
arrays of 5, 2, 3 and 2 items), its commit passes the check, comes next
in sequence and applies to the graph the lines before it built.  A torn
final line (cut off before its newline) that does not decode to a commit
passing the check is dropped with a warning, and `load(append=True)` cuts
it off the file, ends a kept final line that lacks its newline, and
otherwise leaves the file as it was, its modification time included; any
other line that does not load raises `CorruptLog` with the file and line.

A log may also hold checkpoint rows, which are not commits: construction
(`transcript_parser.construct_graph`) ends a new log with one
(`VersionChain.checkpoint`), `["checkpoint", version, lines, crc32, [[id,
name], ...], [["+", src, dst, dir, step], ...]]`, the state at `version`
(every room in `graph.nodes` order, then every edge in commit order)
after the first `lines` lines, whose bytes have that `zlib.crc32`.  A
reader of 8-column rows refuses it (`a row has 6 columns, not 8`).  The
row's node and delta items are the ones `_formatted` made for each commit,
kept by a chain whose log it started while every commit only adds rooms
and edges; a log-less chain keeps nothing.  A row holding an edge item of
any op but "+" is refused when read.  `load` starts from the last
checkpoint (`_resume`) when it decodes, its version is its line count
less one, the count and the crc32 match the lines before it, and its
state builds; it then replays the lines after it.  The state is built in
one pass per column: `Checkpoint.from_row` checks each room and edge item
by `_check_commit`'s rules and makes the `Edge` tuples in the same loop,
and `NavGraph.build` makes the map from the rooms and edges, refusing
what `add_node` and `insert_edge` would.
Room ids and directions are the str objects every load shares (a room
id's interned copy and a direction's key of `REVERSE`), so results kept
from many loads hold one copy of each.  Otherwise it
replays every line, which checks each checkpoint where it stands: a
version, line count, crc32 or state (rooms and edges in the same order)
other than the lines before it build is `CorruptLog` at its line.  A
torn checkpoint line is dropped as a torn commit line is.  The lines
before the checkpoint `load` started from are kept as bytes in a
`CommitList`, and the first read of any commit (an item, `materialize`,
`recall_step`, `diff`, construction's cursor) replays them with the same
checks; `len` and `head` read nothing.  So a line `load` would refuse by
replay is refused, at its line and with the same message, either by
`load` (the crc32 no longer matches, so every line is replayed) or by
that first read.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import warnings
import zlib
from collections.abc import Sequence
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Optional

from .errors import CorruptLog, InvalidDelta, MapRepairError, UnknownVersion
from .graph_core import REVERSE, Edge, NavGraph

TRIGGER_OBSERVATION = "observation_update"
TRIGGER_REPAIR = "conflict_repair"
# the first column of a checkpoint row, which is not a commit
TRIGGER_CHECKPOINT = "checkpoint"


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
    `TypeError`.  `commit` runs it, and so does `Commit.from_row`, the one
    reader of a log's commit lines.  Scalars come first, then deltas, new
    nodes, renames and drops, so the first fault met is reported; each
    group is tested at once, and `_check_types` names the bad field.  Every
    field is checked before any str is searched for a surrogate pair, so a
    line that loads back with the pair's one character in its place is
    refused for the same fault; only strs that are not ASCII are
    searched."""
    index, deltas, trigger, obs_id, analysis, nodes, renames, drops = c
    if not (type(index) is type(obs_id) is int):
        _check_types(int, ("commit index", index), ("obs_id", obs_id))
    if not (type(trigger) is type(analysis) is str):
        _check_types(str, ("trigger", trigger), ("analysis", analysis))
    texts = []  # the strs that are not ASCII, in field order
    if not (trigger.isascii() and analysis.isascii()):
        texts += _wide(trigger, analysis)
    for op, (src, dst, direction, step) in deltas:
        if op != "+" and op != "-":
            raise ValueError(f"unknown delta op: {op!r}")
        if not (type(src) is type(dst) is str):
            _check_types(str, ("room id", src), ("room id", dst))
        if not (src.isascii() and dst.isascii()):
            texts += _wide(src, dst)
        if direction not in REVERSE:  # an unhashable one raises TypeError
            raise ValueError(f"unknown direction: {direction!r}")
        if type(step) is not int:
            raise ValueError(f"step id is not an int: {step!r}")
    for nid, name in nodes:
        if not (type(nid) is type(name) is str):
            _check_types(str, ("room id", nid), ("room name", name))
        if not (nid.isascii() and name.isascii()):
            texts += _wide(nid, name)
    for nid, *names in (*renames, *drops):
        _check_types(str, ("room id", nid), *[("room name", n) for n in names])
        texts += _wide(nid, *names)
    if texts:
        _check_text(*texts)
    return c


def _wide(*texts: str) -> list[str]:
    """The strs among `texts` that are not ASCII, the only ones that can
    hold a surrogate pair."""
    return [text for text in texts if not text.isascii()]


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


class Checkpoint(NamedTuple):
    """A checkpoint row: the state at `version`, written after `lines` log
    lines whose bytes have the `zlib.crc32` `crc`.  The state is `rooms`,
    `(id, name)` pairs in `graph.nodes` order, and `edges`, the edges in
    the order they were added; `NavGraph.build` makes it (`_state`)."""
    version: int
    lines: int
    crc: int
    rooms: tuple[tuple[str, str], ...]
    edges: tuple[Edge, ...]

    @classmethod
    def from_row(cls, row: list) -> "Checkpoint":
        """The checkpoint of a row `["checkpoint", version, lines, crc32,
        [[id, name], ...], [["+", src, dst, dir, step], ...]]`.  A row of
        other than 6 columns, or a version, line count or crc32 that is not
        an exact int, raises `ValueError`.  Its rooms and edges are checked
        by `_check_commit`'s rules, but that an edge's op must be "+", the
        only one `checkpoint` writes ("-" raises `ValueError`), and refused
        with the error of the first fault met: a step list of another shape
        (edges first, `_items`), then each edge's fields in order, then each
        room's, then a surrogate pair.  Each room id is its interned copy
        (`sys.intern`), each edge end the room's id and each direction the
        key of `REVERSE`, so results kept from many loads (a session's
        conflicts and actions) hold one copy of each."""
        if len(row) != 6:
            raise ValueError(f"a checkpoint row has {len(row)} columns, "
                             f"not 6")
        _, version, lines, crc, nodes, items = row
        _check_types(int, ("checkpoint version", version),
                     ("checkpoint line count", lines),
                     ("checkpoint crc32", crc))
        _items(items, 5, "deltas")
        _items(nodes, 2, "nodes")
        rooms, ids, room_texts, bad = [], {}, [], None
        for nid, name in nodes:
            if not (type(nid) is type(name) is str):
                bad = nid, name  # refused after the edges' faults
                break
            if not (nid.isascii() and name.isascii()):
                room_texts += _wide(nid, name)
            nid = ids[nid] = sys.intern(nid)
            rooms.append((nid, name))
        edges, texts = [], []
        for op, src, dst, direction, step in items:
            if op != "+":
                if op == "-":
                    raise ValueError("a checkpoint edge op is '-', not '+'")
                raise ValueError(f"unknown delta op: {op!r}")
            if not (type(src) is type(dst) is str):
                _check_types(str, ("room id", src), ("room id", dst))
            if not (src.isascii() and dst.isascii()):
                texts += _wide(src, dst)
            shared = _DIRECTION.get(direction)  # unhashable: TypeError
            if shared is None:
                raise ValueError(f"unknown direction: {direction!r}")
            if type(step) is not int:
                raise ValueError(f"step id is not an int: {step!r}")
            edges.append(_new(Edge, (ids.get(src, src), ids.get(dst, dst),
                                     shared, step)))
        if bad is not None:
            _check_types(str, ("room id", bad[0]), ("room name", bad[1]))
        if texts or room_texts:
            _check_text(*texts, *room_texts)
        return _new(cls, (version, lines, crc, tuple(rooms), tuple(edges)))


_DIRECTION = {d: d for d in REVERSE}  # each direction's one str object


def _state(cp: Checkpoint) -> Optional[NavGraph]:
    """The map the checkpoint `cp` holds, or None if `NavGraph.build`
    refuses its rooms and edges."""
    try:
        return NavGraph.build(cp.rooms, cp.edges)
    except MapRepairError:
        return None


class CommitList(Sequence):
    """The commits of a chain `load` started from a checkpoint, in index
    order; `commit` appends to it as to the list other chains hold.

    The `pending` commits before the checkpoint are still the log's bytes
    until the first read of any commit decodes them (`_decode_prefix`
    with the arguments `prefix`).  `len`, and so `VersionChain.head`,
    never decodes.  It compares equal to the list of the commits it
    holds."""

    __slots__ = ("_commits", "_pending", "_prefix")

    def __init__(self, pending: int, prefix: tuple) -> None:
        self._commits: list[Commit] = []  # those after the checkpoint
        self._pending, self._prefix = pending, prefix

    def __len__(self) -> int:
        return self._pending + len(self._commits)

    def _all(self) -> list[Commit]:
        if self._pending:
            self._commits[:0] = _decode_prefix(*self._prefix)
            self._pending, self._prefix = 0, None
        return self._commits

    def __getitem__(self, i):
        return self._all()[i]

    def __iter__(self):
        return iter(self._all())

    def __reversed__(self):
        return reversed(self._all())

    def __eq__(self, other) -> bool:
        if isinstance(other, CommitList):
            other = other._all()
        return self._all() == other if type(other) is list \
            else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"CommitList({self._all()!r})"

    def append(self, c: Commit) -> None:
        self._commits.append(c)


class VersionChain:
    """Owns a NavGraph; all mutation goes through commit().

    A `log_path` starts a new log: an existing file raises
    `FileExistsError` and is left as it was.  `load(append=True)` goes on
    with an existing one.  With `fsync`, each commit's line is synced to
    disk before the commit counts, so it survives a power loss."""

    def __init__(self, log_path: Optional[str | Path] = None,
                 fsync: bool = False):
        self.graph = NavGraph()
        self.commits: list[Commit] | CommitList = []
        self._log: Optional[IO[bytes]] = None
        self._log_end = 0  # log size after the last line written
        # While every commit of a new log only adds rooms and edges, their
        # lines, node items and delta items (`_formatted`): a checkpoint
        # row of the head joins the items (`checkpoint`)
        self._kept: Optional[tuple[list[bytes], list[str], list[str]]] = \
            None
        self.fsync = fsync
        self.log_path = Path(log_path) if log_path else None
        if self.log_path:
            self._log = _open_log(self.log_path)
            self._kept = ([], [], [])

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
                formatted = _formatted(commit)
                line = formatted[0]
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
            if self._kept is not None:
                deltas, nodes, renamed, dropped = formatted[1]
                # a "-" op is written `["-", `; a str holding it is escaped
                if renamed or dropped or '["-", ' in deltas:
                    self._kept = None
                else:
                    lines, node_items, delta_items = self._kept
                    lines.append(line)
                    if nodes:
                        node_items.append(nodes)
                    if deltas:
                        delta_items.append(deltas)
        self.commits.append(commit)
        return commit

    def checkpoint(self) -> bool:
        """Append a checkpoint row of the head state to the log, unless the
        chain has no commit or does not keep the row's parts: only a chain
        that started its log, and whose every commit so far only added
        rooms and edges, does, until its first checkpoint.  Returns whether
        a row was written.  The row is `json.dumps` of `["checkpoint",
        head, lines, crc32, [[id, name], ...], [["+", src, dst, dir, step],
        ...]]` and a newline, the node and delta items joined from the
        commits' rows, so rooms come in `graph.nodes` order and edges in
        commit order.  A failed write or sync cuts the log back, as in
        `commit`."""
        if self._log is None or self._kept is None or not self._kept[0]:
            return False
        lines, nodes, edges = self._kept
        row = (f'["{TRIGGER_CHECKPOINT}", {self.head!r}, {len(lines)!r}, '
               f'{zlib.crc32(b"".join(lines))!r}, [{", ".join(nodes)}], '
               f'[{", ".join(edges)}]]\n').encode()
        try:
            written = 0
            while written < len(row):
                written += self._log.write(row[written:])
            if self.fsync:
                os.fsync(self._log.fileno())
        except BaseException:
            os.truncate(self.log_path, self._log_end)
            raise
        self._log_end += len(row)
        self._kept = None
        return True

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
        self._kept = None

    @classmethod
    def load(cls, log_path: str | Path, append: bool = False,
             fsync: bool = False) -> "VersionChain":
        """Replay the log at `log_path`, from its last checkpoint when the
        lines before it are the ones it was written after (`_resume`).
        With `append`, the log is opened once, for reading and appending,
        and later commits go to its end, after a torn final line is cut
        off, and are synced to disk when `fsync` is set."""
        chain = cls(fsync=fsync)
        fd = os.open(log_path,
                     os.O_RDWR | os.O_APPEND if append else os.O_RDONLY)
        try:
            with open(fd, "rb", closefd=False) as fh:
                data = fh.read()
            start, lineno = _resume(chain, log_path, data)
            good_end, kept, torn = _replay(chain, log_path, data, start,
                                           len(data), lineno)
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


_CHECKPOINT_LINE = f'["{TRIGGER_CHECKPOINT}", '.encode()  # how one starts


def _resume(chain: VersionChain, log_path, data: bytes) -> tuple[int, int]:
    """Start the empty `chain` from the last checkpoint of the log `data`:
    the last line that starts as `checkpoint` writes one and decodes to a
    checkpoint row written, as `checkpoint` writes one, after one commit
    a line (its version is its line count less one) and after the lines
    before it (the count and the crc32 of their bytes fit), whose state
    applies to the empty graph.  The chain's commits before it stay bytes
    until first read.  Returns the byte offset and the line number after
    the checkpoint, or (0, 1), the start of the log, when no line
    qualifies."""
    start = data.rfind(b"\n" + _CHECKPOINT_LINE) + 1
    if not data.startswith(_CHECKPOINT_LINE, start):
        return 0, 1
    end = data.find(b"\n", start) + 1 or len(data)
    lines = data.count(b"\n", 0, start)
    try:
        cp = Checkpoint.from_row(_decode(data[start:end]))
    except (ValueError, TypeError):
        return 0, 1
    if not cp.version + 1 == cp.lines == lines > 0 \
            or cp.crc != zlib.crc32(memoryview(data)[:start]):
        return 0, 1
    graph = _state(cp)
    if graph is None:
        return 0, 1
    chain.graph = graph
    chain.commits = CommitList(cp.version + 1, (log_path, data, end))
    return end, lines + 2


def _decode_prefix(log_path, data: bytes, end: int) -> list[Commit]:
    """The commits of the log `data` up to byte `end`, where the line of
    the checkpoint `_resume` started from ends: the lines are replayed as
    `load` replays a log, so a line that does not load is `CorruptLog` at
    its line, and so is the checkpoint, if the state it holds is not the
    one they build."""
    chain = VersionChain()
    _replay(chain, log_path, data, 0, end, 1)
    return chain.commits


def _replay(chain: VersionChain, log_path, data: bytes, start: int,
            end: int, lineno: int) -> tuple[int, bytes, bool]:
    """Apply the lines of the log `data` from byte `start`, line number
    `lineno`, up to byte `end` to `chain`.  Returns the end of the last
    line kept, that line (the byte before `start`, or a newline at the
    start of the log, if none is) and whether a torn final line was
    dropped."""
    good_end, kept = start, data[start - 1:start] if start else b"\n"
    fh = io.BytesIO(data)
    fh.seek(start)
    for lineno, raw in enumerate(fh, start=lineno):
        if good_end >= end:
            break
        if raw.strip():
            try:
                value = _decode(raw)
                if type(value) is not list:
                    raise ValueError(f"a JSON {_JSON_TYPE[type(value)]} is "
                                     f"not a row")
                if value and value[0] == TRIGGER_CHECKPOINT:
                    c = Checkpoint.from_row(value)
                else:
                    c = Commit.from_row(value)
            except (ValueError, TypeError) as exc:
                if raw.endswith(b"\n"):
                    raise CorruptLog(f"{log_path}:{lineno}: {exc}") from exc
                warnings.warn(f"{log_path}:{lineno}: dropped a torn final "
                              f"line ({len(raw)} bytes)")
                return good_end, kept, True
            if type(c) is Checkpoint:
                _check_checkpoint(chain, log_path, c, data, good_end, lineno)
            else:
                if c.index != len(chain.commits):
                    raise CorruptLog(
                        f"{log_path}:{lineno}: commit {c.index} where "
                        f"{len(chain.commits)} was expected")
                try:
                    _apply_commit(chain.graph, c)
                except MapRepairError as exc:
                    raise CorruptLog(f"{log_path}:{lineno}: {exc}") from exc
                chain.commits.append(c)
        good_end, kept = good_end + len(raw), raw
    return good_end, kept, False


# the JSON name of each type a decoded line may have but a row's
_JSON_TYPE = {dict: "object", str: "string", int: "number", float: "number",
              bool: "boolean", type(None): "null"}


def _check_checkpoint(chain: VersionChain, log_path, cp: Checkpoint,
                      data: bytes, offset: int, lineno: int) -> None:
    """Refuse, with `CorruptLog` at its line, a checkpoint at byte
    `offset`, line `lineno`, of the log `data` whose version, line count,
    crc32 or state is not that of `chain`, the replay of the lines before
    it.  Its state must hold the same rooms and edges in the same order."""
    head = len(chain.commits) - 1
    if cp.version != head:
        problem = f"is of version {cp.version}, not {head}"
    elif cp.lines != lineno - 1:
        problem = f"follows {cp.lines} lines, not {lineno - 1}"
    elif cp.crc != zlib.crc32(memoryview(data)[:offset]):
        problem = f"has crc32 {cp.crc}, not that of the lines before it"
    elif not _holds(chain.graph, cp):
        problem = f"does not hold the state of version {head}"
    else:
        return
    raise CorruptLog(f"{log_path}:{lineno}: checkpoint {problem}")


def _holds(g: NavGraph, cp: Checkpoint) -> bool:
    """Is `g` the map the checkpoint `cp` holds, rooms and edges iterating
    in the same order?"""
    built = _state(cp)
    return (built is not None and g.origin == built.origin
            and list(g.nodes.items()) == list(built.nodes.items())
            and list(g.edges()) == list(built.edges()))


_str = json.encoder.encode_basestring_ascii  # json.dumps's, ensure_ascii


def _line(c: Commit) -> bytes:
    """The log line of `c`, its row: `json.dumps([index, [[op, src, dst,
    dir, step], ...], trigger, obs_id, analysis, [[id, name], ...], [[id,
    old, new], ...], [[id, name], ...]]) + "\\n"`, byte for byte
    (`_formatted`)."""
    return _formatted(c)[0]


def _formatted(c: Commit) -> tuple[bytes, tuple[str, str, str, str]]:
    """The log line of `c`, formatted in one pass, and its four step lists,
    each the items `json.dumps` writes between the list's brackets: the
    deltas `[op, src, dst, dir, step], ...`, new nodes `[id, name], ...`,
    renames `[id, old, new], ...` and drops `[id, name], ...`.  All 8
    columns are written, empty step lists included.  Strings go through
    the C escaper `json.dumps` uses under `ensure_ascii`.  Every int field
    is an exact int (`_check_commit` saw to it), so `!r` writes it as
    `int.__repr__` does, which is what `json.dumps` writes."""
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
            f"[{drop_items}]]\n").encode(), \
        (delta_items, node_items, rename_items, drop_items)


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
