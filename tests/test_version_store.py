import contextlib
import copy
import json
import os
import re
import sys
import warnings
import zlib
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    _reference_run, _reference_steps, reference_apply_commit,
    reference_checkpoint_graph, reference_checkpoint_state,
    reference_commit_from_row, reference_load, reference_share_strings,
    unapplied,
)
from maprepair import cli, version_store
from maprepair import fault_injector as fi
from maprepair.errors import (
    CorruptLog, DuplicateEdge, DuplicateNode, InvalidDelta, MapRepairError,
    UnknownNode, UnknownVersion,
)
from maprepair.fault_injector import (
    FAULT_MISDIRECTION, FAULT_MISNAME, FAULT_PHANTOM, WorldSpec,
    generate_world, inject,
)
from maprepair.graph_core import DIRECTIONS, REVERSE, Edge, NavGraph
from maprepair.repair_engine import (
    ACT_ROLLBACK_TO, MUTATING_ACTIONS, RepairAction, apply_action,
)
from maprepair.transcript_parser import extend_graph
from maprepair.version_store import (
    Checkpoint, Commit, EdgeDelta, TRIGGER_OBSERVATION, TRIGGER_REPAIR,
    VersionChain, _apply_commit, _check_commit, _inverse, _line, add, remove,
)


def _row(c: Commit) -> list:
    """The row of `c`, the JSON array its log line holds."""
    return [c.index, [[op, *e] for op, e in c.deltas], c.trigger, c.obs_id,
            c.analysis, [[*s] for s in c.new_nodes],
            [[*s] for s in c.renames], [[*s] for s in c.drops]]


def _object_line(c: Commit, step_id: bool = False) -> bytes:
    """The line of `c` as versions before rows wrote it, an object, and
    with `step_id` as the oldest of them wrote it, with that key after
    `index`."""
    d = c.to_json()
    if step_id:
        d = {"index": c.index, "step_id": c.obs_id, **d}
    return json.dumps(d).encode() + b"\n"


def _from_json(d: dict) -> Commit:
    """The commit of an object line, read as versions before rows read it,
    unchecked."""
    return Commit(
        d["index"],
        tuple(EdgeDelta(x["op"], Edge(x["src"], x["dst"], x["dir"], x["step"]))
              for x in d["deltas"]),
        d["trigger"], d["obs_id"], d["analysis"],
        tuple((n["id"], n["name"]) for n in d.get("nodes", ())),
        tuple((r["id"], r["old"], r["new"]) for r in d.get("renames", ())),
        tuple((n["id"], n["name"]) for n in d.get("drops", ())))


def _grow(chain, n=3):
    """Origin plus a northward corridor of n rooms."""
    ids = [chain.allocate_node_id()]
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="Room 0",
                 new_nodes=[(ids[0], "Room 0")])
    for i in range(1, n + 1):
        nid = chain.allocate_node_id()
        chain.commit([add(Edge(ids[-1], nid, "north", i))],
                     TRIGGER_OBSERVATION, obs_id=i, analysis=f"Room {i}",
                     new_nodes=[(nid, f"Room {i}")])
        ids.append(nid)
    return ids


def test_commit_indices_and_head():
    chain = VersionChain()
    assert chain.head == -1
    ids = _grow(chain)
    assert chain.head == 3
    assert [c.index for c in chain.commits] == [0, 1, 2, 3]
    assert chain.graph.nodes[ids[0]] == "Room 0"


def test_bad_commit_leaves_no_trace():
    chain = VersionChain()
    ids = _grow(chain)
    ghost = Edge(ids[0], ids[1], "west", 99)
    before = chain.graph.copy()
    with pytest.raises(InvalidDelta):
        chain.commit([remove(ghost)], TRIGGER_REPAIR, obs_id=9, analysis="")
    assert chain.head == 3
    assert chain.graph.state_equal(before)


def test_materialize_replays_prefix():
    chain = VersionChain()
    _grow(chain)
    v1 = chain.materialize(1)
    assert len(v1.nodes) == 2
    assert len(v1.edge_set()) == 1
    assert chain.materialize(chain.head).state_equal(chain.graph)


def test_from_commits_replays_a_chain_it_does_not_share():
    chain = VersionChain()
    ids = _grow(chain)
    replay = VersionChain.from_commits(chain.commits)
    assert replay.commits == chain.commits and replay.log_path is None
    assert replay.graph.state_equal(chain.graph)
    assert replay.graph.fresh_id() == chain.graph.fresh_id()
    replay.commit([add(Edge(ids[-1], ids[0], "north", 9))], TRIGGER_REPAIR,
                  obs_id=9, analysis="")
    assert chain.head == 3 and replay.head == 4


def test_rollback_is_non_destructive():
    chain = VersionChain()
    _grow(chain)
    head_before = chain.head
    snapshot = chain.graph.copy()
    rolled = chain.materialize(0)
    assert len(rolled.nodes) == 1 and rolled.edge_set() == set()
    assert chain.head == head_before
    assert chain.graph.state_equal(snapshot)


def test_rollback_equals_materialize_everywhere():
    chain = VersionChain()
    ids = _grow(chain, n=4)
    chain.commit([remove(Edge(ids[2], ids[3], "north", 3))],
                 TRIGGER_REPAIR, obs_id=5, analysis="prune")
    # one commit renaming a node twice must unwind to the first name
    chain.commit([], TRIGGER_REPAIR, obs_id=6, analysis="rename twice",
                 renames=[(ids[0], "Room 0", "B"), (ids[0], "B", "C")])
    assert chain.graph.nodes[ids[0]] == "C"
    for v in range(chain.head + 1):
        assert unapplied(chain, v).state_equal(chain.materialize(v))
    assert unapplied(chain, chain.head - 1).nodes[ids[0]] == "Room 0"


def test_recall_and_diff():
    chain = VersionChain()
    ids = _grow(chain)
    c = chain.recall_step(2)
    assert c.index == 2 and c.analysis == "Room 2"
    d = chain.diff(1, 3)
    assert d["removed"] == set()
    assert {e.step_id for e in d["added"]} == {2, 3}
    assert chain.diff(2, 2) == {"added": set(), "removed": set()}
    # version 0 is the origin snapshot: node only, no edges yet
    assert chain.materialize(0).edge_set() == set()
    assert len(chain.diff(0, 3)["added"]) == 3


def test_unknown_versions_rejected():
    chain = VersionChain()
    _grow(chain)
    # a bool is no version, though `True == 1` and `False == 0`
    for bad in (-1, chain.head + 1, 100, True, False, 1.0):
        with pytest.raises(UnknownVersion):
            chain.materialize(bad)
        with pytest.raises(UnknownVersion):
            chain.recall_step(bad)
        with pytest.raises(UnknownVersion):
            chain.diff(0, bad)


def test_rename_and_drop_round_trip():
    chain = VersionChain()
    ids = _grow(chain, n=2)
    chain.commit([], TRIGGER_REPAIR, obs_id=7, analysis="fix name",
                 renames=[(ids[1], "Room 1", "Correct Name")])
    chain.commit([remove(Edge(ids[1], ids[2], "north", 2))],
                 TRIGGER_REPAIR, obs_id=8, analysis="drop leaf",
                 drops=[(ids[2], "Room 2")])
    assert chain.graph.nodes[ids[1]] == "Correct Name"
    assert ids[2] not in chain.graph.nodes
    # inverse application restores both the name and the node
    past = unapplied(chain, 2)
    assert past.state_equal(chain.materialize(2))
    assert past.nodes[ids[1]] == "Room 1"
    assert past.nodes[ids[2]] == "Room 2"


def test_a_rename_or_drop_by_another_name_is_refused_whole(tmp_path):
    """A rename or drop that records a name the node does not have used to
    apply, so undoing the rejected commit gave the node the recorded name;
    it is refused before it changes anything, and a log line holding one
    does not load."""
    chain = VersionChain()
    hall = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="",
                 new_nodes=[(hall, "Hall")])
    lobby = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=1, analysis="",
                 new_nodes=[(lobby, "Lobby")])
    before = chain.graph.copy()
    for parts in (dict(renames=[(hall, "Kitchen", "Attic")],
                       drops=[("n9", "Ghost")]),
                  dict(drops=[(lobby, "Ghost"), ("n9", "Nobody")])):
        with pytest.raises(InvalidDelta, match="is named"):
            chain.commit([], TRIGGER_REPAIR, obs_id=2, analysis="", **parts)
        assert chain.graph.state_equal(before)
        assert chain.graph.indices_consistent()
        assert chain.head == 1
    log = tmp_path / "chain.jsonl"
    bad = Commit(2, (), TRIGGER_REPAIR, 2, "", drops=((lobby, "Ghost"),))
    log.write_bytes(b"".join(map(_line, (*chain.commits, bad))))
    with pytest.raises(CorruptLog, match=re.escape(
            f"{log}:3: {lobby} is named 'Lobby', not 'Ghost'")):
        VersionChain.load(log)


def test_wal_log_written_before_apply(tmp_path):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain)
    lines = [json.loads(x) for x in log.read_text().splitlines()]
    assert len(lines) == chain.head + 1
    # a rejected commit must leave the log untouched
    with pytest.raises(InvalidDelta):
        chain.commit([remove(Edge("nope", "nope", "north", 1))],
                     TRIGGER_REPAIR, obs_id=9, analysis="")
    assert len(log.read_text().splitlines()) == chain.head + 1
    chain.close()


def test_log_wire_format_fields(tmp_path):
    """Each line is a row of 8 columns, its empty step lists included,
    and each delta an array of op, src, dst, dir and step."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    first, second = [json.loads(x) for x in log.read_text().splitlines()]
    assert first == [0, [], "observation_update", 0, "Room 0",
                     [["n0", "Room 0"]], [], []]
    assert second == [1, [["+", "n0", "n1", "north", 1]],
                      "observation_update", 1, "Room 1", [["n1", "Room 1"]],
                      [], []]


# a log as written before each line recorded its step once, as obs_id
_OLD_FORMAT_LOG = (
    b'{"index": 0, "step_id": 0, "deltas": [], "trigger": '
    b'"observation_update", "obs_id": 0, "analysis": "Room 0", "nodes": '
    b'[{"id": "n0", "name": "Room 0"}]}\n'
    b'{"index": 1, "step_id": 1, "deltas": [{"op": "+", "src": "n0", '
    b'"dst": "n1", "dir": "north", "step": 1}], "trigger": '
    b'"observation_update", "obs_id": 1, "analysis": "Room 1", "nodes": '
    b'[{"id": "n1", "name": "Room 1"}]}\n'
    b'{"index": 2, "step_id": 2, "deltas": [{"op": "-", "src": "n0", '
    b'"dst": "n1", "dir": "north", "step": 1}, {"op": "+", "src": "n0", '
    b'"dst": "n1", "dir": "east", "step": 1}], "trigger": '
    b'"conflict_repair", "obs_id": 2, "analysis": "turn", "renames": '
    b'[{"id": "n1", "old": "Room 1", "new": "Hall"}]}\n'
    b'{"index": 3, "step_id": 3, "deltas": [{"op": "-", "src": "n0", '
    b'"dst": "n1", "dir": "east", "step": 1}], "trigger": '
    b'"conflict_repair", "obs_id": 3, "analysis": "prune", "drops": '
    b'[{"id": "n1", "name": "Hall"}]}\n')


# the same commits as rows, as `_line` writes them
_ROW_LOG = (
    b'[0, [], "observation_update", 0, "Room 0", [["n0", "Room 0"]], [], []]\n'
    b'[1, [["+", "n0", "n1", "north", 1]], "observation_update", 1, '
    b'"Room 1", [["n1", "Room 1"]], [], []]\n'
    b'[2, [["-", "n0", "n1", "north", 1], ["+", "n0", "n1", "east", 1]], '
    b'"conflict_repair", 2, "turn", [], [["n1", "Room 1", "Hall"]], []]\n'
    b'[3, [["-", "n0", "n1", "east", 1]], "conflict_repair", 3, "prune", '
    b'[], [], [["n1", "Hall"]]]\n')


@pytest.mark.parametrize("step_id", [False, True],
                         ids=["object lines", "step_id object lines"])
def test_a_log_of_object_lines_is_refused_at_its_line(tmp_path, step_id):
    """The writer makes rows, and they load.  Object lines, as versions
    before rows wrote them (with the `step_id` key of the oldest or
    without it), are not rows: `load` refuses such a line as `CorruptLog`
    at its line, also after rows, and `load(append=True)` leaves the file's
    bytes and modification time as they were."""
    new = tmp_path / "new.jsonl"
    chain = VersionChain(log_path=new)
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="Room 0",
                 new_nodes=[("n0", "Room 0")])
    chain.commit([add(Edge("n0", "n1", "north", 1))], TRIGGER_OBSERVATION,
                 obs_id=1, analysis="Room 1", new_nodes=[("n1", "Room 1")])
    chain.commit([remove(Edge("n0", "n1", "north", 1)),
                  add(Edge("n0", "n1", "east", 1))], TRIGGER_REPAIR,
                 obs_id=2, analysis="turn", renames=[("n1", "Room 1", "Hall")])
    chain.commit([remove(Edge("n0", "n1", "east", 1))], TRIGGER_REPAIR,
                 obs_id=3, analysis="prune", drops=[("n1", "Hall")])
    chain.close()
    assert new.read_bytes() == _ROW_LOG
    assert VersionChain.load(new).commits == chain.commits
    objects = b"".join(_object_line(c, step_id) for c in chain.commits)
    if step_id:
        assert objects == _OLD_FORMAT_LOG
    rows = _lines(_ROW_LOG)
    old = tmp_path / "old.jsonl"
    for wal, lineno in ((objects, 1), (b"".join(rows[:2]) + objects, 3)):
        old.write_bytes(wal)
        os.utime(old, ns=(10**18, 10**18))
        for append in (False, True):
            with pytest.raises(CorruptLog, match=re.escape(
                    f"{old}:{lineno}: a JSON object is not a row")) as caught:
                VersionChain.load(old, append=append)
            assert type(caught.value.__cause__) is ValueError
        assert old.read_bytes() == wal
        assert old.stat().st_mtime_ns == 10**18


@pytest.mark.parametrize("step_id", [False, True],
                         ids=["object line", "step_id object line"])
def test_an_object_line_before_a_checkpoint_is_refused_on_the_first_read(
        tmp_path, step_id):
    """An object line among the lines a checkpoint row was written after,
    its crc32 made to match, lets `load` start from the row, but the first
    read of a past version refuses the line at its line, and so does a
    load that replays every line."""
    log, chain, wal = _built_log(tmp_path)
    *lines, row = _lines(wal)
    lines[1] = _object_line(chain.commits[1], step_id)
    row = json.loads(row)
    row[3] = zlib.crc32(b"".join(lines))
    log.write_bytes(b"".join(lines) + json.dumps(row).encode() + b"\n")
    message = f"{log}:2: a JSON object is not a row"
    loaded = VersionChain.load(log)
    _assert_same_order(loaded, chain)
    for read in (lambda: loaded.commits[0], lambda: loaded.materialize(0),
                 lambda: loaded.recall_step(0), lambda: list(loaded.commits)):
        with pytest.raises(CorruptLog, match=f"^{re.escape(message)}$"):
            read()
    with pytest.raises(CorruptLog, match=f"^{re.escape(message)}$"):
        _full_replay(log)


def test_load_reproduces_chain(tmp_path):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain)
    chain.commit([remove(Edge(ids[1], ids[2], "north", 2))],
                 TRIGGER_REPAIR, obs_id=4, analysis="prune")
    chain.close()
    loaded = VersionChain.load(log)
    assert loaded.graph.state_equal(chain.graph)
    assert loaded.commits == chain.commits


def test_new_chain_refuses_an_existing_log(tmp_path):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain)
    chain.close()
    before = log.read_bytes()
    with pytest.raises(FileExistsError):
        VersionChain(log_path=log)
    assert log.read_bytes() == before
    assert VersionChain.load(log).commits == chain.commits

def test_load_append_continues_log(tmp_path):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain, n=1)
    chain.close()
    reopened = VersionChain.load(log, append=True)
    nid = reopened.allocate_node_id()
    reopened.commit([add(Edge(ids[-1], nid, "east", 9))],
                    TRIGGER_OBSERVATION, obs_id=9, analysis="Room X",
                    new_nodes=[(nid, "Room X")])
    reopened.close()
    final = VersionChain.load(log)
    assert final.head == 2
    assert final.graph.state_equal(reopened.graph)


@pytest.mark.parametrize("line", [_line, _object_line],
                         ids=["rows", "object lines"])
def test_load_append_leaves_an_intact_log_untouched(tmp_path, line):
    """Reopening a log that ends with a whole line, and closing it with no
    commit, changes neither its bytes nor its modification time: only a
    torn final line is cut off.  A log of object lines, which is refused
    at its first line, is left so too."""
    log, chain = _tree_log(tmp_path)
    wal = b"".join(map(line, chain.commits))
    log.write_bytes(wal)
    os.utime(log, ns=(10**18, 10**18))
    before = log.stat().st_mtime_ns
    if line is _object_line:
        with pytest.raises(CorruptLog, match=":1: a JSON object is not a "
                           "row$"):
            VersionChain.load(log, append=True)
    else:
        VersionChain.load(log, append=True).close()
    assert log.read_bytes() == wal
    assert log.stat().st_mtime_ns == before == 10**18


def _tree_log(tmp_path):
    """A log of the commit rows of a built tree, without the checkpoint row
    a build writes after them, and the chain built."""
    log = tmp_path / "tree.jsonl"
    chain = generate_world(WorldSpec("tree", (3, 2))).build()
    log.write_bytes(b"".join(map(_line, chain.commits)))
    return log, chain


def test_load_drops_a_torn_final_line(tmp_path):
    log, chain = _tree_log(tmp_path)
    wal = log.read_bytes()
    last = len(wal.splitlines(keepends=True)[-1])
    for cut in range(2, last):  # every cut inside the final line
        log.write_bytes(wal[:-cut])
        with pytest.warns(UserWarning, match="torn final line"):
            loaded = VersionChain.load(log)
        assert loaded.commits == chain.commits[:-1]
        assert loaded.graph.state_equal(chain.materialize(chain.head - 1))
    # cut at a line boundary, or only the newline gone: nothing is torn
    for cut, kept in ((last, chain.head), (1, chain.head + 1)):
        log.write_bytes(wal[:-cut])
        loaded = VersionChain.load(log)
        assert loaded.commits == chain.commits[:kept]


@pytest.mark.parametrize("cut", [20, 1])
def test_load_append_cuts_the_torn_tail_before_appending(tmp_path, cut):
    log, chain = _tree_log(tmp_path)
    wal = log.read_bytes()
    log.write_bytes(wal[:-cut])
    torn = cut > 1  # a cut newline alone leaves a line that parses
    with pytest.warns(UserWarning) if torn else contextlib.nullcontext():
        reopened = VersionChain.load(log, append=True)
    nid = reopened.allocate_node_id()
    c = reopened.commit([add(Edge(reopened.graph.origin, nid, "up", 99))],
                        TRIGGER_OBSERVATION, obs_id=99, analysis="Loft",
                        new_nodes=[(nid, "Loft")])
    reopened.close()
    kept = wal[:wal.rindex(b"\n", 0, -1) + 1] if torn else wal
    assert log.read_bytes() == kept + json.dumps(_row(c)).encode() + b"\n"
    final = VersionChain.load(log)
    assert final.commits == reopened.commits
    assert final.graph.state_equal(reopened.graph)


def test_load_rejects_gaps_reordering_and_garbled_lines(tmp_path):
    log, chain = _tree_log(tmp_path)
    lines = log.read_bytes().splitlines(keepends=True)
    gap = lines[:3] + lines[4:]
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    garbled = lines[:3] + [lines[3][:10] + b"\n"] + lines[4:]
    for broken in (gap, swapped, garbled, lines[1:]):
        log.write_bytes(b"".join(broken))
        with pytest.raises(CorruptLog):
            VersionChain.load(log)
    assert issubclass(CorruptLog, MapRepairError)


def test_commit_json_round_trip():
    """`to_json`, the payload of `RecallStep` and of the `--commits`
    output digest, names every field: its keys read back to the commit."""
    c = Commit(index=4, trigger=TRIGGER_REPAIR, obs_id=9,
               analysis="swap",
               deltas=(remove(Edge("n1", "n2", "up", 3)),
                       add(Edge("n1", "n2", "down", 3))),
               new_nodes=(("n3", "Den"),), renames=(("n2", "Old", "New"),),
               drops=(("n4", "Shed"),))
    assert _from_json(c.to_json()) == c
    assert c.to_json()["deltas"] == [
        {"op": "-", "src": "n1", "dst": "n2", "dir": "up", "step": 3},
        {"op": "+", "src": "n1", "dst": "n2", "dir": "down", "step": 3}]


def _commit_with_one_bad_step(data, chain, ids):
    """A commit that is valid step by step except for one bad step at a
    random position, and the error it raises.  The edge out of ids[1] at
    step 2 is never removed, so a duplicate of its key and a drop of its
    endpoint always fail; the origin, ids[0], is never a valid drop."""
    sim = chain.graph.copy()
    pinned = Edge(ids[1], ids[2], "north", 2)
    new_nodes = [(f"x{i}", f"Extra {i}")
                 for i in range(data.draw(st.integers(0, 2)))]
    for nid, name in new_nodes:
        sim.add_node(name, node_id=nid)
    deltas = []
    for step in range(100, 100 + data.draw(st.integers(0, 4))):
        live = sorted(sim.edge_set() - {pinned})
        if live and data.draw(st.booleans()):
            e = data.draw(st.sampled_from(live))
            sim.remove_edge(e)
            deltas.append(remove(e))
        else:
            nodes = sorted(sim.nodes)
            e = sim.add_edge(data.draw(st.sampled_from(nodes)),
                             data.draw(st.sampled_from(nodes)),
                             data.draw(st.sampled_from(["east", "up"])), step)
            deltas.append(add(e))
    renames = []
    for i in range(data.draw(st.integers(0, 2))):
        nid = data.draw(st.sampled_from(sorted(sim.nodes)))
        renames.append((nid, sim.nodes[nid], f"Renamed {i}"))
        sim.rename_node(nid, f"Renamed {i}")
    bare = [n for n in sorted(sim.nodes)
            if not sim.out_edges(n) and not sim.in_edges(n) and n != ids[0]]
    drops = [(n, sim.nodes[n])
             for n in data.draw(st.lists(st.sampled_from(bare), unique=True)
                                if bare else st.just([]))]

    bad = data.draw(st.sampled_from(
        ["absent_edge", "duplicate_key", "unknown_node", "drop_with_edges",
         "drop_origin", "duplicate_node_id", "name_not_str"]))
    error = MapRepairError
    if bad == "name_not_str":
        # the commit's check refuses it before any step applies
        error = TypeError
        name = data.draw(st.sampled_from([5, ["x"], None]))
        if data.draw(st.booleans()):
            target, bad_step = new_nodes, ("x9", name)
        else:
            nid = data.draw(st.sampled_from(sorted(chain.graph.nodes)))
            target, bad_step = renames, (nid, chain.graph.nodes[nid], name)
    elif bad == "duplicate_node_id":
        target, bad_step = new_nodes, (ids[1], "Again")
    elif bad == "absent_edge":
        target, bad_step = deltas, remove(Edge(ids[0], ids[1], "up", 999))
    elif bad == "duplicate_key":
        target, bad_step = deltas, add(Edge(ids[1], ids[3], "north", 2))
    elif bad == "unknown_node" and data.draw(st.booleans()):
        target, bad_step = deltas, add(Edge(ids[0], "ghost", "east", 998))
    elif bad == "unknown_node":
        target, bad_step = renames, ("ghost", "Ghost", "Still A Ghost")
    elif bad == "drop_origin":
        target, bad_step = drops, (ids[0], sim.nodes[ids[0]])
    else:
        target, bad_step = drops, (ids[2], sim.nodes[ids[2]])
    target.insert(data.draw(st.integers(0, len(target))), bad_step)
    return dict(deltas=deltas, new_nodes=new_nodes, renames=renames,
                drops=drops), error


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rejected_commit_leaves_graph_and_log_untouched(data, tmp_path_factory):
    log = tmp_path_factory.mktemp("wal") / "chain.jsonl"
    chain = VersionChain(log_path=log)
    try:
        ids = _grow(chain, n=4)
        # cut the origin loose, so a drop of it fails for being the origin
        # (unless the bad commit gives it an edge)
        chain.commit([remove(Edge(ids[0], ids[1], "north", 1)),
                      add(Edge(ids[3], ids[1], "south", 5))],
                     TRIGGER_OBSERVATION, obs_id=5, analysis="loop back")
        parts, error = _commit_with_one_bad_step(data, chain, ids)
        before, head, wal = chain.graph.copy(), chain.head, log.read_bytes()
        with pytest.raises(error):
            chain.commit(trigger=TRIGGER_REPAIR, obs_id=9, analysis="bad",
                         **parts)
        assert chain.graph.state_equal(before)
        assert chain.graph.indices_consistent()
        assert chain.head == head
        assert log.read_bytes() == wal
    finally:
        chain.close()


class _FailingLog:
    def write(self, line):
        raise OSError("disk full")

    def close(self):
        pass


def test_failed_log_write_undoes_the_commit(tmp_path):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain)
    before, head, wal = chain.graph.copy(), chain.head, log.read_bytes()
    real_log, chain._log = chain._log, _FailingLog()
    with pytest.raises(OSError):
        # every kind of step, a drop of the corridor's end among them
        chain.commit([remove(Edge(ids[2], ids[3], "north", 3)),
                      add(Edge(ids[2], "x0", "east", 9))],
                     TRIGGER_REPAIR, obs_id=9, analysis="doomed",
                     new_nodes=[("x0", "Annex")],
                     renames=[(ids[1], "Room 1", "Hall")],
                     drops=[(ids[3], "Room 3")])
    assert chain.graph.state_equal(before)
    assert chain.graph.indices_consistent()
    assert chain.head == head
    chain._log = real_log
    # the chain stays usable and its log still replays to the live graph
    c = chain.commit([], TRIGGER_REPAIR, obs_id=10, analysis="ok",
                     renames=[(ids[1], "Room 1", "Hall")])
    chain.close()
    assert c.index == head + 1
    assert log.read_bytes().startswith(wal)
    assert VersionChain.load(log).graph.state_equal(chain.graph)


def _counting_fsync(monkeypatch, fail=False):
    """Replace `os.fsync` with a recorder of the descriptors it is given;
    with `fail`, every call raises as a failing disk would."""
    synced = []

    def fsync(fd):
        synced.append(fd)
        if fail:
            raise OSError("I/O error")

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def test_fsync_runs_once_per_commit_only_when_asked(tmp_path, monkeypatch):
    synced = _counting_fsync(monkeypatch)
    plain = VersionChain(log_path=tmp_path / "plain.jsonl")
    _grow(plain, n=3)
    plain.close()
    assert synced == []

    log = tmp_path / "durable.jsonl"
    chain = VersionChain(log_path=log, fsync=True)
    ids = _grow(chain, n=3)
    assert synced == [chain._log.fileno()] * 4
    chain.close()

    for fsync, more in ((False, 0), (True, 1)):
        synced.clear()
        reopened = VersionChain.load(log, append=True, fsync=fsync)
        reopened.commit([], TRIGGER_REPAIR, obs_id=9, analysis="rename",
                        renames=[(ids[1], reopened.graph.nodes[ids[1]],
                                  f"Hall {fsync}")])
        assert len(synced) == more
        reopened.close()
    assert VersionChain.load(log).head == 5


def test_failed_fsync_undoes_the_commit(tmp_path, monkeypatch):
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log, fsync=True)
    ids = _grow(chain)
    before, head = chain.graph.copy(), chain.head
    synced = _counting_fsync(monkeypatch, fail=True)
    with pytest.raises(OSError):
        chain.commit([remove(Edge(ids[0], ids[1], "north", 1))],
                     TRIGGER_REPAIR, obs_id=9, analysis="doomed",
                     renames=[(ids[1], "Room 1", "Hall")])
    assert len(synced) == 1
    assert chain.graph.state_equal(before)
    assert chain.graph.indices_consistent()
    assert chain.head == head
    chain.close()
class _TornLog:
    """A log whose write reaches the file only halfway, then fails."""

    def __init__(self, real):
        self.real = real

    def write(self, line):
        self.real.write(line[:len(line) // 2])
        self.real.flush()
        raise OSError("disk full")

    def fileno(self):
        return self.real.fileno()


# how an append to the log fails: its write raises, its write reaches the
# file halfway and raises, or its sync raises
_APPEND_FAULTS = ["write", "torn write", "fsync"]


def _fail_appends(chain, monkeypatch, fault):
    """Make every append to `chain`'s log fail by `fault`; returns the
    chain's real log, to be put back once `monkeypatch` is undone."""
    real_log = chain._log
    if fault == "write":
        chain._log = _FailingLog()
    elif fault == "torn write":
        chain._log = _TornLog(real_log)
    else:
        _counting_fsync(monkeypatch, fail=True)
    return real_log


@pytest.mark.parametrize("fault", _APPEND_FAULTS)
def test_failed_commit_leaves_no_line_in_the_log(tmp_path, monkeypatch,
                                                  fault):
    """A commit whose write fails, whose line is written only in part or
    whose sync fails is undone and cut from the log, which keeps its bytes:
    the same commit tried again takes its index, and the log replays to the
    chain."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log, fsync=True)
    ids = _grow(chain)
    before, wal = chain.graph.copy(), log.read_bytes()
    doomed = dict(deltas=[remove(Edge(ids[0], ids[1], "north", 1))],
                  trigger=TRIGGER_REPAIR, obs_id=9, analysis="doomed",
                  renames=[(ids[1], "Room 1", "Hall")])
    real_log = _fail_appends(chain, monkeypatch, fault)
    with pytest.raises(OSError):
        chain.commit(**doomed)
    assert log.read_bytes() == wal
    assert chain.graph.state_equal(before)
    assert chain.head == 3
    monkeypatch.undo()
    chain._log = real_log
    c = chain.commit(**doomed)
    chain.close()
    assert c.index == 4
    loaded = VersionChain.load(log)
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)


# quotes, backslashes, control, non-ASCII, astral and lone surrogate
# characters all occur
_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\U0001f600\ud800'),
    st.characters()))


def _random_commit(data, g, used_steps: set) -> dict:
    """The parts of a commit that applies to `g`: new nodes, removals and
    additions of edges, renames and drops, with names and ids drawn from
    `_TEXT` and any int as a step id.  An added edge may take the step id
    of an edge the commit removes (and so its key, as a redirect does),
    and a room may be renamed twice.  The origin is dropped only as the
    last room, as `remove_node` allows."""
    sim = g.copy()
    new_nodes = []
    for nid in data.draw(st.lists(_TEXT, max_size=3, unique=True)):
        if nid not in sim.nodes:
            new_nodes.append((nid, data.draw(_TEXT)))
            sim.add_node(new_nodes[-1][1], node_id=nid)
    live = sorted(sim.edge_set())
    deltas = [remove(e) for e in data.draw(
        st.lists(st.sampled_from(live), max_size=2, unique=True)
        if live else st.just([]))]
    for delta in deltas:
        sim.remove_edge(delta.edge)
    nodes = sorted(sim.nodes)
    # the step id of a removed edge may come back, once
    freed = [delta.edge.step_id for delta in deltas]
    for _ in range(data.draw(st.integers(0, 3)) if nodes else 0):
        if freed and data.draw(st.booleans()):
            step = freed.pop()
        else:
            step = data.draw(
                st.integers().filter(lambda s: s not in used_steps))
            used_steps.add(step)
        deltas.append(add(sim.add_edge(
            data.draw(st.sampled_from(nodes)),
            data.draw(st.sampled_from(nodes)),
            data.draw(st.sampled_from(DIRECTIONS)), step)))
    renames = []
    for nid in data.draw(st.lists(st.sampled_from(nodes), max_size=2)
                         if nodes else st.just([])):
        renames.append((nid, sim.nodes[nid], data.draw(_TEXT)))
        sim.rename_node(nid, renames[-1][2])
    ends = {m for e in sim.edges() for m in e[:2]}
    bare = [n for n in sorted(sim.nodes) if n not in ends and n != sim.origin]
    drops = [(n, sim.nodes[n]) for n in data.draw(
        st.lists(st.sampled_from(bare), max_size=2, unique=True)
        if bare else st.just([]))]
    if len(sim.nodes) == len(drops) + 1 and sim.origin not in ends \
            and data.draw(st.booleans()):
        drops.append((sim.origin, sim.nodes[sim.origin]))
    return dict(deltas=deltas, new_nodes=new_nodes, renames=renames,
                drops=drops, trigger=data.draw(_TEXT),
                obs_id=data.draw(st.integers()), analysis=data.draw(_TEXT))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_each_log_line_is_json_dumps_of_its_commit(data, tmp_path_factory):
    """The line writer formats each commit as `json.dumps` of its row
    plus a newline, byte for byte, whatever its steps and names."""
    log = tmp_path_factory.mktemp("wal") / "chain.jsonl"
    chain = VersionChain(log_path=log)
    used_steps: set = set()
    try:
        for _ in range(data.draw(st.integers(1, 5))):
            end = log.stat().st_size
            parts = _random_commit(data, chain.graph, used_steps)
            if _holds_surrogate_pair(parts):
                # its line would load as another commit: refused unwritten
                before = chain.graph.copy()
                with pytest.raises(ValueError, match="surrogate pair"):
                    chain.commit(**parts)
                assert log.stat().st_size == end
                assert chain.graph.state_equal(before)
                continue
            c = chain.commit(**parts)
            assert log.read_bytes()[end:] == _line(c) == (
                json.dumps(_row(c)) + "\n").encode()
    finally:
        chain.close()
    loaded = VersionChain.load(log)
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)


_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _holds_surrogate_pair(parts: dict) -> bool:
    """Does a str of `_random_commit`'s parts hold a high surrogate right
    before a low one?"""
    texts = [parts["trigger"], parts["analysis"]]
    for _, e in parts["deltas"]:
        texts += e[:2]
    for step in (*parts["new_nodes"], *parts["renames"], *parts["drops"]):
        texts += step
    return any(_SURROGATE_PAIR.search(t) for t in texts)


def test_a_surrogate_pair_is_refused_before_it_reaches_the_log(tmp_path):
    """`json.dumps` writes a high surrogate then a low one as the escapes
    of the character they encode, so a commit holding such a pair would
    load as another commit: `commit` refuses it, writes nothing and leaves
    the graph as it was.  That character itself, and a lone surrogate,
    load back as they were."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    chain.commit([], TRIGGER_OBSERVATION, 0, "\U00010000",
                 new_nodes=[("n0", "\ud800")])
    end, before = log.stat().st_size, chain.graph.copy()
    for pair in ({"analysis": "a\ud800\udc00"},
                 {"analysis": "",
                  "renames": [("n0", "\ud800", "\udbff\udfff")]}):
        with pytest.raises(ValueError, match="surrogate pair"):
            chain.commit([], TRIGGER_OBSERVATION, 1, **pair)
        assert log.stat().st_size == end and chain.head == 0
        assert chain.graph.state_equal(before)
    chain.commit([], TRIGGER_OBSERVATION, 1, "\udc00\ud800")  # no pair
    chain.close()
    loaded = VersionChain.load(log)
    assert loaded.commits == chain.commits


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_inverse_commit_undoes_a_commit_and_each_of_its_prefixes(data):
    """Applying a commit and then its inverse restores the graph; so does
    applying the first k steps (run one by one by the reference) and then
    `_inverse(c, k)`, for every k, and it leaves the rooms and edges in the
    order the reference's step-by-step undo does; and the inverse of the
    inverse is the commit.  The origin is restored with the rest: a commit
    drops it only as the last room, and its inverse re-adds it first."""
    chain = VersionChain()
    used_steps: set = set()
    for _ in range(data.draw(st.integers(1, 4))):
        before = chain.graph.copy()
        parts = _random_commit(data, chain.graph, used_steps)
        if _holds_surrogate_pair(parts):
            # refused unapplied: there is no commit to invert
            with pytest.raises(ValueError, match="surrogate pair"):
                chain.commit(**parts)
            assert chain.graph.state_equal(before)
            continue
        c = chain.commit(**parts)
        after = chain.graph.copy()
        assert _inverse(_inverse(c)) == c
        steps = _reference_steps(c)
        for k in range(len(steps) + 1):
            # `copy` re-sorts the edges, so each side copies `before`
            g, reference = before.copy(), before.copy()
            for step in steps[:k]:
                _reference_run(g, step, forward=True)
                _reference_run(reference, step, forward=True)
            for step in reversed(steps[:k]):
                _reference_run(reference, step, forward=False)
            _apply_commit(g, _inverse(c, k))
            assert g.state_equal(before)
            assert g.indices_consistent()
            # in the order of the reference's undo, last step first
            assert list(g.nodes.items()) == list(reference.nodes.items())
            assert list(g.edges()) == list(reference.edges())
        assert _inverse(c, len(steps)) == _inverse(c)
        _apply_commit(chain.graph, _inverse(c))
        assert chain.graph.state_equal(before)
        chain.graph = after


def test_undo_from_the_head_reads_no_edge_list():
    """Undoing every commit of a built 30x30 grid, last first, empties the
    graph without listing its edges: `remove_node` reads the room's
    in-degree count, so the undo of a commit costs the commit's size, not
    the graph's."""
    chain = generate_world(WorldSpec("grid", (30, 30))).build()
    g = chain.graph
    with mock.patch.object(type(g), "edges",
                           side_effect=AssertionError("edges() read")):
        for c in reversed(chain.commits):
            _apply_commit(g, _inverse(c))
    assert g.nodes == {} and g.origin is None
    assert g.indices_consistent() and not g._in_degree


@pytest.mark.parametrize("obs_id, node_id, error", [
    (True, "x0", ValueError), (1.5, "x0", ValueError),
    ("3", "x0", ValueError), (None, "x0", ValueError),
    (9, 7, TypeError),
])
def test_a_commit_the_writer_cannot_write_is_refused_whole(
        tmp_path, obs_id, node_id, error):
    """A non-int obs_id and a room id the line writer cannot format (an
    int) are refused before any step applies: graph, commits and log stay
    as they were, and the chain goes on."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain)
    before, commits, wal = chain.graph.copy(), list(chain.commits), \
        log.read_bytes()
    with pytest.raises(error):
        chain.commit([add(Edge(ids[3], node_id, "east", 9))], TRIGGER_REPAIR,
                     obs_id=obs_id, analysis="doomed",
                     new_nodes=[(node_id, "Annex")])
    assert chain.graph.state_equal(before)
    assert chain.graph.indices_consistent()
    assert chain.commits == commits
    assert log.read_bytes() == wal
    c = chain.commit([], TRIGGER_REPAIR, obs_id=4, analysis="ok")
    chain.close()
    assert c.index == 4
    assert VersionChain.load(log).graph.state_equal(chain.graph)


# JSON values of the wrong type for an int field and for a str field
_NOT_INT = st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.lists(st.integers(), max_size=2))
_NOT_STR = st.one_of(st.integers(), st.none(),
                     st.lists(st.text(max_size=2), max_size=2))


def _set_wrong_type(data, parts: dict, kind: str) -> None:
    """Set one field of `kind` that the caller supplies in `parts` (a
    scalar, a delta's op, src, dst, direction or step_id, a room id or a
    room name) to a JSON value of the wrong type."""
    if kind in ("obs_id", "trigger", "analysis"):
        slots = [(kind, None, None)]
    elif kind in ("room id", "room name"):
        slots = [(key, i, j) for key in ("new_nodes", "renames", "drops")
                 for i, step in enumerate(parts[key])
                 for j in range(len(step)) if (j == 0) == (kind == "room id")]
    else:
        slots = [("deltas", i, kind) for i in range(len(parts["deltas"]))]
    assume(slots)
    key, i, field = data.draw(st.sampled_from(slots))
    is_int = key == "obs_id" or field == "step_id"
    value = data.draw(_NOT_INT if is_int else _NOT_STR)
    if i is None:
        parts[key] = value
    elif key != "deltas":
        step = list(parts[key][i])
        step[field] = value
        parts[key][i] = tuple(step)
    elif field == "op":
        parts[key][i] = parts[key][i]._replace(op=value)
    else:
        delta = parts[key][i]
        parts[key][i] = delta._replace(
            edge=delta.edge._replace(**{field: value}))


@pytest.mark.parametrize("kind", [
    None, "obs_id", "trigger", "analysis", "op", "src", "dst", "direction",
    "step_id", "room id", "room name"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commit_and_load_refuse_the_same_commits(kind, data,
                                                 tmp_path_factory):
    """A commit with no fault, or with one field of the wrong type, is
    taken alike by a logged `commit`, a log-less `commit` and `load` of
    its row (`json.dumps` of it): all three accept it, as equal commits
    with equal graphs, or all three refuse it with the same error and
    change nothing.  `load` refuses it as `CorruptLog` at its line, and
    drops it as a torn line when its newline is missing.  A commit with no
    fault but a surrogate pair is refused by both `commit`s, as
    `test_each_log_line_is_json_dumps_of_its_commit` shows, and changes
    nothing."""
    tmp = tmp_path_factory.mktemp("wal")
    logged = VersionChain(log_path=tmp / "chain.jsonl")
    free = VersionChain()
    try:
        _grow(logged)
        _grow(free)
        parts = _random_commit(data, free.graph, {1, 2, 3})
        if kind is not None:
            _set_wrong_type(data, parts, kind)
        before, commits = free.graph.copy(), list(free.commits)
        wal = logged.log_path.read_bytes()
        c = Commit(
            len(commits), tuple(parts["deltas"]), parts["trigger"],
            parts["obs_id"], parts["analysis"], tuple(parts["new_nodes"]),
            tuple(parts["renames"]), tuple(parts["drops"]))
        row = json.dumps(_row(c)).encode()
        outcomes = []
        for chain in (logged, free):
            try:
                outcomes.append(chain.commit(**parts))
            except (ValueError, TypeError) as exc:
                outcomes.append((type(exc), str(exc)))
    finally:
        logged.close()
    assert outcomes[0] == outcomes[1]
    if kind is None and _holds_surrogate_pair(parts):
        # its line would load as another commit: refused unwritten
        assert outcomes[0][0] is ValueError
        assert "surrogate pair" in outcomes[0][1]
        assert logged.log_path.read_bytes() == wal
        for chain in (logged, free):
            assert chain.graph.state_equal(before)
            assert chain.commits == commits
        return
    log = tmp / "loaded.jsonl"
    log.write_bytes(wal + row + b"\n")
    if kind is None:
        assert logged.log_path.read_bytes() == wal + row + b"\n"
        loaded = VersionChain.load(log)
        assert loaded.commits == logged.commits == free.commits
        assert loaded.commits[-1] == outcomes[0]
        assert loaded.graph.state_equal(logged.graph)
        assert free.graph.state_equal(logged.graph)
        return
    error, message = outcomes[0]
    for chain in (logged, free):
        assert chain.graph.state_equal(before)
        assert chain.graph.indices_consistent()
        assert chain.commits == commits
    assert logged.log_path.read_bytes() == wal
    with pytest.raises(CorruptLog) as caught:
        VersionChain.load(log)
    assert str(caught.value) == f"{log}:5: {message}"
    assert type(caught.value.__cause__) is error
    log.write_bytes(wal + row)
    with pytest.warns(UserWarning, match=re.escape(f"{log}:5: dropped")):
        loaded = VersionChain.load(log)
    assert loaded.commits == commits
    assert loaded.graph.state_equal(before)


@pytest.mark.parametrize("where", ["rename", "delta src"])
def test_commit_and_load_name_the_same_fault(tmp_path, where):
    """A surrogate pair in one field and a wrongly typed field after it:
    `commit` and `load` of the `json.dumps` line, which decodes the pair
    to one character, both refuse the commit for the type.  The two
    examples `test_commit_and_load_refuse_the_same_commits` once failed
    on, whose draws an explicit example cannot script across that test's
    kinds."""
    pair = "\ud800\udc00"
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    try:
        ids = _grow(chain, n=2)
        wal = log.read_bytes()
        if where == "rename":
            parts = dict(deltas=[remove(Edge(ids[1], ids[2], "north", 2))],
                         renames=[(ids[1], "Room 1", pair)],
                         drops=[(ids[2], 0)])
        else:
            parts = dict(deltas=[add(Edge(ids[0] + pair, ids[1], "up", 9))],
                         new_nodes=[(ids[0] + pair, 0)])
        message = "room name is not a str: 0"
        with pytest.raises(TypeError, match=f"^{message}$"):
            chain.commit(trigger=TRIGGER_REPAIR, obs_id=3, analysis="x",
                         **parts)
    finally:
        chain.close()
    assert log.read_bytes() == wal
    c = Commit(chain.head + 1, tuple(parts["deltas"]), TRIGGER_REPAIR, 3, "x",
               tuple(parts.get("new_nodes", ())),
               tuple(parts.get("renames", ())), tuple(parts.get("drops", ())))
    log.write_bytes(wal + json.dumps(_row(c)).encode() + b"\n")
    with pytest.raises(CorruptLog) as caught:
        VersionChain.load(log)
    assert str(caught.value) == f"{log}:{chain.head + 2}: {message}"


def _log_with_line(tmp_path, delta: Optional[list], newline: bool = True,
                   **fields):
    """A log of commits 0 and 1 (n0 -> n1 north 1), then the row of a
    commit 2 holding `delta` (if any) and `fields`, columns by their
    `_KEYS` names, with or without its newline."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    columns = {"index": 2, "deltas": [delta] if delta else [],
               "trigger": TRIGGER_REPAIR, "obs_id": 2, "analysis": "bad",
               "nodes": [], "renames": [], "drops": [], **fields}
    row = [columns[key] for key in _KEYS["commit"]]
    with open(log, "ab") as fh:
        fh.write(json.dumps(row).encode() + (b"\n" if newline else b""))
    return log, chain


def test_load_rejects_an_unknown_delta_op(tmp_path, capsys):
    """An op other than "+" or "-" does not parse: it used to remove the
    edge it names."""
    bad = ["x", "n0", "n1", "north", 1]
    log, chain = _log_with_line(tmp_path, bad)
    with pytest.raises(CorruptLog,
                       match=re.escape(f"{log}:3: unknown delta op: 'x'")):
        VersionChain.load(log)
    assert cli.main(["export", "--log", str(log)]) == 2
    assert f"{log}:3: unknown delta op" in capsys.readouterr().err

    log.unlink()
    log, chain = _log_with_line(tmp_path, bad, newline=False)
    with pytest.warns(UserWarning, match="torn final line"):
        loaded = VersionChain.load(log)
    assert loaded.head == 1
    assert loaded.graph.state_equal(chain.graph)


def test_commit_refuses_an_unknown_delta_op(tmp_path):
    """The op is checked before anything applies: it used to remove the
    edge and write a line that does not load."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain, n=1)
    before, wal = chain.graph.copy(), log.read_bytes()
    with pytest.raises(ValueError, match="unknown delta op: 'x'"):
        chain.commit([EdgeDelta("x", Edge(ids[0], ids[1], "north", 1))],
                     TRIGGER_REPAIR, obs_id=2, analysis="bad")
    chain.close()
    assert chain.head == 1
    assert chain.graph.state_equal(before)
    assert log.read_bytes() == wal


@pytest.mark.parametrize("delta, fields, cause", [
    (["-", "n0", "n1", "east", 7], {}, InvalidDelta),
    (["+", "n0", "ghost", "east", 7], {}, UnknownNode),
    (["+", "n0", "n0", "north", 1], {}, DuplicateEdge),
    (None, {"nodes": [["n1", "Again"]]}, DuplicateNode),
    (None, {"drops": [["n1", "Room 1"]]}, InvalidDelta),
    (None, {"nodes": [["n9", 1]]}, TypeError),
    (None, {"nodes": [[[], "Hall"]]}, TypeError),
    (None, {"renames": [["n1", "Room 1", None]]}, TypeError),
    (["+", "n0", "n1", [], 7], {}, TypeError),
], ids=["absent edge", "unknown node", "duplicate key", "node id in use",
        "drop of a room with edges", "name", "node id", "new name",
        "direction"])
def test_load_reports_a_commit_that_does_not_apply(tmp_path, capsys, delta,
                                                   fields, cause):
    """A line that parses but does not apply (a map error), or whose
    commit fails the check (a name, a room id or a direction of the wrong
    type), is `CorruptLog` at its line, caused by the error raised, not a
    traceback."""
    log, _ = _log_with_line(tmp_path, delta, **fields)
    with pytest.raises(CorruptLog) as caught:
        VersionChain.load(log)
    exc = caught.value
    assert type(exc.__cause__) is cause
    assert str(exc) == f"{log}:3: {exc.__cause__}"
    assert cli.main(["export", "--log", str(log)]) == 2
    assert f"{log}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("dir", "sideways", "unknown direction: 'sideways'"),
    ("step", "1", "step id is not an int: '1'"),
    ("step", 1.5, "step id is not an int: 1.5"),
    ("step", True, "step id is not an int: True"),
    ("index", True, "commit index is not an int: True"),
    ("obs_id", "0", "obs_id is not an int: '0'"),
    ("obs_id", True, "obs_id is not an int: True"),
    ("obs_id", 1.5, "obs_id is not an int: 1.5"),
    ("obs_id", None, "obs_id is not an int: None"),
    ("trigger", 7, "trigger is not a str: 7"),
    ("analysis", 5, "analysis is not a str: 5"),
    ("deltas", "", "deltas is not an array: ''"),
    ("deltas", {}, "deltas is not an array: {}"),
    ("nodes", "", "nodes is not an array: ''"),
    ("nodes", {}, "nodes is not an array: {}"),
    ("renames", "", "renames is not an array: ''"),
    ("drops", {}, "drops is not an array: {}"),
], ids=["direction", "step str", "step float", "step bool", "index",
        "obs_id str", "obs_id bool", "obs_id float", "obs_id null",
        "trigger", "analysis", "deltas str", "deltas object", "nodes str",
        "nodes object", "renames str", "drops object"])
def test_a_field_no_writer_makes_does_not_parse(tmp_path, capsys, key, value,
                                                message):
    """A commit index that is not an int (`True == 1` passed the sequence
    check), a direction not in `DIRECTIONS` or a step id that is not an int
    used to load, and `detect` then failed far from the line; so did an
    obs_id that is not an int and a trigger or analysis that is not a str,
    and `load(append=True)` wrote further commits after them.  A `deltas`,
    `nodes`, `renames` or `drops` that is not an array (`""` or `{}`) loaded
    as no steps, and the commit lost the steps of its line.  Each is
    `CorruptLog` at its line, or a dropped torn final line; `commit`
    refuses such a scalar field before anything applies."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    first, second = log.read_bytes().splitlines(keepends=True)
    row = json.loads(second)
    if key in ("dir", "step"):
        row[1][0][3 if key == "dir" else 4] = value
    else:
        row[_KEYS["commit"].index(key)] = value
    bad = json.dumps(row).encode()
    log.write_bytes(first + bad + b"\n")
    with pytest.raises(CorruptLog, match=re.escape(f"{log}:2: {message}")):
        VersionChain.load(log)
    assert cli.main(["detect", "--log", str(log)]) == 2
    assert f"{log}:2: {message}" in capsys.readouterr().err
    log.write_bytes(first + bad)
    with pytest.warns(UserWarning, match="torn final line"):
        assert VersionChain.load(log).commits == chain.commits[:1]

    with pytest.warns(UserWarning, match="torn final line"):
        loaded = VersionChain.load(log, append=True)
    try:
        assert loaded.commits == chain.commits[:1]
        if key not in ("dir", "step", "obs_id", "trigger", "analysis"):
            return  # `commit` sets the index and takes any step iterables
        wal = log.read_bytes()
        before = loaded.graph.copy()
        parts = dict(deltas=[], trigger=TRIGGER_REPAIR, obs_id=1,
                     analysis="bad")
        if key in ("dir", "step"):
            field = {"dir": "direction", "step": "step_id"}[key]
            parts["deltas"] = [add(Edge("n0", "n0", "east", 2)._replace(
                **{field: value}))]
        else:
            parts[key] = value
        error = TypeError if "not a str" in message else ValueError
        with pytest.raises(error, match=re.escape(message)):
            loaded.commit(**parts)
    finally:
        loaded.close()
    assert loaded.head == 0
    assert loaded.graph.state_equal(before)
    assert log.read_bytes() == wal


def _bad_row(column: Optional[int] = None, value=None, length: int = 8):
    """The row of a commit 2 with `value` in `column`, cut or padded to
    `length` columns."""
    row = [2, [], TRIGGER_REPAIR, 2, "bad", [], [], []]
    if column is not None:
        row[column] = value
    return (row + ["extra"] * length)[:length]


@pytest.mark.parametrize("row, message, unpacks", [
    (7, "a JSON number is not a row", False),
    (-1.5e3, "a JSON number is not a row", False),
    ("row", "a JSON string is not a row", False),
    (None, "a JSON null is not a row", False),
    (True, "a JSON boolean is not a row", False),
    ({}, "a JSON object is not a row", False),
    (_bad_row(length=7), "a row has 7 columns, not 8", False),
    (_bad_row(length=9), "a row has 9 columns, not 8", False),
    (_bad_row(1, {"op": "+"}), "deltas is not an array: {'op': '+'}", False),
    (_bad_row(1, [["-", "n0", "n1", "north"]]),
     "deltas holds ['-', 'n0', 'n1', 'north'], not an array of 5 items",
     False),
    (_bad_row(1, [["-", "n0", "n1", "north", 1, 1]]),
     "deltas holds ['-', 'n0', 'n1', 'north', 1, 1], not an array of 5 "
     "items", False),
    (_bad_row(6, [["n1", "Hall"]]),
     "renames holds ['n1', 'Hall'], not an array of 3 items", False),
    (_bad_row(5, ["ab"]), "nodes holds 'ab', not an array of 2 items",
     True),
    (_bad_row(5, [{"id": "n2", "name": "Hall"}]),
     "nodes holds {'id': 'n2', 'name': 'Hall'}, not an array of 2 items",
     True),
    (_bad_row(7, ["ab"]), "drops holds 'ab', not an array of 2 items",
     True),
    (_bad_row(7, [{"id": "n1", "name": "Room 1"}]),
     "drops holds {'id': 'n1', 'name': 'Room 1'}, not an array of 2 items",
     True),
], ids=["int", "float", "string", "null", "true", "empty object",
        "7 columns", "9 columns", "deltas object", "delta of 4",
        "delta of 6", "rename of 2", "node str", "node object", "drop str",
        "drop object"])
def test_a_row_the_writer_cannot_write_does_not_parse(tmp_path, capsys, row,
                                                      message, unpacks):
    """A line that is not a row (any JSON value but an array, named by its
    type), or a row of other than 8 columns, or whose step list is not an
    array of arrays of 5 (a delta), 2 (a node or drop) or 3 (a rename)
    items, is `CorruptLog` at its line, or a dropped torn final line,
    before its commit is checked.  A node or drop given as a 2-character
    str or a 2-key object unpacks to two strs that the commit check
    passes, so only the shape check refuses it."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    wal = log.read_bytes()
    if unpacks:
        _check_commit(reference_commit_from_row(row))
    bad = json.dumps(row).encode()
    log.write_bytes(wal + bad + b"\n")
    with pytest.raises(CorruptLog) as caught:
        VersionChain.load(log)
    assert str(caught.value) == f"{log}:3: {message}"
    assert type(caught.value.__cause__) is (
        ValueError if "columns" in message or message.endswith("not a row")
        else TypeError)
    assert cli.main(["detect", "--log", str(log)]) == 2
    assert f"{log}:3: {message}" in capsys.readouterr().err
    log.write_bytes(wal + bad)
    with pytest.warns(UserWarning, match="torn final line"):
        loaded = VersionChain.load(log)
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)


# -- replay equals its first version on random logs, corrupted at random ------

_NAMES = st.text(max_size=4)
# "ab" and the two-key object unpack, as a node or drop, to two strs
_JUNK = st.sampled_from([None, "1", 1, 1.5, True, "", "x", "~", "+", "-",
                         "ab", [], ["+"], {}, {"id": "n0"},
                         {"id": "n0", "name": "x"}])
# an op or a source, by its position in a row's delta, that parses but may
# not apply
_SWAPS = {0: st.sampled_from(["+", "-", "x", "~"]),
          1: st.sampled_from(["n0", "n1", "n2", "ghost"])}
_KEYS = {"commit": ["index", "deltas", "trigger", "obs_id", "analysis",
                    "nodes", "renames", "drops"],
         "deltas": ["op", "src", "dst", "dir", "step"],
         "nodes": ["id", "name"],
         "renames": ["id", "old", "new"],
         "drops": ["id", "name"]}


def _random_log(data, log) -> bytes:
    """The log of a random valid chain: rooms, edge adds and removes,
    renames and drops, under both triggers."""
    draw = data.draw
    chain = VersionChain(log_path=log)
    try:
        name = draw(_NAMES)
        chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis=name,
                     new_nodes=[(chain.allocate_node_id(), name)])
        for step in range(1, draw(st.integers(1, 7))):
            sim = chain.graph.copy()
            new_nodes, deltas, renames, drops = [], [], [], []
            for _ in range(draw(st.integers(0, 2))):
                new_nodes.append((sim.fresh_id(), draw(_NAMES)))
                sim.add_node(new_nodes[-1][1], node_id=new_nodes[-1][0])
            for k in range(draw(st.integers(0, 3))):
                live = sorted(sim.edge_set())
                if live and draw(st.booleans()):
                    e = draw(st.sampled_from(live))
                    sim.remove_edge(e)
                    deltas.append(remove(e))
                else:
                    nodes = sorted(sim.nodes)
                    deltas.append(add(sim.add_edge(
                        draw(st.sampled_from(nodes)),
                        draw(st.sampled_from(nodes)),
                        draw(st.sampled_from(DIRECTIONS)), 10 * step + k)))
            if sim.nodes and draw(st.booleans()):
                nid = draw(st.sampled_from(sorted(sim.nodes)))
                renames.append((nid, sim.nodes[nid], draw(_NAMES)))
                sim.rename_node(nid, renames[-1][2])
            bare = [n for n in sorted(sim.nodes) if n != sim.origin
                    and not sim.out_edges(n) and not sim.in_edges(n)]
            if bare and draw(st.booleans()):
                nid = draw(st.sampled_from(bare))
                drops.append((nid, sim.nodes[nid]))
                sim.remove_node(nid)
            chain.commit(deltas, draw(st.sampled_from(
                [TRIGGER_OBSERVATION, TRIGGER_REPAIR])), obs_id=step,
                analysis=draw(_NAMES), new_nodes=new_nodes, renames=renames,
                drops=drops)
    finally:
        chain.close()
    return log.read_bytes()


def _lines(wal: bytes) -> list[bytes]:
    """The lines iterating over the file yields: each ends after a b"\\n"."""
    return re.findall(rb"[^\n]*\n|[^\n]+", wal)


_STEP_COLUMNS = (1, 5, 6, 7)  # a row's deltas, nodes, renames and drops


def _garble(data, line: bytes, swap: bool = False) -> bytes:
    """`line` as JSON with one position of its row (the row, a step list or
    a step) set, removed or given a value before it; with `swap`, a
    delta's op or source is set to another string."""
    try:
        row = json.loads(line)
    except ValueError:
        return line
    if type(row) is not list:
        return line
    steps = [row[i] for i in _STEP_COLUMNS
             if len(row) == 8 and type(row[i]) is list and row[i]]
    if swap:
        deltas = row[1] if len(row) == 8 and type(row[1]) is list else []
        deltas = [x for x in deltas if type(x) is list and len(x) == 5]
        if not deltas:
            return line
        at = data.draw(st.sampled_from(sorted(_SWAPS)))
        data.draw(st.sampled_from(deltas))[at] = data.draw(_SWAPS[at])
        return json.dumps(row).encode() + b"\n"
    target = row
    if steps and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(steps))
        step = data.draw(st.sampled_from(target))
        if type(step) is list and step and data.draw(st.booleans()):
            target = step
    # a row of the wrong shape is refused before any field is read, so a
    # position is set more often than it is removed or added
    action = data.draw(st.sampled_from(["set", "set", "set", "remove",
                                        "insert"]) if target
                       else st.just("insert"))
    at = data.draw(st.integers(0, len(target) - (action != "insert")))
    if action == "insert":
        target.insert(at, data.draw(_JUNK))
    elif action == "remove":
        del target[at]
    else:
        target[at] = data.draw(_JUNK)
    separators = data.draw(st.sampled_from([None, (",", ":")]))
    return json.dumps(row, separators=separators).encode() + b"\n"


def _corrupt(data, wal: bytes) -> bytes:
    draw = data.draw
    for _ in range(draw(st.integers(0, 3))):
        lines = _lines(wal) or [b""]
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(wal)))
        kind = draw(st.sampled_from([
            "cut", "flip", "insert", "blank", "lead", "bom", "encode",
            "swap", "duplicate", "trail", "garble", "reapply", "reapply"]))
        if kind == "cut":
            wal = wal[:at]
            continue
        if kind == "flip" and at < len(wal):
            wal = (wal[:at] + bytes([wal[at] ^ 1 << draw(st.integers(0, 7))])
                   + wal[at + 1:])
            continue
        if kind == "insert":
            byte = draw(st.sampled_from(b' \t\r\n{}":,0\x00\x0b\x0c\x80'
                                        b'\xbf\xc3\xef\xfe\xff'))
            wal = wal[:at] + bytes([byte]) + wal[at:]
            continue
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(
                [b"\n", b"   \n", b"\t\r\n", b"\x0c\n"])))
        elif kind == "lead":
            lines[i] = draw(st.sampled_from(
                [b" ", b"\t", b"\r", b"\x0c", b"\xef\xbb\xbf"])) + lines[i]
        elif kind == "bom":
            lines.insert(i, b"\xef\xbb\xbf" + draw(st.sampled_from(
                [b"\n", lines[i]])))
        elif kind == "encode":
            text = lines[i].rstrip(b"\n").decode("utf-8", "replace")
            lines[i] = text.encode(draw(st.sampled_from(
                ["utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32",
                 "utf-32-le"]))) + b"\n"
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "trail" and lines[i].endswith(b"\n"):
            lines[i] = lines[i][:-1] + draw(st.sampled_from(
                [b" ", b"\t", b"\r", b" \t\r", b"x", b"}", b"\x0c",
                 b"\x0b", b"\xc2\xa0", b" 1", b"{}", b"\x00"])) + b"\n"
        elif kind in ("garble", "reapply"):
            lines[i] = _garble(data, lines[i], swap=kind == "reapply")
        wal = b"".join(lines)
    return wal


def _outcome(load, log, wal: bytes, append: bool):
    """(chain or None, the error, the warnings, the file's bytes after)."""
    log.write_bytes(wal)
    chain = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            chain = load(log, append=append)
        except Exception as exc:
            error = (type(exc), str(exc), type(exc.__cause__),
                     str(exc.__cause__))
        else:
            chain.close()
    return chain, error, [str(w.message) for w in caught], log.read_bytes()


def _assert_same(a, b):
    (chain_a, *rest_a), (chain_b, *rest_b) = a, b
    assert rest_a == rest_b
    assert (chain_a is None) == (chain_b is None)
    if chain_a is not None:
        assert json.dumps([c.to_json() for c in chain_a.commits]) == \
            json.dumps([c.to_json() for c in chain_b.commits])
        assert chain_a.graph.state_equal(chain_b.graph)
        assert chain_a.graph.indices_consistent()
        assert chain_a._log_end == chain_b._log_end


_DIRECTION_SET = frozenset(DIRECTIONS)
# the JSON name of each type a decoded line may have but a row's
_JSON_NAMES = {dict: "object", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def _fixed(log, wal: bytes):
    """The reference's parse and apply with the seven fixes: an unknown op
    does not parse; a commit that does not apply (a map error) is
    `CorruptLog` at its line; a commit index, a delta's direction or a
    delta's step that no writer makes does not parse; a rename or drop
    whose recorded name is not the node's own, and a drop of the origin
    while other rooms remain, are refused before they run;
    an obs_id that is not an int, or a trigger, analysis, room id or name
    that is not a str, does not parse; and a `deltas`, `nodes`, `renames`
    or `drops` that is not a JSON array does not parse; and a line that is
    not a row (any JSON value but an array), a row of other than 8
    columns, or one whose step list holds a step that is not an array of
    its step's size, does not parse.  A row's shape is checked before it is
    read; the rest once the commit is read whole: the scalars, then each
    delta, then the new nodes, renames and drops.  `fired` records each
    time a fix changed what happens."""
    fired = []
    # the k-th commit applied is on the k-th line that is not blank
    linenos = iter([n for n, raw in enumerate(_lines(wal), start=1)
                    if raw.strip()])

    def refuse(fix, error, message):
        fired.append(fix)
        raise error(message)

    def need(kind, what, value):
        if type(value) is not kind:
            error, article = ((ValueError, "an int") if kind is int
                              else (TypeError, "a str"))
            refuse(what, error, f"{what} is not {article}: {value!r}")

    def shaped(row):
        """`row`, if the writer could have written its shape."""
        if type(row) is not list:
            refuse("row", ValueError,
                   f"a JSON {_JSON_NAMES[type(row)]} is not a row")
        if len(row) != 8:
            refuse("row", ValueError, f"a row has {len(row)} columns, not 8")
        for column in _STEP_COLUMNS:
            key, steps = _KEYS["commit"][column], row[column]
            if type(steps) is not list:
                refuse("array", TypeError, f"{key} is not an array: {steps!r}")
            size = len(_KEYS[key])
            for step in steps:
                if type(step) is not list or len(step) != size:
                    refuse("row", TypeError, f"{key} holds {step!r}, not an "
                           f"array of {size} items")
        return row

    def from_row(value):
        c = reference_commit_from_row(shaped(value))
        need(int, "commit index", c.index)
        need(int, "obs_id", c.obs_id)
        need(str, "trigger", c.trigger)
        need(str, "analysis", c.analysis)
        for op, (src, dst, direction, step) in c.deltas:
            if op not in ("+", "-"):
                refuse("op", ValueError, f"unknown delta op: {op!r}")
            need(str, "room id", src)
            need(str, "room id", dst)
            try:
                known = direction in _DIRECTION_SET
            except TypeError:  # unhashable
                fired.append("dir")
                raise
            if not known:
                refuse("dir", ValueError, f"unknown direction: {direction!r}")
            need(int, "step id", step)
        for nid, *names in c.new_nodes + c.renames + c.drops:
            need(str, "room id", nid)
            for name in names:
                need(str, "room name", name)
        return c

    def run(g, step, forward):
        sign, target, *names = step
        if forward and sign != "+" and not isinstance(target, Edge):
            name = g.node_name(target)
            if name != names[0]:
                fired.append("name")
                raise InvalidDelta(
                    f"{target} is named {name!r}, not {names[0]!r}")
            if sign == "-" and target == g.origin and len(g.nodes) > 1 \
                    and not g.out_edges(target) and not g.in_edges(target):
                fired.append("origin")
                raise InvalidDelta(f"origin {target} is not the last node")
        _reference_run(g, step, forward)

    def apply(g, c):
        lineno = next(linenos)
        try:
            reference_apply_commit(g, c, run=run)
        except MapRepairError as exc:
            fired.append("apply")
            raise CorruptLog(f"{log}:{lineno}: {exc}") from exc

    return from_row, apply, fired


def _assert_load_equals_the_fixed_reference(log, wal: bytes, append: bool):
    """`load` of `wal`, with or without append, gives what the reference
    with the fixes gives, and any log that does not load is `CorruptLog`.
    Returns the reference's outcome and the fixes it fired."""
    from_row, apply, fired = _fixed(log, wal)
    fixed = _outcome(lambda p, append: reference_load(
        p, append, from_row=from_row, apply=apply), log, wal, append)
    loaded = _outcome(VersionChain.load, log, wal, append)
    _assert_same(loaded, fixed)
    assert loaded[1] is None or loaded[1][0] is CorruptLog
    return fixed, fired


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_equals_the_reference_on_corrupted_logs(data, tmp_path_factory):
    """`load` on a random log, corrupted at random, gives the commits,
    graph, exception, warnings and file bytes of the first `load`, but for
    the seven fixes: an unknown op, a commit that does not apply, an
    index, direction or step no writer makes, a rename or drop of a node
    by another name, any other field of the wrong type, a step list that
    is not an array and a line that is not a row of the writer's shape are
    `CorruptLog` at their line (or a torn final line).  Any log that does
    not load is `CorruptLog`.  The same corrupted lines followed by the
    checkpoint row of the log before corruption load as every line's
    replay does, and are refused as the lines alone are
    (`_assert_a_checkpoint_after_loads_alike`)."""
    log = tmp_path_factory.mktemp("replay") / "chain.jsonl"
    clean = _random_log(data, log)
    wal = _corrupt(data, clean)
    append = data.draw(st.booleans())
    fixed, fired = _assert_load_equals_the_fixed_reference(log, wal, append)
    if not fired:
        _assert_same(_outcome(reference_load, log, wal, append), fixed)
    _assert_a_checkpoint_after_loads_alike(log, clean, wal, append)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_equals_the_reference_on_logs_with_garbled_fields(
        data, tmp_path_factory):
    """As above, but every corruption sets a field of a line (a position of
    its row) to a wrong value, removes it, or swaps a delta's op or
    source, so far more examples reach a line that parses as JSON but is
    not a commit the writer makes, where the seven fixes act; and the same
    lines before a checkpoint row load as above."""
    log = tmp_path_factory.mktemp("replay") / "chain.jsonl"
    clean = _random_log(data, log)
    lines = _lines(clean)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = _garble(data, lines[i], swap=data.draw(st.booleans()))
    append = data.draw(st.booleans())
    _assert_load_equals_the_fixed_reference(log, b"".join(lines), append)
    _assert_a_checkpoint_after_loads_alike(log, clean, b"".join(lines),
                                           append)


@pytest.mark.parametrize("delta, fields, fix", [
    (["+", "n0", "n1", "east", "7"], {}, "step id"),
    (None, {"renames": [["n1", "Hall", "Cellar"]]}, "name"),
    (None, {"analysis": 5}, "analysis"),
    (["-", "n0", "n1", "north", 1], {"drops": [["n0", "Room 0"]]}, "origin"),
], ids=["step id", "name", "analysis", "origin"])
@pytest.mark.parametrize("append", [False, True])
def test_load_equals_the_fixed_reference_on_a_line_one_fix_refuses(
        tmp_path, delta, fields, fix, append):
    """A fix that random garbling seldom reaches (a delta's step that is
    not an int, a rename by another name, an analysis that is not a str,
    a drop of the origin while another room remains) refuses a row of its
    own: `load` gives what the reference with the fixes gives, and that fix
    fired."""
    log, _ = _log_with_line(tmp_path, delta, **fields)
    fixed, fired = _assert_load_equals_the_fixed_reference(
        log, log.read_bytes(), append)
    assert fix in fired
    assert fixed[1][0] is CorruptLog


def test_log_value_types_are_immutable_tuples_of_their_fields():
    """`Edge`, `EdgeDelta` and `Commit` hash as their field tuples (so sets
    and dicts of them keep their order), refuse assignment, and print as
    before: `InvalidDelta` messages print an `Edge`."""
    e = Edge("n0", "n1", "north", 1)
    d = add(e)
    c = Commit(3, (d,), TRIGGER_REPAIR, 3, "why", (("n1", "Hall"),))
    fields = {e: ("src", "dst", "direction", "step_id"),
              d: ("op", "edge"),
              c: ("index", "deltas", "trigger", "obs_id", "analysis",
                  "new_nodes", "renames", "drops")}
    for value, names in fields.items():
        assert hash(value) == hash(tuple(getattr(value, f) for f in names))
        for f in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, f, None)
    assert c.renames == c.drops == ()
    assert sorted([Edge("n0", "n1", "up", 0), e]) == [e, Edge("n0", "n1",
                                                              "up", 0)]
    assert repr(e) == "Edge(src='n0', dst='n1', direction='north', step_id=1)"
    assert repr(d) == f"EdgeDelta(op='+', edge={e!r})"
    chain = VersionChain()
    _grow(chain, n=1)
    with pytest.raises(InvalidDelta, match=re.escape(
            f"remove of absent edge: {e._replace(direction='west')!r}")):
        chain.commit([remove(Edge("n0", "n1", "west", 1))], TRIGGER_REPAIR,
                     obs_id=9, analysis="")


# -- checkpoint rows ----------------------------------------------------------

_CHECKPOINT = b'["checkpoint", '
_REMOVES = "a checkpoint edge op is '-', not '+'"


def _checkpoint_row(wal: bytes) -> bytes:
    """The checkpoint row of the uncorrupted log `wal`, as `json.dumps`
    writes it, made from the map the reference replay of `wal` builds: its
    rooms in order, then its edges as adds in the order they iterate."""
    g, commits = NavGraph(), 0
    for raw in _lines(wal):
        if raw.strip():
            reference_apply_commit(g, reference_commit_from_row(
                json.loads(raw)))
            commits += 1
    return json.dumps(["checkpoint", commits - 1, len(_lines(wal)),
                       zlib.crc32(wal), [[*n] for n in g.nodes.items()],
                       [["+", *e] for e in g.edges()]]).encode() + b"\n"


def _full_replay(log, append: bool = False):
    """`load` without starting from a checkpoint: every line is replayed,
    a checkpoint row checked where it stands."""
    with mock.patch.object(version_store, "_resume", return_value=(0, 1)):
        return VersionChain.load(log, append=append)


def _assert_same_order(a, b):
    """`a` and `b` hold the same map, rooms and edges in the same order."""
    assert a.graph.state_equal(b.graph)
    assert list(a.graph.nodes.items()) == list(b.graph.nodes.items())
    assert list(a.graph.edges()) == list(b.graph.edges())


def _lineno(error) -> int:
    """The line a `CorruptLog` outcome names."""
    return int(error[1].rsplit(".jsonl:", 1)[1].split(":", 1)[0])


def _assert_a_checkpoint_after_loads_alike(log, wal: bytes, prefix: bytes,
                                           append: bool):
    """`prefix` (the log `wal`, perhaps corrupted) then the checkpoint row of
    `wal` loads as the full replay of the same bytes does: the same
    commits, map and order, exception, warnings and file bytes.  A line
    before the row that the log without it refuses is refused with the
    same `CorruptLog`; the uncorrupted log loads as it does without the
    row, and any other whole lines are refused, the row at the latest.  A
    prefix cut short within a line has the row glued onto that line,
    which is then no longer the final one."""
    row = _checkpoint_row(wal)
    rowless = _outcome(VersionChain.load, log, prefix, append)
    loaded = _outcome(VersionChain.load, log, prefix + row, append)
    _assert_same(loaded, _outcome(_full_replay, log, prefix + row, append))
    if loaded[0] is not None:
        _assert_same_order(loaded[0], _full_replay(log))
    row_line = len(_lines(prefix)) + (not prefix or prefix.endswith(b"\n"))
    if rowless[1] is not None and _lineno(rowless[1]) < row_line:
        assert loaded[1] == rowless[1]
    if prefix == wal:
        assert loaded[1] is None and loaded[2] == rowless[2] == []
        assert loaded[0].commits == rowless[0].commits
        _assert_same_order(loaded[0], rowless[0])
    elif not prefix or prefix.endswith(b"\n"):
        assert loaded[1] is not None and _lineno(loaded[1]) <= row_line
    assert loaded[1] is None or loaded[1][0] is CorruptLog


def _checkpointed_walk(data, log):
    """A faulted walk world built to `log`, which ends with its checkpoint
    row; then, reopened, random repair actions and a `RollbackTo`."""
    draw = data.draw
    spec = WorldSpec("walk", (4, 4, draw(st.integers(8, 30)),
                              draw(st.integers(0, 3))))
    kind = draw(st.sampled_from([FAULT_MISDIRECTION, FAULT_MISNAME,
                                 FAULT_PHANTOM]))
    corrupted, _ = inject(generate_world(spec), [kind], seed=draw(
        st.integers(0, 2)))
    corrupted.build(log_path=log).close()
    *lines, row = _lines(log.read_bytes())
    rows = [json.loads(raw) for raw in lines]
    assert row == json.dumps([
        "checkpoint", len(rows) - 1, len(rows), zlib.crc32(b"".join(lines)),
        [n for r in rows for n in r[5]], [d for r in rows for d in r[1]],
    ]).encode() + b"\n"
    chain = VersionChain.load(log, append=True)
    try:
        for _ in range(draw(st.integers(0, 3))):
            g = chain.graph
            nodes = sorted(g.nodes)
            edges = sorted(g.edges()) or [Edge(nodes[0], nodes[0], "up", 1)]
            action = RepairAction(
                draw(st.sampled_from(sorted(MUTATING_ACTIONS))),
                edge=draw(st.sampled_from(edges)),
                new_direction=draw(st.sampled_from(DIRECTIONS)),
                new_dst=draw(st.sampled_from(nodes)),
                node=draw(st.sampled_from(nodes)), new_name="Hallway",
                version=draw(st.integers(0, chain.head)))
            with contextlib.suppress(MapRepairError):
                apply_action(chain, action)
        with contextlib.suppress(MapRepairError):  # refused if unchanged
            apply_action(chain, RepairAction(
                ACT_ROLLBACK_TO, version=draw(st.integers(0, chain.head))))
    finally:
        chain.close()
    return chain


def _counting_decodes(monkeypatch) -> list:
    decodes = []
    real = version_store._decode_prefix

    def counting(*args):
        decodes.append(args)
        return real(*args)

    monkeypatch.setattr(version_store, "_decode_prefix", counting)
    return decodes


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_checkpointed_walk_log_loads_as_it_does_without_the_row(
        data, tmp_path_factory):
    """A faulted walk world's log, its checkpoint row, repair commits and a
    `RollbackTo` load, with or without append, to the map, room and edge
    order and commits of the same log without the row.  `head` and
    `len(commits)` decode nothing; the first read of a commit decodes the
    lines before the row once."""
    tmp = tmp_path_factory.mktemp("walk")
    log, rowless = tmp / "walk.jsonl", tmp / "rowless.jsonl"
    chain = _checkpointed_walk(data, log)
    lines = _lines(log.read_bytes())
    rows = [i for i, raw in enumerate(lines) if raw.startswith(_CHECKPOINT)]
    assert len(rows) == 1
    rowless.write_bytes(b"".join(lines[:rows[0]] + lines[rows[0] + 1:]))
    reference = VersionChain.load(rowless)
    with pytest.MonkeyPatch.context() as monkeypatch:
        decodes = _counting_decodes(monkeypatch)
        loaded = VersionChain.load(log, append=data.draw(st.booleans()))
        loaded.close()
        assert loaded.head == reference.head == chain.head
        assert len(loaded.commits) == len(reference.commits)
        assert decodes == []
        _assert_same_order(loaded, reference)
        _assert_same_order(loaded, chain)
        assert loaded.commits == reference.commits == chain.commits
        assert len(decodes) == 1
        assert loaded.commits[0] == reference.commits[0]
        assert len(decodes) == 1


@pytest.mark.parametrize("reader", ["rows", "objects"])
def test_a_reader_before_checkpoints_refuses_the_row(tmp_path, reader):
    """The row is not a commit: a reader of rows refuses it for its columns,
    and a reader of object lines, as versions before rows read them, for
    its type."""
    log = tmp_path / "tree.jsonl"
    generate_world(WorldSpec("tree", (3, 2))).build(log_path=log).close()
    row = json.loads(_lines(log.read_bytes())[-1])
    if reader == "rows":
        with pytest.raises(ValueError, match="a row has 6 columns, not 8"):
            Commit.from_row(row)
    else:
        with pytest.raises(TypeError):
            _from_json(row)


def test_the_checkpoint_row_is_json_dumps_of_the_built_state(tmp_path):
    """The build writes one row, `json.dumps` of the version, the line
    count, the crc32 of the lines before it, every room in order and
    every edge in commit order, escapes included; a log-less chain keeps
    nothing to write one."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain, n=3)
    chain.commit([], TRIGGER_OBSERVATION, obs_id=4, analysis="x",
                 new_nodes=[("né", "Café \"\\\n😀")])
    chain.commit([add(Edge(ids[0], "né", "in", 5)),
                  add(Edge("né", ids[0], "out", 6))],
                 TRIGGER_OBSERVATION, obs_id=5, analysis="y")
    wal = log.read_bytes()
    assert chain.checkpoint()
    assert not chain.checkpoint()  # one row, after construction
    chain.close()
    edges = [["+", *d.edge] for c in chain.commits for d in c.deltas]
    assert log.read_bytes() == wal + json.dumps(
        ["checkpoint", 5, 6, zlib.crc32(wal),
         [[*n] for n in chain.graph.nodes.items()], edges]).encode() + b"\n"
    free = VersionChain()
    _grow(free)
    assert not free.checkpoint() and free._kept is None


@pytest.mark.parametrize("step", ["remove", "rename", "drop"])
def test_a_log_that_does_more_than_add_gets_no_checkpoint(tmp_path, step):
    """A row joined from the commits' items holds the head only while they
    only add rooms and edges, so after a remove, rename or drop the chain
    writes none."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    ids = _grow(chain, n=2)
    e = Edge(ids[1], ids[2], "north", 2)
    if step == "remove":
        chain.commit([remove(e)], TRIGGER_REPAIR, obs_id=3, analysis="r")
    elif step == "rename":
        chain.commit([], TRIGGER_REPAIR, obs_id=3, analysis="r",
                     renames=[(ids[2], "Room 2", "Attic")])
    else:
        chain.commit([remove(e)], TRIGGER_REPAIR, obs_id=3, analysis="r",
                     drops=[(ids[2], "Room 2")])
    wal = log.read_bytes()
    assert not chain.checkpoint()
    chain.close()
    assert log.read_bytes() == wal


@pytest.mark.parametrize("fault", _APPEND_FAULTS)
def test_a_failed_checkpoint_write_cuts_the_log_back(tmp_path, monkeypatch,
                                                     fault):
    """A checkpoint row whose write fails, is written only in part or whose
    sync fails is cut from the log, as a commit's line is, and the log
    keeps its bytes: the row's parts are kept for another try, whose row
    is checked where it stands."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log, fsync=True)
    _grow(chain)
    wal = log.read_bytes()
    real_log = _fail_appends(chain, monkeypatch, fault)
    with pytest.raises(OSError):
        chain.checkpoint()
    assert log.read_bytes() == wal
    monkeypatch.undo()
    chain._log = real_log
    assert chain.checkpoint()
    chain.close()
    assert len(_lines(log.read_bytes())) == len(_lines(wal)) + 1
    assert _full_replay(log).commits == chain.commits


def _built_log(tmp_path):
    log = tmp_path / "tree.jsonl"
    chain = generate_world(WorldSpec("tree", (3, 2))).build(log_path=log)
    chain.close()
    return log, chain, log.read_bytes()


def test_a_checkpoint_on_the_first_line_is_checked_where_it_stands(
        tmp_path):
    """A row on the first line is no checkpoint `load` starts from, though
    its version, line count and crc32 fit the empty log before it: there
    is no commit whose first read would check its state, so every line is
    replayed, and a row holding a room is `CorruptLog` at line 1."""
    log = tmp_path / "chain.jsonl"
    log.write_bytes(b'["checkpoint", -1, 0, 0, [["n0", "Room 0"]], []]\n')
    with pytest.raises(CorruptLog, match=":1: checkpoint does not hold the "
                                         "state of version -1"):
        VersionChain.load(log)


# arrays nested deeper than `json.loads` can decode (`RecursionError`)
_DEEP = 100_000


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
@pytest.mark.parametrize("append", [False, True])
def test_a_line_nested_too_deep_loads_as_the_reference_loads(tmp_path, torn,
                                                            append):
    """A line nested too deep to decode is refused as a line that is not
    JSON is, as by the fixed reference: a whole one is `CorruptLog` at its
    line, and a torn final one is dropped with the warning."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain)
    chain.close()
    deep = b"[" * _DEEP + (b"" if torn else b"]" * _DEEP + b"\n")
    fixed, _ = _assert_load_equals_the_fixed_reference(
        log, log.read_bytes() + deep, append)
    if torn:
        assert fixed[1] is None
        assert fixed[2] == [f"{log}:5: dropped a torn final line "
                            f"({len(deep)} bytes)"]
    else:
        assert fixed[1][0] is CorruptLog
        assert fixed[1][1].startswith(f"{log}:5: maximum recursion depth")


@pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
def test_a_checkpoint_line_nested_too_deep_is_replayed_where_it_stands(
        tmp_path, torn):
    """A final line that starts as a checkpoint row but nests too deep to
    decode is no checkpoint `load` starts from: every line is replayed, so
    a whole one is `CorruptLog` at its line and a torn one is dropped with
    the warning."""
    log, chain, wal = _built_log(tmp_path)
    lineno = len(_lines(wal)) + 1
    log.write_bytes(wal + b'["checkpoint", ' + b"[" * _DEEP + (
        b"" if torn else b"]" * _DEEP + b"]\n"))
    if torn:
        with pytest.warns(UserWarning, match=f":{lineno}: dropped a torn"):
            loaded = VersionChain.load(log)
        assert loaded.commits == chain.commits
        _assert_same_order(loaded, chain)
    else:
        with pytest.raises(CorruptLog, match=f":{lineno}: maximum recursion"):
            VersionChain.load(log)


@pytest.mark.parametrize("change", [
    "rename", "no edge", "extra edge", "edge order", "room order",
    "earlier version", "blank line"])
def test_a_checkpoint_unlike_the_lines_before_it_is_refused(tmp_path, change,
                                                            capsys):
    """A row whose version, line count and crc32 fit the lines before it
    but whose state is not theirs loads, since load checks no more, but
    the first read of a past version refuses it at its line, as does a
    load that replays every line; the CLI exits 2."""
    log, chain, wal = _built_log(tmp_path)
    prefix, row = wal[:wal.rindex(b"\n", 0, -1) + 1], json.loads(
        _lines(wal)[-1])
    nodes, edges = row[4], row[5]
    if change == "rename":
        nodes[-1][1] = "Elsewhere"
    elif change == "no edge":
        del edges[-1]
    elif change == "extra edge":
        edges.append(["+", nodes[0][0], nodes[-1][0], "up", 999])
    elif change == "edge order":
        edges[0], edges[-1] = edges[-1], edges[0]
    elif change == "room order":
        nodes[1], nodes[-1] = nodes[-1], nodes[1]
    elif change == "earlier version":
        row[1] -= 1
    else:  # a line the row does not count, its crc32 made to match
        prefix += b"\n"
        row[3] = zlib.crc32(prefix)
    log.write_bytes(prefix + json.dumps(row).encode() + b"\n")
    row_line = len(_lines(prefix)) + 1
    problems = {"earlier version": f"is of version {chain.head - 1}, not "
                                   f"{chain.head}",
                "blank line": f"follows {row_line - 2} lines, not "
                              f"{row_line - 1}"}
    if change in problems:  # one commit a line, each counted: load refuses
        with pytest.raises(CorruptLog, match=rf":{row_line}: checkpoint "
                           rf"{problems[change]}$"):
            VersionChain.load(log)
        return
    loaded = VersionChain.load(log)
    for read in (lambda: loaded.commits[0], lambda: loaded.materialize(0),
                 lambda: loaded.recall_step(0), lambda: loaded.diff(0, 1),
                 lambda: list(loaded.commits)):
        with pytest.raises(CorruptLog, match=rf"^{re.escape(str(log))}:"
                           rf"{row_line}: checkpoint "):
            read()
    with pytest.raises(CorruptLog) as caught:
        _full_replay(log)
    assert str(caught.value).startswith(f"{log}:{row_line}: checkpoint ")
    log.write_bytes(prefix + b" " + json.dumps(row).encode() + b"\n")
    with pytest.raises(CorruptLog, match=rf":{row_line}: checkpoint "):
        VersionChain.load(log)  # led by a space: found by replay alone
    assert cli.main(["export", "--log", str(log)]) == 2
    assert f"{log}:{row_line}: checkpoint " in capsys.readouterr().err


def test_a_checkpoint_row_that_removes_an_edge_is_refused_at_its_line(
        tmp_path, capsys):
    """`checkpoint` writes only "+" items, so a row holding a "-" item,
    which used to read as a row holding no state, is refused when read:
    `CorruptLog` at its line by `load`, with or without append (the file
    left as it was), and by the CLI."""
    log, chain, wal = _built_log(tmp_path)
    prefix, row = wal[:wal.rindex(b"\n", 0, -1) + 1], json.loads(
        _lines(wal)[-1])
    row[5].append(["-", *row[5][-1][1:]])
    bad = prefix + json.dumps(row).encode() + b"\n"
    log.write_bytes(bad)
    message = f"{log}:{len(_lines(bad))}: {_REMOVES}"
    for append in (False, True):
        with pytest.raises(CorruptLog, match=f"^{re.escape(message)}$"):
            VersionChain.load(log, append=append)
    assert log.read_bytes() == bad
    assert cli.main(["export", "--log", str(log)]) == 2
    assert message in capsys.readouterr().err


_PAIR = "\ud800\udc00"


def _garble_checkpoint(data, row: list) -> None:
    """Give the checkpoint `row` one fault: a wrongly typed room or edge
    field, a bool or other non-int step, an edge end or room id that is
    unknown or taken twice, a second edge of one key, a bad op or
    direction, a surrogate pair, a non-ASCII name, or an item, column or
    count of another shape or type."""
    draw = data.draw
    nodes, edges = row[4], row[5]
    rooms = [n for n in nodes if type(n) is list and len(n) == 2] \
        if type(nodes) is list else []
    items = [e for e in edges if type(e) is list and len(e) == 5] \
        if type(edges) is list else []
    kind = draw(st.sampled_from([
        "room type", "edge type", "step", "unknown end", "duplicate id",
        "duplicate key", "op", "direction", "pair", "non-ascii",
        "room shape", "edge shape", "column", "count"]))
    room = draw(st.sampled_from(rooms)) if rooms else None
    edge = draw(st.sampled_from(items)) if items else None
    if kind == "room type" and room:
        room[draw(st.integers(0, 1))] = draw(_NOT_STR)
    elif kind == "edge type" and edge:
        edge[draw(st.integers(1, 2))] = draw(_NOT_STR)
    elif kind == "step" and edge:
        edge[4] = draw(_NOT_INT)
    elif kind == "unknown end" and edge:
        edge[draw(st.integers(1, 2))] = "zz"
    elif kind == "duplicate id" and room:
        room[0] = draw(st.sampled_from(rooms))[0]
    elif kind == "duplicate key" and edge:
        twin = list(edge)
        if rooms:
            twin[2] = draw(st.sampled_from(rooms))[0]
        edges.insert(draw(st.integers(0, len(edges))), twin)
    elif kind == "op" and edge:
        edge[0] = draw(st.sampled_from(["-", "*", "", 1, None]))
    elif kind == "direction" and edge:
        edge[3] = draw(st.sampled_from(["sideways", "North", 1, None, []]))
    elif kind == "pair":
        field = draw(st.sampled_from(["room id", "room name", "src"]))
        item, at = (edge, 1) if field == "src" and edge else \
            (room, field == "room name")
        if item and type(item[at]) is str:  # an earlier fault may retype it
            item[at] += _PAIR
    elif kind == "non-ascii" and room:
        room[1] = "Caf\xe9 \U0001f600"
    elif kind == "room shape" and rooms:
        nodes[nodes.index(room)] = draw(st.sampled_from(
            [room[:1], room + ["x"], "ab", {"id": room[0]}]))
    elif kind == "edge shape" and items:
        edges[edges.index(edge)] = draw(st.sampled_from(
            [edge[:4], edge + [1], "abcde"]))
    elif kind == "column":
        row[draw(st.sampled_from([4, 5]))] = draw(st.sampled_from(
            [{}, "", None, 3]))
    elif kind == "count":
        row[draw(st.integers(1, 3))] = draw(_NOT_INT)


def _reference_checkpoint(row: list):
    """How the checkpoint of `row` was first read: ("read", error,
    message), ("state",) when its state does not apply to the empty graph,
    or ("graph", the graph it builds); and whether a load could start
    from it (its ids and directions shared, then read and applied)."""
    try:
        state = reference_checkpoint_state(copy.deepcopy(row))
    except (ValueError, TypeError) as exc:
        outcome = ("read", type(exc), str(exc))
    else:
        try:
            outcome = ("graph", reference_checkpoint_graph(state))
        except MapRepairError:
            outcome = ("state",)
    shared = copy.deepcopy(row)
    try:
        reference_share_strings(shared)
        reference_checkpoint_graph(reference_checkpoint_state(shared))
    except (ValueError, TypeError, IndexError, KeyError, MapRepairError):
        return outcome, False
    return outcome, True


def _new_checkpoint(row: list):
    """The same for `Checkpoint.from_row` and `NavGraph.build`
    (`version_store._state`), and the checkpoint read."""
    try:
        cp = Checkpoint.from_row(copy.deepcopy(row))
    except (ValueError, TypeError) as exc:
        return ("read", type(exc), str(exc)), None
    g = version_store._state(cp)
    return (("state",) if g is None else ("graph", g)), cp


def _assert_same_graph(a: NavGraph, b: NavGraph) -> None:
    assert a.state_equal(b) and a.indices_consistent()
    assert list(a.nodes.items()) == list(b.nodes.items())
    assert list(a.edges()) == list(b.edges())


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_a_garbled_checkpoint_row_reads_and_builds_as_the_reference(
        data, tmp_path_factory):
    """A checkpoint row with one to three faults is read and built
    (`Checkpoint.from_row`, `NavGraph.build`) as it was first read:
    shared in place, read as one commit of adds by `Commit.from_row` and
    applied by `_apply_commit` (`reference_checkpoint_state`).  Both
    refuse it when reading with the same error and message, or both
    refuse its state, or both build the same map, rooms and edges in the
    same order, room ids interned and directions `REVERSE`'s keys; and a
    load starts from it exactly when it started from it before.  The one
    difference: a row holding a "-" item, which `checkpoint` never writes,
    is refused when read, with `ValueError`, unless a fault met before that
    item refuses it first.  In a log, after the lines it was written
    after, the row is refused at its line with the reference's message (or
    that of the "-" item), by load or by the first read of a past
    version."""
    tmp = tmp_path_factory.mktemp("checkpoint")
    log, chain, wal = _built_log(tmp)
    prefix = wal[:wal.rindex(b"\n", 0, -1) + 1]
    row = json.loads(_lines(wal)[-1])
    for _ in range(data.draw(st.integers(1, 3))):
        _garble_checkpoint(data, row)
    (ref, ref_starts), (new, cp) = _reference_checkpoint(row), \
        _new_checkpoint(row)
    removes = type(row[5]) is list and any(
        type(e) is list and len(e) == 5 and e[0] == "-" for e in row[5])
    if removes:  # the one difference
        assert new[0] == "read"
        assert new in (ref, ("read", ValueError, _REMOVES))
    else:
        assert new[:1] == ref[:1]
        assert (new[0] == "graph") == ref_starts
        if new[0] == "read":
            assert new == ref
    if new[0] == "graph":
        g = new[1]
        _assert_same_graph(g, ref[1])
        assert all(sys.intern(n) is n for n in g.nodes)
        for e in g.edges():
            assert e.src in g.nodes and e.dst in g.nodes
            assert next(n for n in g.nodes if n == e.src) is e.src
            assert next(d for d in REVERSE if d == e.direction) is \
                e.direction
    line = json.dumps(row).encode()
    decoded = (_new_checkpoint if removes else _reference_checkpoint)(
        json.loads(line))[0]
    log.write_bytes(prefix + line + b"\n")
    at = f"{log}:{len(_lines(prefix)) + 1}: "
    if decoded[0] == "read":
        message = at + decoded[2]
    else:
        message = at + f"checkpoint does not hold the state of version " \
            f"{chain.head}"
        if decoded[0] == "graph":
            try:
                _assert_same_graph(decoded[1], chain.graph)
            except AssertionError:
                pass
            else:
                _assert_same_order(VersionChain.load(log), chain)
                assert VersionChain.load(log).commits == chain.commits
                return
    with pytest.raises(CorruptLog) as caught:
        _full_replay(log)
    assert str(caught.value) == message
    try:
        loaded = VersionChain.load(log)
    except CorruptLog as exc:
        assert str(exc) == message
    else:
        assert decoded[0] == "graph"
        with pytest.raises(CorruptLog) as caught:
            loaded.materialize(0)
        assert str(caught.value) == message


def test_loads_from_a_checkpoint_share_room_ids_and_directions(tmp_path):
    """Two loads of one log hold the same str objects for each room id and
    direction, so results kept from many loads keep one copy of each."""
    log, chain, wal = _built_log(tmp_path)
    a, b = VersionChain.load(log), VersionChain.load(log)
    assert all(x is y for x, y in zip(a.graph.nodes, b.graph.nodes))
    for x, y in zip(a.graph.edges(), b.graph.edges()):
        assert x.src is y.src and x.dst is y.dst
        assert x.direction is y.direction is DIRECTIONS[
            DIRECTIONS.index(x.direction)]
    _assert_same_order(a, chain)


def test_extend_graph_decodes_the_lines_before_the_checkpoint(tmp_path):
    """Going on with construction reads the last observation commit, a past
    version, so a checkpoint unlike its lines is refused there too."""
    log, chain, wal = _built_log(tmp_path)
    prefix, row = wal[:wal.rindex(b"\n", 0, -1) + 1], json.loads(
        _lines(wal)[-1])
    row[4][-1][1] = "Elsewhere"
    log.write_bytes(prefix + json.dumps(row).encode() + b"\n")
    with pytest.raises(CorruptLog, match="checkpoint does not hold"):
        extend_graph([], VersionChain.load(log))


def test_a_torn_checkpoint_line_is_dropped(tmp_path):
    """A checkpoint row cut short is a torn final line: dropped with the
    warning, the lines before it replayed, and cut off by an append; a row
    that lost only its newline is kept, and an append ends it."""
    log, chain, wal = _built_log(tmp_path)
    prefix = wal[:wal.rindex(b"\n", 0, -1) + 1]
    last = len(wal) - len(prefix)
    for cut in (2, 10, last // 2, last - 1):
        for append in (False, True):
            log.write_bytes(wal[:-cut])
            with pytest.warns(UserWarning, match=f":{len(_lines(wal))}: "
                              f"dropped a torn final line"):
                loaded = VersionChain.load(log, append=append)
            loaded.close()
            assert loaded.commits == chain.commits
            _assert_same_order(loaded, chain)
            assert log.read_bytes() == (prefix if append else wal[:-cut])
    log.write_bytes(wal[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = VersionChain.load(log, append=True)
    loaded.close()
    assert log.read_bytes() == wal
    assert loaded.commits == chain.commits


def test_a_torn_line_after_the_checkpoint_is_dropped(tmp_path):
    """A repair commit after the row, cut short, is dropped as before; the
    map is the checkpoint's, and the decoded commits those before it."""
    log, chain, wal = _built_log(tmp_path)
    reopened = VersionChain.load(log, append=True)
    reopened.commit([remove(min(reopened.graph.edges()))], TRIGGER_REPAIR,
                    obs_id=reopened.head + 1, analysis="cut")
    reopened.close()
    log.write_bytes(log.read_bytes()[:-5])
    with pytest.warns(UserWarning, match="torn final line"):
        loaded = VersionChain.load(log)
    assert loaded.head == chain.head
    _assert_same_order(loaded, chain)
    assert loaded.commits == chain.commits


def test_build_repair_append_and_export_a_checkpointed_log(tmp_path, capsys):
    """`maprepair build` ends its log with a checkpoint row; `repair
    --append` goes on after it, and `export` and `detect` read the map
    the whole log replays to."""
    world = fi.generate_grid(3, 3)
    corrupted, ledger = fi.inject(world, ["misdirection"], seed=1)
    walk, ledger_path = tmp_path / "walk.txt", tmp_path / "ledger.json"
    walk.write_text(corrupted.transcript(), encoding="utf-8")
    ledger_path.write_text(json.dumps(ledger.to_json()), encoding="utf-8")
    log = tmp_path / "map.jsonl"
    assert cli.main(["build", "--transcript", str(walk),
                     "--log", str(log)]) == 0
    built = _lines(log.read_bytes())
    assert built[-1].startswith(_CHECKPOINT)
    assert cli.main(["repair", "--log", str(log), "--advisor", "oracle",
                     "--ledger", str(ledger_path), "--append"]) == 0
    lines = _lines(log.read_bytes())
    assert lines[:len(built)] == built and len(lines) > len(built)
    capsys.readouterr()
    assert cli.main(["export", "--log", str(log), "--format", "json"]) == 0
    exported = json.loads(capsys.readouterr().out)
    replayed = _full_replay(log)
    assert exported == replayed.graph.to_json()
    assert ledger.all_fixed(replayed.graph, ignore_silent=True)
    assert cli.main(["detect", "--log", str(log)]) == 0


# README's quick start: synth --shape loopchain --params 10 --fault
# misdirection --seed 3, build, then repair --append with the oracle
_QUICKSTART_LOG = Path(__file__).parent / "fixtures" / \
    "quickstart_loopchain10.jsonl"


def test_the_quickstart_log_loads_to_its_pinned_map(monkeypatch):
    """The one line format the reader takes is pinned by a committed log:
    11 construction commits, the checkpoint row and 2 repair commits load,
    from the row with the lines before it undecoded, to the pinned head,
    commits and map, the one a replay of every line builds."""
    lines = _lines(_QUICKSTART_LOG.read_bytes())
    assert len(lines) == 14 and lines[11].startswith(_CHECKPOINT)
    decodes = _counting_decodes(monkeypatch)
    loaded = VersionChain.load(_QUICKSTART_LOG)
    assert (loaded.head, len(loaded.commits)) == (12, 13)
    assert decodes == []
    g = loaded.graph
    assert g.origin == "n0"
    assert g.nodes == {f"n{i}": f"Room {i}" for i in range(10)}
    assert list(g.edges()) == [
        Edge("n0", "n1", "north", 1), Edge("n1", "n2", "north", 2),
        Edge("n2", "n3", "east", 3), Edge("n3", "n4", "east", 4),
        Edge("n4", "n5", "east", 5), Edge("n5", "n6", "south", 6),
        Edge("n7", "n8", "west", 8), Edge("n8", "n9", "west", 9),
        Edge("n6", "n7", "south", 7), Edge("n9", "n0", "west", 10)]
    replayed = _full_replay(_QUICKSTART_LOG)
    _assert_same_order(loaded, replayed)
    assert decodes == []
    assert loaded.commits == replayed.commits
    assert len(decodes) == 1
    assert [c.trigger for c in loaded.commits] == \
        [TRIGGER_OBSERVATION] * 11 + [TRIGGER_REPAIR] * 2
