import contextlib
import json
import os
import re
import warnings
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    _reference_run, _reference_steps, reference_apply_commit,
    reference_commit_from_json, reference_load, unapplied,
)
from maprepair import cli
from maprepair.errors import (
    CorruptLog, DuplicateEdge, InvalidDelta, MapRepairError, UnknownNode,
    UnknownVersion,
)
from maprepair.fault_injector import WorldSpec, generate_world
from maprepair.graph_core import DIRECTIONS, Edge
from maprepair.version_store import (
    Commit, EdgeDelta, TRIGGER_OBSERVATION, TRIGGER_REPAIR, VersionChain,
    _apply_commit, _inverse, add, remove,
)


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
    log.write_text("".join(json.dumps(c.to_json()) + "\n"
                           for c in (*chain.commits, bad)))
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
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    first, second = [json.loads(x) for x in log.read_text().splitlines()]
    assert set(first) == {"index", "deltas", "trigger", "obs_id", "analysis",
                          "nodes"}
    assert first["trigger"] == "observation_update"
    delta = second["deltas"][0]
    assert set(delta) == {"op", "src", "dst", "dir", "step"}
    assert delta["op"] == "+"


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


def test_a_log_with_step_ids_loads_and_appends(tmp_path):
    """Lines that still carry a `step_id` load to the commits and graph of
    the same commits as written now, which is each old line without its
    `"step_id": N, `; `load(append=True)` goes on with lines without it,
    and the mixed file loads back."""
    old = tmp_path / "old.jsonl"
    old.write_bytes(_OLD_FORMAT_LOG)
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
    assert new.read_bytes() == re.sub(rb'"step_id": \d+, ', b"",
                                      _OLD_FORMAT_LOG)
    loaded = VersionChain.load(old)
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)

    reopened = VersionChain.load(old, append=True)
    c = reopened.commit([], TRIGGER_OBSERVATION, obs_id=4, analysis="Loft",
                        new_nodes=[("n2", "Loft")])
    reopened.close()
    assert old.read_bytes() == _OLD_FORMAT_LOG + (
        b'{"index": 4, "deltas": [], "trigger": "observation_update", '
        b'"obs_id": 4, "analysis": "Loft", "nodes": [{"id": "n2", '
        b'"name": "Loft"}]}\n')
    mixed = VersionChain.load(old)
    assert mixed.commits == reopened.commits == [*chain.commits, c]
    assert mixed.graph.state_equal(reopened.graph)


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


def _tree_log(tmp_path):
    log = tmp_path / "tree.jsonl"
    chain = generate_world(WorldSpec("tree", (3, 2))).build(log_path=log)
    chain.close()
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
    assert log.read_bytes() == kept + json.dumps(c.to_json()).encode() + b"\n"
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
    c = Commit(index=4, trigger=TRIGGER_REPAIR, obs_id=9,
               analysis="swap",
               deltas=(remove(Edge("n1", "n2", "up", 3)),
                       add(Edge("n1", "n2", "down", 3))),
               renames=(("n2", "Old", "New"),))
    assert Commit.from_json(c.to_json()) == c
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


@pytest.mark.parametrize("fault", ["fsync", "torn write"])
def test_failed_commit_leaves_no_line_in_the_log(tmp_path, monkeypatch,
                                                  fault):
    """A commit whose sync fails, or whose line is written only in part,
    is cut from the log: the next commit takes its index, and the log
    replays to the chain."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log, fsync=True)
    ids = _grow(chain)
    wal = log.read_bytes()
    real_log = chain._log
    if fault == "fsync":
        _counting_fsync(monkeypatch, fail=True)
    else:
        chain._log = _TornLog(real_log)
    with pytest.raises(OSError):
        chain.commit([remove(Edge(ids[0], ids[1], "north", 1))],
                     TRIGGER_REPAIR, obs_id=9, analysis="doomed",
                     renames=[(ids[1], "Room 1", "Hall")])
    assert log.read_bytes() == wal
    monkeypatch.undo()
    chain._log = real_log
    c = chain.commit([], TRIGGER_REPAIR, obs_id=10, analysis="ok",
                     renames=[(ids[1], "Room 1", "Hall")])
    chain.close()
    assert c.index == 4
    loaded = VersionChain.load(log)
    assert loaded.head == chain.head
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
    """The line writer formats each commit as `json.dumps(c.to_json())`
    plus a newline, byte for byte, whatever its steps and names."""
    log = tmp_path_factory.mktemp("wal") / "chain.jsonl"
    chain = VersionChain(log_path=log)
    used_steps: set = set()
    try:
        for _ in range(data.draw(st.integers(1, 5))):
            end = log.stat().st_size
            c = chain.commit(**_random_commit(data, chain.graph, used_steps))
            assert log.read_bytes()[end:] == (
                json.dumps(c.to_json()) + "\n").encode()
    finally:
        chain.close()
    loaded = VersionChain.load(log)
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)


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
        c = chain.commit(**_random_commit(data, chain.graph, used_steps))
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
    its `json.dumps` line: all three accept it, as equal commits with
    equal graphs, or all three refuse it with the same error and change
    nothing.  `load` refuses it as `CorruptLog` at its line, and drops it
    as a torn line when its newline is missing."""
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
        line = json.dumps(Commit(
            len(commits), tuple(parts["deltas"]), parts["trigger"],
            parts["obs_id"], parts["analysis"], tuple(parts["new_nodes"]),
            tuple(parts["renames"]), tuple(parts["drops"])).to_json()).encode()
        outcomes = []
        for chain in (logged, free):
            try:
                outcomes.append(chain.commit(**parts))
            except (ValueError, TypeError) as exc:
                outcomes.append((type(exc), str(exc)))
    finally:
        logged.close()
    assert outcomes[0] == outcomes[1]
    log = tmp / "loaded.jsonl"
    log.write_bytes(wal + line + b"\n")
    if kind is None:
        assert logged.log_path.read_bytes() == wal + line + b"\n"
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
    log.write_bytes(wal + line)
    with pytest.warns(UserWarning, match=re.escape(f"{log}:5: dropped")):
        loaded = VersionChain.load(log)
    assert loaded.commits == commits
    assert loaded.graph.state_equal(before)


def _log_with_line(tmp_path, delta: Optional[dict], newline: bool = True,
                   **fields):
    """A log of commits 0 and 1 (n0 -> n1 north 1), then a commit 2 line
    holding `delta` (if any) and `fields`, with or without its newline."""
    log = tmp_path / "chain.jsonl"
    chain = VersionChain(log_path=log)
    _grow(chain, n=1)
    chain.close()
    line = {"index": 2, "deltas": [delta] if delta else [],
            "trigger": TRIGGER_REPAIR, "obs_id": 2, "analysis": "bad",
            **fields}
    with open(log, "ab") as fh:
        fh.write(json.dumps(line).encode() + (b"\n" if newline else b""))
    return log, chain


def test_load_rejects_an_unknown_delta_op(tmp_path, capsys):
    """An op other than "+" or "-" does not parse: it used to remove the
    edge it names."""
    bad = {"op": "x", "src": "n0", "dst": "n1", "dir": "north", "step": 1}
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
    ({"op": "-", "src": "n0", "dst": "n1", "dir": "east", "step": 7}, {},
     InvalidDelta),
    ({"op": "+", "src": "n0", "dst": "ghost", "dir": "east", "step": 7}, {},
     UnknownNode),
    ({"op": "+", "src": "n0", "dst": "n0", "dir": "north", "step": 1}, {},
     DuplicateEdge),
    (None, {"nodes": [{"id": "n9", "name": 1}]}, TypeError),
    (None, {"nodes": [{"id": [], "name": "Hall"}]}, TypeError),
    (None, {"renames": [{"id": "n1", "old": "Room 1", "new": None}]},
     TypeError),
    ({"op": "+", "src": "n0", "dst": "n1", "dir": [], "step": 7}, {},
     TypeError),
], ids=["absent edge", "unknown node", "duplicate key", "name", "node id",
        "new name", "direction"])
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
    line = json.loads(second)
    if key in ("dir", "step"):
        line["deltas"][0][key] = value
    else:
        line[key] = value
    bad = json.dumps(line).encode()
    log.write_bytes(first + bad + b"\n")
    with pytest.raises(CorruptLog, match=re.escape(f"{log}:2: {message}")):
        VersionChain.load(log)
    assert cli.main(["detect", "--log", str(log)]) == 2
    assert f"{log}:2: {message}" in capsys.readouterr().err

    log.write_bytes(first + bad)
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


# -- replay equals its first version on random logs, corrupted at random ------

_NAMES = st.text(max_size=4)
_JUNK = st.sampled_from([None, "1", 1, 1.5, True, "", "x", "~", "+", "-",
                         [], ["+"], {}, {"id": "n0"}])
# an op or an endpoint that parses but may not apply
_SWAPS = {"op": st.sampled_from(["+", "-", "x", "~"]),
          "src": st.sampled_from(["n0", "n1", "n2", "ghost"])}
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


def _garble(data, line: bytes, swap: bool = False) -> bytes:
    """`line` as JSON with one key set to a wrong value, or removed; with
    `swap`, a delta's op or source is set to another string."""
    try:
        d = json.loads(line)
    except ValueError:
        return line
    if not isinstance(d, dict):
        return line
    target, kind = d, "commit"
    nested = [k for k in ("deltas", "nodes", "renames", "drops")
              if isinstance(d.get(k), list) and d[k]
              and isinstance(d[k][0], dict)]
    if swap:
        if "deltas" not in nested:
            return line
        key = data.draw(st.sampled_from(sorted(_SWAPS)))
        data.draw(st.sampled_from(d["deltas"]))[key] = data.draw(_SWAPS[key])
        return json.dumps(d).encode() + b"\n"
    if nested and data.draw(st.booleans()):
        kind = data.draw(st.sampled_from(nested))
        target = data.draw(st.sampled_from(d[kind]))
    key = data.draw(st.sampled_from(_KEYS[kind]))
    if data.draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = data.draw(_JUNK)
    separators = data.draw(st.sampled_from([None, (",", ":")]))
    return json.dumps(d, separators=separators).encode() + b"\n"


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
_STEP_LISTS = frozenset({"deltas", "nodes", "renames", "drops"})


def _fixed(log, wal: bytes):
    """The reference's parse and apply with the six fixes: an unknown op
    does not parse; a commit that does not apply (a map error) is
    `CorruptLog` at its line; a commit index, a delta's direction or a
    delta's step that no writer makes does not parse; a rename or drop
    whose recorded name is not the node's own, and a drop of the origin
    while other rooms remain, are refused before they run;
    an obs_id that is not an int, or a trigger, analysis, room id or name
    that is not a str, does not parse; and a `deltas`, `nodes`, `renames`
    or `drops` that is not a JSON array does not parse.  The step lists are
    checked as the parse reads them; the rest is checked once the commit
    is read whole: the scalars, then each delta, then the new nodes,
    renames and drops.  `fired` records each time a fix changed what
    happens."""
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

    class ArraysOnly(dict):
        """A line's object whose step lists must be arrays when read."""

        def __getitem__(self, key):
            value = dict.__getitem__(self, key)
            if key in _STEP_LISTS and type(value) is not list:
                refuse("array", TypeError,
                       f"{key} is not an array: {value!r}")
            return value

        def get(self, key, default=None):
            return self[key] if key in self else default

    def from_json(d):
        c = reference_commit_from_json(ArraysOnly(d) if type(d) is dict
                                       else d)
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

    return from_json, apply, fired


def _assert_load_equals_the_fixed_reference(log, wal: bytes, append: bool):
    """`load` of `wal`, with or without append, gives what the reference
    with the fixes gives, and any log that does not load is `CorruptLog`.
    Returns the reference's outcome and the fixes it fired."""
    from_json, apply, fired = _fixed(log, wal)
    fixed = _outcome(lambda p, append: reference_load(
        p, append, from_json=from_json, apply=apply), log, wal, append)
    loaded = _outcome(VersionChain.load, log, wal, append)
    _assert_same(loaded, fixed)
    assert loaded[1] is None or loaded[1][0] is CorruptLog
    return fixed, fired


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_equals_the_reference_on_corrupted_logs(data, tmp_path_factory):
    """`load` on a random log, corrupted at random, gives the commits,
    graph, exception, warnings and file bytes of the first `load`, but for
    the six fixes: an unknown op, a commit that does not apply, an index,
    direction or step no writer makes, a rename or drop of a node by
    another name, any other field of the wrong type and a step list that
    is not an array are `CorruptLog` at their line (or a torn final line).
    Any log that does not load is `CorruptLog`."""
    log = tmp_path_factory.mktemp("replay") / "chain.jsonl"
    wal = _corrupt(data, _random_log(data, log))
    append = data.draw(st.booleans())
    fixed, fired = _assert_load_equals_the_fixed_reference(log, wal, append)
    if not fired:
        _assert_same(_outcome(reference_load, log, wal, append), fixed)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_equals_the_reference_on_logs_with_garbled_fields(
        data, tmp_path_factory):
    """As above, but every corruption sets a field of a line to a wrong
    value, removes it, or swaps a delta's op or source, so far more
    examples reach a line that parses as JSON but is not a commit the
    writer makes, where the six fixes act."""
    log = tmp_path_factory.mktemp("replay") / "chain.jsonl"
    lines = _lines(_random_log(data, log))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = _garble(data, lines[i], swap=data.draw(st.booleans()))
    _assert_load_equals_the_fixed_reference(log, b"".join(lines),
                                            data.draw(st.booleans()))


@pytest.mark.parametrize("delta, fields, fix", [
    ({"op": "+", "src": "n0", "dst": "n1", "dir": "east", "step": "7"}, {},
     "step id"),
    (None, {"renames": [{"id": "n1", "old": "Hall", "new": "Cellar"}]},
     "name"),
    (None, {"analysis": 5}, "analysis"),
    ({"op": "-", "src": "n0", "dst": "n1", "dir": "north", "step": 1},
     {"drops": [{"id": "n0", "name": "Room 0"}]}, "origin"),
], ids=["step id", "name", "analysis", "origin"])
@pytest.mark.parametrize("append", [False, True])
def test_load_equals_the_fixed_reference_on_a_line_one_fix_refuses(
        tmp_path, delta, fields, fix, append):
    """A fix that random garbling seldom reaches (a delta's step that is
    not an int, a rename by another name, an analysis that is not a str,
    a drop of the origin while another room remains) refuses a line of its
    own: `load` gives what the reference with the fixes gives, and that
    fix fired."""
    log, _ = _log_with_line(tmp_path, delta, **fields)
    fixed, fired = _assert_load_equals_the_fixed_reference(
        log, log.read_bytes(), append)
    assert fix in fired
    assert fixed[1][0] is CorruptLog


def test_load_of_a_built_grid_calls_json_loads_never(tmp_path):
    """Every line of a log the library wrote takes the decoder's fast
    path; a whitespace-led line goes to `json.loads`, and the guard sees
    it."""
    log = tmp_path / "grid.jsonl"
    chain = generate_world(WorldSpec("grid", (10, 10))).build(log_path=log)
    chain.close()
    calls = []
    real = json.loads

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(json, "loads", counting):
        loaded = VersionChain.load(log)
        assert calls == []
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:-1]) + b" " + lines[-1])
        assert VersionChain.load(log).commits == chain.commits
    assert len(calls) == 1
    assert loaded.commits == chain.commits
    assert loaded.graph.state_equal(chain.graph)


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
