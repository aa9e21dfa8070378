import contextlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import unapplied
from maprepair.errors import (
    CorruptLog, InvalidDelta, MapRepairError, UnknownVersion,
)
from maprepair.fault_injector import WorldSpec, generate_world
from maprepair.graph_core import Edge
from maprepair.version_store import (
    Commit, EdgeDelta, TRIGGER_OBSERVATION, TRIGGER_REPAIR, VersionChain,
    add, remove,
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
    for bad in (-1, chain.head + 1, 100):
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
    assert set(first) == {"index", "step_id", "deltas", "trigger", "obs_id",
                          "analysis", "nodes"}
    assert first["trigger"] == "observation_update"
    delta = second["deltas"][0]
    assert set(delta) == {"op", "src", "dst", "dir", "step"}
    assert delta["op"] == "+"


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
    c = Commit(index=4, step_id=9, trigger=TRIGGER_REPAIR, obs_id=9,
               analysis="swap",
               deltas=(remove(Edge("n1", "n2", "up", 3)),
                       add(Edge("n1", "n2", "down", 3))),
               renames=(("n2", "Old", "New"),))
    assert Commit.from_json(c.to_json()) == c
    assert EdgeDelta.from_json(c.deltas[0].to_json()) == c.deltas[0]


def _commit_with_one_bad_step(data, chain, ids):
    """A commit that is valid step by step except for one bad step at a
    random position.  The edge out of ids[1] at step 2 is never removed,
    so a duplicate of its key and a drop of its endpoint always fail."""
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
            if not sim.out_edges(n) and not sim.in_edges(n)]
    drops = [(n, sim.nodes[n])
             for n in data.draw(st.lists(st.sampled_from(bare), unique=True)
                                if bare else st.just([]))]

    bad = data.draw(st.sampled_from(
        ["absent_edge", "duplicate_key", "unknown_node", "drop_with_edges"]))
    if bad == "absent_edge":
        target, bad_step = deltas, remove(Edge(ids[0], ids[1], "up", 999))
    elif bad == "duplicate_key":
        target, bad_step = deltas, add(Edge(ids[1], ids[3], "north", 2))
    elif bad == "unknown_node" and data.draw(st.booleans()):
        target, bad_step = deltas, add(Edge(ids[0], "ghost", "east", 998))
    elif bad == "unknown_node":
        target, bad_step = renames, ("ghost", "Ghost", "Still A Ghost")
    else:
        target, bad_step = drops, (ids[2], sim.nodes[ids[2]])
    target.insert(data.draw(st.integers(0, len(target))), bad_step)
    return dict(deltas=deltas, new_nodes=new_nodes, renames=renames,
                drops=drops)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rejected_commit_leaves_graph_and_log_untouched(data, tmp_path_factory):
    log = tmp_path_factory.mktemp("wal") / "chain.jsonl"
    chain = VersionChain(log_path=log)
    try:
        ids = _grow(chain, n=4)
        # cut the origin loose, so a valid step may drop it (which moves it)
        chain.commit([remove(Edge(ids[0], ids[1], "north", 1)),
                      add(Edge(ids[3], ids[1], "south", 5))],
                     TRIGGER_OBSERVATION, obs_id=5, analysis="loop back")
        parts = _commit_with_one_bad_step(data, chain, ids)
        before, head, wal = chain.graph.copy(), chain.head, log.read_bytes()
        with pytest.raises(MapRepairError):
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
        # every kind of step, and a drop of the origin, which moves it
        chain.commit([remove(Edge(ids[0], ids[1], "north", 1)),
                      add(Edge(ids[3], "x0", "east", 9))],
                     TRIGGER_REPAIR, obs_id=9, analysis="doomed",
                     new_nodes=[("x0", "Annex")],
                     renames=[(ids[1], "Room 1", "Hall")],
                     drops=[(ids[0], "Room 0")])
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


