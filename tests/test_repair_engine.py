import json
import random
from collections import Counter
from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import reference_detect_all, reference_run_session, unapplied
from maprepair import advisors, error_localizer, repair_engine
from maprepair import fault_injector as fi
from maprepair.conflict_detector import (
    KIND_DIRECTIONAL, Detection, detect, detect_all,
)
from maprepair.errors import (
    AdvisorFailure, IllegalAction, MapRepairError, StaleContext,
    UnknownVersion,
)
from maprepair.graph_core import DIRECTIONS, Edge, NavGraph
from maprepair.metrics_bench import OUTCOME_EXHAUSTED
from maprepair.position_inference import infer_positions, record_positions
from maprepair.repair_engine import (
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_DIFF_VERSIONS, ACT_GIVE_UP,
    ACT_MERGE_NODES, ACT_RECALL_STEP, ACT_REDIRECT_EDGE, ACT_RENAME_NODE,
    ACT_ROLLBACK_TO, ACTION_FIELDS, ALL_ACTIONS, MUTATING_ACTIONS,
    AdvisorContext, RepairAction, ToolConfig, apply_action, build_context,
    localize, run_repair, run_session,
)
from maprepair.version_store import (
    TRIGGER_OBSERVATION, TRIGGER_REPAIR, VersionChain, add,
)


def _demo():
    chain, ledger = fi.demo_chain(corrupted=True)
    return chain, ledger


def _edge(chain, step):
    return next(e for e in chain.graph.edges() if e.step_id == step)


def test_action_wire_round_trip():
    samples = [
        RepairAction(ACT_CHANGE_DIRECTION, edge=Edge("n1", "n2", "up", 3),
                     new_direction="down"),
        RepairAction(ACT_DELETE_EDGE, edge=Edge("n1", "n2", "up", 3)),
        RepairAction(ACT_REDIRECT_EDGE, edge=Edge("n1", "n2", "up", 3),
                     new_dst="n4"),
        RepairAction(ACT_RENAME_NODE, node="n2", new_name="Cellar"),
        RepairAction(ACT_MERGE_NODES, node="n5", new_dst="n2"),
        RepairAction(ACT_ROLLBACK_TO, version=4),
        RepairAction(ACT_RECALL_STEP, version=2),
        RepairAction(ACT_DIFF_VERSIONS, i=1, j=3),
        RepairAction(ACT_GIVE_UP),
    ]
    for action in samples:
        assert RepairAction.from_json(action.to_json()) == action


def test_action_shape_validation():
    with pytest.raises(IllegalAction):
        RepairAction.from_json({"action": "Teleport"})
    with pytest.raises(IllegalAction):
        RepairAction.from_json({"action": ACT_DELETE_EDGE})
    with pytest.raises(IllegalAction):
        RepairAction.from_json({
            "action": ACT_CHANGE_DIRECTION,
            "edge": {"src": "n1", "dst": "n2", "dir": "up", "step": 3},
            "new_dir": "sideways"})
    edge = {"src": "n1", "dst": "n2", "dir": "up", "step": 3}
    wrong_types = [
        {"action": ACT_RENAME_NODE, "node": "n3", "new_name": 5},
        {"action": ACT_MERGE_NODES, "node": ["n3"], "new_dst": "n2"},
        {"action": ACT_REDIRECT_EDGE, "edge": edge, "new_dst": 4},
        {"action": ACT_DELETE_EDGE, "edge": {**edge, "src": ["n1"]}},
        {"action": ACT_DELETE_EDGE, "edge": {**edge, "dir": ["up"]}},
        {"action": ACT_DELETE_EDGE, "edge": {**edge, "step": "3"}},
        {"action": ACT_DELETE_EDGE, "edge": {**edge, "step": True}},
        {"action": ACT_CHANGE_DIRECTION, "edge": edge, "new_dir": ["down"]},
        {"action": ACT_ROLLBACK_TO, "version": True},
        {"action": ACT_RECALL_STEP, "version": "1"},
        {"action": ACT_DIFF_VERSIONS, "i": 0, "j": 1.0},
    ]
    for d in wrong_types:
        with pytest.raises(IllegalAction):
            RepairAction.from_json(d)


@pytest.mark.parametrize("action, message", [
    (RepairAction(ACT_ROLLBACK_TO, version="3"), "version not an int: '3'"),
    (RepairAction(ACT_DIFF_VERSIONS, i=0, j=1.0), "j not an int: 1.0"),
    (RepairAction(ACT_RENAME_NODE, node="n3", new_name=5),
     "new_name not a str: 5"),
])
def test_a_wrong_typed_field_is_named_with_its_article(action, message):
    """The refusal reaches the llm advisor's transcript and prompt, so it
    reads "not an int", not "not a int"."""
    with pytest.raises(IllegalAction) as refused:
        action.validate_shape()
    assert str(refused.value) == message


def test_each_kind_requires_the_fields_of_the_action_table():
    values = {"edge": Edge("n0", "n1", "north", 1), "new_direction": "east",
              "new_dst": "n2", "node": "n1", "new_name": "Hall",
              "version": 0, "i": 0, "j": 1}
    assert ALL_ACTIONS == set(ACTION_FIELDS)
    for kind, fields in ACTION_FIELDS.items():
        RepairAction(kind, **{f: values[f] for f in fields}).validate_shape()
        for missing in fields:
            with pytest.raises(IllegalAction, match=f"requires {missing}"):
                RepairAction(kind, **{f: values[f] for f in fields
                                      if f != missing}).validate_shape()


def test_apply_action_refuses_a_wrong_typed_field_before_any_change():
    chain, _ = _demo()
    before = chain.graph.copy()
    for action in (RepairAction("Teleport"),
                   RepairAction(ACT_RENAME_NODE, node="n3", new_name=5),
                   RepairAction(ACT_ROLLBACK_TO, version=True),
                   RepairAction(ACT_DELETE_EDGE,
                                edge=_edge(chain, 5)._replace(step_id=True))):
        with pytest.raises(IllegalAction):
            apply_action(chain, action)
    assert chain.graph.state_equal(before)
    assert chain.graph.indices_consistent()


def test_change_direction_commits_swap():
    chain, _ = _demo()
    bad = _edge(chain, 5)
    head = chain.head
    commit = apply_action(chain, RepairAction(
        ACT_CHANGE_DIRECTION, edge=bad, new_direction="east"))
    assert commit.trigger == TRIGGER_REPAIR
    assert chain.head == head + 1
    assert [d.op for d in commit.deltas] == ["-", "+"]
    fixed = _edge(chain, 5)
    assert fixed.direction == "east"
    assert (fixed.src, fixed.dst) == (bad.src, bad.dst)


@pytest.mark.parametrize("make_action", [
    lambda chain: RepairAction(ACT_DELETE_EDGE,
                               edge=Edge("n0", "n1", "down", 77)),
    lambda chain: RepairAction(ACT_REDIRECT_EDGE, edge=_edge(chain, 9),
                               new_dst="n99"),
    lambda chain: RepairAction(ACT_RENAME_NODE, node="n99",
                               new_name="Cellar"),
    lambda chain: RepairAction(ACT_MERGE_NODES, node="n99", new_dst="n1"),
    lambda chain: RepairAction(ACT_MERGE_NODES, node="n1", new_dst="n99"),
], ids=["delete-absent-edge", "redirect-to-unknown", "rename-unknown",
        "merge-unknown-casualty", "merge-into-unknown"])
def test_delete_absent_edge_is_illegal_and_commits_nothing(make_action):
    """An action on an edge or room the map lacks is refused and leaves
    the head where it was."""
    chain, _ = _demo()
    head = chain.head
    with pytest.raises(IllegalAction):
        apply_action(chain, make_action(chain))
    assert chain.head == head


def test_redirect_edge():
    chain, _ = _demo()
    e = _edge(chain, 9)
    apply_action(chain, RepairAction(ACT_REDIRECT_EDGE, edge=e,
                                     new_dst="n9"))
    moved = _edge(chain, 9)
    assert moved.dst == "n9" and moved.direction == e.direction


def test_rename_node():
    chain, _ = _demo()
    apply_action(chain, RepairAction(ACT_RENAME_NODE, node="n1",
                                     new_name="Hallway"))
    assert chain.graph.nodes["n1"] == "Hallway"
    with pytest.raises(IllegalAction):
        apply_action(chain, RepairAction(ACT_RENAME_NODE, node="n1",
                                         new_name="Hallway"))


def test_merge_nodes_redirects_edges_and_drops():
    chain, _ = _demo()
    g = chain.graph
    in_before = {(e.src, e.direction) for e in g.in_edges("n1")}
    out_before = {(e.dst, e.direction) for e in g.out_edges("n1")}
    apply_action(chain, RepairAction(ACT_MERGE_NODES, node="n1",
                                     new_dst="n9"))
    assert "n1" not in g.nodes
    assert {(e.src, e.direction) for e in g.in_edges("n9")} >= in_before
    assert out_before <= {(e.dst, e.direction) for e in g.out_edges("n9")}
    # merge survives inverse application (undo restores the old node)
    past = unapplied(chain, chain.head - 1)
    assert "n1" in past.nodes
    assert past.state_equal(chain.materialize(chain.head - 1))


def test_merge_moves_each_edge_of_the_dropped_room_once():
    """A moved edge dissolves only into an edge that keeps its key and does
    not itself enter the dropped room; a self-loop moves once."""
    chain = VersionChain()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="rooms",
                 new_nodes=[("k", "Keep"), ("d", "Drop"), ("x", "X"),
                            ("y", "Y"), ("z", "Z")])
    chain.commit([add(Edge("d", "d", "up", 1)),
                  add(Edge("k", "x", "north", 2)),
                  add(Edge("d", "y", "north", 2)),
                  add(Edge("k", "d", "east", 3)),
                  add(Edge("z", "d", "west", 4))],
                 TRIGGER_OBSERVATION, obs_id=1, analysis="exits")
    commit = apply_action(chain, RepairAction(ACT_MERGE_NODES, node="d",
                                              new_dst="k"))
    assert [(d.op, tuple(d.edge)) for d in commit.deltas] == [
        ("-", ("d", "d", "up", 1)), ("+", ("k", "k", "up", 1)),
        ("-", ("d", "y", "north", 2)),
        ("-", ("k", "d", "east", 3)), ("+", ("k", "k", "east", 3)),
        ("-", ("z", "d", "west", 4)), ("+", ("z", "k", "west", 4))]
    assert chain.graph.edge_set() == {
        Edge("k", "k", "up", 1), Edge("k", "x", "north", 2),
        Edge("k", "k", "east", 3), Edge("z", "k", "west", 4)}
    assert "d" not in chain.graph.nodes


def test_a_merge_that_would_drop_the_origin_is_refused(tmp_path):
    """Merging the origin into another room is refused before any commit,
    and the refusal says to merge the other way round; map, chain and log
    stay as they were.  That merge is taken, and a rollback past it
    restores the whole state, origin included."""
    log = tmp_path / "chain.jsonl"
    chain, _ = fi.demo_chain(corrupted=True, log_path=log)
    try:
        before, commits, wal = chain.graph.copy(), list(chain.commits), \
            log.read_bytes()
        with pytest.raises(IllegalAction,
                           match="^n0 is the origin: merge n5 into it$"):
            apply_action(chain, RepairAction(ACT_MERGE_NODES, node="n0",
                                             new_dst="n5"))
        assert chain.graph.state_equal(before)
        assert chain.commits == commits and log.read_bytes() == wal
        apply_action(chain, RepairAction(ACT_MERGE_NODES, node="n5",
                                         new_dst="n0"))
        assert "n5" not in chain.graph.nodes and chain.graph.origin == "n0"
        apply_action(chain, RepairAction(ACT_ROLLBACK_TO,
                                         version=commits[-1].index))
    finally:
        chain.close()
    assert chain.graph.state_equal(before)
    assert VersionChain.load(log).graph.state_equal(before)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rollback_restores_the_whole_state(data, tmp_path_factory):
    """After random mutating actions, merges of any two rooms among them,
    a `RollbackTo` an earlier version leaves a head `state_equal`, origin
    included, to `materialize` of that version, to the undo from the head
    and to the reloaded log.  A merge that would drop the origin is
    refused and leaves the map, the chain and the log as they were."""
    log = tmp_path_factory.mktemp("wal") / "chain.jsonl"
    chain, _ = fi.demo_chain(corrupted=True, log_path=log)
    try:
        for _ in range(data.draw(st.integers(1, 5))):
            g = chain.graph
            nodes = sorted(g.nodes)
            edges = sorted(g.edges()) or [Edge(nodes[0], nodes[0], "up", 1)]
            action = RepairAction(
                data.draw(st.sampled_from(sorted(MUTATING_ACTIONS))),
                edge=data.draw(st.sampled_from(edges)),
                new_direction=data.draw(st.sampled_from(DIRECTIONS)),
                new_dst=data.draw(st.sampled_from(nodes)),
                node=data.draw(st.sampled_from(nodes)), new_name="Hallway",
                version=data.draw(st.integers(0, chain.head)))
            before, commits, wal = g.copy(), list(chain.commits), \
                log.read_bytes()
            if action.kind == ACT_MERGE_NODES \
                    and action.node == g.origin != action.new_dst:
                with pytest.raises(IllegalAction, match="is the origin"):
                    apply_action(chain, action)
            else:
                try:
                    apply_action(chain, action)
                    continue
                except MapRepairError:
                    pass
            assert chain.graph.state_equal(before)
            assert chain.commits == commits and log.read_bytes() == wal
        version = data.draw(st.integers(0, chain.head - 1))
        past = chain.materialize(version)
        if past.state_equal(chain.graph):
            with pytest.raises(IllegalAction, match="state is unchanged"):
                apply_action(chain, RepairAction(ACT_ROLLBACK_TO,
                                                 version=version))
        else:
            apply_action(chain, RepairAction(ACT_ROLLBACK_TO,
                                             version=version))
        assert chain.graph.state_equal(past)
        assert unapplied(chain, version).state_equal(past)
    finally:
        chain.close()
    assert VersionChain.load(log).graph.state_equal(chain.graph)


def test_rollback_to_is_a_new_commit():
    chain, _ = _demo()
    head = chain.head
    apply_action(chain, RepairAction(ACT_ROLLBACK_TO, version=4))
    assert chain.head == head + 1  # history preserved, not truncated
    assert chain.graph.state_equal(chain.materialize(4))


def test_a_repair_that_changes_nothing_is_refused_and_commits_nothing():
    """A redirect to the edge's own destination and a rollback to a version
    whose state is the head's are refused, as a change to the edge's own
    direction or the room's own name is, and make no commit."""
    chain, _ = _demo()
    apply_action(chain, RepairAction(ACT_ROLLBACK_TO, version=4))
    head, commits, before = chain.head, list(chain.commits), \
        chain.graph.copy()
    e = min(chain.graph.edges())
    for action, message in [
            (RepairAction(ACT_REDIRECT_EDGE, edge=e, new_dst=e.dst),
             "destination is unchanged"),
            (RepairAction(ACT_CHANGE_DIRECTION, edge=e,
                          new_direction=e.direction),
             "direction is unchanged"),
            (RepairAction(ACT_RENAME_NODE, node=e.src,
                          new_name=chain.graph.nodes[e.src]),
             "name is unchanged"),
            (RepairAction(ACT_ROLLBACK_TO, version=head),
             "state is unchanged"),
            (RepairAction(ACT_ROLLBACK_TO, version=4), "state is unchanged")]:
        with pytest.raises(IllegalAction, match=f"^{message}$"):
            apply_action(chain, action)
    assert chain.head == head and chain.commits == commits
    assert chain.graph.state_equal(before)


def test_a_rollback_to_the_head_spends_an_attempt_and_writes_no_commit():
    """An advisor that always answers `RollbackTo(head)` exhausts the
    session's budget, one refusal per attempt, and leaves the chain as it
    was."""
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    head, commits = chain.head, list(chain.commits)
    session, after = run_session(
        chain, ToolConfig(),
        lambda ctx: RepairAction(ACT_ROLLBACK_TO, version=ctx.chain.head),
        conflicts[0], detection, max_attempts=3)
    assert session.outcome == OUTCOME_EXHAUSTED
    assert session.attempts == 3
    assert [t["error"] for t in session.transcript] == \
        ["IllegalAction: state is unchanged"] * 3
    assert chain.head == head and chain.commits == commits
    assert after.conflicts == conflicts


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_repair_commit_changes_the_map(data):
    """Whatever mutating action is proposed, no-op fields included, a
    commit `apply_action` makes leaves a map that is not `state_equal` to
    the one before it, and a refusal leaves the map and the chain as they
    were."""
    chain, _ = _demo()
    for _ in range(data.draw(st.integers(1, 6))):
        g = chain.graph
        nodes = sorted(g.nodes)
        e = data.draw(st.sampled_from(sorted(g.edges()))) \
            if g.edge_set() else Edge(nodes[0], nodes[0], "north", 1)
        node = data.draw(st.sampled_from(nodes))
        action = RepairAction(
            data.draw(st.sampled_from(sorted(MUTATING_ACTIONS))), edge=e,
            new_direction=data.draw(st.sampled_from([e.direction,
                                                     *DIRECTIONS])),
            new_dst=data.draw(st.sampled_from([e.dst, *nodes])), node=node,
            new_name=data.draw(st.sampled_from(
                [g.nodes[node], "Hallway", *sorted(g.nodes.values())])),
            version=data.draw(st.sampled_from([chain.head,
                                               *range(chain.head + 1)])))
        before, head = g.copy(), chain.head
        try:
            commit = apply_action(chain, action)
        except MapRepairError:
            assert chain.head == head
            assert chain.graph.state_equal(before)
        else:
            assert chain.head == head + 1 and chain.commits[-1] == commit
            assert not chain.graph.state_equal(before)


@pytest.mark.parametrize("kind", [ACT_ROLLBACK_TO, ACT_RECALL_STEP,
                                  ACT_DIFF_VERSIONS])
@pytest.mark.parametrize("past_head", [False, True], ids=["-1", "head+1"])
def test_version_tools_refuse_an_unknown_version_alike(kind, past_head):
    """RollbackTo, RecallStep and DiffVersions all refuse a version before
    0 or after the head with `UnknownVersion`, which the transcript
    records, and make no commit."""
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    head, commits, before = chain.head, list(chain.commits), \
        chain.graph.copy()
    version = head + 1 if past_head else -1
    fields = {"i": 0, "j": version} if kind == ACT_DIFF_VERSIONS \
        else {"version": version}
    with pytest.raises(UnknownVersion):
        apply_action(chain, RepairAction(kind, **fields))
    script = iter([RepairAction(kind, **fields), RepairAction(ACT_GIVE_UP)])
    session, _ = run_session(chain, ToolConfig(), lambda ctx: next(script),
                             conflicts[0], detection, max_attempts=1)
    assert session.transcript[0]["error"] == \
        f"UnknownVersion: version {version} not in 0..{head}"
    assert "result" not in session.transcript[0]
    assert chain.head == head and chain.commits == commits
    assert chain.graph.state_equal(before)


def test_queries_return_payloads():
    chain, _ = _demo()
    recalled = apply_action(chain, RepairAction(ACT_RECALL_STEP, version=2))
    assert recalled["index"] == 2
    diffed = apply_action(chain, RepairAction(ACT_DIFF_VERSIONS, i=0, j=3))
    assert len(diffed["added"]) == 3 and diffed["removed"] == []


def test_a_repair_commit_is_stamped_with_its_own_index():
    chain, ledger = _demo()
    for make in (
            lambda: RepairAction(ACT_CHANGE_DIRECTION, edge=_edge(chain, 5),
                                 new_direction="east"),
            lambda: RepairAction(ACT_REDIRECT_EDGE, edge=_edge(chain, 9),
                                 new_dst="n9"),
            lambda: RepairAction(ACT_DELETE_EDGE, edge=_edge(chain, 9)),
            lambda: RepairAction(ACT_RENAME_NODE, node="n1",
                                 new_name="Hallway"),
            lambda: RepairAction(ACT_MERGE_NODES, node="n1", new_dst="n9"),
            lambda: RepairAction(ACT_ROLLBACK_TO, version=4)):
        head = chain.head
        commit = apply_action(chain, make())
        assert commit.obs_id == commit.index == head + 1 == chain.head

    chain, ledger = _demo()
    observed = chain.head
    run_repair(chain, ToolConfig(), advisors.OracleAdvisor(ledger),
               ledger=ledger)
    repairs = chain.commits[observed + 1:]
    assert repairs and all(c.trigger == TRIGGER_REPAIR for c in repairs)
    assert [c.obs_id for c in repairs] == [c.index for c in repairs]


def _detection(chain):
    return detect(chain.graph, commit=chain.head)


def _conflicts(chain):
    return _detection(chain).conflicts


def test_give_up_consumes_attempts_until_exhausted():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]
    calls = []

    def advisor(ctx):
        calls.append(ctx)
        return RepairAction(ACT_GIVE_UP)

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             detection, max_attempts=4)
    assert session.outcome == "exhausted"
    assert session.attempts == 4
    assert len(calls) == 4


def test_three_consecutive_advisor_failures_abort():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]

    def advisor(ctx):
        raise AdvisorFailure("no endpoint")

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             detection, max_attempts=10)
    assert session.outcome == "exhausted"
    assert session.loop_count == 3
    assert session.attempts == 0


def test_failures_counter_resets_on_success():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]
    state = {"n": 0}

    def advisor(ctx):
        state["n"] += 1
        if state["n"] % 3 == 0:
            return RepairAction(ACT_GIVE_UP)
        raise AdvisorFailure("flaky")

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             detection, max_attempts=2)
    assert session.outcome == "exhausted"
    assert session.attempts == 2  # two GiveUps got through


def test_queries_cost_loops_not_attempts():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]
    bad = _edge(chain, 5)
    script = [RepairAction(ACT_RECALL_STEP, version=5),
              RepairAction(ACT_DIFF_VERSIONS, i=0, j=5),
              RepairAction(ACT_CHANGE_DIRECTION, edge=bad,
                           new_direction="east"),
              RepairAction(ACT_CHANGE_DIRECTION,
                           edge=Edge("n4", "n8", "northeast", 9),
                           new_direction="southeast")]
    it = iter(script)

    def advisor(ctx):
        return next(it)

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             detection, max_attempts=10)
    assert session.outcome == "repaired"
    assert session.attempts == 1       # only the primary's mutating action
    assert session.loop_count == 4
    assert [t.get("result") for t in session.transcript][:2] != [None, None]


def test_illegal_proposal_spends_attempt_but_session_continues():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]
    bad = _edge(chain, 5)
    script = [RepairAction(ACT_DELETE_EDGE,
                           edge=Edge("n0", "n9", "down", 55)),
              RepairAction(ACT_CHANGE_DIRECTION, edge=bad,
                           new_direction="east"),
              RepairAction(ACT_CHANGE_DIRECTION,
                           edge=Edge("n4", "n8", "northeast", 9),
                           new_direction="southeast")]
    it = iter(script)
    session, _ = run_session(chain, ToolConfig(), lambda ctx: next(it),
                             primary, detection, max_attempts=10)
    assert session.outcome == "repaired"
    assert session.attempts == 2
    assert "IllegalAction" in session.transcript[0]["error"]


def _secondary_session(chain, then, max_attempts):
    """Fix the demo's primary, which exposes one secondary, and answer
    every later turn with `then`.  Returns the session, the detection at
    its end and the target of every turn."""
    detection = _detection(chain)
    conflicts = detection.conflicts
    fix = RepairAction(ACT_CHANGE_DIRECTION, edge=_edge(chain, 5),
                       new_direction="east")
    targets = []

    def advisor(ctx):
        targets.append(ctx.conflict.key)
        return fix if len(targets) == 1 else then

    session, after = run_session(chain, ToolConfig(), advisor, conflicts[0],
                                 detection, max_attempts=max_attempts)
    return session, after, targets


def test_a_secondary_given_up_on_is_not_targeted_again():
    chain, _ = _demo()
    primary = _conflicts(chain)[0]
    session, after, targets = _secondary_session(
        chain, RepairAction(ACT_GIVE_UP), max_attempts=10)
    secondary = targets[1]
    assert targets == [primary.key, secondary]
    assert session.outcome == "repaired"
    assert session.attempts == 1
    assert session.loop_count == len(session.transcript) == 2
    assert session.transcript[1]["result"] == "gave up"
    assert [c.key for c in session.secondary] == [secondary]
    # still open, not retried
    assert secondary in {c.key for c in after.conflicts}


def test_an_exhausted_secondary_is_not_targeted_again():
    chain, _ = _demo()
    primary = _conflicts(chain)[0]
    absent = RepairAction(ACT_DELETE_EDGE, edge=Edge("n0", "n9", "down", 55))
    session, after, targets = _secondary_session(chain, absent,
                                                 max_attempts=3)
    assert targets[0] == primary.key
    assert targets[1:] == [targets[1]] * 3  # its own budget of three
    assert session.outcome == "repaired"
    assert session.attempts == 1
    assert session.loop_count == 4
    assert all("IllegalAction" in t["error"] for t in session.transcript[1:])
    assert targets[1] in {c.key for c in after.conflicts}


class _ScriptedAdvisor:
    """Each turn draws, from a seeded generator, one of: the oracle's
    action, GiveUp, a delete or relabel of a visible edge, a delete of an
    absent edge, a version query (some out of range, some repeated), an
    AdvisorFailure, `flakiness` times as likely as a GiveUp."""

    def __init__(self, ledger, seed, flakiness=1):
        self.oracle = advisors.OracleAdvisor(ledger)
        self.rng = random.Random(seed)
        self.weights = [4, 1, 2, 1, 2, flakiness]

    def __call__(self, ctx):
        rng = self.rng
        choice = rng.choices(["oracle", "give up", "edit", "absent", "query",
                              "fail"], weights=self.weights)[0]
        if choice == "oracle":
            return self.oracle(ctx)
        if choice == "give up":
            return RepairAction(ACT_GIVE_UP)
        absent = Edge("n0", "n0", "up", 10 ** 6)
        if choice == "edit":
            e = rng.choice(list(advisors._visible_edges(ctx)) or [absent])
            if rng.random() < 0.5:
                return RepairAction(ACT_DELETE_EDGE, edge=e)
            return RepairAction(ACT_CHANGE_DIRECTION, edge=e,
                                new_direction=rng.choice(DIRECTIONS))
        if choice == "absent":
            return RepairAction(ACT_DELETE_EDGE, edge=absent)
        if choice == "query":
            versions = [-1, 0, 1, ctx.chain.head, ctx.chain.head + 1]
            if rng.random() < 0.5:
                return RepairAction(ACT_RECALL_STEP,
                                    version=rng.choice(versions))
            return RepairAction(ACT_DIFF_VERSIONS, i=rng.choice(versions),
                                j=rng.choice(versions))
        raise AdvisorFailure("scripted failure")


def _reference_worlds():
    yield "demo", None
    for spec in (fi.WorldSpec("grid", (3, 3)), fi.WorldSpec("tree", (2, 2)),
                 fi.WorldSpec("loopchain", (8,))):
        for kind in (fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME,
                     fi.FAULT_PHANTOM):
            yield spec, kind


@settings(max_examples=100, deadline=None)
@given(world=st.sampled_from(list(_reference_worlds())),
       fault_seed=st.integers(0, 2), advisor_seed=st.integers(0, 2 ** 16),
       flakiness=st.sampled_from([1, 8]), max_attempts=st.integers(1, 4))
def test_run_session_matches_the_reference(world, fault_seed, advisor_seed,
                                           flakiness, max_attempts):
    """The turn rule keeps every session the branchy loop before it made:
    the same transcript, outcome, attempts, loops and secondaries, and the
    same map, whatever the advisor answers."""
    spec, kind = world

    def repaired(run):
        if spec == "demo":
            chain, ledger = fi.demo_chain(corrupted=True)
        else:
            corrupted, ledger = fi.inject(fi.generate_world(spec), [kind],
                                          seed=fault_seed)
            chain = corrupted.build()
        with mock.patch.object(repair_engine, "run_session", run):
            _, sessions, _ = run_repair(
                chain, ToolConfig(),
                _ScriptedAdvisor(ledger, advisor_seed, flakiness),
                max_attempts=max_attempts)
        return chain.graph, sessions

    graph, sessions = repaired(run_session)
    ref_graph, ref_sessions = repaired(reference_run_session)
    assert graph.state_equal(ref_graph)
    assert len(sessions) == len(ref_sessions)
    for s, ref in zip(sessions, ref_sessions):
        assert s.transcript == ref.transcript
        assert (s.outcome, s.attempts, s.loop_count, s.secondary) == \
            (ref.outcome, ref.attempts, ref.loop_count, ref.secondary)
        assert s.loop_count == len(s.transcript)


def test_a_session_reports_the_transcript_its_advisor_saw():
    """Every context of a session holds the same live list of `Loop`s,
    one per earlier turn, and the finished session keeps that list: its
    loops equal it, each keeps the action the advisor proposed (None when
    it failed), also when the engine then found the turn unusable (a
    repeated query) or refused the action, and its transcript is each
    loop's `entry`."""
    shapes = set()
    for advisor_seed in range(12):
        chain, ledger = _demo()
        detection = _detection(chain)
        scripted = _ScriptedAdvisor(ledger, advisor_seed, flakiness=8)
        handed, seen, proposed = [], [], []

        def advisor(ctx):
            handed.append(ctx.loops)
            seen.append(tuple(ctx.loops))
            proposed.append(None)
            proposed[-1] = scripted(ctx)
            return proposed[-1]

        session, _ = run_session(chain, ToolConfig(), advisor,
                                 detection.conflicts[0], detection,
                                 max_attempts=4)
        live = handed[0]
        assert all(loops is live for loops in handed)
        assert session.loops == tuple(live)
        assert seen == [session.loops[:n] for n in range(len(seen))]
        assert session.loop_count == len(session.loops) == len(proposed)
        assert all(loop.action is action
                   for loop, action in zip(session.loops, proposed))
        assert session.transcript == [loop.entry() for loop in live]
        assert session.transcript is not session.transcript
        shapes.update(tuple(entry) for entry in session.transcript)
    assert shapes == {("target", "error"), ("target", "action", "error"),
                      ("target", "action", "result")}


def test_repair_results_carry_no_instance_dict():
    """Callers keep sessions and metrics by the thousand, so a session, its
    loops, conflicts and actions and the metrics carry no per-instance
    dict."""
    chain, ledger = _demo()
    _, sessions, metrics = run_repair(chain, ToolConfig(),
                                      advisors.OracleAdvisor(ledger),
                                      ledger=ledger)
    loops = [loop for s in sessions for loop in s.loops]
    assert sessions and loops
    for obj in (metrics, *sessions, *loops, *(s.primary for s in sessions),
                *(loop.action for loop in loops)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_context_neighborhood_is_local():
    chain, _ = _demo()
    detection = _detection(chain)
    conflicts = detection.conflicts
    primary = conflicts[0]
    seen = {}

    def advisor(ctx):
        seen["ctx"] = ctx
        return RepairAction(ACT_GIVE_UP)

    run_session(chain, ToolConfig(), advisor, primary, detection,
                max_attempts=1)
    ctx = seen["ctx"]
    assert set(primary.nodes) <= set(ctx.neighborhood.nodes)
    assert len(ctx.neighborhood.nodes) < len(chain.graph.nodes)
    assert ctx.ranked_candidates
    assert ctx.chain is chain


def _repair_cases():
    visible = (fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME, fi.FAULT_PHANTOM)
    for spec in (fi.WorldSpec("grid", (4, 4)), fi.WorldSpec("tree", (3, 2)),
                 fi.WorldSpec("tree", (4, 3)), fi.WorldSpec("loopchain", (12,))):
        world = fi.generate_world(spec)
        for seed in range(3):
            for kinds in [[kind] for kind in visible] + [list(visible)]:
                yield fi.inject(world, kinds, seed=seed)


def _repaired(world, ledger, advisor, log):
    chain = world.build(log_path=log)
    _, sessions, metrics = run_repair(chain, ToolConfig(), advisor,
                                      ledger=ledger)
    chain.close()
    return sessions, metrics, log.read_bytes()


def test_repair_runs_as_with_the_reference_detector(tmp_path):
    calls = []

    class Reference:
        """A `Detection` that detects the whole map with the reference
        detector at every head and in every heuristic trial."""

        def __init__(self, g, commit=None):
            calls.append(commit)
            self.conflicts = reference_detect_all(g, commit)

        def advance(self, g, deltas, commit=None):
            return Reference(g, commit)

    for n, (world, ledger) in enumerate(_repair_cases()):
        for name, make in (("oracle", lambda: advisors.OracleAdvisor(ledger)),
                           ("heuristic", advisors.HeuristicAdvisor)):
            with mock.patch.object(repair_engine, "detect", Reference):
                want = _repaired(world, ledger, make(),
                                 tmp_path / f"{n}-{name}-ref.jsonl")
            got = _repaired(world, ledger, make(),
                            tmp_path / f"{n}-{name}.jsonl")
            assert got == want, (n, name)
    assert calls


def _visible_fault_chains():
    yield "demo", fi.demo_chain(corrupted=True)
    world, ledger = fi.inject(
        fi.generate_world(fi.WorldSpec("grid", (4, 4))),
        [fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME, fi.FAULT_PHANTOM], seed=0)
    yield "grid-4x4", (world.build(), ledger)


@pytest.mark.parametrize("advisor", ["oracle", "heuristic"])
def test_repair_detects_once_per_chain_head(advisor):
    """The whole map is detected once, at the start; after each applied
    commit that detection is advanced by the commit's deltas, to a
    detection equal to one of the whole map.  A heuristic trial's advance
    is stamped with no head and is not counted."""
    for name, (chain, ledger) in _visible_fault_chains():
        heads = []
        advance = Detection.advance

        def detecting(g, commit=None):
            heads.append(("detect", commit))
            return detect(g, commit)

        def advancing(detection, g, deltas, commit=None):
            found = advance(detection, g, deltas, commit)
            if commit is not None:
                assert list(deltas) == list(chain.commits[commit].deltas)
                assert found == detect(g, commit)
                heads.append(("advance", commit))
            return found

        start = chain.head
        make = {"oracle": lambda: advisors.OracleAdvisor(ledger),
                "heuristic": advisors.HeuristicAdvisor}[advisor]
        with mock.patch.object(repair_engine, "detect", detecting), \
                mock.patch.object(Detection, "advance", advancing):
            run_repair(chain, ToolConfig(), make(), ledger=ledger)
        applied = chain.head - start
        assert applied > 0, name
        assert heads == [("detect", start)] + [
            ("advance", head) for head in range(start + 1, chain.head + 1)
        ], name


_SPECS = st.one_of(
    st.builds(lambda w, h: fi.WorldSpec("grid", (w, h)),
              st.integers(2, 4), st.integers(2, 4)),
    st.builds(lambda d, b: fi.WorldSpec("tree", (d, b)),
              st.integers(2, 3), st.integers(2, 3)),
    st.builds(lambda n: fi.WorldSpec("loopchain", (n,)), st.integers(4, 16)),
    st.builds(lambda w, h, m, s: fi.WorldSpec("walk", (w, h, m, s)),
              st.integers(2, 4), st.integers(2, 4), st.integers(4, 30),
              st.integers(0, 99)))
_KINDS = st.lists(st.sampled_from((fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME,
                                   fi.FAULT_PHANTOM, fi.FAULT_SILENT)),
                  min_size=1, max_size=3, unique=True)


def _faulted_chain(spec, kinds, seed):
    try:
        world, ledger = fi.inject(fi.generate_world(spec), kinds, seed=seed)
    except ValueError:  # no fault of some kind fits this world
        assume(False)
    return world.build(), ledger


def _assert_whole(detection, g, commit):
    """`detection` is the detection of all of `g` at `commit`."""
    assert detection.conflicts == detect_all(g, commit)
    assert detection.positions == infer_positions(g)
    assert detection == detect(g, commit)


@settings(max_examples=60, deadline=None)
@given(spec=_SPECS, kinds=_KINDS, seed=st.integers(0, 9),
       advisor=st.sampled_from(["oracle", "heuristic"]))
def test_every_advance_of_a_repair_equals_detection_of_the_whole_map(
        spec, kinds, seed, advisor):
    """After every commit of `run_repair`, and in every heuristic trial,
    the advanced detection equals `detect_all` of the whole map: the same
    conflicts in the same order with the same stamps, and the positions
    `infer_positions` gives."""
    chain, ledger = _faulted_chain(spec, kinds, seed)
    advance, heads = Detection.advance, []

    def checked(detection, g, deltas, commit=None):
        found = advance(detection, g, deltas, commit)
        _assert_whole(found, g, commit)
        heads.append(commit)
        return found

    start = chain.head
    make = {"oracle": lambda: advisors.OracleAdvisor(ledger),
            "heuristic": advisors.HeuristicAdvisor}[advisor]
    with mock.patch.object(Detection, "advance", checked):
        run_repair(chain, ToolConfig(), make(), ledger=ledger)
    assert [h for h in heads if h is not None] == \
        list(range(start + 1, chain.head + 1))


@settings(max_examples=100, deadline=None)
@given(spec=_SPECS, kinds=_KINDS, seed=st.integers(0, 9), data=st.data())
def test_each_action_kind_advances_to_detection_of_the_whole_map(
        spec, kinds, seed, data):
    """Any mutating action applied by hand, `RollbackTo` and `MergeNodes`
    included, advances the detection to that of the whole map."""
    chain, _ = _faulted_chain(spec, kinds, seed)
    detection = detect(chain.graph, chain.head)
    for _ in range(data.draw(st.integers(1, 6))):
        g = chain.graph
        kind = data.draw(st.sampled_from(sorted(MUTATING_ACTIONS)))
        nodes = st.sampled_from(sorted(g.nodes))
        if kind == ACT_ROLLBACK_TO:
            version = data.draw(st.integers(0, chain.head))
            action = RepairAction(kind, version=version)
        elif kind == ACT_RENAME_NODE:
            action = RepairAction(kind, node=data.draw(nodes),
                                  new_name=data.draw(st.sampled_from(
                                      sorted(set(g.nodes.values())))))
        elif kind == ACT_MERGE_NODES:
            action = RepairAction(kind, node=data.draw(nodes),
                                  new_dst=data.draw(nodes))
        elif not g.edge_set():
            continue
        else:
            e = data.draw(st.sampled_from(sorted(g.edges())))
            action = RepairAction(
                kind, edge=e,
                new_direction=data.draw(st.sampled_from(DIRECTIONS))
                if kind == ACT_CHANGE_DIRECTION else None,
                new_dst=data.draw(nodes) if kind == ACT_REDIRECT_EDGE
                else None)
        try:
            commit = apply_action(chain, action)
        except MapRepairError:
            continue
        detection = detection.advance(g, commit.deltas, chain.head)
        _assert_whole(detection, g, chain.head)


_PARTS = ("neighborhood", "candidates", "ranked_candidates")


def _iterations(chain, config, advisor, ledger=None):
    """Run `run_repair` and return one record per loop iteration, from the
    start of its `build_context` to the return of its advisor call: the
    context, the action, a copy of the graph the advisor saw, and a
    Counter of the calls made (origin `tree`s, `reach` passes, `score`s,
    `neighborhood`s, per-target `path`s and `reachable` searches) and of
    the context parts read (`read:<part>`)."""
    counts: Counter = Counter()
    starts: list = []
    records: list = []

    def counted(key, real):
        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return call

    def read(part, real):
        def get(ctx):
            counts["read:" + part] += 1
            return real.fget(ctx)
        return property(get)

    real_context = repair_engine.build_context

    def context(*args, **kwargs):
        starts.append(Counter(counts))
        return real_context(*args, **kwargs)

    def advise(ctx):
        action = advisor(ctx)
        records.append(SimpleNamespace(ctx=ctx, action=action,
                                       counts=counts - starts[-1],
                                       graph=ctx.graph.copy()))
        return action

    with ExitStack() as stack:
        for owner, attr, key in (
                (NavGraph, "reachable_from", "reachable"),
                (NavGraph, "reach_sizes", "reach"),
                (NavGraph, "neighborhood", "neighborhood"),
                (error_localizer, "shortest_path", "path"),
                (error_localizer, "shortest_path_tree", "tree"),
                (repair_engine, "shortest_path_tree", "tree"),
                (repair_engine, "score_candidates", "score")):
            stack.enter_context(mock.patch.object(
                owner, attr, counted(key, getattr(owner, attr))))
        for part in _PARTS:
            real = getattr(AdvisorContext, part)
            stack.enter_context(mock.patch.object(
                AdvisorContext, part, read(part, real)))
        stack.enter_context(mock.patch.object(
            repair_engine, "build_context", context))
        run_repair(chain, config, advise, ledger=ledger)
    assert len(records) == len(starts)
    return records


def _advisor(name, ledger):
    return {"oracle": lambda: advisors.OracleAdvisor(ledger),
            "heuristic": advisors.HeuristicAdvisor}[name]()


def _does_only_what_it_reads(c: Counter) -> bool:
    """At most one tree, and only for a read of the candidates; a score and
    its one reach pass only for a read of the ranking; a neighborhood only
    for a read of it; never a per-target path or `reachable_from`."""
    return (c["tree"] <= min(c["read:candidates"], 1)
            and c["score"] <= min(c["read:ranked_candidates"], 1)
            and c["reach"] <= c["score"]
            and c["neighborhood"] <= min(c["read:neighborhood"], 1)
            and c["path"] == c["reachable"] == 0)


@pytest.mark.parametrize("advisor", ["oracle", "heuristic"])
def test_each_context_localizes_from_one_tree_and_one_reach_pass(advisor):
    """A loop iteration, its context build and its advisor call together,
    builds at most one origin tree, reads every path pair from it and takes
    the candidates' reach from one pass: no per-target `shortest_path` and
    no per-candidate `reachable_from`."""
    for name, (chain, ledger) in _visible_fault_chains():
        records = _iterations(chain, ToolConfig(), _advisor(advisor, ledger),
                              ledger)
        assert records and sum(r.counts["tree"] for r in records), name
        assert all(r.counts["reachable"] == 0 and r.counts["tree"] <= 1
                   for r in records), name
        assert sum(r.counts["path"] for r in records) == 0, name


def _directional_chain():
    """A north corridor A-B-D whose A also has a second north exit, to C."""
    chain = VersionChain()
    a, b, c, d = "n0", "n1", "n2", "n3"
    chain.commit([], TRIGGER_OBSERVATION, 0, "A",
                 new_nodes=[(a, "A"), (b, "B"), (c, "C"), (d, "D")])
    for e in (Edge(a, b, "north", 1), Edge(b, d, "north", 2),
              Edge(d, b, "south", 3), Edge(b, a, "south", 4),
              Edge(a, c, "north", 5)):
        chain.commit([add(e)], TRIGGER_OBSERVATION, e.step_id, "")
    return chain


def test_each_advisor_pays_only_for_the_parts_it_reads():
    """Per loop iteration, no tree, reach pass, scoring or neighborhood
    beyond the parts the advisor read: a playback run and a heuristic
    directional conflict read nothing and compute nothing; an oracle whose
    faulty edge lies in the neighborhood builds the neighborhood and
    nothing else, and the oracle never scores; with edge impact off no
    advisor localizes at all."""
    def fresh(name):
        return dict(_visible_fault_chains())[name]

    for name in dict(_visible_fault_chains()):
        for advisor in ("oracle", "heuristic"):
            for config in (ToolConfig(), ToolConfig(edge_impact=False)):
                chain, ledger = fresh(name)
                records = _iterations(chain, config,
                                      _advisor(advisor, ledger), ledger)
                assert records, (name, advisor, config)
                for r in records:
                    assert _does_only_what_it_reads(r.counts), (name, r)
                    if not config.edge_impact:
                        assert r.counts["tree"] == r.counts["score"] == 0
                    if advisor == "oracle":  # it never ranks
                        assert r.counts["score"] == r.counts["reach"] == 0

        chain, ledger = fresh(name)
        records = _iterations(chain, ToolConfig(),
                              advisors.OracleAdvisor(ledger), ledger)
        in_hood = [r for r in records
                   if _fixes_from_the_neighborhood(ledger, r)]
        assert in_hood, name
        for r in in_hood:
            assert +r.counts == Counter(
                {"neighborhood": 1, "read:neighborhood": 1}), (name, r)

        actions = [r.action for r in records]
        chain, _ = fresh(name)
        records = _iterations(chain, ToolConfig(),
                              advisors.PlaybackAdvisor(actions))
        assert records and not any(+r.counts for r in records), name

    records = _iterations(_directional_chain(), ToolConfig(),
                          advisors.HeuristicAdvisor())
    directional = [r for r in records
                   if r.ctx.conflict.kind == KIND_DIRECTIONAL]
    assert directional and records[0].action.kind == ACT_DELETE_EDGE
    assert not any(+r.counts for r in directional)


def _fixes_from_the_neighborhood(ledger, record) -> bool:
    """Did the oracle answer with a fix of the ledger's first unfixed
    fault that has a corrupted edge, and does that edge lie in the
    neighborhood?  Read from the record's graph, with no part of its
    context."""
    g = record.graph
    if record.action.kind not in (ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE,
                                  ACT_RENAME_NODE):
        return False
    bad = next(filter(None, (ledger.corrupted_edge(g, f)
                             for f in ledger.faults
                             if not ledger.fixed(g, f))), None)
    return bad is not None \
        and _eager_neighborhood(g, record.ctx.conflict).has_edge(bad)


def _eager_neighborhood(g, conflict):
    """The radius-2 neighborhood of the conflict's rooms and edge ends."""
    seeds = set(conflict.nodes)
    for e in conflict.edges:
        seeds.update((e.src, e.dst))
    return g.neighborhood(seeds, radius=2)


@pytest.mark.parametrize("advisor, config", [
    ("oracle", ToolConfig()), ("heuristic", ToolConfig()),
    ("oracle", ToolConfig(edge_impact=False)),
    ("heuristic", ToolConfig(edge_impact=False)),
])
def test_context_parts_equal_eager_localization_at_their_head(advisor,
                                                              config):
    """Every part read on demand equals `localize(...)[1]` and the
    radius-2 neighborhood computed eagerly at the context's head: the parts
    the advisor read, and those of a second context first read after the
    advisor returned (after the heuristic's relabel trials).  Read after a
    commit, every part raises StaleContext, cached or not."""
    for name, (chain, ledger) in _visible_fault_chains():
        inner = _advisor(advisor, ledger)
        contexts = []

        def check(ctx):
            g, c = ctx.graph, ctx.conflict
            hood = _eager_neighborhood(g, c).to_json()
            ranked = localize(g, c, ctx.conflicts)[1] \
                if config.edge_impact else None
            late = build_context(chain, config, c, ctx.loops,
                                 ctx.conflicts)
            action = inner(ctx)
            for part in (ctx, late):
                assert part.neighborhood.to_json() == hood, name
                assert part.ranked_candidates == ranked, name
                if ranked is None:
                    assert part.candidates == ([] if config.edge_impact
                                               else None), name
                else:
                    assert sorted(part.candidates) == sorted(
                        r.edge for r in ranked), name
            contexts.extend((late, build_context(
                chain, config, c, ctx.loops, ctx.conflicts)))
            return action

        run_repair(chain, config, check, ledger=ledger)
        assert contexts, name
        apply_action(chain, RepairAction(ACT_RENAME_NODE,
                                         node=chain.graph.origin,
                                         new_name="Moved"))
        for ctx in contexts:
            for part in _PARTS:
                with pytest.raises(StaleContext):
                    getattr(ctx, part)


def test_llm_prompt_is_built_from_the_parts_at_the_head():
    """The `llm` advisor's prompt from an on-demand context equals the one
    built from eagerly computed parts, on every loop of a repair whose
    injected transport answers as the oracle would."""
    for name, (chain, ledger) in _visible_fault_chains():
        oracle = advisors.OracleAdvisor(ledger)
        current, prompts = {}, []

        def transport(endpoint, payload):
            prompts.append(payload["messages"][0]["content"])
            reply = json.dumps(oracle(current["ctx"]).to_json())
            return {"choices": [{"message": {"content": reply}}]}

        llm = advisors.LlmAdvisor(advisors.EndpointConfig("http://fake"),
                                  transport=transport)
        expected = []

        def advise(ctx):
            g, c = ctx.graph, ctx.conflict
            eager = SimpleNamespace(
                conflict=c, neighborhood=_eager_neighborhood(g, c),
                ranked_candidates=localize(g, c, ctx.conflicts)[1],
                loops=ctx.loops, chain=ctx.chain)
            expected.append(llm.build_prompt(eager))
            current["ctx"] = ctx
            return llm(ctx)

        start = chain.head
        run_repair(chain, ToolConfig(), advise, ledger=ledger)
        assert chain.head > start and prompts, name
        assert prompts == expected, name
