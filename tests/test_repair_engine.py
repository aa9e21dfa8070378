from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest

from helpers import reference_detect_all, unapplied
from maprepair import advisors, error_localizer, repair_engine
from maprepair import fault_injector as fi
from maprepair.conflict_detector import detect_all
from maprepair.errors import AdvisorFailure, IllegalAction
from maprepair.graph_core import Edge, NavGraph
from maprepair.repair_engine import (
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_DIFF_VERSIONS, ACT_GIVE_UP,
    ACT_MERGE_NODES, ACT_RECALL_STEP, ACT_REDIRECT_EDGE, ACT_RENAME_NODE,
    ACT_ROLLBACK_TO, RepairAction, ToolConfig, apply_action, run_repair,
    run_session,
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


def test_delete_absent_edge_is_illegal_and_commits_nothing():
    chain, _ = _demo()
    head = chain.head
    ghost = Edge("n0", "n1", "down", 77)
    with pytest.raises(IllegalAction):
        apply_action(chain, RepairAction(ACT_DELETE_EDGE, edge=ghost))
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


def test_rollback_to_is_a_new_commit():
    chain, _ = _demo()
    head = chain.head
    apply_action(chain, RepairAction(ACT_ROLLBACK_TO, version=4))
    assert chain.head == head + 1  # history preserved, not truncated
    assert chain.graph.state_equal(chain.materialize(4))


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


def _conflicts(chain):
    return detect_all(chain.graph, commit=chain.head)


def test_give_up_consumes_attempts_until_exhausted():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
    primary = conflicts[0]
    calls = []

    def advisor(ctx):
        calls.append(ctx)
        return RepairAction(ACT_GIVE_UP)

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             conflicts, max_attempts=4)
    assert session.outcome == "exhausted"
    assert session.attempts == 4
    assert len(calls) == 4


def test_three_consecutive_advisor_failures_abort():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
    primary = conflicts[0]

    def advisor(ctx):
        raise AdvisorFailure("no endpoint")

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             conflicts, max_attempts=10)
    assert session.outcome == "exhausted"
    assert session.loop_count == 3
    assert session.attempts == 0


def test_failures_counter_resets_on_success():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
    primary = conflicts[0]
    state = {"n": 0}

    def advisor(ctx):
        state["n"] += 1
        if state["n"] % 3 == 0:
            return RepairAction(ACT_GIVE_UP)
        raise AdvisorFailure("flaky")

    session, _ = run_session(chain, ToolConfig(), advisor, primary,
                             conflicts, max_attempts=2)
    assert session.outcome == "exhausted"
    assert session.attempts == 2  # two GiveUps got through


def test_queries_cost_loops_not_attempts():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
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
                             conflicts, max_attempts=10)
    assert session.outcome == "repaired"
    assert session.attempts == 1       # only the primary's mutating action
    assert session.loop_count == 4
    assert [t.get("result") for t in session.transcript][:2] != [None, None]


def test_illegal_proposal_spends_attempt_but_session_continues():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
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
                             primary, conflicts, max_attempts=10)
    assert session.outcome == "repaired"
    assert session.attempts == 2
    assert "IllegalAction" in session.transcript[0]["error"]


def test_context_neighborhood_is_local():
    chain, _ = _demo()
    conflicts = _conflicts(chain)
    primary = conflicts[0]
    seen = {}

    def advisor(ctx):
        seen["ctx"] = ctx
        return RepairAction(ACT_GIVE_UP)

    run_session(chain, ToolConfig(), advisor, primary, conflicts,
                max_attempts=1)
    ctx = seen["ctx"]
    assert set(primary.nodes) <= set(ctx.neighborhood.nodes)
    assert len(ctx.neighborhood.nodes) < len(chain.graph.nodes)
    assert ctx.ranked_candidates and ctx.path_pair is not None
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

    def reference(g, commit=None):
        calls.append(commit)
        return reference_detect_all(g, commit)

    for n, (world, ledger) in enumerate(_repair_cases()):
        for name, make in (("oracle", lambda: advisors.OracleAdvisor(ledger)),
                           ("heuristic", advisors.HeuristicAdvisor)):
            with mock.patch.object(repair_engine, "detect_all", reference), \
                    mock.patch.object(advisors, "detect_all", reference):
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
    for name, (chain, ledger) in _visible_fault_chains():
        heads = []

        def counting(g, commit=None):
            heads.append(commit)
            return detect_all(g, commit)

        start = chain.head
        make = {"oracle": lambda: advisors.OracleAdvisor(ledger),
                "heuristic": advisors.HeuristicAdvisor}[advisor]
        with mock.patch.object(repair_engine, "detect_all", counting):
            run_repair(chain, ToolConfig(), make(), ledger=ledger)
        applied = chain.head - start
        assert applied > 0, name
        # once at the start, then once after each applied commit
        assert heads == list(range(start, chain.head + 1)), name


@pytest.mark.parametrize("advisor", ["oracle", "heuristic"])
def test_each_context_localizes_from_one_tree_and_one_reach_pass(advisor):
    """A context builds at most one origin tree, reads every path pair from
    it and takes the candidates' reach from one pass: no per-target
    `shortest_path` and no per-candidate `reachable_from`."""
    for name, (chain, ledger) in _visible_fault_chains():
        counts: Counter = Counter()
        per_context = []

        def counted(key, real):
            def call(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            return call

        real_context = repair_engine.build_context

        def context(*args, **kwargs):
            before = Counter(counts)
            ctx = real_context(*args, **kwargs)
            per_context.append(counts - before)
            return ctx

        make = {"oracle": lambda: advisors.OracleAdvisor(ledger),
                "heuristic": advisors.HeuristicAdvisor}[advisor]
        with ExitStack() as stack:
            for owner, attr, key in (
                    (NavGraph, "reachable_from", "reach"),
                    (error_localizer, "shortest_path", "path"),
                    (error_localizer, "shortest_path_tree", "tree"),
                    (repair_engine, "shortest_path_tree", "tree")):
                stack.enter_context(mock.patch.object(
                    owner, attr, counted(key, getattr(owner, attr))))
            stack.enter_context(mock.patch.object(
                repair_engine, "build_context", context))
            run_repair(chain, ToolConfig(), make(), ledger=ledger)
        assert per_context and counts["tree"] > 0, name
        assert all(c["reach"] == 0 and c["tree"] <= 1
                   for c in per_context), name
        assert counts["path"] == 0, name
