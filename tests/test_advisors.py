import io
import json
import urllib.error
import urllib.request
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    multigraphs, reference_heuristic_order, reference_unique_resolving_direction,
)
from maprepair import advisors
from maprepair import fault_injector as fi
from maprepair.advisors import (
    EndpointConfig, HeuristicAdvisor, LlmAdvisor, OracleAdvisor,
    PlaybackAdvisor, _extract_json_object,
)
from maprepair.conflict_detector import (
    KIND_DIRECTIONAL, Detection, detect, detect_all,
)
from maprepair.errors import AdvisorFailure, DuplicateEdge
from maprepair.graph_core import Edge, NavGraph
from maprepair.repair_engine import (
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_GIVE_UP, Loop, RepairAction,
    ToolConfig, build_context, run_repair, run_session,
)
from maprepair.version_store import (
    TRIGGER_OBSERVATION, VersionChain, add, remove,
)


def _demo_context(config=None):
    chain, ledger = fi.demo_chain(corrupted=True)
    conflicts = detect_all(chain.graph, commit=chain.head)
    ctx = build_context(chain, config or ToolConfig(), conflicts[0], [],
                        conflicts)
    return chain, ledger, ctx


def test_oracle_proposes_exact_correction():
    _, ledger, ctx = _demo_context()
    action = OracleAdvisor(ledger)(ctx)
    assert action.kind == ACT_CHANGE_DIRECTION
    assert action.edge.step_id == 5
    assert action.new_direction == "east"


def test_oracle_gives_up_on_empty_ledger():
    _, _, ctx = _demo_context()
    assert OracleAdvisor(fi.FaultLedger())(ctx).kind == ACT_GIVE_UP


def test_oracle_merges_same_name_duplicates():
    # loopchain closure with one flipped edge: silent until the duplicate
    # origin node collides, then the right fix is a merge
    world = fi.generate_loopchain(8)
    corrupted, ledger = fi.inject(world, ["misdirection"], seed=11)
    chain = corrupted.build()
    g, sessions, metrics = run_repair(chain, ToolConfig(),
                                      OracleAdvisor(ledger), ledger=ledger)
    assert metrics.repair_rate_pct == 100.0
    assert detect_all(g) == []
    assert ledger.all_fixed(g)
    assert len(g.nodes) == 8  # duplicates merged away


def test_oracle_merges_namesakes_whatever_their_ids():
    """Rooms need not be called n<int>: the survivor is the shorter id,
    then the lesser."""
    chain = VersionChain()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis="rooms",
                 new_nodes=[("o", "Hall"), ("a", "Cellar"), ("x", "Yard"),
                            ("b", "Cellar")])
    # a and b stand on one spot
    chain.commit([add(Edge("o", "a", "north", 1)),
                  add(Edge("o", "x", "east", 2)),
                  add(Edge("x", "b", "northwest", 3))],
                 TRIGGER_OBSERVATION, obs_id=1, analysis="exits")
    g, sessions, _ = run_repair(chain, ToolConfig(),
                                OracleAdvisor(fi.FaultLedger()))
    assert [s.outcome for s in sessions] == ["repaired"]
    assert sessions[0].transcript[0]["action"] == {
        "action": "MergeNodes", "new_dst": "a", "node": "b"}
    assert set(g.nodes) == {"o", "a", "x"}


def test_heuristic_is_deterministic():
    chain1, _, ctx1 = _demo_context()
    chain2, _, ctx2 = _demo_context()
    assert HeuristicAdvisor()(ctx1).to_json() == \
        HeuristicAdvisor()(ctx2).to_json()


def test_heuristic_never_repeats_a_proposal():
    chain, _, ctx = _demo_context()
    advisor = HeuristicAdvisor()
    seen = []
    for _ in range(12):
        action = advisor(ctx)
        if action.kind == ACT_GIVE_UP:
            break
        assert action.to_json() not in seen
        seen.append(action.to_json())
        ctx.loops.append(Loop(ctx.conflict.key, action, "result",
                              "applied"))
    assert seen


def test_heuristic_drops_later_directional_edge():
    from maprepair.graph_core import NavGraph
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 6)
    from maprepair.version_store import VersionChain, TRIGGER_OBSERVATION, add
    chain = VersionChain()
    nid_a = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, 0, "A", new_nodes=[(nid_a, "A")])
    for i, (dst, step) in enumerate((("B", 1), ("C", 6))):
        nid = chain.allocate_node_id()
        from maprepair.graph_core import Edge
        chain.commit([add(Edge(nid_a, nid, "north", step))],
                     TRIGGER_OBSERVATION, step, dst,
                     new_nodes=[(nid, dst)])
    conflicts = detect_all(chain.graph, commit=chain.head)
    ctx = build_context(chain, ToolConfig(), conflicts[0], [], conflicts)
    action = HeuristicAdvisor()(ctx)
    assert action.kind == ACT_DELETE_EDGE
    assert action.edge.step_id == 6


def test_heuristic_never_deletes_a_repeated_exit():
    """A -north-> B at steps 1 and 6 and A -north-> C at step 4: step 6
    repeats step 1's exit, so the latest edge deleted is step 4's."""
    chain = VersionChain()
    a, b, c = "n0", "n1", "n2"
    chain.commit([], TRIGGER_OBSERVATION, 0, "A",
                 new_nodes=[(a, "A"), (b, "B"), (c, "C")])
    for dst, step in ((b, 1), (c, 4), (b, 6)):
        chain.commit([add(Edge(a, dst, "north", step))], TRIGGER_OBSERVATION,
                     step, "")
    conflicts = detect_all(chain.graph, commit=chain.head)
    ctx = build_context(chain, ToolConfig(), conflicts[0], [], conflicts)
    assert HeuristicAdvisor()(ctx) == \
        RepairAction(ACT_DELETE_EDGE, edge=Edge(a, c, "north", 4))


def test_heuristic_resolves_demo_world():
    chain, _ = fi.demo_chain(corrupted=True)
    g, sessions, metrics = run_repair(chain, ToolConfig(),
                                      HeuristicAdvisor())
    assert detect_all(g) == []
    assert metrics.repair_rate_pct == 100.0


def test_build_and_heuristic_trials_copy_no_graph(monkeypatch):
    def no_copy(self):
        raise AssertionError("whole-graph copy")

    monkeypatch.setattr(NavGraph, "copy", no_copy)
    world = fi.generate_grid(10, 10)
    assert world.build().graph.state_equal(world.truth)
    corrupted, ledger = fi.inject(
        world, ["misdirection", "misname", "phantom_edge"], seed=3)
    kinds = []

    def checked(ctx):
        before = NavGraph.from_json(ctx.graph.to_json())
        action = HeuristicAdvisor()(ctx)
        assert ctx.graph.state_equal(before)
        assert ctx.graph.indices_consistent()
        kinds.append(ctx.conflict.kind)
        return action

    run_repair(corrupted.build(), ToolConfig(), checked, ledger=ledger)
    # relabel trials run only for non-directional conflicts
    assert any(k != KIND_DIRECTIONAL for k in kinds)


# -- remote advisor ----------------------------------------------------------


def _fake_transport(replies):
    calls = []

    def transport(endpoint, payload):
        calls.append(payload)
        return {"choices": [{"message": {"content": replies.pop(0)}}]}

    transport.calls = calls
    return transport


def test_llm_advisor_parses_action_reply():
    _, _, ctx = _demo_context()
    reply = json.dumps({
        "action": "ChangeDirection",
        "edge": ctx.ranked_candidates[0].edge.to_json(),
        "new_dir": "east"})
    transport = _fake_transport([f"Here is my repair:\n{reply}\nDone."])
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    action = advisor(ctx)
    assert action.kind == ACT_CHANGE_DIRECTION
    assert action.new_direction == "east"
    payload = transport.calls[0]
    assert payload["temperature"] == 0
    assert payload["messages"][0]["role"] == "user"


def test_llm_advisor_reprompts_once_then_fails():
    _, _, ctx = _demo_context()
    transport = _fake_transport(["not json at all",
                                 '{"action": "GiveUp"}'])
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    assert advisor(ctx).kind == ACT_GIVE_UP
    assert len(transport.calls) == 2
    reprompt = transport.calls[1]["messages"]
    assert reprompt[-1]["role"] == "user" and "previous reply" in \
        reprompt[-1]["content"]

    transport = _fake_transport(["nope", "still nope"])
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    with pytest.raises(AdvisorFailure):
        advisor(ctx)


def test_llm_advisor_wraps_transport_errors():
    _, _, ctx = _demo_context()

    def transport(endpoint, payload):
        raise ConnectionError("refused")

    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    with pytest.raises(AdvisorFailure):
        advisor(ctx)


def test_default_transport_posts_json_with_urllib(monkeypatch):
    """The default transport POSTs the payload as JSON to the endpoint's
    chat completions with its timeout, sends a Bearer header only when a
    key is set, and returns the decoded reply."""
    sent = []

    def urlopen(request, timeout):
        sent.append((request, timeout))
        return io.BytesIO(b'{"choices": []}')

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    payload = {"model": "m", "temperature": 0,
               "messages": [{"role": "user", "content": "caf\xe9 \"north\""}]}
    for key in ("", "sk-1"):
        endpoint = EndpointConfig("http://host/v1/", api_key=key, timeout=7.5)
        assert advisors._default_transport(endpoint, payload) == \
            {"choices": []}
    for (request, timeout), key in zip(sent, ("", "sk-1")):
        assert request.full_url == "http://host/v1/chat/completions"
        assert request.get_method() == "POST"
        assert request.data == json.dumps(payload).encode()
        assert request.get_header("Content-type") == "application/json"
        assert request.get_header("Authorization") == (
            f"Bearer {key}" if key else None)
        assert timeout == 7.5


def test_llm_advisor_turns_an_http_error_status_into_a_failure(
        monkeypatch):
    _, _, ctx = _demo_context()

    def urlopen(request, timeout):
        raise urllib.error.HTTPError(request.full_url, 503,
                                     "Service Unavailable", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    advisor = LlmAdvisor(EndpointConfig("http://fake"))
    with pytest.raises(AdvisorFailure, match="HTTP Error 503") as caught:
        advisor(ctx)
    assert type(caught.value.__cause__) is urllib.error.HTTPError


def test_llm_prompt_reflects_tool_config():
    _, _, ctx = _demo_context()
    advisor = LlmAdvisor(EndpointConfig("http://fake"),
                         transport=_fake_transport([]))
    prompt = advisor.build_prompt(ctx)
    assert "Ranked suspect edges" in prompt
    assert "RollbackTo" in prompt

    _, _, bare = _demo_context(ToolConfig(edge_impact=False,
                                          version_control=False))
    prompt = advisor.build_prompt(bare)
    assert "Ranked suspect edges" not in prompt
    actions_line = next(line for line in prompt.splitlines()
                        if line.startswith("Available actions:"))
    assert "RollbackTo" not in actions_line
    assert "DeleteEdge" in actions_line


def test_llm_prompt_lists_the_action_table():
    """The prompt's action line comes from the action table, in the order
    it always had; the version tools only when version control is on."""
    advisor = LlmAdvisor(EndpointConfig("http://fake"),
                         transport=_fake_transport([]))
    lines = {}
    for version_control in (True, False):
        _, _, ctx = _demo_context(ToolConfig(version_control=version_control))
        lines[version_control] = next(
            line for line in advisor.build_prompt(ctx).splitlines()
            if line.startswith("Available actions:"))
    assert lines[False] == ("Available actions: ChangeDirection, DeleteEdge, "
                            "RedirectEdge, RenameNode, MergeNodes, GiveUp")
    assert lines[True] == lines[False] + ", RollbackTo, RecallStep, " \
        "DiffVersions"


_SHAPES = (
    'Respond with a single JSON object and nothing else, shaped like one '
    'of:\n'
    '  {"action": "ChangeDirection", "edge": {"src": ..., "dst": ..., '
    '"dir": ..., "step": ...}, "new_dir": "<direction>"}\n'
    '  {"action": "DeleteEdge", "edge": {...}}\n'
    '  {"action": "RedirectEdge", "edge": {...}, "new_dst": "<node id>"}\n'
    '  {"action": "RenameNode", "node": "<node id>", "new_name": "<name>"}\n'
    '  {"action": "MergeNodes", "node": "<node to fold>", "new_dst": '
    '"<node to keep>"}\n'
    '  {"action": "RollbackTo", "version": <int>}\n'
    '  {"action": "RecallStep", "version": <int>}\n'
    '  {"action": "DiffVersions", "i": <int>, "j": <int>}\n'
    '  {"action": "GiveUp"}\n')


def test_llm_prompt_shows_the_shapes_of_the_available_actions_only():
    """With version control on, the prompt ends with the JSON shape of
    every action kind, as it always did; with it off, no version tool is
    named anywhere in it, so none is proposed for an unusable turn."""
    advisor = LlmAdvisor(EndpointConfig("http://fake"),
                         transport=_fake_transport([]))
    _, _, ctx = _demo_context()
    assert advisor.build_prompt(ctx).endswith(_SHAPES)
    _, _, bare = _demo_context(ToolConfig(version_control=False))
    prompt = advisor.build_prompt(bare)
    for kind in ("RollbackTo", "RecallStep", "DiffVersions"):
        assert kind not in prompt
    version_lines = [line + "\n" for line in _SHAPES.splitlines()
                     if '"version"' in line or '"i"' in line]
    assert len(version_lines) == 3
    assert prompt.endswith(_SHAPES.replace("".join(version_lines), ""))


def test_llm_prompt_carries_the_session_so_far():
    """The second prompt holds the answer to the first reply's query; the
    first, with nothing in the session yet, has no session block."""
    chain, _, ctx = _demo_context()
    version = next(c.index for c in chain.commits
                   if c.analysis == "Room G lies north of Room E")
    transport = _fake_transport([
        json.dumps({"action": "RecallStep", "version": version}),
        '{"action": "GiveUp"}'])
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    first_prompt = advisor.build_prompt(ctx)
    run_session(chain, ToolConfig(), advisor, ctx.conflict, ctx.detection,
                max_attempts=1)
    first, second = (call["messages"][0]["content"]
                     for call in transport.calls)
    assert first == first_prompt
    assert "This session so far" not in first
    assert "Room G lies north of Room E" not in first
    session = second[second.index("This session so far:"):]
    assert '{"action": "RecallStep", "version": %d} -> {' % version \
        in session
    assert "Room G lies north of Room E" in session


def test_llm_session_block_is_pinned_for_each_loop_shape():
    """The "This session so far:" block, byte for byte, after a turn with
    no usable reply, a query's answer and the same query refused at the
    same chain head; each earlier prompt holds the block of the loops
    before it."""
    chain, _ = fi.demo_chain(corrupted=True)
    detection = detect(chain.graph, commit=chain.head)
    query = json.dumps({"action": "DiffVersions", "i": 1, "j": 2})
    transport = _fake_transport(["no action here", "still none", query,
                                 query, '{"action": "GiveUp"}'])
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    session, _ = run_session(chain, ToolConfig(), advisor,
                             detection.conflicts[0], detection,
                             max_attempts=1)
    prompts = [call["messages"][0]["content"] for call in transport.calls]
    blocks = [p[p.index("\nThis session so far:"):p.index("\nAvailable")]
              if "This session so far" in p else "" for p in prompts]
    rows = [
        "  (no usable reply) -> error: advisor failure: unusable reply "
        "after reprompt: no JSON object in reply\n",
        '  {"action": "DiffVersions", "i": 1, "j": 2} -> {"added": '
        '[{"src": "n1", "dst": "n2", "dir": "north", "step": 2}], '
        '"removed": []}\n',
        '  {"action": "DiffVersions", "i": 1, "j": 2} -> error: advisor '
        'failure: query already answered at this chain head\n',
    ]
    head = "\nThis session so far:\n"
    # the reprompt resends the first prompt as its first message
    assert blocks == ["", "", head + rows[0], head + "".join(rows[:2]),
                      head + "".join(rows)]
    assert session.loop_count == 4 and session.attempts == 1


def test_an_advisor_repeating_one_query_stops_after_three_repeats():
    """An llm advisor that always asks the same version query used to make
    200 remote calls, until the loop cap; a query already answered at the
    same chain head is not run again and counts as an advisor failure, so
    the third repeat in a row ends the session."""
    chain, ledger = fi.demo_chain(corrupted=True)
    reply = json.dumps({"action": "RecallStep", "version": 1})
    transport = _fake_transport([reply] * 200)
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    _, sessions, _ = run_repair(chain, ToolConfig(), advisor, ledger=ledger)
    assert len(transport.calls) <= 4
    for session in sessions:
        assert session.attempts == 0
        first, *repeats = session.transcript
        assert first["result"]["index"] == 1
        assert repeats and all(
            entry["error"] == "advisor failure: query already answered at "
            "this chain head" for entry in repeats)


def test_a_version_tool_with_version_control_off_stops_after_three_turns():
    """An llm advisor that always proposes RollbackTo while version control
    is off used to make 200 remote calls, until the loop cap: the blocked
    tool cost neither an attempt nor a failure.  It is an unusable turn,
    so the third one in a row ends the session."""
    chain, _ = fi.demo_chain(corrupted=True)
    detection = detect(chain.graph, commit=chain.head)
    conflicts = detection.conflicts
    transport = _fake_transport(
        [json.dumps({"action": "RollbackTo", "version": 0})] * 200)
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    session, _ = run_session(chain, ToolConfig(version_control=False),
                             advisor, conflicts[0], detection)
    assert len(transport.calls) == 3
    assert session.attempts == 0
    assert [t["error"] for t in session.transcript] == [
        "advisor failure: ToolUnavailable: version control is disabled"] * 3


def _wrong_typed_replies(chain):
    e = next(e for e in chain.graph.edges() if e.step_id == 5).to_json()
    return {
        "int name": {"action": "RenameNode", "node": "n3", "new_name": 5},
        "list src": {"action": "DeleteEdge", "edge": {**e, "src": [e["src"]]}},
        "str step": {"action": "DeleteEdge", "edge": {**e, "step": "5"}},
        "bool version": {"action": "RollbackTo", "version": True},
    }


@pytest.mark.parametrize("kind", ["int name", "list src", "str step",
                                  "bool version"])
def test_a_wrong_typed_reply_is_refused_and_changes_nothing(kind):
    """A reply field of the wrong type used to reach the graph: an int name
    was stored before the commit failed, a list node id raised TypeError
    out of `run_repair`, and `true` passed as version 1.  Now the reply is
    refused like any malformed one, reprompted once, and the turn is
    unusable."""
    chain, ledger = fi.demo_chain(corrupted=True)
    before = chain.graph.copy()
    reply = json.dumps(_wrong_typed_replies(chain)[kind])
    transport = _fake_transport([reply] * 200)
    advisor = LlmAdvisor(EndpointConfig("http://fake"), transport=transport)
    _, sessions, _ = run_repair(chain, ToolConfig(), advisor, ledger=ledger)
    assert chain.graph.state_equal(before)
    assert chain.graph.indices_consistent()
    assert sessions
    for session in sessions:
        assert session.attempts == 0
        assert len(session.transcript) == 3
        assert all(t["error"].startswith("advisor failure: unusable reply")
                   for t in session.transcript)
    assert len(transport.calls) == 6 * len(sessions)  # each one reprompted


def test_endpoint_config_from_env():
    env = {"MAPREPAIR_API_BASE": "http://host/v1",
           "MAPREPAIR_API_KEY": "sk-test", "MAPREPAIR_MODEL": "m1"}
    cfg = EndpointConfig.from_env(env)
    assert (cfg.base_url, cfg.api_key, cfg.model) == \
        ("http://host/v1", "sk-test", "m1")
    with pytest.raises(AdvisorFailure):
        EndpointConfig.from_env({})


def test_extract_json_object_skips_noise():
    assert _extract_json_object('{ not json } then {"a": 1} tail') == {"a": 1}
    with pytest.raises(ValueError):
        _extract_json_object("no objects here")


def test_heuristic_detects_only_its_trial_relabels(monkeypatch):
    """Each detection the heuristic makes advances the head's detection
    to the head graph with one edge relabelled and nothing else changed,
    by that relabel's two deltas, equals `detect_all` of that graph, and
    none comes after the second label that fixes the conflict: two fixes
    settle the answer."""
    calls = []
    head = {}
    advance = Detection.advance

    def checked(detection, g, deltas, commit=None):
        found = advance(detection, g, deltas, commit)
        if "graph" not in head:
            return found  # the engine's advance by an applied commit
        assert detection is head["detection"]
        assert g.nodes == head["graph"].nodes
        assert g.origin == head["graph"].origin
        gone = head["graph"].edge_set() - g.edge_set()
        new = g.edge_set() - head["graph"].edge_set()
        assert len(gone) == len(new) == 1, (gone, new)
        (e,), (trial,) = gone, new
        assert (trial.src, trial.dst, trial.step_id) == \
            (e.src, e.dst, e.step_id)
        assert tuple(deltas) == (remove(e), add(trial))
        assert head["fixes"].get(e, 0) < 2, "detected after a second fix"
        assert found.conflicts == detect_all(g, commit)
        after = {x.key for x in found.conflicts}
        if head["key"] not in after and after <= head["before"]:
            head["fixes"][e] = head["fixes"].get(e, 0) + 1
        calls.append(e)
        return found

    monkeypatch.setattr(Detection, "advance", checked)
    world = fi.generate_grid(4, 4)
    corrupted, ledger = fi.inject(
        world, ["misdirection", "misname", "phantom_edge"], seed=0)

    def counted(ctx):
        head.update(graph=NavGraph.from_json(ctx.graph.to_json()),
                    detection=ctx.detection, key=ctx.conflict.key,
                    fixes={}, before={x.key for x in ctx.conflicts})
        try:
            return HeuristicAdvisor()(ctx)
        finally:
            head.clear()

    run_repair(corrupted.build(), ToolConfig(), counted, ledger=ledger)
    assert calls


def test_heuristic_survives_a_colliding_trial_label():
    """Relabelling n0->n1 to south would collide with n0->n2 south at the
    same step: that label is no fix, and the repair goes on."""
    chain = VersionChain()
    chain.commit([], TRIGGER_OBSERVATION, 0, "A",
                 new_nodes=[("n0", "A"), ("n1", "B"), ("n2", "C")])
    chain.commit([add(Edge("n0", "n1", "north", 1)),
                  add(Edge("n1", "n0", "east", 2)),
                  add(Edge("n0", "n2", "south", 1))],
                 TRIGGER_OBSERVATION, 1, "B")
    g, sessions, metrics = run_repair(chain, ToolConfig(), HeuristicAdvisor())
    assert detect_all(g) == []
    assert metrics.repair_rate_pct == 100.0
    assert Edge("n0", "n1", "west", 1) in g.edge_set()
    assert g.indices_consistent()


def test_an_interrupted_trial_puts_its_edge_back(monkeypatch):
    """A trial relabel that raises, however it raises, leaves the chain
    graph equal to its head state, and the exception propagates."""
    class Interrupt(BaseException):
        pass

    chain = VersionChain()
    chain.commit([], TRIGGER_OBSERVATION, 0, "A",
                 new_nodes=[("n0", "A"), ("n1", "B")])
    chain.commit([add(Edge("n0", "n1", "north", 1)),
                  add(Edge("n1", "n0", "east", 2))],
                 TRIGGER_OBSERVATION, 1, "B")
    conflicts = detect_all(chain.graph, commit=chain.head)
    assert conflicts[0].kind != KIND_DIRECTIONAL  # so the advisor trials
    ctx = build_context(chain, ToolConfig(), conflicts[0], [], conflicts)

    def interrupted(detection, g, deltas, commit=None):
        raise Interrupt

    monkeypatch.setattr(Detection, "advance", interrupted)
    with pytest.raises(Interrupt):
        HeuristicAdvisor()(ctx)
    assert chain.graph.state_equal(chain.materialize(chain.head))
    assert chain.graph.indices_consistent()


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_trial_relabel_equals_the_reference(graph_and_conflicts, data):
    """Non-compass labels first and a stop at the second fix give the
    answer of every label in DIRECTIONS order, and leave the graph as it
    was.  Where a trial label's key is held by another edge, the
    reference raises; the advisor counts that label as no fix."""
    g, _ = graph_and_conflicts
    detected = [c.key for c in detect_all(g)]
    assume(detected)
    e = data.draw(st.sampled_from(sorted(g.edges())))
    key = data.draw(st.sampled_from(detected))
    before = data.draw(st.one_of(st.just(set(detected)),
                                 st.sets(st.sampled_from(detected))))
    head = NavGraph.from_json(g.to_json())
    try:
        want = reference_unique_resolving_direction(g, e, key, before)
    except DuplicateEdge:
        want = DuplicateEdge
    assert g.state_equal(head)
    got = advisors._unique_resolving_direction(detect(g), g, e, key, before)
    assert g.state_equal(head)
    assert g.indices_consistent()
    if want is DuplicateEdge:
        assert got is None or not any(
            x.step_id == e.step_id for x in g.out_edges(e.src, got))
    else:
        assert got == want


def test_a_one_loop_heuristic_session_builds_no_neighborhood(monkeypatch):
    """The heuristic reads the neighborhood only after the conflict's edges
    and the ranked candidates, and returns at its first new proposal, so
    the first loop of a session, where every proposal is new, builds none
    when the conflict has an edge or a candidate: a session of one loop
    builds none on these faulted grids."""
    builds = []
    real = NavGraph.neighborhood

    def counting(self, *args, **kwargs):
        builds.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NavGraph, "neighborhood", counting)
    firsts = []  # per session: builds in its first loop, and the conflict

    def counted(ctx):
        built = len(builds)
        try:
            return HeuristicAdvisor()(ctx)
        finally:
            if not ctx.loops:  # a session's first loop
                firsts.append((len(builds) - built, ctx.conflict))

    one_loop = []
    for seed in range(3):
        corrupted, _ = fi.inject(fi.generate_grid(4, 4), [
            fi.FAULT_MISNAME, fi.FAULT_PHANTOM], seed=seed)
        firsts.clear()
        _, sessions, _ = run_repair(corrupted.build(), ToolConfig(), counted)
        assert len(sessions) == len(firsts)
        one_loop += [built for s, (built, conflict) in zip(sessions, firsts)
                     if s.loop_count == 1
                     and conflict.kind != KIND_DIRECTIONAL]
    assert one_loop and not any(one_loop)


_WORLDS = st.one_of(
    st.sampled_from([fi.WorldSpec("grid", (3, 3)), fi.WorldSpec("tree", (2, 2)),
                     fi.WorldSpec("loopchain", (8,))]),
    st.builds(lambda n, k: fi.WorldSpec("walk", (4, 4, n, k)),
              st.integers(8, 24), st.integers(0, 3)))


@settings(max_examples=40, deadline=None)
@given(spec=_WORLDS, kinds=st.lists(st.sampled_from([
    fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME, fi.FAULT_PHANTOM]),
    min_size=1, max_size=3, unique=True), seed=st.integers(0, 3),
    edge_impact=st.booleans())
def test_the_heuristic_proposes_what_the_eager_order_proposes(
        spec, kinds, seed, edge_impact):
    """On faulted worlds, walks included, every proposal of the heuristic,
    which reads its edges lazily, equals the proposal it makes on a fresh
    context of the same conflict with every edge listed first, the order
    as first written (`reference_heuristic_order`); the trials leave the
    map as it was."""
    corrupted, _ = fi.inject(fi.generate_world(spec), kinds, seed=seed)
    chain = corrupted.build()
    config = ToolConfig(edge_impact=edge_impact)

    def eager(ctx):
        return iter(reference_heuristic_order(ctx))

    def twin(ctx):
        head = ctx.graph.copy()
        got = HeuristicAdvisor()(ctx)
        assert ctx.graph.state_equal(head)
        fresh = build_context(chain, config, ctx.conflict, ctx.loops,
                              ctx.conflicts, ctx.detection)
        with mock.patch.object(advisors, "_visible_edges", eager):
            assert HeuristicAdvisor()(fresh) == got
        return got

    run_repair(chain, config, twin)


# -- record / replay -----------------------------------------------------------


def test_recorded_session_replays_identically():
    """The session transcripts record every action, so replaying them
    repairs the same map the same way."""
    chain, ledger = fi.demo_chain(corrupted=True)
    g1, sessions, m1 = run_repair(chain, ToolConfig(), OracleAdvisor(ledger),
                                  ledger=ledger)
    recorded = [RepairAction.from_json(entry["action"])
                for s in sessions for entry in s.transcript]

    chain2, ledger2 = fi.demo_chain(corrupted=True)
    playback = PlaybackAdvisor(recorded)
    g2, _, m2 = run_repair(chain2, ToolConfig(), playback, ledger=ledger2)
    assert m2.to_json() == m1.to_json()
    assert g2.edge_set() == {e for e in g1.edge_set()}
    assert detect_all(g2) == []


def test_playback_gives_up_when_dry():
    chain, _ = fi.demo_chain(corrupted=True)
    detection = detect(chain.graph, commit=chain.head)
    conflicts = detection.conflicts
    session, _ = run_session(chain, ToolConfig(), PlaybackAdvisor([]),
                             conflicts[0], detection, max_attempts=3)
    assert session.outcome == "exhausted"
    assert session.attempts == 3
