"""End-to-end acceptance gate: fixture scenarios, property sweeps, and
printed-number fidelity checks."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from helpers import brute_closure, brute_shortest, edge_by, unapplied
from maprepair import fault_injector as fi
from maprepair.advisors import OracleAdvisor
from maprepair.conflict_detector import (
    KIND_DIRECTIONAL, SUB_ASYMMETRY, SUB_OVERLAP, detect, detect_all,
)
from maprepair.dataset_refiner import RawEdge, refine
from maprepair.error_localizer import (
    candidate_edges, conflict_targets, minimal_path_pair, score_candidates,
    shortest_path_tree,
)
from maprepair.graph_core import DIRECTIONS, NavGraph
from maprepair.metrics_bench import Metrics
from maprepair.repair_engine import (
    ACT_GIVE_UP, ACT_RECALL_STEP, RepairAction, ToolConfig, run_repair,
    run_session,
)
from maprepair.transcript_parser import construct_graph, parse_transcript
from maprepair.version_store import VersionChain, _apply_commit

FIXTURES = Path(__file__).parent / "fixtures"


# -- 1. ten-room branching fixture -----------------------------------------

def test_criterion_1_branching_fixture_localization():
    started = time.monotonic()
    chain, _ = fi.demo_chain(corrupted=True)
    g = chain.graph

    conflicts = detect_all(g)
    assert len(conflicts) == 1
    c = conflicts[0]
    assert c.subkind == SUB_OVERLAP
    assert sorted(g.nodes[n] for n in c.nodes) == ["Room D", "Room I"]

    pp = minimal_path_pair(g, c, shortest_path_tree(g, g.origin))
    assert [g.nodes[n] for n in pp.nodes1] == ["Room B", "Room C", "Room D"]
    assert [g.nodes[n] for n in pp.nodes2] == \
        ["Room B", "Room E", "Room G", "Room H", "Room I"]
    assert g.nodes[pp.lca] == "Room B"

    def named(edges):
        return {(g.nodes[e.src], g.nodes[e.dst]) for e in edges}

    cands = candidate_edges(g, pp)
    assert named(cands) == {
        ("Room B", "Room C"), ("Room C", "Room D"), ("Room E", "Room G"),
        ("Room G", "Room H"), ("Room H", "Room I"),
    }
    with_silent = candidate_edges(g, pp, include_silent=True)
    assert ("Room E", "Room J") in named(with_silent)
    assert named(cands) <= named(with_silent)
    assert time.monotonic() - started < 1.0


# -- 2. appendix conflict examples ------------------------------------------

def test_criterion_2_carousel_duplicate_north():
    g = NavGraph()
    carousel = g.add_node("Carousel Room")
    hall = g.add_node("Marble Hall")
    topiary = g.add_node("Topiary")
    g.add_edge(carousel, hall, "north", 1)
    g.add_edge(carousel, topiary, "north", 2)
    conflicts = detect_all(g)
    assert len(conflicts) == 1
    assert conflicts[0].kind == KIND_DIRECTIONAL
    assert {e.dst for e in conflicts[0].edges} == {hall, topiary}


def test_criterion_2_ledge_ford_asymmetry():
    g = NavGraph()
    ford = g.add_node("Deep Ford")
    ledge = g.add_node("Ledge in Ravine")
    g.add_edge(ford, ledge, "north", 1)
    g.add_edge(ledge, ford, "down", 2)  # should have been south
    conflicts = detect_all(g)
    assert len(conflicts) == 1
    assert conflicts[0].subkind == SUB_ASYMMETRY
    assert set(conflicts[0].nodes) == {ford, ledge}


# -- 3. refiner soundness ----------------------------------------------------

def _raw_edges_from_transcript(path: Path) -> list[RawEdge]:
    steps = parse_transcript(path.read_text(encoding="utf-8"))
    raw = []
    cursor = steps[0].location_line
    for s in steps[1:]:
        raw.append(RawEdge(cursor, s.location_line, s.act, s.step_num))
        if s.is_movement and s.location_line != cursor:
            cursor = s.location_line
    return raw


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.txt")),
                         ids=lambda p: p.stem)
def test_criterion_3_refiner_sound_and_idempotent(path):
    raw = _raw_edges_from_transcript(path)
    graph, report = refine(raw)
    assert detect_all(graph) == []

    removed = {e for dropped in report.removed.values() for e in dropped}
    survivors = [e for e in raw if e not in removed]
    graph2, report2 = refine(survivors)
    assert report2.total_removed == 0
    assert graph2.nodes == graph.nodes
    assert graph2.edge_set() == graph.edge_set()


def test_criterion_3_upstream_dump_counts():
    dump = FIXTURES / "mango_edges.jsonl"
    if not dump.exists():
        pytest.skip("upstream edge dump not in the fixture set")
    raw = [RawEdge.from_json(json.loads(line))
           for line in dump.read_text(encoding="utf-8").splitlines() if line]
    assert len(raw) == 1673
    _, report = refine(raw)
    assert report.total_removed == 160
    assert report.final_edges == 1513


# -- 4. version-store round-trip property -----------------------------------

def _random_chain(rng: random.Random, log_path: Path) -> VersionChain:
    from maprepair.version_store import TRIGGER_OBSERVATION, add, remove
    from maprepair.graph_core import Edge

    chain = VersionChain(log_path=log_path)
    ids = []
    step = 0
    for i in range(20):
        step += 1
        roll = rng.random()
        live = sorted(chain.graph.edge_set())
        if roll < 0.25 and live:
            chain.commit([remove(rng.choice(live))], TRIGGER_OBSERVATION,
                         obs_id=step, analysis="drop")
        elif roll < 0.35 and ids:
            nid = rng.choice(ids)
            chain.commit([], TRIGGER_OBSERVATION, obs_id=step,
                         analysis="rename",
                         renames=[(nid, chain.graph.nodes[nid],
                                   f"Renamed {step}")])
        elif roll < 0.42 and ids:
            # two renames of one node in one commit undo in reverse
            nid = rng.choice(ids)
            chain.commit([], TRIGGER_OBSERVATION, obs_id=step,
                         analysis="rename twice",
                         renames=[(nid, chain.graph.nodes[nid], f"A {step}"),
                                  (nid, f"A {step}", f"B {step}")])
        else:
            nid = chain.allocate_node_id()
            new_nodes = [(nid, f"Room {len(ids)}")]
            deltas = []
            if ids:
                deltas.append(add(Edge(rng.choice(ids), nid,
                                       rng.choice(DIRECTIONS), step)))
            chain.commit(deltas, TRIGGER_OBSERVATION, obs_id=step,
                         analysis="grow", new_nodes=new_nodes)
            ids.append(nid)
    return chain


def test_criterion_4_version_store_round_trip(tmp_path):
    started = time.monotonic()
    rng = random.Random(4)
    log = tmp_path / "chain.jsonl"
    for trial in range(1000):
        log.unlink(missing_ok=True)
        chain = _random_chain(rng, log)
        chain.close()
        head = chain.head
        i = rng.randint(0, head)
        j = rng.randint(0, head)

        rolled = unapplied(chain, i)
        assert rolled.state_equal(chain.materialize(i))
        for c in chain.commits[i + 1:]:
            _apply_commit(rolled, c)
        assert rolled.state_equal(chain.graph)

        dij, dji = chain.diff(i, j), chain.diff(j, i)
        assert dij["added"] == dji["removed"]
        assert dij["removed"] == dji["added"]

        reloaded = VersionChain.load(log)
        assert reloaded.graph.state_equal(chain.graph)
        assert reloaded.commits == chain.commits
    assert time.monotonic() - started < 30.0


# -- 5. scoring oracle equivalence -------------------------------------------

def _oracle_lca_index(nodes1, nodes2) -> int:
    common = 0
    for a, b in zip(nodes1, nodes2):
        if a != b:
            break
        common += 1
    for cut in range(common, 0, -1):
        if not set(nodes1[cut:]) & set(nodes2[cut:]):
            return cut - 1
    return common - 1


def _oracle_path_pair(g, conflict):
    t1, t2 = conflict_targets(conflict)
    p1 = brute_shortest(g, g.origin, t1)
    p2 = brute_shortest(g, g.origin, t2)
    if p1 is None or p2 is None:
        return None
    nodes1, edges1 = p1
    nodes2, edges2 = p2
    if conflict.subkind == "inconsistency":
        nodes2 = nodes2 + (conflict.edges[0].dst,)
        edges2 = edges2 + (conflict.edges[0],)
    idx = _oracle_lca_index(nodes1, nodes2)
    return edges1[idx:], edges2[idx:]


def _random_world_graph(rng: random.Random) -> NavGraph:
    shape = rng.choice(("grid", "tree", "loopchain"))
    if shape == "grid":
        spec = fi.WorldSpec("grid", (rng.randint(2, 7), rng.randint(2, 7)))
    elif shape == "tree":
        spec = fi.WorldSpec("tree", (rng.randint(2, 3), rng.randint(2, 3)))
    else:
        spec = fi.WorldSpec("loopchain", (2 * rng.randint(2, 12),))
    return fi.generate_world(spec).truth


def test_criterion_5_scoring_matches_brute_force():
    from helpers import flip_edges

    started = time.monotonic()
    rng = random.Random(5)
    scored_any = 0
    for trial in range(500):
        g = flip_edges(_random_world_graph(rng), rng, rng.randint(1, 3))
        assert len(g.nodes) <= 50
        conflicts = detect_all(g)
        if not conflicts:
            continue
        closure = brute_closure(g)
        suffix_paths = []
        membership = []
        for c in conflicts:
            edges = set(c.edges)
            pair = _oracle_path_pair(g, c)
            if pair is not None:
                suffix_paths.extend(pair)
                edges |= set(pair[0]) | set(pair[1])
            membership.append(edges)
        tree = shortest_path_tree(g, g.origin)
        for c in conflicts:
            pp = minimal_path_pair(g, c, tree)
            cands = candidate_edges(g, pp)
            if not cands:
                continue
            ranked = score_candidates(g, conflicts, cands, tree)
            scored_any += 1
            for r in ranked:
                assert r.reach == len(closure[r.edge.dst])
                assert r.conflict_count == sum(
                    1 for m in membership if r.edge in m)
                assert r.usage == sum(
                    1 for p in suffix_paths if r.edge in p)
                assert 0.0 <= r.score <= 3.0
    assert scored_any >= 200
    assert time.monotonic() - started < 60.0


def test_criterion_5_constant_normalization_is_zero():
    from maprepair.error_localizer import _minmax
    assert _minmax([7, 7, 7]) == [0.0, 0.0, 0.0]


# -- 6. oracle-advisor convergence --------------------------------------------

@pytest.mark.parametrize("shape,params", [("grid", (4, 4)),
                                          ("loopchain", (10,))])
def test_criterion_6_oracle_repairs_seeded_worlds(shape, params):
    world = fi.generate_world(fi.WorldSpec(shape, params))
    for seed in range(50):
        corrupted, ledger = fi.inject(world, ["misdirection"], seed=seed)
        chain = corrupted.build()
        g, sessions, metrics = run_repair(chain, ToolConfig(),
                                          OracleAdvisor(ledger),
                                          ledger=ledger)
        assert metrics.repair_rate_pct == 100.0
        assert detect_all(g) == []
        assert all(s.attempts <= 10 for s in sessions)


def test_criterion_6_secondary_conflicts_cost_no_attempts():
    chain, ledger = fi.demo_chain(corrupted=True)
    _, sessions, metrics = run_repair(chain, ToolConfig(),
                                      OracleAdvisor(ledger), ledger=ledger)
    assert metrics.repair_rate_pct == 100.0
    assert len(sessions) == 1
    session = sessions[0]
    assert len(session.secondary) >= 1
    # one mutating proposal for the primary; the secondary fix is attempt-free
    assert session.attempts == 1
    assert session.loop_count >= 2


# -- 7. metric formula fidelity ------------------------------------------------

@pytest.mark.parametrize("numerator,denominator,expected,field", [
    (179, 238, 75.21, "repair_rate_pct"),
    (81, 150, 54.00, "accuracy_pct"),
    (90, 164, 54.88, "accuracy_pct"),
    (52, 238, 21.85, "repair_rate_pct"),
    (3, 52, 5.77, "accuracy_pct"),
])
def test_criterion_7_metric_formula_fidelity(numerator, denominator,
                                             expected, field):
    if field == "repair_rate_pct":
        m = Metrics(None, denominator, numerator, None)
    else:
        m = Metrics(None, denominator, denominator, numerator)
    assert abs(getattr(m, field) - expected) <= 0.01


# -- 8. config isolation --------------------------------------------------------

class _ProbeAdvisor:
    def __init__(self, action=None):
        self.contexts = []
        self.action = action or RepairAction(ACT_GIVE_UP)

    def __call__(self, ctx):
        self.contexts.append(ctx)
        return self.action


def test_criterion_8_edge_impact_off_hides_scores():
    chain, _ = fi.demo_chain(corrupted=True)
    probe = _ProbeAdvisor()
    run_repair(chain, ToolConfig(edge_impact=False), probe, max_attempts=2)
    assert probe.contexts
    for ctx in probe.contexts:
        assert ctx.ranked_candidates is None


def test_criterion_8_version_control_off_blocks_queries():
    chain, _ = fi.demo_chain(corrupted=True)
    detection = detect(chain.graph, commit=chain.head)
    conflicts = detection.conflicts
    probe = _ProbeAdvisor(action=RepairAction(ACT_RECALL_STEP, version=0))
    session, _ = run_session(chain, ToolConfig(version_control=False), probe,
                             conflicts[0], detection, max_attempts=2)
    assert probe.contexts
    assert all(ctx.chain is None for ctx in probe.contexts)
    # a blocked query is an unusable turn: three in a row end the session
    assert len(session.transcript) == 3
    assert all(t["error"].startswith("advisor failure: ToolUnavailable")
               for t in session.transcript)
    assert session.attempts == 0  # blocked queries never spend attempts


# -- 9. delayed-conflict measurability ------------------------------------------

@pytest.mark.parametrize("n", [8, 10, 12])
def test_criterion_9_loopchain_delay(n):
    world = fi.generate_world(fi.WorldSpec("loopchain", (n,)))
    for k in (1, 2, n // 2, n - 2):
        fault = fi.Fault(fi.FAULT_MISDIRECTION, k,
                         true_direction=world.steps[k][0],
                         corrupted_direction="up")
        corrupted = fi.inject(world, [], explicit=[fault])[0]
        first = fi.first_visible_commit(corrupted)
        # the faulty edge lands in commit k; the conflict surfaces only at
        # the closing commit, n - k edges later (the remaining loop length)
        assert first is not None
        assert first - k == n - k


# -- 10. transcript parsing -------------------------------------------------------

def test_criterion_10_walkthrough_parses_and_builds():
    text = (FIXTURES / "advent_walkthrough.txt").read_text(encoding="utf-8")
    steps = parse_transcript(text)
    assert len(steps) == 71
    assert [s.step_num for s in steps] == list(range(71))

    movement = [s.step_num for s in steps if s.is_movement]
    assert len(movement) == 44
    assert movement[:8] == [1, 3, 4, 5, 6, 9, 10, 12]
    by_num = {s.step_num: s for s in steps}
    assert not by_num[0].is_movement            # Init
    assert not by_num[2].is_movement            # get all
    assert not by_num[69].is_movement           # plugh (teleport, no edge)
    assert by_num[1].direction == "east"

    chain = VersionChain()
    g = construct_graph(steps, chain)
    names = set(g.nodes.values())
    assert {"At End Of Road", "Inside Building"} <= names
    e = edge_by(g, "At End Of Road", "Inside Building")
    assert e.direction == "east" and e.step_id == 1
    assert g.reachable_from(g.origin) == set(g.nodes)  # connected
