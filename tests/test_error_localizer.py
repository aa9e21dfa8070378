import random

import pytest

from helpers import brute_shortest, flip_edges, random_graph
from maprepair.conflict_detector import detect_all
from maprepair.error_localizer import (
    candidate_edges, lowest_common_ancestor, minimal_path_pair,
    score_candidates, shortest_path,
)
from maprepair.errors import EmptyCandidates, Unreachable
from maprepair.graph_core import NavGraph


def test_shortest_path_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        ids = sorted(g.nodes)
        for target in ids:
            expected = brute_shortest(g, g.origin, target)
            if expected is None:
                with pytest.raises(Unreachable):
                    shortest_path(g, g.origin, target)
            else:
                assert shortest_path(g, g.origin, target) == expected


def test_shortest_path_breaks_ties_by_step_ids():
    g = NavGraph()
    a, b, c, d = (g.add_node(x) for x in "ABCD")
    g.add_edge(a, b, "north", 5)
    g.add_edge(b, d, "north", 6)
    g.add_edge(a, c, "east", 1)
    g.add_edge(c, d, "north", 9)
    nodes, edges = shortest_path(g, a, d)
    # both routes have length 2; (1, 9) beats (5, 6) lexicographically
    assert nodes == (a, c, d)
    assert [e.step_id for e in edges] == [1, 9]


def test_lca_plain_divergence():
    assert lowest_common_ancestor(("a", "b", "c"), ("a", "d", "e")) == 0
    assert lowest_common_ancestor(("a", "b", "c"), ("a", "b", "e")) == 1


def test_lca_settles_on_divergence_when_suffixes_reintersect():
    # "x" sits on both suffixes; no shallower cut can separate them (each
    # would re-add the shared prefix node), so the divergence point stands
    nodes1 = ("a", "b", "c", "x")
    nodes2 = ("a", "b", "d", "x", "e")
    assert lowest_common_ancestor(nodes1, nodes2) == 1


def test_lca_falls_back_on_full_reintersection():
    # every cut reintersects (a cycle); fall back to the divergence point
    nodes1 = ("a", "b", "c")
    nodes2 = ("a", "c", "b")
    assert lowest_common_ancestor(nodes1, nodes2) == 0

    # identical prefix paths (self-conflict): lca is the last shared node
    assert lowest_common_ancestor(("a", "b"), ("a", "b", "c")) == 1


def test_minimal_path_pair_for_inconsistency_closes_cycle():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, c, "north", 2)
    g.add_edge(a, c, "east", 3)  # re-derives C inconsistently
    conflict, = detect_all(g)
    assert conflict.subkind == "inconsistency"
    pp = minimal_path_pair(g, conflict)
    assert pp.nodes2[-1] == c
    assert pp.edges2[-1] == conflict.edges[0]


def test_corroborated_edges_are_exempt():
    g = NavGraph()
    a, b, c, d = (g.add_node(x) for x in "ABCD")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, a, "south", 2)       # corroborates a->b
    g.add_edge(b, c, "north", 3)
    g.add_edge(a, d, "east", 4)
    g.add_edge(d, c, "north", 5)       # c overlaps nothing; build conflict
    g.add_edge(c, b, "west", 6)        # asymmetry against b->c north
    conflicts = [x for x in detect_all(g) if x.subkind == "asymmetry"]
    pp = minimal_path_pair(g, conflicts[0])
    cands = candidate_edges(g, pp)
    assert all(not (e.src == a and e.dst == b) for e in cands)


def test_scoring_empty_candidates_raises():
    g = NavGraph()
    g.add_node("A")
    with pytest.raises(EmptyCandidates):
        score_candidates(g, [], [])


def test_score_ordering_and_bounds():
    rng = random.Random(29)
    for _ in range(30):
        g = flip_edges(random_graph(rng), rng, 1)
        conflicts = detect_all(g)
        for c in conflicts:
            try:
                pp = minimal_path_pair(g, c)
            except Unreachable:
                continue
            cands = candidate_edges(g, pp)
            if not cands:
                continue
            ranked = score_candidates(g, conflicts, cands)
            scores = [r.score for r in ranked]
            assert scores == sorted(scores, reverse=True)
            assert all(0.0 <= s <= 3.0 for s in scores)


def test_candidate_json_wire_format():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 2)
    conflicts = detect_all(g)
    pp = minimal_path_pair(g, conflicts[0])
    ranked = score_candidates(g, conflicts, candidate_edges(g, pp))
    payload = ranked[0].to_json()
    assert {"src", "dst", "dir", "step", "reach", "conflict", "usage",
            "score"} <= set(payload)
