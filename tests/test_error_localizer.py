import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    brute_shortest, flip_edges, multigraphs, random_graph,
    reference_candidate_edges, reference_lowest_common_ancestor,
    reference_minimal_path_pair, reference_score_candidates,
    reference_shortest_path, reference_suffix_nodes,
)
from maprepair.conflict_detector import detect_all
from maprepair.error_localizer import (
    _divergence, candidate_edges, minimal_path_pair, score_candidates,
    shortest_path_tree,
)
from maprepair.errors import DuplicateEdge, EmptyCandidates, Unreachable
from maprepair.graph_core import NavGraph
from maprepair.repair_engine import localize


def test_shortest_path_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        ids = sorted(g.nodes)
        for target in ids:
            expected = brute_shortest(g, g.origin, target)
            if expected is None:
                with pytest.raises(Unreachable):
                    shortest_path_tree(g, g.origin).path(target)
            else:
                assert shortest_path_tree(g, g.origin).path(target) == \
                    expected


def test_shortest_path_breaks_ties_by_step_ids():
    g = NavGraph()
    a, b, c, d = (g.add_node(x) for x in "ABCD")
    g.add_edge(a, b, "north", 5)
    g.add_edge(b, d, "north", 6)
    g.add_edge(a, c, "east", 1)
    g.add_edge(c, d, "north", 9)
    nodes, edges = shortest_path_tree(g, a).path(d)
    # both routes have length 2; (1, 9) beats (5, 6) lexicographically
    assert nodes == (a, c, d)
    assert [e.step_id for e in edges] == [1, 9]


def test_shortest_path_breaks_equal_step_sequences_by_node_id():
    """Three rooms tie on (length, step ids); the one with the smallest
    node id (as a string, so "n10" < "n11" < "n9") settles first and so
    becomes the parent of the room all three lead to.  Settling them in
    the order they were found, or the reverse, picks another parent."""
    g = NavGraph()
    s = g.add_node("S", node_id="s")
    p1, p2, p3 = (g.add_node(f"P{i}", node_id=f"p{i}") for i in (1, 2, 3))
    y, x, w = (g.add_node(n, node_id=i)
               for n, i in (("Y", "n9"), ("X", "n10"), ("W", "n11")))
    z = g.add_node("Z", node_id="z")
    for p, d in ((p1, "north"), (p2, "east"), (p3, "west")):
        g.add_edge(s, p, d, 1)
    for p, room in ((p1, y), (p2, x), (p3, w)):  # found in order y, x, w
        g.add_edge(p, room, "north", 2)
        g.add_edge(room, z, "north", 3)
    assert shortest_path_tree(g, s).path(z)[0] == (s, p2, x, z)
    assert reference_shortest_path(g, s, z)[0] == (s, p2, x, z)


def test_lca_plain_divergence():
    assert _divergence(("a", "b", "c"), ("a", "d", "e")) - 1 == 0
    assert _divergence(("a", "b", "c"), ("a", "b", "e")) - 1 == 1


def test_lca_settles_on_divergence_when_suffixes_reintersect():
    # "x" sits on both suffixes; no shallower cut can separate them (each
    # would re-add the shared prefix node), so the divergence point stands
    nodes1 = ("a", "b", "c", "x")
    nodes2 = ("a", "b", "d", "x", "e")
    assert _divergence(nodes1, nodes2) - 1 == 1


def test_lca_falls_back_on_full_reintersection():
    # every cut reintersects (a cycle); fall back to the divergence point
    nodes1 = ("a", "b", "c")
    nodes2 = ("a", "c", "b")
    assert _divergence(nodes1, nodes2) - 1 == 0

    # identical prefix paths (self-conflict): lca is the last shared node
    assert _divergence(("a", "b"), ("a", "b", "c")) - 1 == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abcde"), max_size=8),
       st.lists(st.sampled_from("abcde"), max_size=8))
def test_lca_is_the_divergence_point(nodes1, nodes2):
    """The LCA is the last node of the shared prefix, as the first-written
    search that backs off to a cut with node-disjoint suffixes finds."""
    assert _divergence(nodes1, nodes2) - 1 == \
        reference_lowest_common_ancestor(nodes1, nodes2)


def test_minimal_path_pair_for_inconsistency_closes_cycle():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, c, "north", 2)
    g.add_edge(a, c, "east", 3)  # re-derives C inconsistently
    conflict, = detect_all(g)
    assert conflict.subkind == "inconsistency"
    pp = minimal_path_pair(g, conflict, shortest_path_tree(g, g.origin))
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
    pp = minimal_path_pair(g, conflicts[0], shortest_path_tree(g, g.origin))
    cands = candidate_edges(g, pp)
    assert all(not (e.src == a and e.dst == b) for e in cands)


def test_scoring_empty_candidates_raises():
    g = NavGraph()
    g.add_node("A")
    with pytest.raises(EmptyCandidates):
        score_candidates(g, [], [], shortest_path_tree(g, g.origin))


def test_score_ordering_and_bounds():
    rng = random.Random(29)
    for _ in range(30):
        g = flip_edges(random_graph(rng), rng, 1)
        conflicts = detect_all(g)
        for c in conflicts:
            _, ranked = localize(g, c, conflicts)
            if ranked is None:
                continue
            scores = [r.score for r in ranked]
            assert scores == sorted(scores, reverse=True)
            assert all(0.0 <= s <= 3.0 for s in scores)


def test_candidate_json_wire_format():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 2)
    conflicts = detect_all(g)
    _, ranked = localize(g, conflicts[0], conflicts)
    payload = ranked[0].to_json()
    assert {"src", "dst", "dir", "step", "reach", "conflict", "usage",
            "score"} <= set(payload)


def _or_unreachable(fn, *args):
    try:
        return fn(*args)
    except Unreachable as exc:
        return f"Unreachable: {exc}"


_LADDER_DIRECTIONS = ("north", "south", "east", "west")


@st.composite
def ladders(draw):
    """Layered graphs 8-24 levels deep, 1-4 rooms a level, every step id 0
    or 1, so that equal step-id sequences tie at every level.  Each room
    is entered from the level above; cross edges join rooms of one level
    and back edges climb.  Node ids are a shuffle of n0, n1, ..., so their
    string order is neither their level order nor their numeric order."""
    widths = draw(st.lists(st.integers(1, 4), min_size=8, max_size=24))
    levels = [[0]]
    for width in widths:
        first = sum(map(len, levels))
        levels.append(list(range(first, first + width)))
    count = sum(map(len, levels))
    ids = draw(st.permutations(range(count)))
    g = NavGraph()
    for k in range(count):
        g.add_node(f"R{k}", node_id=f"n{ids[k]}")
    nid = [f"n{ids[k]}" for k in range(count)]
    level_of = {k: depth for depth, level in enumerate(levels) for k in level}
    edge = st.tuples(st.sampled_from(_LADDER_DIRECTIONS), st.integers(0, 1))
    moves = []
    for depth in range(1, len(levels)):
        for k in levels[depth]:
            for i, (d, step) in draw(st.lists(
                    st.tuples(st.integers(0, 3), edge), min_size=1,
                    max_size=3)):
                above = levels[depth - 1]
                moves.append((above[i % len(above)], k, d, step))
    for a, b, (d, step) in draw(st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1),
                      edge), max_size=2 * count)):
        if level_of[b] <= level_of[a]:  # cross or back: never a shortcut
            moves.append((a, b, d, step))
    for a, b, d, step in moves:
        try:
            g.add_edge(nid[a], nid[b], d, step)
        except DuplicateEdge:
            pass
    g.origin = nid[0]
    return g


@settings(max_examples=150, deadline=None)
@given(ladders())
def test_deep_ties_resolve_as_in_the_reference(g):
    """Below a few levels a rank carried from level to level decides the
    ties, which the heap decided by whole step-id sequences."""
    tree = shortest_path_tree(g, g.origin)
    for target in g.nodes:
        want = _or_unreachable(reference_shortest_path, g, g.origin, target)
        assert _or_unreachable(tree.path, target) == want


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_localization_equals_the_reference(graph_and_conflicts):
    """One origin tree and one reach pass give the same paths, path pairs
    and rankings, every score component in the same order, as a search
    per target and a `reachable_from` per candidate."""
    g, conflicts = graph_and_conflicts
    ids = sorted(g.nodes) + ["absent"]
    for start in ids:
        tree = shortest_path_tree(g, start)
        for target in ids:
            want = _or_unreachable(reference_shortest_path, g, start, target)
            assert _or_unreachable(tree.path, target) == want

    if g.origin is None:
        for c in conflicts:
            assert _or_unreachable(reference_minimal_path_pair, g, c) == \
                "Unreachable: graph has no origin"
            assert localize(g, c, conflicts) == (None, None)
        return
    tree = shortest_path_tree(g, g.origin)
    for c in conflicts:
        pp = _or_unreachable(minimal_path_pair, g, c, tree)
        assert pp == _or_unreachable(reference_minimal_path_pair, g, c)
        if isinstance(pp, str):
            assert localize(g, c, conflicts) == (None, None)
            continue
        assert pp.suffix_nodes == reference_suffix_nodes(pp)
        ranked = {}
        for silent in (False, True):
            cands = candidate_edges(g, pp, include_silent=silent)
            assert cands == reference_candidate_edges(g, pp, silent)
            if cands:
                ranked[silent] = score_candidates(g, conflicts, cands, tree)
                assert ranked[silent] == \
                    reference_score_candidates(g, conflicts, cands)
        # the suffix edges, else the suffix rooms' exits too
        want = ranked.get(False, ranked.get(True))
        assert localize(g, c, conflicts) == (pp, want)
        assert localize(g, c, conflicts, include_silent=True) == \
            (pp, ranked.get(True))
    every = sorted(g.edges())
    if every:
        assert score_candidates(g, conflicts, every, tree) == \
            reference_score_candidates(g, conflicts, every)
