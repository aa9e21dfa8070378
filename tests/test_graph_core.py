import random
import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_closure, brute_reachable, multigraphs, random_graph
from maprepair.conflict_detector import detect_all
from maprepair.errors import (
    DuplicateEdge, DuplicateNode, InvalidDelta, UnknownNode,
)
from maprepair.graph_core import (
    COMPASS, DIRECTIONS, Edge, NavGraph, displacement, is_direction,
    normalize_name, reverse_direction,
)


def test_direction_table_shape():
    assert len(DIRECTIONS) == 14
    assert len(set(DIRECTIONS)) == 14
    for d in DIRECTIONS:
        assert is_direction(d)
    assert not is_direction("sideways")
    assert not is_direction("North")  # labels are lowercase


def test_reverse_is_an_involution():
    for d in DIRECTIONS:
        assert reverse_direction(reverse_direction(d)) == d
        assert reverse_direction(d) != d


def test_displacements_negate_under_reverse():
    for d in DIRECTIONS:
        dx, dy, dz = displacement(d)
        rx, ry, rz = displacement(reverse_direction(d))
        assert (dx + rx, dy + ry, dz + rz) == (0, 0, 0)
        if d in COMPASS:
            assert (dx, dy, dz) != (0, 0, 0)
        else:
            assert (dx, dy, dz) == (0, 0, 0)


def test_compass_excludes_containment():
    assert COMPASS == set(DIRECTIONS) - {"in", "out", "enter", "exit"}


def test_normalize_name():
    assert normalize_name("  At   End Of Road ") == "at end of road"
    assert normalize_name("HALL\tof\nMists") == "hall of mists"


def test_first_node_becomes_origin():
    g = NavGraph()
    a = g.add_node("Room A")
    g.add_node("Room B")
    assert g.origin == a


def test_the_origin_never_moves():
    """Only the first node of an empty graph becomes the origin, and the
    origin is removed only as the last node."""
    g = NavGraph()
    a, b = g.add_node("Room A"), g.add_node("Room B")
    before = g.copy()
    with pytest.raises(InvalidDelta):
        g.remove_node(a)
    assert g.state_equal(before) and g.indices_consistent()
    g.remove_node(b)
    g.remove_node(a)
    assert g.nodes == {} and g.origin is None
    c = g.add_node("Room C")
    g.add_node("Room D")
    assert g.origin == c
    g.origin = None  # a graph may have rooms and no origin
    g.add_node("Room E")
    assert g.origin is None


def test_same_name_nodes_are_distinct():
    g = NavGraph()
    a = g.add_node("Cellar")
    b = g.add_node("cellar")
    assert a != b
    assert g.nodes_named("CELLAR") == {a, b}


def test_namesakes_lists_shared_names_only():
    g = NavGraph()
    a, b = g.add_node("Cellar"), g.add_node("  CELLAR ")
    c = g.add_node("Attic")
    assert list(g.namesakes()) == [("cellar", {a, b})]
    g.rename_node(b, "attic")
    assert sorted(g.namesakes()) == [("attic", {b, c})]


def test_explicit_node_id_collision_rejected():
    g = NavGraph()
    a = g.add_node("Room A")
    with pytest.raises(DuplicateNode):
        g.add_node("Room B", node_id=a)


def test_rename_updates_name_index():
    g = NavGraph()
    a = g.add_node("Old Name")
    g.rename_node(a, "New Name")
    assert g.nodes_named("old name") == set()
    assert g.nodes_named("new name") == {a}
    assert g.indices_consistent()


def test_remove_node_requires_no_edges():
    """Also a room whose edges all enter it: it has no exit to index."""
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(c, b, "east", 2)
    before = g.copy()
    with pytest.raises(InvalidDelta):
        g.remove_node(b)
    assert g.state_equal(before)
    assert g.indices_consistent()
    g.remove_edge(Edge(a, b, "north", 1))
    with pytest.raises(InvalidDelta):  # one edge still enters b
        g.remove_node(b)
    g.remove_edge(Edge(c, b, "east", 2))
    g.remove_node(b)
    assert b not in g.nodes and g.indices_consistent()


def test_an_edge_in_no_known_direction_is_refused():
    """An edge whose direction is not one of the 14 used to be stored, and
    `detect_all` then raised `KeyError`; `add_edge` and `from_json` refuse
    it before the graph changes."""
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    before = g.copy()
    with pytest.raises(ValueError, match="unknown direction: 'sideways'"):
        g.add_edge(a, b, "sideways", 2)
    assert g.state_equal(before)
    assert g.indices_consistent()
    data = g.to_json()
    data["edges"].append(Edge(b, a, "sideways", 3).to_json())
    with pytest.raises(ValueError, match="unknown direction: 'sideways'"):
        NavGraph.from_json(data)
    assert g.state_equal(before)
    assert g.indices_consistent()
    assert detect_all(g) == []


def test_add_edge_unknown_endpoint():
    g = NavGraph()
    a = g.add_node("A")
    with pytest.raises(UnknownNode):
        g.add_edge(a, "n99", "north", 1)
    with pytest.raises(UnknownNode):
        g.add_edge("n99", a, "north", 1)


def test_duplicate_edge_key_rejected_but_multiedges_allowed():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    with pytest.raises(DuplicateEdge):
        g.add_edge(a, b, "north", 1)
    # same (src, direction) at a different step is a storable conflict
    g.add_edge(a, c, "north", 2)
    assert len(g.out_edges(a, "north")) == 2


def test_a_rejected_mutation_leaves_no_trace():
    """A name that is not a str, or an edge key that cannot be hashed, is
    refused before the graph changes: no stored name, no empty level."""
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    before = g.copy()
    for bad in ((b, b, [], 1), (a, b, [], 2), (a, b, "north", [3]),
                (a, b, "south", [3])):
        with pytest.raises(TypeError):
            g.add_edge(*bad)
    with pytest.raises(AttributeError):
        g.add_node(5, node_id="n9")
    with pytest.raises(AttributeError):
        g.rename_node(a, ["x"])
    assert g.state_equal(before)
    assert g.indices_consistent()
    assert set(g.adjacency()) == {a}


def test_remove_edge_must_match_exactly():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    with pytest.raises(UnknownNode):
        g.remove_edge(Edge(a, c, "north", 1))  # same key, different dst


def test_out_in_and_between_queries():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    e1 = g.add_edge(a, b, "north", 1)
    e2 = g.add_edge(a, c, "east", 2)
    e3 = g.add_edge(b, a, "south", 3)
    assert g.out_edges(a) == [e1, e2]
    assert g.in_edges(a) == [e3]
    assert g.edges_between(a, b) == [e1]
    assert g.adjacency() == {a: {"north": {1: e1}, "east": {2: e2}},
                             b: {"south": {3: e3}}}
    assert c not in g.adjacency()


def test_reachable_matches_matrix_closure():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng)
        for start in g.nodes:
            assert g.reachable_from(start) == brute_reachable(g, start)


def test_reach_sizes_match_matrix_closure():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng)
        closure = brute_closure(g)
        # starts in a random order and with repeats: the DFS roots and the
        # order components close in vary, the sizes must not
        starts = rng.choices(sorted(g.nodes),
                             k=rng.randint(1, 2 * len(g.nodes)))
        assert g.reach_sizes(starts) == {s: len(closure[s]) for s in starts}


def test_reach_sizes_on_a_long_chain_and_an_unknown_start():
    g = NavGraph()
    ids = [g.add_node(f"R{i}") for i in range(3000)]
    for i in range(2999):
        g.add_edge(ids[i], ids[i + 1], "north", i)
    g.add_edge(ids[-1], ids[1500], "south", 3000)  # one cycle at the tail
    sizes = g.reach_sizes([ids[0], ids[1499], ids[2000]])
    assert sizes == {ids[0]: 3000, ids[1499]: 1501, ids[2000]: 1500}
    with pytest.raises(UnknownNode):
        g.reach_sizes(["absent"])


def test_neighborhood_is_induced_and_bounded():
    g = NavGraph()
    ids = [g.add_node(f"R{i}") for i in range(6)]
    for i in range(5):
        g.add_edge(ids[i], ids[i + 1], "north", i + 1)
    sub = g.neighborhood([ids[0]], radius=2)
    assert set(sub.nodes) == {ids[0], ids[1], ids[2]}
    assert {e.dst for e in sub.edges()} == {ids[1], ids[2]}
    # radius counts undirected hops
    sub_rev = g.neighborhood([ids[5]], radius=1)
    assert set(sub_rev.nodes) == {ids[4], ids[5]}


def test_copy_is_independent():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    h = g.copy()
    assert h.state_equal(g)
    h.add_edge(b, a, "south", 2)
    assert not h.state_equal(g)
    assert len(g.edge_set()) == 1
    # emptying a copy's edge levels and renaming its rooms leaves its
    # source as it was
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng)
        before = g.to_json()
        h = g.copy()
        for e in list(h.edges()):
            h.remove_edge(e)
        for nid in h.nodes:
            h.rename_node(nid, "Elsewhere")
        assert h.indices_consistent()
        assert g.to_json() == before and g.indices_consistent()


def test_copy_keeps_its_source_order():
    """A copy iterates its edges in its source's order, which is not the
    sorted order: the edge to room "a" sorts first."""
    g = NavGraph()
    x = g.add_node("X", node_id="x")
    g.add_edge(x, x, "east", 1)
    g.add_edge(x, x, "north", 0)
    g.add_edge(x, g.add_node("A", node_id="a"), "north", -1)
    assert list(g.edges()) != sorted(g.edges())
    h = g.copy()
    assert list(h.edges()) == list(g.edges())
    assert h.state_equal(g) and h.indices_consistent()
    assert h.fresh_id() == g.fresh_id()


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng)
        h = NavGraph.from_json(g.to_json())
        assert h.state_equal(g)


def test_to_dot_mentions_nodes_and_labels():
    g = NavGraph()
    a, b = g.add_node("Start"), g.add_node("End")
    g.add_edge(a, b, "northwest", 7)
    dot = g.to_dot()
    assert "Start" in dot and "End" in dot
    assert "northwest (step 7)" in dot
    assert dot.startswith("digraph")


def test_to_dot_escapes_quotes_and_backslashes_in_ids_and_names():
    g = NavGraph()
    a = g.add_node('The "Dark" Room \\', node_id='a"1\\')
    b = g.add_node("Plain", node_id="b")
    g.add_edge(a, b, "north", 1)
    dot = g.to_dot()
    assert '  "a\\"1\\\\" [label="The \\"Dark\\" Room \\\\" ' \
        'shape=doubleoctagon];' in dot
    assert '  "a\\"1\\\\" -> "b" [label="north (step 1)"];' in dot
    # every quoted string closes: outside them, each line holds no quote
    for line in dot.splitlines():
        assert '"' not in re.sub(r'"(?:[^"\\]|\\.)*"', "", line)


def test_from_json_refuses_an_origin_that_names_no_room():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    data = g.to_json()
    data["origin"] = "zz"
    with pytest.raises(UnknownNode, match="origin is not a node: 'zz'"):
        NavGraph.from_json(data)
    # a subgraph that leaves the origin out still round-trips
    sub = g.neighborhood([b], radius=0)
    assert sub.origin is None and sub.nodes == {b: "B"}
    assert NavGraph.from_json(sub.to_json()).state_equal(sub)


def test_indices_survive_random_mutation():
    rng = random.Random(23)
    g = random_graph(rng)
    for _ in range(30):
        edges = sorted(g.edge_set())
        if edges and rng.random() < 0.5:
            g.remove_edge(rng.choice(edges))
        else:
            ids = sorted(g.nodes)
            try:
                g.add_edge(rng.choice(ids), rng.choice(ids),
                           rng.choice(DIRECTIONS), rng.randint(100, 999))
            except DuplicateEdge:
                pass
        assert g.indices_consistent()


def _brute_neighborhood(g: NavGraph, seeds: set, radius: int) -> set:
    """Nodes within `radius` undirected hops of `seeds`: a BFS over
    neighbour lists made from `g.edges()`."""
    neighbours = {n: set() for n in g.nodes}
    for e in g.edges():
        neighbours[e.src].add(e.dst)
        neighbours[e.dst].add(e.src)
    hops = {n: 0 for n in seeds}
    queue = deque(seeds)
    while queue:
        n = queue.popleft()
        if hops[n] < radius:
            for m in sorted(neighbours.get(n, ())):
                if m not in hops:
                    hops[m] = hops[n] + 1
                    queue.append(m)
    return set(hops)


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_entering_edge_reads_equal_brute_force(graph_and_conflicts, data):
    """`neighborhood`, `in_edges` and `remove_node` find entering edges in
    the one adjacency index; each equals a reference built from the edge
    list.  `remove_node` raises exactly when an edge touches the node or
    the node is the origin and not the last node, and then leaves the
    graph as it was."""
    g, _ = graph_and_conflicts
    edges = sorted(g.edges())
    seeds = set(data.draw(st.lists(st.sampled_from(sorted(g.nodes)),
                                   max_size=3)))
    radius = data.draw(st.integers(0, 3))
    sub = g.neighborhood(seeds, radius=radius)
    keep = _brute_neighborhood(g, seeds, radius)
    assert sub.nodes == {n: g.nodes[n] for n in g.nodes if n in keep}
    assert sorted(sub.edges()) == [e for e in edges
                                   if e.src in keep and e.dst in keep]
    assert sub.origin == (g.origin if g.origin in keep else None)
    assert sub.indices_consistent()
    for n in sorted(g.nodes):
        assert g.in_edges(n) == [e for e in edges if e.dst == n]
        h = g.copy()
        if any(n in (e.src, e.dst) for e in edges):
            with pytest.raises(InvalidDelta):
                h.remove_node(n)
            assert h.state_equal(g)
        elif n == g.origin and len(g.nodes) > 1:
            with pytest.raises(InvalidDelta):
                h.remove_node(n)
            assert h.state_equal(g)
        else:
            h.remove_node(n)
            assert set(h.nodes) == set(g.nodes) - {n}
            assert h.edge_set() == set(edges)
        assert h.indices_consistent()
