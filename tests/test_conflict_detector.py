import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_detect_all, reference_infer_positions
from maprepair.conflict_detector import (
    KIND_DIRECTIONAL, KIND_NAMING, KIND_TOPOLOGICAL, SUB_ASYMMETRY,
    SUB_INCONSISTENCY, SUB_OVERLAP, detect, detect_all, unreachable_nodes,
)
from maprepair.error_localizer import conflict_targets
from maprepair.errors import DuplicateEdge
from maprepair.fault_injector import WorldSpec, _world_from_walk, \
    generate_world
from maprepair.graph_core import (
    DIRECTIONS, Edge, NavGraph, normalize_name, reverse_direction,
)
from maprepair.position_inference import infer_positions, record_positions
from maprepair.version_store import add, remove


def _clean_square():
    g = NavGraph()
    ids = [g.add_node(f"R{i}") for i in range(4)]
    for i, d in enumerate(("north", "east", "south")):
        g.add_edge(ids[i], ids[i + 1], d, i + 1)
    g.add_edge(ids[3], ids[0], "west", 4)
    return g, ids


def test_clean_graph_has_no_conflicts():
    g, _ = _clean_square()
    assert detect_all(g) == []
    assert unreachable_nodes(g) == []


def test_directional_conflict_groups_by_src_and_label():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 2)
    g.add_edge(a, c, "east", 3)  # distinct label: no conflict
    conflicts = detect_all(g)
    assert [c.kind for c in conflicts] == [KIND_DIRECTIONAL]
    assert conflicts[0].witness == (a, "north")
    assert len(conflicts[0].edges) == 2


def test_a_repeated_exit_is_no_conflict():
    """Hall -east-> Den -west-> Hall -east-> Den takes one exit twice: the
    map keeps both east edges, the second corroborating the first, and
    reports no conflict."""
    world = _world_from_walk(["Hall"], [("east", "Den"), ("west", "Hall"),
                                        ("east", "Den")])
    g = world.build().graph
    assert detect_all(g) == []
    assert g.edge_set() == world.truth.edge_set()
    assert [e.step_id for e in g.out_edges(g.origin, "east")] == [1, 3]


def test_a_directional_conflict_keeps_its_repeats_and_targets_two_rooms():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    for dst, step in ((b, 1), (b, 3), (c, 5)):
        g.add_edge(a, dst, "north", step)
    [conflict] = detect_all(g)
    assert conflict.kind == KIND_DIRECTIONAL
    assert [e.step_id for e in conflict.edges] == [1, 3, 5]
    assert conflict.nodes == (a, b, c)
    assert conflict_targets(conflict) == (b, c)


def test_asymmetry_reported_once_per_pair():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, a, "east", 2)
    conflicts = detect_all(g)
    assert len(conflicts) == 1
    assert conflicts[0].subkind == SUB_ASYMMETRY
    assert conflicts[0].kind == KIND_TOPOLOGICAL


def test_consistent_reverse_pair_is_fine():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "up", 1)
    g.add_edge(b, a, "down", 2)
    assert detect_all(g) == []


def test_asymmetry_subsumes_its_inconsistency():
    # the asymmetric return edge also re-derives A's position wrongly;
    # that symptom must not be double-reported
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, a, "west", 2)
    conflicts = detect_all(g)
    assert [c.subkind for c in conflicts] == [SUB_ASYMMETRY]


def test_independent_inconsistency_still_reported():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, b, "east", 2)  # no reverse edge: not an asymmetry
    conflicts = detect_all(g)
    assert [c.subkind for c in conflicts] == [SUB_INCONSISTENCY]
    assert conflicts[0].nodes == (b,)
    assert conflicts[0].witness == ((0, 1, 0), (1, 0, 0))


def test_duplicate_label_does_not_fabricate_overlap():
    g = NavGraph()
    a = g.add_node("A")
    b = g.add_node("B")
    c = g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 2)
    conflicts = detect_all(g)
    # one directional conflict; the later edge must not also position C on
    # top of B and manufacture an overlap
    assert [(x.kind, x.subkind) for x in conflicts] == \
        [(KIND_DIRECTIONAL, KIND_DIRECTIONAL)]


def test_naming_requires_distinct_positions():
    g = NavGraph()
    a = g.add_node("Start")
    b1 = g.add_node("Twisty Passage")
    b2 = g.add_node("Twisty Passage")
    g.add_edge(a, b1, "north", 1)
    g.add_edge(a, b2, "east", 2)
    conflicts = detect_all(g)
    assert [c.kind for c in conflicts] == [KIND_NAMING]
    assert conflicts[0].nodes == tuple(sorted((b1, b2)))

    # unpositioned namesakes do not trigger the conflict
    g2 = NavGraph()
    s = g2.add_node("Start")
    g2.add_node("Twisty Passage")
    t = g2.add_node("Twisty Passage")
    g2.add_edge(s, t, "north", 1)
    assert detect_all(g2) == []


def test_detection_order_and_commit_stamp():
    g = NavGraph()
    a = g.add_node("A")
    b = g.add_node("Dup")
    c = g.add_node("Dup")
    d = g.add_node("D")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "east", 2)
    g.add_edge(a, d, "east", 3)       # directional with step-2 edge
    g.add_edge(b, a, "north", 4)      # asymmetry with step-1 edge
    conflicts = detect_all(g, commit=7)
    kinds = [(x.kind, x.subkind) for x in conflicts]
    assert kinds == [
        (KIND_DIRECTIONAL, KIND_DIRECTIONAL),
        (KIND_TOPOLOGICAL, SUB_ASYMMETRY),
        (KIND_NAMING, KIND_NAMING),
    ]
    assert all(x.first_visible_commit == 7 for x in conflicts)


def test_keys_stable_across_redetection():
    g = NavGraph()
    a, b, c = g.add_node("A"), g.add_node("B"), g.add_node("C")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 2)
    first = {x.key for x in detect_all(g, commit=1)}
    second = {x.key for x in detect_all(g, commit=2)}
    assert first == second


def test_overlap_conflict_identity():
    g = NavGraph()
    a = g.add_node("A")
    b = g.add_node("B")
    c = g.add_node("C")
    d = g.add_node("D")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "northeast", 2)
    g.add_edge(c, d, "west", 3)  # d lands on b's cell (0, 1)
    conflicts = [x for x in detect_all(g) if x.subkind == SUB_OVERLAP]
    assert len(conflicts) == 1
    assert conflicts[0].nodes == tuple(sorted((b, d)))
    assert conflicts[0].key == (SUB_OVERLAP, tuple(sorted((b, d))))
    assert conflicts[0].witness == ((0, 1, 0),)


def test_unreachable_nodes_are_warnings_not_conflicts():
    g, ids = _clean_square()
    lost = g.add_node("Island")
    assert detect_all(g) == []
    assert unreachable_nodes(g) == [lost]


def test_to_json_shape():
    g = NavGraph()
    a, b = g.add_node("A"), g.add_node("B")
    g.add_edge(a, b, "north", 1)
    g.add_edge(b, a, "east", 2)
    payload = detect_all(g, commit=3)[0].to_json()
    assert set(payload) == {"kind", "subkind", "participants", "witness",
                            "commit"}
    assert payload["commit"] == 3
    assert payload["participants"]["edges"][0]["dir"] == "north"


# names that differ only in case or spacing, so they share a name index entry
_NAMES = ("Hall", "hall", "  HALL ", "Great Hall", "great   hall", "Cellar",
          "CELLAR", "Attic")
# a few directions drawn often, so (src, direction) groups repeat
_OFTEN = ("north", "south", "east", "in")


@st.composite
def _graphs(draw):
    """Small multigraphs: self-loops, reverse pairs, repeated exits, equal
    step ids in different directions, containment moves, then removals
    and renames that reorder and prune the indices."""
    g = NavGraph()
    ids = [g.add_node(draw(st.sampled_from(_NAMES)))
           for _ in range(draw(st.integers(1, 7)))]
    g.origin = draw(st.sampled_from(ids))
    direction = st.one_of(st.sampled_from(_OFTEN), st.sampled_from(DIRECTIONS))
    moves = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    direction, st.integers(0, 5),
                                    st.booleans()), max_size=30))
    for src, dst, d, step, back in moves:
        edges = [(src, dst, d, step)]
        if back:
            edges.append((dst, src, reverse_direction(d), step + 1))
        for edge in edges:
            try:
                g.add_edge(*edge)
            except DuplicateEdge:
                pass
    for i in draw(st.lists(st.integers(0, 60), max_size=4)):
        present = sorted(g.edges())
        if present:
            e = present[i % len(present)]
            g.remove_edge(e)
            if draw(st.booleans()):  # back in, at the end of its level
                g.add_edge(e.src, e.dst, e.direction, e.step_id)
    for node, name in draw(st.lists(st.tuples(st.sampled_from(ids),
                                              st.sampled_from(_NAMES)),
                                    max_size=3)):
        g.rename_node(node, name)
    return g


@settings(max_examples=400, deadline=None)
@given(_graphs(), st.one_of(st.none(), st.integers(0, 99)))
def test_detection_and_positions_equal_the_reference(g, commit):
    pm, ref = infer_positions(g), reference_infer_positions(g)
    assert pm == ref
    assert list(pm.assignment.items()) == list(ref.assignment.items())
    assert detect_all(g, commit) == reference_detect_all(g, commit)


@settings(max_examples=300, deadline=None)
@given(_graphs(), st.randoms(use_true_random=False), st.integers(0, 99))
def test_detection_does_not_depend_on_insertion_order(g, rnd, i):
    """The same map with its edges inserted in another order, or with one
    edge removed and put back at the end of its index level, as a
    heuristic trial leaves it, has the same detection and the same
    positions, positioned in the same order.  So the head's detection
    still holds after a trial that was put back."""
    want, pm = detect(g, 7), infer_positions(g)
    assert want.conflicts == detect_all(g, 7)
    edges = sorted(g.edges())
    rnd.shuffle(edges)
    shuffled = NavGraph()
    for nid, name in g.nodes.items():
        shuffled.add_node(name, node_id=nid)
    shuffled.origin = g.origin
    for e in edges:
        shuffled.insert_edge(e)
    if edges:
        e = edges[i % len(edges)]
        g.remove_edge(e)
        g.insert_edge(e)
    for h in (shuffled, g):
        assert h.indices_consistent()
        assert detect_all(h, 7) == want.conflicts
        assert detect(h, 7) == want
        assert list(infer_positions(h).assignment.items()) == \
            list(pm.assignment.items())
        assert infer_positions(h) == pm


@settings(max_examples=300, deadline=None)
@given(_graphs(), st.lists(st.tuples(st.integers(0, 99),
                                     st.sampled_from(DIRECTIONS)),
                           min_size=1, max_size=4))
def test_a_relabel_advances_to_the_detection_of_the_map(g, relabels):
    """Relabelling any edge to any free label and advancing the detection
    by the relabel's two deltas gives the detection of the relabelled map:
    the same conflicts in the same order and stamps, and the positions of
    `infer_positions` with the record of a fresh inference."""
    detection = detect(g, 0)
    for n, (i, d) in enumerate(relabels, start=1):
        edges = sorted(g.edges())
        if not edges:
            return
        e = edges[i % len(edges)]
        if d == e.direction or e.step_id in g.adjacency()[e.src].get(d, ()):
            continue
        g.remove_edge(e)
        trial = g.add_edge(e.src, e.dst, d, e.step_id)
        detection = detection.advance(g, [remove(e), add(trial)], n)
        assert detection.conflicts == detect_all(g, n)
        assert detection.record.positions == infer_positions(g)
        assert detection.record == record_positions(g)
        assert detection == detect(g, n)


def _counting(counts, key, real):
    def counted(*args):
        counts[key] += 1
        return real(*args)
    return counted


@pytest.mark.parametrize("spec", [WorldSpec("grid", (30, 30)),
                                  WorldSpec("tree", (6, 3))],
                         ids=["grid-30x30", "tree-6x3"])
def test_detection_on_a_clean_map_compares_and_normalizes_nothing(spec):
    """Detection sorts only what it reports, and reads names from the
    graph's name index: a clean map needs no comparison of edges and no
    normalization of a name."""
    g = generate_world(spec).build().graph
    counts: Counter = Counter()
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(
            Edge, "__lt__", _counting(counts, "compare", Edge.__lt__)))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "maprepair" and \
                    getattr(module, "normalize_name", None) is normalize_name:
                stack.enter_context(mock.patch.object(
                    module, "normalize_name",
                    _counting(counts, "normalize", normalize_name)))
        assert detect_all(g) == []
    assert counts == Counter()
