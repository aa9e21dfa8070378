import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from helpers import reference_construct
from maprepair import transcript_parser
from maprepair.fault_injector import (
    FAULT_MISDIRECTION, FAULT_MISNAME, FAULT_PHANTOM, FAULT_SILENT, WorldSpec,
    generate_world, inject,
)
from maprepair.graph_core import COMPASS, DIRECTIONS, Edge, NavGraph, \
    displacement
from maprepair.position_inference import (
    extend_positions, infer_positions, position_overlaps, positions_tsv,
)
from maprepair.transcript_parser import (
    WalkthroughStep, construct_graph, parse_transcript,
)
from maprepair.version_store import VersionChain


def _chain(dirs):
    g = NavGraph()
    ids = [g.add_node("Room 0")]
    for i, d in enumerate(dirs, start=1):
        ids.append(g.add_node(f"Room {i}"))
        g.add_edge(ids[i - 1], ids[i], d, i)
    return g, ids


def test_origin_is_zero_and_walk_accumulates():
    g, ids = _chain(["north", "east", "up", "southwest"])
    pm = infer_positions(g)
    assert pm.get(ids[0]) == (0, 0, 0)
    assert pm.get(ids[1]) == (0, 1, 0)
    assert pm.get(ids[2]) == (1, 1, 0)
    assert pm.get(ids[3]) == (1, 1, 1)
    assert pm.get(ids[4]) == (0, 0, 1)
    assert pm.inconsistent == []


def test_containment_does_not_propagate():
    g, ids = _chain(["in", "north"])
    pm = infer_positions(g)
    assert pm.get(ids[1]) is None
    assert pm.get(ids[2]) is None  # downstream of an unpositioned node


def test_empty_graph_and_missing_origin():
    assert infer_positions(NavGraph()).assignment == {}


def test_first_assignment_wins_and_disagreement_recorded():
    g, ids = _chain(["north"])
    # a second, disagreeing derivation of Room 1
    bad = g.add_edge(ids[0], ids[1], "east", 2)
    pm = infer_positions(g)
    assert pm.get(ids[1]) == (0, 1, 0)  # step 1 got there first
    assert len(pm.inconsistent) == 1
    inc = pm.inconsistent[0]
    assert inc.node == ids[1]
    assert inc.assigned == (0, 1, 0)
    assert inc.derived == (1, 0, 0)
    assert inc.via == bad


def test_directional_duplicates_propagate_min_step_only():
    g = NavGraph()
    a = g.add_node("Hub")
    b = g.add_node("First")
    c = g.add_node("Second")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "north", 5)  # duplicate label: no geometry from it
    pm = infer_positions(g)
    assert pm.get(b) == (0, 1, 0)
    assert pm.get(c) is None
    assert position_overlaps(pm) == []


def test_equal_steps_propagate_in_edge_order_of_their_directions():
    """Exits with equal steps go in the order their directions' exits come
    in `Edge` order: lowest destination first, then direction."""
    g = NavGraph()
    o, a, y = g.add_node("O"), g.add_node("A"), g.add_node("Y")
    g.add_edge(o, y, "north", 2)
    g.add_edge(o, y, "east", 2)
    pm = infer_positions(g)
    assert pm.get(y) == (1, 0, 0)  # same destination: east before north
    assert [i.via.direction for i in pm.inconsistent] == ["north"]

    g.add_edge(o, a, "north", 9)  # a later north exit to a lower id
    pm = infer_positions(g)
    assert pm.get(y) == (0, 1, 0)
    assert pm.get(a) is None
    assert [i.via.direction for i in pm.inconsistent] == ["east"]


def test_consistent_cycle_is_clean():
    g, ids = _chain(["north", "east", "south"])
    g.add_edge(ids[3], ids[0], "west", 4)
    pm = infer_positions(g)
    assert pm.inconsistent == []
    assert position_overlaps(pm) == []


def test_overlap_pairs_are_sorted_and_complete():
    g = NavGraph()
    a = g.add_node("A")
    b = g.add_node("B")
    c = g.add_node("C")
    d = g.add_node("D")
    g.add_edge(a, b, "north", 1)
    g.add_edge(a, c, "east", 2)
    g.add_edge(c, d, "northwest", 3)  # d lands on b's cell
    pm = infer_positions(g)
    assert position_overlaps(pm) == [(b, d, (0, 1, 0))]


def test_positions_tsv_lists_positioned_nodes_only():
    g, ids = _chain(["in", "north"])
    g.add_node("Floating")
    tsv = positions_tsv(g)
    lines = tsv.strip().splitlines()
    assert lines[0] == "node\tname\tx\ty\tz"
    assert len(lines) == 2  # only the origin has a position
    assert lines[1].startswith(f"{ids[0]}\tRoom 0\t0\t0\t0")


def _tsv_unescaped(field):
    return re.sub(r"\\(.)", lambda m: {"t": "\t", "n": "\n", "r": "\r"}.get(
        m[1], m[1]), field)


def test_positions_tsv_escapes_ids_and_names_to_five_fields_a_row():
    g = NavGraph()
    names = ["West\tof House", "Line\nBreak", "Carriage\rReturn",
             "Back\\slash \\t", "Plain"]
    ids = [g.add_node(names[0], node_id="o\trigin")]
    for i, name in enumerate(names[1:], start=1):
        ids.append(g.add_node(name, node_id=f"n{i}\\"))
        g.add_edge(ids[i - 1], ids[i], "east", i)
    rows = positions_tsv(g).split("\n")
    assert rows[-1] == "" and rows[0] == "node\tname\tx\ty\tz"
    fields = [row.split("\t") for row in rows[1:-1]]
    assert all(len(f) == 5 for f in fields)
    assert [(_tsv_unescaped(f[0]), _tsv_unescaped(f[1])) for f in fields] \
        == list(g.nodes.items())
    assert [tuple(map(int, f[2:])) for f in fields] == \
        [(i, 0, 0) for i in range(len(names))]


def _extended(g, edge):
    """Map of `g`, then `edge` added and the map extended by it."""
    pm = infer_positions(g)
    g.add_edge(edge.src, edge.dst, edge.direction, edge.step_id)
    return pm, extend_positions(g, pm, edge)


def test_extension_positions_the_part_reached_from_the_new_edge():
    g, ids = _chain(["in", "north", "east"])
    # Room 1..3 hang off a containment move; a compass edge reaches them
    pm, ok = _extended(g, Edge(ids[0], ids[2], "south", 4))
    assert ok
    assert pm == infer_positions(g)
    assert pm.get(ids[3]) == (1, -1, 0)
    assert pm.get(ids[1]) is None


def test_extension_leaves_edges_that_do_not_propagate_alone():
    g, ids = _chain(["north"])
    extra = g.add_node("Room 2")
    for edge in (Edge(ids[1], extra, "in", 2),        # containment
                 Edge(extra, ids[0], "north", 3),     # unpositioned source
                 Edge(ids[0], extra, "north", 4)):    # not the minimum step
        pm, ok = _extended(g, edge)
        assert ok
        assert pm == infer_positions(g)
    assert infer_positions(g).get(extra) is None


def test_extension_refuses_whenever_the_result_could_differ():
    # an inconsistency is already recorded
    g, ids = _chain(["north"])
    g.add_edge(ids[0], ids[1], "east", 2)
    assert not _extended(g, Edge(ids[1], ids[0], "south", 3))[1]
    # the new edge displaces an older minimum-step edge: Room 1 would lose
    # its position to Annex
    g, ids = _chain(["north", "east"])
    annex = g.add_node("Annex")
    assert not _extended(g, Edge(ids[0], annex, "north", 0))[1]
    # a second, different position derived for a positioned node
    g, ids = _chain(["north", "east"])
    assert not _extended(g, Edge(ids[2], ids[0], "west", 3))[1]
    assert infer_positions(g).inconsistent


_POOL = ("Hall", "Cellar", "Attic", "Den")
_FEW_DIRECTIONS = ("north", "south", "east", "west", "northeast", "southwest",
                   "in")


@st.composite
def _walks(draw):
    """A walk over a hidden lattice: each move's room is usually the one at
    its lattice cell (so revisits agree), otherwise a name from a small
    pool (misnames, containment targets, duplicate exits)."""
    pos = (0, 0, 0)
    steps = [WalkthroughStep(0, "Init", "Room 0,0,0", "Room 0,0,0",
                             False, None)]
    for num in range(1, draw(st.integers(1, 40)) + 1):
        d = draw(st.sampled_from(DIRECTIONS))
        pos = tuple(a + b for a, b in zip(pos, displacement(d)))
        if draw(st.integers(0, 3)):
            name = "Room {},{},{}".format(*pos)
        else:
            name = draw(st.sampled_from(_POOL))
        steps.append(WalkthroughStep(num, d, name, name, True, d))
    return steps


@settings(max_examples=150, deadline=None)
@given(_walks())
def test_extension_equals_inference_after_every_construction_commit(steps):
    def checked(g, pm, edge):
        ok = extend_positions(g, pm, edge)
        if ok:
            assert pm == infer_positions(g)
            assert not pm.inconsistent
        return ok

    with mock.patch.object(transcript_parser, "extend_positions", checked):
        chain = VersionChain()
        construct_graph(steps, chain)
    ref = reference_construct(steps)
    assert chain.graph.state_equal(ref.graph)
    assert chain.commits == ref.commits


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(_FEW_DIRECTIONS),
                          st.integers(0, 40), st.integers(0, 26)),
                min_size=1, max_size=30))
def test_extension_is_exact_and_refuses_only_when_it_must(edges):
    """Edges added in any step order over the rooms of a 3x3 grid.  Two in
    three edges lead to the room their direction points at, if there is
    one, the rest to a random room: maps stay consistent for a while and
    exits collide.
    An accepted extension equals inference from scratch; one is refused
    only when the map before was inconsistent, the edge displaces an older
    minimum-step edge, or the map after is inconsistent."""
    g = NavGraph()
    cells = {(x, y): g.add_node(f"Room {x},{y}")
             for y in range(3) for x in range(3)}
    ids = list(cells.values())
    pm = infer_positions(g)
    for src, direction, step, other in edges:
        y, x = divmod(src, 3)
        dx, dy, _ = displacement(direction)
        dst = cells.get((x + dx, y + dy)) if other < 18 else None
        edge = Edge(ids[src], dst or ids[other % 9], direction, step)
        group = g.out_edges(edge.src, direction)
        if any(e.step_id == step for e in group):
            continue
        before = infer_positions(g)
        displaces = direction in COMPASS and bool(group) and all(
            step < e.step_id for e in group)
        g.add_edge(edge.src, edge.dst, direction, step)
        after = infer_positions(g)
        if extend_positions(g, pm, edge):
            assert pm == after
        else:
            assert before.inconsistent or displaces or after.inconsistent
            pm = after


def _faulted_worlds():
    visible = (FAULT_MISDIRECTION, FAULT_MISNAME, FAULT_PHANTOM)
    # a closed loop has no misdirection that stays silent, nor has a walk
    # dense enough to close a loop through every exit
    closed = (WorldSpec("loopchain", (12,)), WorldSpec("walk", (5, 5, 80, 2)))
    # walks revisit rooms and take exits more than once
    for spec in (WorldSpec("grid", (4, 4)), WorldSpec("tree", (3, 2)),
                 WorldSpec("tree", (4, 3)), WorldSpec("walk", (6, 6, 60, 0)),
                 WorldSpec("walk", (6, 6, 60, 1))) + closed:
        world = generate_world(spec)
        silent = () if spec in closed else (FAULT_SILENT,)
        for seed in range(3):
            for kind in visible + silent:
                yield inject(world, [kind], seed=seed)[0]
            yield inject(world, visible, seed=seed)[0]


def test_faulted_worlds_build_as_with_inference_at_every_revisit():
    for world in _faulted_worlds():
        steps = parse_transcript(world.transcript())
        chain = VersionChain()
        construct_graph(steps, chain)
        ref = reference_construct(steps)
        assert chain.graph.state_equal(ref.graph)
        assert chain.commits == ref.commits
