import random

from maprepair.conflict_detector import detect_all
from maprepair.dataset_refiner import RawEdge, STEP_NAMES, refine
from maprepair.graph_core import DIRECTIONS


def _refine_names(raw):
    graph, report = refine(raw)
    return graph, report


def test_step_names_cover_the_pipeline():
    assert STEP_NAMES == (
        "action_filtering", "directional_dedup", "topological_resolution",
        "reverse_edge_resolution", "naming_resolution", "self_loop_removal",
    )


def test_action_filtering_drops_non_movement():
    raw = [
        RawEdge("A", "B", "north", 1),
        RawEdge("B", "B", "look", 2),
        RawEdge("B", "C", "open door", 3),
        RawEdge("B", "C", "east", 4),
    ]
    graph, report = _refine_names(raw)
    assert {e.action for e in report.removed["action_filtering"]} == \
        {"look", "open door"}
    assert len(graph.edge_set()) == 2


def test_directional_dedup_keeps_min_step():
    raw = [
        RawEdge("A", "B", "north", 3),
        RawEdge("A", "C", "north", 7),
    ]
    _, report = _refine_names(raw)
    dropped = report.removed["directional_dedup"]
    assert [e.step for e in dropped] == [7]


def test_topological_resolution_drops_asymmetric_reverse():
    raw = [
        RawEdge("A", "B", "north", 1),
        RawEdge("B", "A", "west", 2),   # should have been south
        RawEdge("B", "C", "east", 3),
        RawEdge("C", "B", "west", 4),   # consistent, kept
    ]
    graph, report = _refine_names(raw)
    assert [e.step for e in report.removed["topological_resolution"]] == [2]
    assert detect_all(graph) == []


def test_reverse_edge_resolution_blocks_symmetric_collision():
    # closing B->A:south would give B a second south exit (B->C:south)
    raw = [
        RawEdge("B", "C", "south", 1),
        RawEdge("A", "B", "north", 2),
    ]
    _, report = _refine_names(raw)
    assert [e.step for e in report.removed["reverse_edge_resolution"]] == [2]


def test_naming_resolution_removes_position_culprits():
    raw = [
        RawEdge("A", "B", "north", 1),
        RawEdge("A", "C", "east", 2),
        RawEdge("C", "D", "northwest", 3),  # D collides with B's cell
    ]
    graph, report = _refine_names(raw)
    assert [e.step for e in report.removed["naming_resolution"]] == [3]
    assert detect_all(graph) == []


def test_self_loops_removed_last():
    raw = [
        RawEdge("A", "B", "north", 1),
        RawEdge("B", "B", "east", 2),
    ]
    graph, report = _refine_names(raw)
    assert [e.step for e in report.removed["self_loop_removal"]] == [2]
    assert detect_all(graph) == []


def test_orphans_dropped_from_final_graph():
    raw = [
        RawEdge("A", "B", "north", 1),
        RawEdge("C", "D", "fly", 2),  # filtered, leaving C/D edge-free
        RawEdge("E", "e", "east", 3),  # a self-loop, removed last
    ]
    graph, _ = _refine_names(raw)
    assert sorted(graph.nodes.values()) == ["A", "B"]


def test_report_arithmetic():
    raw = [RawEdge("A", "B", "north", 1), RawEdge("A", "B", "dig", 2)]
    _, report = _refine_names(raw)
    assert report.initial_edges == 2
    assert report.total_removed == 1
    assert report.final_edges == 1
    payload = report.to_json()
    assert payload["removed"]["action_filtering"][0]["action"] == "dig"


def test_random_dumps_end_clean_and_idempotent():
    rng = random.Random(42)
    actions = list(DIRECTIONS) + ["look", "take lamp", "wait"]
    for trial in range(30):
        names = [f"Room {i}" for i in range(rng.randint(2, 10))]
        raw = [RawEdge(rng.choice(names), rng.choice(names),
                       rng.choice(actions), step)
               for step in range(1, rng.randint(5, 40))]
        graph, report = refine(raw)
        assert detect_all(graph) == []
        removed = {e for v in report.removed.values() for e in v}
        survivors = [e for e in raw if e not in removed]
        graph2, report2 = refine(survivors)
        assert report2.total_removed == 0
        assert graph2.edge_set() == graph.edge_set()
        assert graph2.nodes == graph.nodes
