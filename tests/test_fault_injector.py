import pytest

from maprepair import fault_injector as fi
from maprepair.conflict_detector import detect_all
from maprepair.graph_core import reverse_direction


def _canon(g):
    return {(g.nodes[e.src], g.nodes[e.dst], e.direction, e.step_id)
            for e in g.edges()}


def _rebuilds_truth(world):
    built = world.build().graph
    assert _canon(built) == _canon(world.truth)
    assert built.nodes[built.origin] == world.truth.nodes[world.truth.origin]
    assert detect_all(built) == []


def test_grid_shape_and_rebuild():
    world = fi.generate_grid(4, 3)
    assert len(world.truth.nodes) == 12
    assert len(world.truth.edge_set()) == 11  # spanning serpentine walk
    _rebuilds_truth(world)


def test_grid_minimum_size():
    with pytest.raises(ValueError):
        fi.generate_grid(1, 1)


def test_tree_counts_and_rebuild():
    tiny = fi.generate_tree(1, 1)
    assert len(tiny.truth.nodes) == 2
    assert len(tiny.truth.edge_set()) == 1

    world = fi.generate_tree(2, 2)
    # full binary tree of depth 2: 7 rooms; every edge except the walk's
    # final descent also has its return edge
    assert len(world.truth.nodes) == 7
    _rebuilds_truth(world)
    for e in world.truth.edges():
        rev = [f for f in world.truth.edges_between(e.dst, e.src)
               if f.direction == reverse_direction(e.direction)]
        assert len(rev) <= 1


def test_loopchain_closes_on_origin():
    world = fi.generate_loopchain(8)
    g = world.truth
    assert len(g.nodes) == 8
    assert len(g.edge_set()) == 8
    last = max(g.edges(), key=lambda e: e.step_id)
    assert last.dst == g.origin
    _rebuilds_truth(world)
    with pytest.raises(ValueError):
        fi.generate_loopchain(5)


def test_generate_world_dispatch():
    spec = fi.WorldSpec("loopchain", (6,))
    assert len(fi.generate_world(spec).truth.nodes) == 6
    with pytest.raises(ValueError):
        fi.generate_world(fi.WorldSpec("torus", (3,)))


def test_transcript_format():
    world = fi.generate_grid(2, 2)
    text = world.transcript()
    assert text.startswith("===========\n==>STEP NUM: 0\n==>ACT: Init")
    assert "==>OBSERVATION: Room 0-0\nYou are here." in text


@pytest.mark.parametrize("kind", ["misdirection", "misname", "phantom_edge"])
def test_injected_fault_is_visible_and_recorded(kind):
    world = fi.generate_grid(4, 4)
    corrupted, ledger = fi.inject(world, [kind], seed=1)
    assert len(ledger.faults) == 1
    fault = ledger.faults[0]
    assert fault.kind == kind
    built = corrupted.build().graph
    assert detect_all(built) != []
    assert _canon(built) != _canon(world.truth)
    assert not ledger.all_fixed(built)
    # the uncorrupted world still satisfies the ledger
    assert ledger.fixed(world.build().graph, fault) or kind == "phantom_edge"


def test_silent_fault_changes_graph_without_conflicts():
    world = fi.generate_grid(4, 4)
    corrupted, ledger = fi.inject(world, ["silent_misdirection"], seed=2)
    built = corrupted.build().graph
    assert detect_all(built) == []
    assert _canon(built) != _canon(world.truth)
    assert ledger.faults[0].kind == fi.FAULT_SILENT


def test_injection_is_deterministic_per_seed():
    world = fi.generate_loopchain(10)
    a = fi.inject(world, ["misdirection"], seed=7)
    b = fi.inject(world, ["misdirection"], seed=7)
    c = fi.inject(world, ["misdirection"], seed=8)
    assert a[1].to_json() == b[1].to_json()
    assert a[0].steps == b[0].steps
    assert a[1].to_json() != c[1].to_json()


def test_explicit_faults_applied_verbatim():
    world = fi.generate_loopchain(8)
    fault = fi.Fault(fi.FAULT_MISDIRECTION, 3,
                     true_direction=world.steps[3][0],
                     corrupted_direction="up")
    corrupted, ledger = fi.inject(world, [], explicit=[fault])
    assert corrupted.steps[3][0] == "up"
    assert ledger.faults == [fault]


def test_ledger_json_round_trip():
    world = fi.generate_grid(3, 3)
    _, ledger = fi.inject(world, ["misdirection", "misname"], seed=5)
    again = fi.FaultLedger.from_json(ledger.to_json())
    assert again == ledger


def test_first_visible_commit_none_when_clean():
    world = fi.generate_grid(3, 3)
    assert fi.first_visible_commit(world) is None


def test_demo_chain_clean_variant():
    chain, ledger = fi.demo_chain(corrupted=False)
    assert detect_all(chain.graph) == []
    assert ledger.faults == []
    assert len(chain.graph.nodes) == 10
    assert chain.head == 10  # origin snapshot + ten edges


def test_demo_chain_ledger_matches_graph():
    chain, ledger = fi.demo_chain(corrupted=True)
    g = chain.graph
    assert len(ledger.faults) == 3
    assert not ledger.all_fixed(g)
    for fault in ledger.faults:
        bad = ledger.corrupted_edge(g, fault)
        assert bad is not None
        assert bad.direction == fault.corrupted_direction
