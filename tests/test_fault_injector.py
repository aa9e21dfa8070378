from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_inject
from maprepair import fault_injector as fi
from maprepair.conflict_detector import detect_all
from maprepair.errors import MapRepairError
from maprepair.graph_core import DIRECTIONS, NavGraph, reverse_direction


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


def test_walk_revisits_and_is_fixed_by_its_parameters():
    world = fi.generate_walk(6, 6, 60, 0)
    assert len(world.steps) == 61
    assert len(world.truth.nodes) < 60  # it revisits rooms
    assert world.transcript() == fi.generate_world(
        fi.WorldSpec("walk", (6, 6, 60, 0))).transcript()
    assert world.transcript() != fi.generate_walk(6, 6, 60, 1).transcript()
    for bad in ((1, 1, 5, 0), (2, 2, 0, 0)):
        with pytest.raises(ValueError):
            fi.generate_walk(*bad)


_CLEAN_SPECS = st.one_of(
    st.builds(lambda w, h: fi.WorldSpec("grid", (w, h)),
              st.integers(2, 7), st.integers(1, 7)),
    st.builds(lambda d, b: fi.WorldSpec("tree", (d, b)),
              st.integers(1, 4), st.integers(1, 3)),
    st.builds(lambda n: fi.WorldSpec("loopchain", (2 * n,)),
              st.integers(2, 20)),
    st.builds(lambda w, h, m, seed: fi.WorldSpec("walk", (w, h, m, seed)),
              st.integers(2, 7), st.integers(1, 7), st.integers(1, 120),
              st.integers(0, 10**6)),
)


@settings(max_examples=200, deadline=None)
@given(_CLEAN_SPECS)
def test_every_fault_free_world_builds_to_its_truth(spec):
    """Grid, tree, loop chain and walk: with no fault the build has no
    conflict and the truth's rooms and edges, room ids given in the order
    the walk first visits them."""
    world = fi.generate_world(spec)
    built = world.build().graph
    assert detect_all(built) == []
    assert built.nodes == world.truth.nodes
    assert list(built.nodes) == list(world.truth.nodes)
    assert built.edge_set() == world.truth.edge_set()


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


_KINDS = (fi.FAULT_MISDIRECTION, fi.FAULT_MISNAME, fi.FAULT_PHANTOM,
          fi.FAULT_SILENT)
_ROOMS = ("Hall", "Cellar", "Attic", "Den", "hall", "Yard")
_ACTS = st.sampled_from(DIRECTIONS + ("look", "go north", "take lamp"))
_OBSERVATIONS = st.builds(
    str.__add__, st.sampled_from(_ROOMS),
    st.sampled_from(["", "\nA plain room.", "\n\nDark."]))


def _drawn(inject, world, kinds, seed, explicit=()):
    """What `inject` returns, as plain values, or the error it raises."""
    try:
        corrupted, ledger = inject(world, kinds, seed=seed, explicit=explicit)
    except (ValueError, MapRepairError) as exc:
        return type(exc), str(exc)
    return corrupted.steps, ledger.to_json()


def _assert_draws_as_reference(world, mixes, seeds, explicit=()):
    for kinds in mixes:
        for seed in seeds:
            assert _drawn(fi.inject, world, kinds, seed, explicit) == \
                _drawn(reference_inject, world, kinds, seed, explicit)


@st.composite
def _small_worlds(draw):
    """A walk over a few rooms, some named alike up to case: moves in any
    direction, so revisits agree or clash, blocked moves, non-movement
    steps and observations of several lines."""
    steps = [("Init", draw(_OBSERVATIONS) + "\nYou are here.")]
    steps += draw(st.lists(st.tuples(_ACTS, _OBSERVATIONS), min_size=1,
                           max_size=10))
    return fi.World(steps=steps, truth=NavGraph())


@settings(max_examples=60, deadline=None)
@given(_small_worlds(), st.lists(st.sampled_from(_KINDS), min_size=2,
                                 max_size=3),
       st.integers(0, 9), st.data())
def test_inject_draws_the_reference_faults(world, mix, seed, data):
    """Every kind alone and a mix, with and without an explicit fault,
    against the reference that lists and shuffles every option and builds
    every trial whole; then again after `world.steps` changed in place, so
    a build record kept from before would show."""
    mixes = [(kind,) for kind in _KINDS] + [tuple(mix)]
    _assert_draws_as_reference(world, mixes, (seed, seed + 1))
    step = data.draw(st.integers(1, len(world.steps) - 1))
    explicit = [fi.Fault(fi.FAULT_MISDIRECTION, step,
                         true_direction=world.steps[step][0],
                         corrupted_direction=data.draw(
                             st.sampled_from(DIRECTIONS)))]
    _assert_draws_as_reference(world, mixes[-2:], (seed,), explicit)
    world.steps[step] = (data.draw(_ACTS), data.draw(_OBSERVATIONS))
    _assert_draws_as_reference(world, mixes, (seed,))
    world.steps.append((data.draw(_ACTS), data.draw(_OBSERVATIONS)))
    _assert_draws_as_reference(world, mixes[-2:], (seed,))


@pytest.mark.parametrize("spec", [
    fi.WorldSpec("grid", (3, 3)), fi.WorldSpec("tree", (3, 2)),
    fi.WorldSpec("loopchain", (8,)), fi.WorldSpec("walk", (4, 4, 30, 1))],
    ids=lambda s: s.shape)
def test_inject_draws_the_reference_faults_on_generated_worlds(spec):
    world = fi.generate_world(spec)
    mixes = [(kind,) for kind in _KINDS] + [_KINDS[:3], _KINDS[::-1]]
    _assert_draws_as_reference(world, mixes, range(3))


@pytest.mark.parametrize("steps", [
    # a separator line inside an observation cuts the step's block short
    [("Init", "Hall\nYou are here."), ("north", "Den\nDark.\n====="),
     ("east", "Attic")],
    # ... down to an empty observation, whose room is named "" and not
    # "=====" as the room before it is
    [("Init", "Hall\nYou are here."), ("north", "====="), ("south", "Hall"),
     ("east", "\n=====")],
    # ... or splits it, and the rest is a block without headers
    [("Init", "Hall\nYou are here."), ("north", "Den\n=====\nmore"),
     ("east", "Attic")],
    # a header inside an action renumbers its step
    [("Init", "Hall\nYou are here."), ("north", "Den"), ("east", "Attic"),
     ("look\n==>STEP NUM: 7", "Attic\nNothing.")],
    # ... and the step after it is out of order
    [("Init", "Hall\nYou are here."), ("north", "Den"),
     ("look\n==>STEP NUM: 7", "Den\nNothing."), ("east", "Attic")],
    # a room name holding a surrogate pair is a commit construction
    # refuses: the world does not build, but a misname of that step does
    [("Init", "Hall\nYou are here."), ("north", "Den"),
     ("east", "Attic \ud83d\ude00"), ("west", "Den"), ("south", "Yard")],
], ids=["separator", "emptied", "split", "renumbered", "unordered",
        "unbuilt"])
def test_inject_draws_the_reference_faults_when_steps_are_not_blocks(steps):
    world = fi.World(steps=steps, truth=NavGraph())
    _assert_draws_as_reference(world, [(kind,) for kind in _KINDS], range(3))


def test_trials_build_only_the_suffix_and_reuse_the_record():
    """No trial builds a world whole, no draw changes the build record's
    commits, which are the world's own, and a second `inject` of the same
    world starts from the build record the first one left."""
    world = fi.generate_grid(6, 6)
    real = fi.World.build
    with mock.patch.object(fi.World, "build", autospec=True,
                           side_effect=real) as build:
        fi.inject(world, _KINDS[:3], seed=4)
        record = world._record
        commits = list(record.commits)
        fi.inject(world, _KINDS[:3], seed=5)
        assert world._record is record
        assert record.commits == commits
    assert build.call_count == 0
    assert commits == list(world.build().commits)
