import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_by, reference_parse_transcript
from maprepair import transcript_parser
from maprepair.conflict_detector import detect_all
from maprepair.fault_injector import WorldSpec, generate_world
from maprepair.errors import MalformedBlock, NonMonotonicStep
from maprepair.graph_core import DIRECTIONS, displacement
from maprepair.transcript_parser import (
    WalkthroughStep, construct_graph, extend_graph, normalize_act,
    origin_location_line, parse_transcript,
)
from maprepair.version_store import VersionChain


def _transcript(blocks):
    out = []
    for num, act, obs in blocks:
        out.append(f"===========\n==>STEP NUM: {num}\n"
                   f"==>ACT: {act}\n==>OBSERVATION: {obs}")
    return "\n".join(out) + "\n"


def _build(blocks):
    chain = VersionChain()
    g = construct_graph(parse_transcript(_transcript(blocks)), chain)
    return g, chain


def test_normalize_act():
    assert normalize_act("north") == "north"
    assert normalize_act("Go North") == "north"
    assert normalize_act("  UP ") == "up"
    assert normalize_act("get lamp") is None
    assert normalize_act("go fishing") is None


def test_parse_fields_and_multiline_observation():
    text = _transcript([(0, "Init", "Cave Mouth\nYou stand at a cave."),
                        (1, "north", "Dark Tunnel\n\nIt is pitch black.")])
    steps = parse_transcript(text)
    assert len(steps) == 2
    assert steps[0].location_line == "Cave Mouth"
    assert steps[1].observation == "Dark Tunnel\n\nIt is pitch black."
    assert steps[1].location_line == "Dark Tunnel"
    assert steps[1].is_movement and steps[1].direction == "north"


def test_origin_title_precedes_first_description_line():
    obs = ("Welcome!\nA Game\nBy Someone\n\nAt End Of Road\n"
           "You are standing at the end of a road.")
    assert origin_location_line(obs) == "At End Of Road"
    assert origin_location_line("Plain Room\nNothing here.") == "Plain Room"


def test_malformed_block_rejected():
    with pytest.raises(MalformedBlock):
        parse_transcript("===========\n==>STEP NUM: 0\n==>ACT: Init\n")
    with pytest.raises(MalformedBlock):
        parse_transcript("===========\n==>ACT: Init\n==>OBSERVATION: X\n")


def test_step_numbering_rules():
    with pytest.raises(NonMonotonicStep):
        parse_transcript(_transcript([(1, "Init", "Room\nYou are here.")]))
    with pytest.raises(NonMonotonicStep):
        parse_transcript(_transcript([
            (0, "Init", "Room\nYou are here."), (2, "north", "B"),
            (2, "south", "Room")]))
    # gaps are tolerated
    steps = parse_transcript(_transcript([
        (0, "Init", "Room\nYou are here."), (4, "north", "B")]))
    assert [s.step_num for s in steps] == [0, 4]


def test_construction_commits_one_edge_per_movement():
    g, chain = _build([
        (0, "Init", "A\nYou are in A."),
        (1, "look", "A\nNothing happens."),
        (2, "north", "B"),
        (3, "east", "C"),
    ])
    assert chain.head == 2  # origin snapshot + two edges
    assert len(g.edge_set()) == 2
    assert chain.commits[1].obs_id == 2
    assert chain.commits[1].trigger == "observation_update"
    assert edge_by(g, "A", "B").direction == "north"


def test_blocked_move_creates_nothing():
    g, chain = _build([
        (0, "Init", "A\nYou are in A."),
        (1, "north", "A\nThe door is locked."),
        (2, "east", "B"),
    ])
    assert len(g.edge_set()) == 1
    assert edge_by(g, "A", "B").step_id == 2


def test_revisit_reuses_node_when_position_agrees():
    g, _ = _build([
        (0, "Init", "A\nYou are in A."),
        (1, "north", "B"),
        (2, "south", "A"),
        (3, "east", "C"),
    ])
    assert len(g.nodes) == 3
    assert detect_all(g) == []
    # the return edge targets the original origin node
    assert edge_by(g, "B", "A").dst == g.origin


def test_revisit_spawns_duplicate_when_position_disagrees():
    g, _ = _build([
        (0, "Init", "A\nYou are in A."),
        (1, "north", "B"),
        (2, "north", "C"),
        (3, "north", "A"),  # claims A three cells north: not the same A
    ])
    assert len(g.nodes_named("A")) == 2
    conflicts = detect_all(g)
    assert any(c.kind == "naming" for c in conflicts)


def test_non_movement_teleport_creates_no_edge():
    g, _ = _build([
        (0, "Init", "A\nYou are in A."),
        (1, "north", "B"),
        (2, "plugh", "A\nYou are in A."),
        (3, "north", "B"),
    ])
    # the cursor stays at B after the teleport attempt, so step 3 reads as
    # a blocked move (B -> B) and adds nothing
    assert len(g.edge_set()) == 1


def test_construct_requires_fresh_chain():
    chain = VersionChain()
    steps = parse_transcript(_transcript([(0, "Init", "A\nYou are here.")]))
    construct_graph(steps, chain)
    with pytest.raises(NonMonotonicStep):
        construct_graph(steps, chain)


@pytest.mark.parametrize("spec, most", [
    (WorldSpec("tree", (6, 3)), 1),   # every return move is a revisit
    (WorldSpec("grid", (20, 20)), 0),  # no revisit: no position map at all
    # exits taken again: each repeat meets an older edge of its direction
    (WorldSpec("walk", (6, 6, 120, 3)), 1),
], ids=["tree-6x3", "grid-20x20", "walk-6x6"])
def test_construction_infers_positions_at_most_once(spec, most):
    """The map is extended per commit, not inferred again per revisit."""
    world = generate_world(spec)
    calls = []
    real = transcript_parser.infer_positions
    with mock.patch.object(transcript_parser, "infer_positions",
                           lambda g: calls.append(1) or real(g)):
        g = world.build().graph
    assert len(calls) <= most
    assert g.nodes == world.truth.nodes
    assert g.edge_set() == world.truth.edge_set()


# every break `str.splitlines` knows
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
                           "\x1e", "\x85", "\u2028", "\u2029"])
_PADS = st.sampled_from(["", " ", "  ", "\t", "\xa0"])
_WORDS = st.sampled_from([
    "north", "go South", " Go  east ", "up\t", "\xa0in\xa0", "look",
    "take lamp", "West of House", "You are in a field.", "You", "", " ",
    "\t", "==>", "=====", "==>ACT:", "STEP NUM: 3"])
_SEPARATORS = st.builds(
    str.__add__, st.sampled_from(["=====", "======", "===========", "===="]),
    st.sampled_from(["", " ", " \t", "\xa0", "x", " ="]))
_STEP_NUMS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(
    ["", "x", "-1", "1 2", "3a", "\u0663", "007"]))


def _headers(kind: str, pad: str, value: str) -> str:
    return f"==>{kind}:{pad}{value}"


_LINES = st.one_of(
    _SEPARATORS,
    st.builds(_headers, st.just("STEP NUM"), _PADS,
              st.builds(str.__add__, _STEP_NUMS, _PADS)),
    st.builds(_headers, st.just("ACT"), _PADS, _WORDS),
    st.builds(_headers, st.just("OBSERVATION"), _PADS, _WORDS),
    _WORDS,
    st.text(max_size=6),
    st.sampled_from(["==>STEP NUM 3", "==>act: north", " ==>ACT: north",
                     "==>OBSERVATION", "==> ACT: up", "==>STEP NUM:"]),
)


@st.composite
def _transcripts(draw) -> str:
    """Text of blocks that are mostly well formed (step numbers counting
    from 0, headers in any order, observations of several lines), mixed with
    junk, repeated, missing and out-of-order header lines, blank blocks and
    every kind of line break."""
    lines: list[str] = []
    step = 0
    for _ in range(draw(st.integers(0, 6))):
        lines.append(draw(_SEPARATORS))
        if draw(st.integers(0, 9)) == 0:
            lines += draw(st.lists(_LINES, max_size=4))
            continue
        step += draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2, -1]))
        num = str(max(step - 1, 0)) if draw(st.integers(0, 7)) else \
            draw(_STEP_NUMS)
        header = [_headers("STEP NUM", draw(_PADS), num + draw(_PADS)),
                  _headers("ACT", draw(_PADS), draw(_WORDS))]
        header = draw(st.permutations(header))
        for i in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            header.insert(draw(st.integers(0, len(header))), draw(_LINES))
        lines += header
        if draw(st.integers(0, 19)):
            lines.append(_headers("OBSERVATION", draw(_PADS), draw(_WORDS)))
        lines += draw(st.lists(st.one_of(_WORDS, _WORDS, _WORDS, _LINES),
                               max_size=4))
    return "".join(line + draw(_BREAKS) for line in lines)


def _parse_outcome(parse, text: str):
    try:
        return [dataclasses.astuple(s) if dataclasses.is_dataclass(s)
                else tuple(s) for s in parse(text)]
    except (MalformedBlock, NonMonotonicStep) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_transcripts())
def test_parse_transcript_equals_the_reference(text):
    """One header match per line and one slice per observation give the
    steps, or the error, that three patterns per line gave."""
    assert _parse_outcome(parse_transcript, text) == \
        _parse_outcome(reference_parse_transcript, text)


@st.composite
def _walks(draw):
    """A walk over a hidden lattice with revisits (a move's room is usually
    the one at its cell), misnames from a small pool, blocked moves (the
    room repeats, up to case), non-movement steps and gaps in the step
    numbers."""
    pos, here = (0, 0, 0), "Room 0,0,0"
    steps = [WalkthroughStep(0, "Init", here, here, False, None)]
    num = 0
    for _ in range(draw(st.integers(0, 30))):
        num += draw(st.sampled_from([1, 1, 1, 2]))
        kind = draw(st.integers(0, 7))
        if kind == 0:
            name = draw(st.sampled_from(("Hall", "Den", here)))
            steps.append(WalkthroughStep(num, "look", name, name, False, None))
            continue
        d = draw(st.sampled_from(DIRECTIONS))
        if kind == 1:
            name = draw(st.sampled_from((here, here.upper())))
            steps.append(WalkthroughStep(num, d, name, name, True, d))
            continue
        pos = tuple(a + b for a, b in zip(pos, displacement(d)))
        here = "Room {},{},{}".format(*pos) if kind > 2 else \
            draw(st.sampled_from(("Hall", "Den")))
        steps.append(WalkthroughStep(num, d, here, here, True, d))
    return steps


@settings(max_examples=200, deadline=None)
@given(_walks())
def test_extend_graph_from_every_prefix_equals_construct_graph(steps):
    whole = VersionChain()
    construct_graph(steps, whole)
    for k in range(len(steps) + 1):
        chain = VersionChain()
        construct_graph(steps[:k], chain)
        extend_graph(steps[k:], chain)
        assert chain.commits == whole.commits
        assert chain.graph.state_equal(whole.graph)


@settings(max_examples=100, deadline=None)
@given(_walks())
def test_extend_graph_from_every_loaded_prefix_equals_construct_graph(
        tmp_path_factory, steps):
    """Construction goes on from a log of a prefix, reopened with
    `load(append=True)`, exactly as from the chain that wrote it: the
    same graph, the same commits and, byte for byte, the same log lines
    after the prefix's, which end with the prefix's checkpoint row."""
    tmp = tmp_path_factory.mktemp("wal")
    whole = VersionChain(log_path=tmp / "whole.jsonl")
    construct_graph(steps, whole)
    whole.close()
    # the whole log's commit lines; its checkpoint row is the last line
    whole_lines = whole.log_path.read_bytes().splitlines(keepends=True)
    assert len(whole_lines) == len(whole.commits) + bool(whole.commits)
    for k in range(len(steps) + 1):
        log = tmp / f"prefix-{k}.jsonl"
        prefix = VersionChain(log_path=log)
        construct_graph(steps[:k], prefix)
        prefix.close()
        prefix_wal = log.read_bytes()
        chain = VersionChain.load(log, append=True)
        try:
            extend_graph(steps[k:], chain)
        finally:
            chain.close()
        assert chain.graph.state_equal(whole.graph)
        assert chain.commits == whole.commits
        assert log.read_bytes() == prefix_wal + b"".join(
            whole_lines[len(prefix.commits):len(whole.commits)])
