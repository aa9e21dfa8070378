"""Walkthrough transcript parsing and incremental graph construction.

Transcripts are sequences of blocks separated by ``===========`` lines:

    ==>STEP NUM: 3
    ==>ACT: west
    ==>OBSERVATION: At End Of Road
    ...

A separator is five or more ``=`` and trailing whitespace.
`parse_transcript` splits the text into blocks and hands each to the one
block parser, `parse_block`.  In a block, each line before the observation
is matched once against one header pattern (``==>STEP NUM:`` and a number,
``==>ACT:`` or ``==>OBSERVATION:``); other lines are skipped, and a
repeated header overrides the earlier one.  The observation is the rest of
the block from its header on, sliced once, with the lines joined by
``\\n``.  A blank block is skipped; any other block without all three
headers is `MalformedBlock`, and step numbers must rise from 0.

A step is a movement iff its action normalizes to one of the 14 directions
("go north" counts).  The destination's name is the first non-empty
observation line; for the initial block, which opens with game banner text,
the line immediately preceding the first "You ..." description line is used
instead (falling back to the first non-empty line).

Construction has one loop, `extend_graph`, which goes on from whatever
construction prefix its chain holds; `construct_graph` is that loop on an
empty chain, which then ends the chain's log, if it has one, with a
checkpoint row of the map built.  The loop keeps a current-location cursor
and its normalized name.  Each movement's name is normalized once; a
movement whose observation names a different location commits one edge.
The destination reuses an existing node only when both the normalized
name and the inferred lattice position agree; otherwise a fresh node is
created, which is what lets naming conflicts surface naturally
downstream.

The position map is inferred at the first revisit of a name and then
extended by each commit's edge (`extend_positions`, which derives the
rooms the edge reaches in the loop inference runs); it is inferred again
only after an extension that could differ from a from-scratch inference.  So the map
the loop holds is always either unknown or `infer_positions` of the graph,
and a loop that goes on from a prefix may start it unknown.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import MalformedBlock, NonMonotonicStep
from .graph_core import COMPASS, Edge, NavGraph, displacement, is_direction, \
    normalize_name
from .position_inference import PositionMap, extend_positions, \
    infer_positions
from .version_store import TRIGGER_OBSERVATION, VersionChain, add

_SEPARATOR = re.compile(r"={5,}\s*$")
# one match per header line: group 1 is a step number, group 2 an action;
# an observation header has neither, and its text starts at the match end
_HEADER = re.compile(r"==>(?:STEP NUM:\s*(\d+)\s*$|ACT:(.*)|OBSERVATION:\s*)")


_new = tuple.__new__  # builds a named tuple without its Python-level __new__


class WalkthroughStep(NamedTuple):
    step_num: int
    act: str
    observation: str
    location_line: str
    is_movement: bool
    direction: Optional[str]


def normalize_act(act: str) -> Optional[str]:
    """Direction named by `act`, or None for non-movement actions."""
    a = act.strip().casefold()
    if a.startswith("go "):
        a = a[3:].strip()
    return a if is_direction(a) else None


def _first_nonempty(text: str) -> str:
    for line in text.splitlines():
        if line.strip():
            return line.strip()
    return ""


def origin_location_line(observation: str) -> str:
    """Room title inside a banner-laden initial observation: the line just
    before the first description line starting with "You"."""
    lines = [ln.strip() for ln in observation.splitlines()]
    for i, line in enumerate(lines):
        if line.startswith("You") and i > 0:
            for j in range(i - 1, -1, -1):
                if lines[j]:
                    return lines[j]
    return _first_nonempty(observation)


def parse_transcript(text: str) -> list[WalkthroughStep]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.startswith("=====") and _SEPARATOR.match(line):
            if current:
                blocks.append(current)
            current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)

    steps: list[WalkthroughStep] = []
    prev = -1  # the step number before this block's
    for block in blocks:
        step = parse_block(block, prev)
        if step is not None:
            steps.append(step)
            prev = step.step_num
    return steps


def parse_block(block: Sequence[str], prev: int) -> Optional[WalkthroughStep]:
    """The step of one block (its lines, separator excluded), or None for
    a blank block.  `prev` is the step number of the step before it, -1
    when there is none; the first step's location line is read from its
    banner (`origin_location_line`)."""
    step_num = act = observation = None
    for i, line in enumerate(block):
        m = _HEADER.match(line)
        if m is None:
            continue
        kind = m.lastindex
        if kind == 1:
            step_num = int(m[1])
        elif kind == 2:
            act = m[2].strip()
        else:
            observation = "\n".join(block[i:])[m.end():].rstrip("\n")
            break
    if step_num is None or act is None or observation is None:
        if not any(line.strip() for line in block):
            return None  # a blank block has no header line
        raise MalformedBlock(
            f"block missing STEP NUM/ACT/OBSERVATION header: {block[:3]}")
    if step_num <= prev or (prev < 0 and step_num != 0):
        raise NonMonotonicStep(
            f"step {step_num} after {prev}; must increase from 0")
    direction = normalize_act(act)
    location = (origin_location_line(observation) if prev < 0
                else _first_nonempty(observation))
    return _new(WalkthroughStep, (
        step_num, act, observation, location, direction is not None,
        direction))


def construct_graph(steps: Sequence[WalkthroughStep],
                    chain: VersionChain) -> NavGraph:
    """Drive incremental construction through the commit chain, which must
    be empty.  A chain with a log then ends it with a checkpoint row of
    the map built (`VersionChain.checkpoint`), from which `load` starts."""
    if chain.head != -1:
        raise NonMonotonicStep("construction requires an empty chain")
    g = extend_graph(steps, chain)
    chain.checkpoint()
    return g


def extend_graph(steps: Iterable[WalkthroughStep],
                 chain: VersionChain) -> NavGraph:
    """Construct `steps` on from the construction prefix `chain` holds: the
    commits construction made of the steps before them, or none.

    On an empty chain the first step commits the origin.  Otherwise the
    cursor is the destination of the last observation commit's edge, or
    the origin when that commit has none.  The result is exactly what
    `construct_graph` makes of the prefix's steps and `steps` together:
    the position map starts unknown, as construction's does after any
    extension it cannot trust, and is inferred at the first namesake
    lookup."""
    g = chain.graph
    steps = iter(steps)
    if chain.head == -1:
        first = next(steps, None)
        if first is None:
            return g
        origin_name = first.location_line
        cursor = chain.allocate_node_id()
        chain.commit([], TRIGGER_OBSERVATION, obs_id=first.step_num,
                     analysis=origin_name, new_nodes=[(cursor, origin_name)])
    else:
        cursor = g.origin
        for c in reversed(chain.commits):
            if c.trigger == TRIGGER_OBSERVATION:
                if c.deltas:
                    cursor = c.deltas[-1].edge.dst
                break
    cursor_key = normalize_name(g.nodes[cursor])
    pm: Optional[PositionMap] = None  # built at the first namesake lookup
    for step in steps:
        if not step.is_movement:
            continue
        name = step.location_line
        key = normalize_name(name)
        if key == cursor_key:
            continue  # blocked move: observation repeats the current room
        dst, pm = _reuse_or_none(g, pm, cursor, step.direction, key)
        new_nodes = []
        if dst is None:
            dst = chain.allocate_node_id()
            new_nodes.append((dst, name))
        edge = Edge(cursor, dst, step.direction, step.step_num)
        chain.commit([add(edge)], TRIGGER_OBSERVATION,
                     obs_id=step.step_num, analysis=name,
                     new_nodes=new_nodes)
        if pm is not None and not extend_positions(g, pm, edge):
            pm = None
        cursor, cursor_key = dst, key  # a reused room has the same key
    return g


def _reuse_or_none(g: NavGraph, pm: Optional[PositionMap], cursor: str,
                   direction: str, key: str
                   ) -> tuple[Optional[str], Optional[PositionMap]]:
    """The room named `key` (a normalized name) to reuse, if any, and the
    position map of `g` (`pm`, or inferred when it is None and such a room
    exists)."""
    same_name = sorted(g.nodes_named(key))
    if not same_name:
        return None, pm
    if pm is None:
        pm = infer_positions(g)
    cur_pos = pm.get(cursor)
    if cur_pos is None or direction not in COMPASS:
        # no geometry to check against: reuse an unpositioned namesake
        for nid in same_name:
            if pm.get(nid) is None:
                return nid, pm
        return None, pm
    dx, dy, dz = displacement(direction)
    target = (cur_pos[0] + dx, cur_pos[1] + dy, cur_pos[2] + dz)
    for nid in same_name:
        if pm.get(nid) == target:
            return nid, pm
    return None, pm
