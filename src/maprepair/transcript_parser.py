"""Walkthrough transcript parsing and incremental graph construction.

Transcripts are sequences of blocks separated by ``===========`` lines:

    ==>STEP NUM: 3
    ==>ACT: west
    ==>OBSERVATION: At End Of Road
    ...

A separator is five or more ``=`` and trailing whitespace.  In a block,
each line before the observation is matched once against one header pattern
(``==>STEP NUM:`` and a number, ``==>ACT:`` or ``==>OBSERVATION:``); other
lines are skipped, and a repeated header overrides the earlier one.  The
observation is the rest of the block from its header on, sliced once, with
the lines joined by ``\\n``.  A blank block is skipped; any other block
without all three headers is `MalformedBlock`, and step numbers must rise
from 0.

A step is a movement iff its action normalizes to one of the 14 directions
("go north" counts).  The destination's name is the first non-empty
observation line; for the initial block, which opens with game banner text,
the line immediately preceding the first "You ..." description line is used
instead (falling back to the first non-empty line).

Construction keeps a current-location cursor and its normalized name.  Each
movement's name is normalized once; a movement whose observation names a
different location commits one edge.  The destination reuses an
existing node only when both the normalized name and the inferred lattice
position agree; otherwise a fresh node is created, which is what lets
naming conflicts surface naturally downstream.

The position map is inferred at the first revisit of a name and then
extended by each commit's edge; it is inferred again only after an
extension that could differ from a from-scratch inference.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

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
                continue  # a blank block has no header line
            raise MalformedBlock(
                f"block missing STEP NUM/ACT/OBSERVATION header: {block[:3]}")
        if step_num <= prev or (not steps and step_num != 0):
            raise NonMonotonicStep(
                f"step {step_num} after {prev}; must increase from 0")
        direction = normalize_act(act)
        location = (origin_location_line(observation) if not steps
                    else _first_nonempty(observation))
        steps.append(_new(WalkthroughStep, (
            step_num, act, observation, location, direction is not None,
            direction)))
        prev = step_num
    return steps


def construct_graph(steps: Sequence[WalkthroughStep],
                    chain: VersionChain) -> NavGraph:
    """Drive incremental construction through the commit chain."""
    if chain.head != -1:
        raise NonMonotonicStep("construction requires an empty chain")
    if not steps:
        return chain.graph
    g = chain.graph
    origin_name = steps[0].location_line
    origin_id = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=steps[0].step_num,
                 analysis=origin_name, new_nodes=[(origin_id, origin_name)])
    cursor, cursor_key = origin_id, normalize_name(origin_name)
    pm: Optional[PositionMap] = None  # built at the first namesake lookup
    for step in steps[1:]:
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
