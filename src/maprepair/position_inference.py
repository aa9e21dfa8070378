"""Lattice positions propagated from the origin along compass edges.

Breadth-first from the origin, expanding each node's out-edges in step order.
The first position derived for a node wins; later disagreeing derivations are
recorded, never overwritten.  Containment moves (in/out/enter/exit) carry no
geometry and do not propagate.  When a node has several same-direction
out-edges (a directional conflict), only the minimum-step one defines
geometry; the others do not fabricate positions.

One breadth-first loop, `_propagate`, derives every position.  It walks
the graph's one adjacency index in place (`NavGraph.adjacency`) and ranks
a node's propagating edges with one helper, `_propagating`: one
minimum-step edge per compass direction, and only those few are sorted.
Two directions whose minimum steps are equal go in the order their exits
come in `Edge` order: the direction with the lowest destination among its
exits first, then by direction name.  Edges are unpacked by position,
never read by field name, in the loop.

`record_positions` runs the loop from the origin and keeps its record:
for each step, how many rooms were positioned before it (rooms are
processed in the order they were positioned, the assignment's order).
`infer_positions` is its positions.  `advance_positions` uses the record
to bring the positions of one graph to those of the same graph after
some rooms' exits changed, without running the steps before the first
changed room: those read only exits that did not change, so they go as
they went, and the loop restarts there from the state the record gives.
An inconsistency is found at the step of its edge's source, so the record
names that step too.  `extend_positions` derives a new edge's destination
and runs the loop from there, growing a consistent map by that edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Mapping, Optional

from .graph_core import COMPASS, DISPLACEMENT, Edge, NavGraph

Position = tuple[int, int, int]


@dataclass(frozen=True, order=True)
class Inconsistency:
    node: str
    assigned: Position
    derived: Position
    via: Edge


@dataclass
class PositionMap:
    assignment: dict[str, Position] = field(default_factory=dict)
    inconsistent: list[Inconsistency] = field(default_factory=list)

    def get(self, node: str) -> Position | None:
        return self.assignment.get(node)


def _propagating(by_dir: Mapping[str, Mapping[int, Edge]]) -> list[tuple]:
    """A node's propagating edges from its `NavGraph.adjacency` entry:
    `(step, lowest destination, direction, edge)` for each compass
    direction's minimum-step edge, in step order; equal steps in `Edge`
    order of their directions' exits.  Directions differ, so sorting never
    compares two edges."""
    ranked = []
    for direction, by_step in by_dir.items():
        if direction not in COMPASS:
            continue
        if len(by_step) == 1:
            for step, e in by_step.items():
                ranked.append((step, e[1], direction, e))
        else:
            step = min(by_step)
            ranked.append((step, min(e[1] for e in by_step.values()),
                           direction, by_step[step]))
    if len(ranked) > 1:
        ranked.sort()
    return ranked


def _propagate(adjacency: Mapping[str, Mapping[str, Mapping[int, Edge]]],
               pm: PositionMap, queue: deque, found: list[int]) -> None:
    """The breadth-first loop: take the next positioned room off `queue`
    and derive the destinations of its propagating edges, until no room
    is left.  Append to `found` the number of rooms positioned before each
    step."""
    assignment = pm.assignment
    while queue:
        found.append(len(assignment))
        node = queue.popleft()
        by_dir = adjacency.get(node)
        if by_dir is None:
            continue
        px, py, pz = assignment[node]
        for _, _, direction, e in _propagating(by_dir):
            dst = e[1]
            dx, dy, dz = DISPLACEMENT[direction]
            derived = (px + dx, py + dy, pz + dz)
            known = assignment.get(dst)
            if known is None:
                assignment[dst] = derived
                queue.append(dst)
            elif known != derived:
                pm.inconsistent.append(Inconsistency(dst, known, derived, e))


def infer_positions(g: NavGraph) -> PositionMap:
    return record_positions(g).positions


@dataclass(frozen=True)
class PositionRecord:
    """`infer_positions` of a graph and the record of its loop.  Rooms are
    processed in the order they were positioned, the assignment's order,
    so step i's room is the assignment's i-th key, and `found[i]` rooms
    were positioned before step i.  Read-only; it refers to nothing of the
    graph."""

    origin: Optional[str]
    positions: PositionMap
    found: list[int]


def record_positions(g: NavGraph) -> PositionRecord:
    """`infer_positions(g)` with the record `advance_positions` needs."""
    pm, found = PositionMap(), []
    if g.origin is not None:
        pm.assignment[g.origin] = (0, 0, 0)
        _propagate(g.adjacency(), pm, deque([g.origin]), found)
        pm.inconsistent.sort()
    return PositionRecord(g.origin, pm, found)


def advance_positions(record: PositionRecord, g: NavGraph,
                      changed: Iterable[str]) -> PositionRecord:
    """`record_positions(g)`, given the `record` of a graph that `g` equals
    but for the exits of the rooms `changed`.

    The loop restarts at the step of the earliest-processed changed room:
    the rooms positioned before that step keep their positions, those not
    yet processed are the queue, and the inconsistencies found at earlier
    steps stay.  When no changed room was processed, `record` is the
    answer; a changed origin starts over."""
    if g.origin != record.origin:
        return record_positions(g)
    assignment = record.positions.assignment
    order = list(assignment)
    steps = [order.index(n) for n in set(changed) if n in assignment]
    if not steps:
        return record
    step = min(steps)
    known = record.found[step]
    inconsistent = record.positions.inconsistent
    earlier = set(order[:step]) if inconsistent else ()
    pm = PositionMap(dict(islice(assignment.items(), known)),
                     [inc for inc in inconsistent if inc.via[0] in earlier])
    found = record.found[:step]
    _propagate(g.adjacency(), pm, deque(order[step:known]), found)
    pm.inconsistent.sort()
    return PositionRecord(g.origin, pm, found)


def extend_positions(g: NavGraph, pm: PositionMap, edge: Edge) -> bool:
    """Turn `pm`, the map of `g` without `edge`, into the map of `g` with it.

    False when the result might differ from ``infer_positions(g)``: `pm`
    already records an inconsistency, `edge` displaces an older
    minimum-step edge of its (src, direction), or the search from its
    destination derives a second position for a positioned node.  `pm` is
    then left part-updated and must be recomputed.

    Exact otherwise: with no inconsistency every propagating edge agrees
    with the positions, so BFS order cannot matter, and the only nodes that
    gain a position are those reachable from the new destination.
    """
    if pm.inconsistent:
        return False
    if edge.direction not in COMPASS or edge.src not in pm.assignment:
        return True
    adjacency = g.adjacency()
    others = [e for e in adjacency[edge.src][edge.direction].values()
              if e != edge]
    if any(e.step_id < edge.step_id for e in others):
        return True  # an older edge still defines this direction's geometry
    if others:
        return False
    px, py, pz = pm.assignment[edge.src]
    dx, dy, dz = DISPLACEMENT[edge.direction]
    derived = (px + dx, py + dy, pz + dz)
    known = pm.assignment.get(edge.dst)
    if known is None:
        pm.assignment[edge.dst] = derived
        _propagate(adjacency, pm, deque([edge.dst]), [])
        return not pm.inconsistent
    return known == derived


def position_overlaps(pm: PositionMap) -> list[tuple[str, str, Position]]:
    """Unordered pairs of distinct nodes sharing one position."""
    first: dict[Position, str] = {}
    shared: dict[Position, list[str]] = {}
    for node, pos in pm.assignment.items():
        holder = first.setdefault(pos, node)
        if holder != node:
            shared.setdefault(pos, [holder]).append(node)
    out = []
    for pos in sorted(shared):
        nodes = sorted(shared[pos])
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                out.append((nodes[i], nodes[j], pos))
    return out


# `\`, tab, newline and CR in an id or name, written as two characters
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n",
                              "\r": "\\r"})


def positions_tsv(g: NavGraph) -> str:
    """One `node name x y z` row per positioned node, ids and names
    escaped (`_TSV_ESCAPES`) so that every row has five fields."""
    pm = infer_positions(g)
    lines = ["node\tname\tx\ty\tz"]
    for nid, name in g.nodes.items():
        pos = pm.get(nid)
        if pos is None:
            continue
        lines.append(f"{nid.translate(_TSV_ESCAPES)}\t"
                     f"{name.translate(_TSV_ESCAPES)}\t"
                     f"{pos[0]}\t{pos[1]}\t{pos[2]}")
    return "\n".join(lines) + "\n"
