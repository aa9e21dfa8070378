"""Lattice positions propagated from the origin along compass edges.

Breadth-first from the origin, expanding each node's out-edges in step order.
The first position derived for a node wins; later disagreeing derivations are
recorded, never overwritten.  Containment moves (in/out/enter/exit) carry no
geometry and do not propagate.  When a node has several same-direction
out-edges (a directional conflict), only the minimum-step one defines
geometry; the others do not fabricate positions.

A node's propagating edges are read straight from the graph's adjacency
index, one minimum-step edge per compass direction; only those few are
sorted.  Two directions whose minimum steps are equal go in the order
their exits come in `Edge` order: the direction with the lowest
destination among its exits first, then by direction name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .graph_core import COMPASS, Edge, NavGraph, displacement

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


def _propagating_edges(g: NavGraph, node: str) -> list[Edge]:
    """Compass out-edges of `node`, one per direction (minimum step), in
    step order; equal steps in `Edge` order of their directions' exits."""
    ranked = []
    for direction, exits in g.exits(node):
        if direction not in COMPASS:
            continue
        if len(exits) == 1:
            first, = exits
            ranked.append((first.step_id, first.dst, direction, first))
        else:
            first = min(exits, key=attrgetter("step_id"))
            ranked.append((first.step_id, min(e.dst for e in exits),
                           direction, first))
    ranked.sort()  # directions differ, so no two edges are compared
    return [r[3] for r in ranked]


def infer_positions(g: NavGraph) -> PositionMap:
    pm = PositionMap()
    if g.origin is None:
        return pm
    pm.assignment[g.origin] = (0, 0, 0)
    queue: deque[str] = deque([g.origin])
    seen_bad: set[tuple] = set()
    while queue:
        node = queue.popleft()
        px, py, pz = pm.assignment[node]
        for e in _propagating_edges(g, node):
            dx, dy, dz = displacement(e.direction)
            derived = (px + dx, py + dy, pz + dz)
            known = pm.assignment.get(e.dst)
            if known is None:
                pm.assignment[e.dst] = derived
                queue.append(e.dst)
            elif known != derived:
                inc = Inconsistency(e.dst, known, derived, e)
                if (inc.node, inc.assigned, inc.derived, inc.via) not in seen_bad:
                    seen_bad.add((inc.node, inc.assigned, inc.derived, inc.via))
                    pm.inconsistent.append(inc)
    pm.inconsistent.sort()
    return pm


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
    others = [e for e in g.out_edges(edge.src, edge.direction) if e != edge]
    if any(e.step_id < edge.step_id for e in others):
        return True  # an older edge still defines this direction's geometry
    if others:
        return False
    pending: deque[Edge] = deque([edge])
    while pending:
        e = pending.popleft()
        px, py, pz = pm.assignment[e.src]
        dx, dy, dz = displacement(e.direction)
        derived = (px + dx, py + dy, pz + dz)
        known = pm.assignment.get(e.dst)
        if known is None:
            pm.assignment[e.dst] = derived
            pending.extend(_propagating_edges(g, e.dst))
        elif known != derived:
            return False
    return True


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


def positions_tsv(g: NavGraph) -> str:
    pm = infer_positions(g)
    lines = ["node\tname\tx\ty\tz"]
    for nid in g.nodes:
        pos = pm.get(nid)
        if pos is None:
            continue
        lines.append(f"{nid}\t{g.nodes[nid]}\t{pos[0]}\t{pos[1]}\t{pos[2]}")
    return "\n".join(lines) + "\n"
