"""Lattice positions propagated from the origin along compass edges.

Breadth-first from the origin, expanding each node's out-edges in step order.
The first position derived for a node wins; later disagreeing derivations are
recorded, never overwritten.  Containment moves (in/out/enter/exit) carry no
geometry and do not propagate.  When a node has several same-direction
out-edges (a directional conflict), only the minimum-step one defines
geometry; the others do not fabricate positions.

Both `infer_positions` and `extend_positions` walk the graph's one
adjacency index in place (`NavGraph.adjacency`) and rank a node's
propagating edges with one helper, `_propagating`: one minimum-step edge
per compass direction, and only those few are sorted.  Two directions
whose minimum steps are equal go in the order their exits come in `Edge`
order: the direction with the lowest destination among its exits first,
then by direction name.  Edges are unpacked by position, never read by
field name, in these loops.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

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


def infer_positions(g: NavGraph) -> PositionMap:
    pm = PositionMap()
    if g.origin is None:
        return pm
    adjacency = g.adjacency()
    assignment = pm.assignment
    assignment[g.origin] = (0, 0, 0)
    queue: deque[str] = deque([g.origin])
    seen_bad: set[tuple] = set()
    while queue:
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
            elif known != derived and (dst, known, derived, e) not in seen_bad:
                seen_bad.add((dst, known, derived, e))
                pm.inconsistent.append(Inconsistency(dst, known, derived, e))
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
    adjacency = g.adjacency()
    others = [e for e in adjacency[edge.src][edge.direction].values()
              if e != edge]
    if any(e.step_id < edge.step_id for e in others):
        return True  # an older edge still defines this direction's geometry
    if others:
        return False
    pending: deque[Edge] = deque([edge])
    while pending:
        src, dst, direction, _ = pending.popleft()
        px, py, pz = pm.assignment[src]
        dx, dy, dz = DISPLACEMENT[direction]
        derived = (px + dx, py + dy, pz + dz)
        known = pm.assignment.get(dst)
        if known is None:
            pm.assignment[dst] = derived
            by_dir = adjacency.get(dst)
            if by_dir is not None:
                pending.extend(r[3] for r in _propagating(by_dir))
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
