"""The three conflict classes: directional, topological, naming.

Detection is a pure function of the graph.  Topological conflicts come in
three concrete flavors: reverse-asymmetry edge pairs, two nodes occupying
one lattice position, and disagreeing position re-derivations.  An
inconsistency whose offending edge already participates in an asymmetry
pair is suppressed as a duplicate symptom of the same defect.

Unreachable nodes are reported as warnings, not conflicts: construction
legitimately creates frontier nodes.  Over-connected components are out of
scope (no threshold is defined for them).

Detection walks the graph's adjacency index in place
(`NavGraph.adjacency`) and its name index, and sorts only what it
reports: the (src, direction) groups whose exits reach two or more
rooms, the asymmetric pairs, the names held by nodes at two or more
positions and the cells that hold more than one room.  An asymmetric pair
is found from its edge out of the lesser room (a self-loop, from the
lesser self-loop) by a look at the other room's exits, so no edge is
grouped or copied.  An `Edge` is a plain tuple, so edges sort by tuple
comparison and are unpacked by position in the loops.  Each conflict is
built once, stamped with the commit it was detected at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph_core import REVERSE, Edge, NavGraph, reverse_direction
from .position_inference import PositionMap, infer_positions, position_overlaps

KIND_DIRECTIONAL = "directional"
KIND_TOPOLOGICAL = "topological"
KIND_NAMING = "naming"

SUB_ASYMMETRY = "asymmetry"
SUB_OVERLAP = "overlap"
SUB_INCONSISTENCY = "inconsistency"


@dataclass(frozen=True)
class Conflict:
    kind: str
    subkind: str
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    witness: tuple
    first_visible_commit: Optional[int] = None

    @property
    def key(self) -> tuple:
        """Identity across re-detections (ignores commit stamp)."""
        if self.kind == KIND_DIRECTIONAL:
            return (self.kind, self.edges[0].src, self.edges[0].direction)
        if self.kind == KIND_NAMING:
            return (self.kind, self.witness[0])
        if self.subkind == SUB_ASYMMETRY:
            return (self.subkind, tuple(sorted(e.key for e in self.edges)))
        if self.subkind == SUB_OVERLAP:
            return (self.subkind, self.nodes)
        return (self.subkind, self.nodes[0])

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "subkind": self.subkind,
            "participants": {
                "nodes": list(self.nodes),
                "edges": [e.to_json() for e in self.edges],
            },
            "witness": _jsonable(self.witness),
            "commit": self.first_visible_commit,
        }


def _jsonable(x):
    if isinstance(x, Edge):
        return x.to_json()
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def detect_directional(g: NavGraph,
                       commit: Optional[int] = None) -> list[Conflict]:
    """One conflict per (src, direction) group whose edges reach two or
    more distinct rooms.  A repeat of an exit to the same room is the log's
    record of its step and corroborates the exit, so it is no conflict on
    its own, but every edge of a reported group is in its `edges`."""
    groups = []
    for src, by_dir in g.adjacency().items():
        for direction, by_step in by_dir.items():
            if len(by_step) >= 2:
                dsts = {e[1] for e in by_step.values()}
                if len(dsts) >= 2:
                    groups.append((src, direction, by_step, dsts))
    groups.sort(key=lambda group: group[:2])
    out = []
    for src, direction, by_step, dsts in groups:
        edges = tuple(sorted(by_step.values()))
        out.append(Conflict(
            kind=KIND_DIRECTIONAL,
            subkind=KIND_DIRECTIONAL,
            nodes=tuple(sorted({src, *dsts})),
            edges=edges,
            witness=(src, direction),
            first_visible_commit=commit,
        ))
    return out


def detect_naming(g: NavGraph, pm: PositionMap,
                  commit: Optional[int] = None) -> list[Conflict]:
    out = []
    for name, ids in g.namesakes():
        nodes = sorted(n for n in ids if n in pm.assignment)
        positions = sorted(pm.assignment[n] for n in nodes)
        if len(nodes) >= 2 and positions[0] != positions[-1]:
            out.append(Conflict(
                kind=KIND_NAMING,
                subkind=KIND_NAMING,
                nodes=tuple(nodes),
                edges=(),
                witness=(name, tuple(positions)),
                first_visible_commit=commit,
            ))
    out.sort(key=lambda c: c.witness[0])
    return out


def _asymmetric_pairs(g: NavGraph) -> list[tuple[Edge, Edge]]:
    """Pairs of edges joining two rooms both ways whose directions are not
    each other's reverse, the lesser edge first, in order.  Each pair is
    found from its edge out of the lesser room, by a look at the other
    room's exits; a self-loop pairs with the greater self-loops."""
    adjacency = g.adjacency()
    pairs = []
    for src, by_dir in adjacency.items():
        for direction, by_step in by_dir.items():
            reverse = REVERSE[direction]
            for e in by_step.values():
                dst = e[1]
                if dst < src:
                    continue
                back = adjacency.get(dst)
                if back is None:
                    continue
                for d, fs in back.items():
                    if d != reverse:
                        for f in fs.values():
                            if f[1] == src and (dst != src or e < f):
                                pairs.append((e, f))
    pairs.sort()
    return pairs


def detect_topological(g: NavGraph, pm: PositionMap,
                       commit: Optional[int] = None) -> list[Conflict]:
    out: list[Conflict] = []
    asym_pairs = _asymmetric_pairs(g)
    asym_edges = {e.key for pair in asym_pairs for e in pair}
    for e, f in asym_pairs:
        out.append(Conflict(
            kind=KIND_TOPOLOGICAL,
            subkind=SUB_ASYMMETRY,
            nodes=tuple(sorted({e.src, e.dst})),
            edges=(e, f),
            witness=(e.direction, f.direction,
                     reverse_direction(e.direction)),
            first_visible_commit=commit,
        ))
    for a, b, pos in position_overlaps(pm):
        out.append(Conflict(
            kind=KIND_TOPOLOGICAL,
            subkind=SUB_OVERLAP,
            nodes=(a, b),
            edges=(),
            witness=(pos,),
            first_visible_commit=commit,
        ))
    for inc in pm.inconsistent:
        if inc.via.key in asym_edges:
            continue  # symptom of the asymmetry already reported
        out.append(Conflict(
            kind=KIND_TOPOLOGICAL,
            subkind=SUB_INCONSISTENCY,
            nodes=(inc.node,),
            edges=(inc.via,),
            witness=(inc.assigned, inc.derived),
            first_visible_commit=commit,
        ))
    return out


def detect_all(g: NavGraph, commit: Optional[int] = None) -> list[Conflict]:
    """All conflicts: directional, then topological, then naming."""
    pm = infer_positions(g)
    return (detect_directional(g, commit)
            + detect_topological(g, pm, commit)
            + detect_naming(g, pm, commit))


def unreachable_nodes(g: NavGraph) -> list[str]:
    """Warning-level: nodes with no directed path from the origin."""
    if g.origin is None:
        return sorted(g.nodes)
    return sorted(set(g.nodes) - g.reachable_from(g.origin))
