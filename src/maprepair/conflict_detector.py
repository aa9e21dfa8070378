"""The three conflict classes: directional, topological, naming.

Detection is a pure function of the graph.  Topological conflicts come in
three concrete flavors: reverse-asymmetry edge pairs, two nodes occupying
one lattice position, and disagreeing position re-derivations.  An
inconsistency whose offending edge already participates in an asymmetry
pair is suppressed as a duplicate symptom of the same defect.

Unreachable nodes are reported as warnings, not conflicts: construction
legitimately creates frontier nodes.  Over-connected components are out of
scope (no threshold is defined for them).

Detection makes one pass over the graph's adjacency and name indices and
sorts only what it reports: the (src, direction) groups with two or more
exits, the asymmetric pairs (each stored lesser edge first), the names
held by nodes at two or more positions and the cells that hold more than
one room.  Edges are ordered by plain tuples, never by `Edge` comparison.
Each conflict is built once, stamped with the commit it was detected at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph_core import Edge, NavGraph, reverse_direction
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


def _edge_order(e: Edge) -> tuple:
    """`Edge` order as a plain tuple, so sorting calls no Python `__lt__`."""
    return (e.src, e.dst, e.direction, e.step_id)


def detect_directional(g: NavGraph,
                       commit: Optional[int] = None) -> list[Conflict]:
    groups = [(src, direction, exits) for src in g.nodes
              for direction, exits in g.exits(src) if len(exits) >= 2]
    groups.sort(key=lambda group: group[:2])
    out = []
    for src, direction, exits in groups:
        edges = tuple(sorted(exits, key=_edge_order))
        out.append(Conflict(
            kind=KIND_DIRECTIONAL,
            subkind=KIND_DIRECTIONAL,
            nodes=tuple(sorted({src} | {e.dst for e in edges})),
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
    each other's reverse, the lesser edge first, in order."""
    between: dict[tuple[str, str], list[Edge]] = {}
    for e in g.edges():
        between.setdefault((e.src, e.dst), []).append(e)
    pairs = []
    for (src, dst), edges in between.items():
        if src == dst:  # self-loops pair with each other
            for i, e in enumerate(edges):
                for f in edges[i + 1:]:
                    if f.direction != reverse_direction(e.direction):
                        pairs.append((e, f) if _edge_order(e) < _edge_order(f)
                                     else (f, e))
        elif src < dst:  # so the edge from `src` is the lesser
            for e in edges:
                for f in between.get((dst, src), ()):
                    if f.direction != reverse_direction(e.direction):
                        pairs.append((e, f))
    pairs.sort(key=lambda pair: _edge_order(pair[0]) + _edge_order(pair[1]))
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
