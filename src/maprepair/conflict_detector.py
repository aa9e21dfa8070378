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

`detect` detects a map from scratch and keeps what it found as a
`Detection`: the conflicts (all `detect_all` returns), the positions with
the record of their inference, the conflicting directional groups by (src,
direction) and the asymmetric pairs by room pair.  `Detection.advance`
turns it into the detection of the map after a change, from the change's
edge deltas: it finds again only the groups of the changed (src,
direction) keys and the pairs of the changed room pairs, restarts
position inference's one loop at the first changed room
(`advance_positions`), and reads overlaps, inconsistencies and naming
from the new positions.  Both
paths share the helpers below, and their results are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .graph_core import REVERSE, Edge, NavGraph, reverse_direction
# perfbench wraps `infer_positions` by the name this module binds
from .position_inference import (
    PositionMap, PositionRecord, advance_positions, infer_positions,
    position_overlaps, record_positions,
)
from .version_store import EdgeDelta

_Adjacency = Mapping[str, Mapping[str, Mapping[int, Edge]]]

KIND_DIRECTIONAL = "directional"
KIND_TOPOLOGICAL = "topological"
KIND_NAMING = "naming"

SUB_ASYMMETRY = "asymmetry"
SUB_OVERLAP = "overlap"
SUB_INCONSISTENCY = "inconsistency"


@dataclass(frozen=True, slots=True)
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
            "witness": self.witness,
            "commit": self.first_visible_commit,
        }


_Groups = dict[tuple[str, str], tuple[tuple[str, ...], tuple[Edge, ...]]]
_Pairs = dict[tuple[str, str], list[tuple[Edge, Edge]]]


def _group(src: str, by_step: Mapping[int, Edge]
           ) -> Optional[tuple[tuple[str, ...], tuple[Edge, ...]]]:
    """The rooms and edges of the directional conflict of one (src,
    direction) group of two or more edges, or None when they reach one
    room only.  A repeat of an exit to the same room is the log's record
    of its step and corroborates the exit, so it is no conflict on its
    own, but every edge of a reported group is in its `edges`."""
    dsts = {e[1] for e in by_step.values()}
    if len(dsts) < 2:
        return None
    return tuple(sorted({src, *dsts})), tuple(sorted(by_step.values()))


def _directional_groups(adjacency: _Adjacency) -> _Groups:
    """`_group` of every (src, direction) key whose group conflicts."""
    groups = {}
    for src, by_dir in adjacency.items():
        for direction, by_step in by_dir.items():
            if len(by_step) >= 2:
                group = _group(src, by_step)
                if group is not None:
                    groups[(src, direction)] = group
    return groups


def _asymmetric_pairs(adjacency: _Adjacency,
                      sources: Optional[_Adjacency] = None) -> _Pairs:
    """Pairs of edges joining two rooms both ways whose directions are not
    each other's reverse, the lesser edge first, in order, keyed by the
    rooms (lesser, greater): those of every room, or with `sources` (rooms
    and their exits from `adjacency`), those whose lesser room is one of
    them.  Each pair is found from its edge out of the lesser room, by a
    look at the other room's exits; a self-loop pairs with the greater
    self-loops."""
    pairs: _Pairs = {}
    for src, by_dir in (adjacency if sources is None else sources).items():
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
                                pairs.setdefault((src, dst), []).append(
                                    (e, f))
    for found in pairs.values():
        found.sort()
    return pairs


def _conflicts(g: NavGraph, groups: _Groups, pairs: _Pairs, pm: PositionMap,
               commit: Optional[int]) -> list[Conflict]:
    """The conflicts the directional groups, the asymmetric pairs and the
    positions of `g` show, stamped with `commit`: directional, then
    topological, then naming."""
    out = [Conflict(kind=KIND_DIRECTIONAL, subkind=KIND_DIRECTIONAL,
                    nodes=nodes, edges=edges, witness=key,
                    first_visible_commit=commit)
           for key, (nodes, edges) in sorted(groups.items())]
    asym_pairs = sorted(pair for found in pairs.values() for pair in found)
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
    naming = []
    for name, ids in g.namesakes():
        nodes = sorted(n for n in ids if n in pm.assignment)
        positions = sorted(pm.assignment[n] for n in nodes)
        if len(nodes) >= 2 and positions[0] != positions[-1]:
            naming.append(Conflict(
                kind=KIND_NAMING,
                subkind=KIND_NAMING,
                nodes=tuple(nodes),
                edges=(),
                witness=(name, tuple(positions)),
                first_visible_commit=commit,
            ))
    naming.sort(key=lambda c: c.witness[0])
    return out + naming


def detect_all(g: NavGraph, commit: Optional[int] = None) -> list[Conflict]:
    """All conflicts: directional, then topological, then naming."""
    return detect(g, commit).conflicts


@dataclass(frozen=True)
class Detection:
    """The conflicts of a map at one head, kept so that it can be advanced
    by the edge deltas of a change instead of detected again: its
    `conflicts`, the `record` of its positions, the directional groups by
    (src, direction) and the asymmetric pairs by room pair.  Read-only; it
    refers to nothing of the graph."""

    conflicts: list[Conflict]
    record: PositionRecord
    groups: _Groups
    pairs: _Pairs

    def advance(self, g: NavGraph, deltas: Iterable[EdgeDelta],
                commit: Optional[int] = None) -> "Detection":
        """`detect(g, commit)`, given that `g` is this detection's map
        changed by the edge `deltas` and by any node introductions,
        renames and drops.  Only the groups of the deltas' (src,
        direction) keys and the pairs of their room pairs are found again;
        positions restart at the first changed room (`advance_positions`);
        overlaps, inconsistencies and naming are read from the new
        positions."""
        edges = [edge for _, edge in deltas]
        adjacency = g.adjacency()
        groups = dict(self.groups)
        for src, _, direction, _ in edges:
            by_step = adjacency.get(src, {}).get(direction, {})
            group = _group(src, by_step) if len(by_step) >= 2 else None
            if group is None:
                groups.pop((src, direction), None)
            else:
                groups[(src, direction)] = group
        # the pairs of a changed room pair's lesser room are found again;
        # those of its unchanged room pairs come out as they were
        rooms = {(a, b) if a <= b else (b, a) for a, b, _, _ in edges}
        pairs = {k: v for k, v in self.pairs.items() if k not in rooms}
        pairs.update(_asymmetric_pairs(adjacency, {
            a: adjacency[a] for a, _ in rooms if a in adjacency}))
        record = advance_positions(self.record, g, [e[0] for e in edges])
        return Detection(_conflicts(g, groups, pairs, record.positions,
                                    commit), record, groups, pairs)


def detect(g: NavGraph, commit: Optional[int] = None) -> Detection:
    """All conflicts of `g` (directional, then topological, then naming),
    stamped with `commit`, as a `Detection`, to be advanced."""
    adjacency = g.adjacency()
    record = record_positions(g)
    groups = _directional_groups(adjacency)
    pairs = _asymmetric_pairs(adjacency)
    return Detection(_conflicts(g, groups, pairs, record.positions, commit),
                     record, groups, pairs)


def unreachable_nodes(g: NavGraph) -> list[str]:
    """Warning-level: nodes with no directed path from the origin."""
    if g.origin is None:
        return sorted(g.nodes)
    return sorted(set(g.nodes) - g.reachable_from(g.origin))
