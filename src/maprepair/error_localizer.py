"""Root-cause localization: path pair, LCA, candidate edges, impact scores.

Given a detected conflict, trace origin-rooted shortest paths to the two
participants, find the deepest shared node before the paths diverge
disjointly, and rank the edges on the divergent suffixes by a composite of
reachability, distinct-conflict membership and conflict-path usage
(min-max normalized within the candidate set, so the score lies in [0, 3]).

Paths are ordered by (length, step-id sequence), an order that survives
appending an edge, so one single-source search from the origin
(`shortest_path_tree`) holds every node's path.  The search is a
level-synchronous BFS over the adjacency index: each level's nodes are
ranked by their key, so a child's key is an int pair (parent rank, step
id), not a step-id sequence that grows with the path.
`repair_engine` builds that tree once per repair context, when the
advisor first reads the candidates, and reads the target's path pair from
it, and every other open conflict's when the advisor reads the ranking;
the candidates' reach comes from one strongly connected component pass
(`NavGraph.reach_sizes`), not one search each.

Edges corroborated by a consistent reverse observation (u->v:d matched by
v->u:reverse(d)) are exempt from candidacy: both directions were observed
to agree, so the edge is very unlikely to be the root cause.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .conflict_detector import (
    KIND_NAMING, SUB_INCONSISTENCY, SUB_OVERLAP, Conflict,
)
from .errors import EmptyCandidates, Unreachable
from .graph_core import Edge, NavGraph, reverse_direction


@dataclass(frozen=True)
class PathPair:
    nodes1: tuple[str, ...]
    nodes2: tuple[str, ...]
    edges1: tuple[Edge, ...]
    edges2: tuple[Edge, ...]
    lca: str
    lca_index: int  # position of lca in both node sequences

    @property
    def suffix_edges1(self) -> tuple[Edge, ...]:
        return self.edges1[self.lca_index:]

    @property
    def suffix_edges2(self) -> tuple[Edge, ...]:
        return self.edges2[self.lca_index:]

    @property
    def suffix_nodes(self) -> tuple[str, ...]:
        """Nodes strictly after the LCA, path 1 first, deduplicated."""
        return tuple(dict.fromkeys(self.nodes1[self.lca_index + 1:]
                                   + self.nodes2[self.lca_index + 1:]))


@dataclass(frozen=True)
class CandidateEdge:
    edge: Edge
    reach: int
    conflict_count: int
    usage: int
    reach_n: float
    conflict_n: float
    usage_n: float
    score: float

    def to_json(self) -> dict:
        d = self.edge.to_json()
        d.update(reach=self.reach, conflict=self.conflict_count,
                 usage=self.usage, score=self.score)
        return d


@dataclass(frozen=True)
class PathTree:
    """Shortest paths from `start` to every node it reaches, as the edge
    each path enters its node by.  Valid for the graph state it was built
    on."""
    start: str
    via: dict[str, Edge]

    def path(self, target: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
        """Nodes and edges from `start` to `target`.  Raises Unreachable
        when `target` is not reached."""
        if target != self.start and target not in self.via:
            raise Unreachable(f"no path from {self.start} to {target}")
        via, node = self.via, target
        nodes, edges = [node], []
        while node != self.start:
            e = via[node]
            node = e[0]
            edges.append(e)
            nodes.append(node)
        return tuple(reversed(nodes)), tuple(reversed(edges))


def shortest_path_tree(g: NavGraph, start: str) -> PathTree:
    """BFS shortest paths from `start`, ties broken by the lexicographically
    smallest step-id sequence, then by node id.  A path's key only grows
    when an edge is appended, so each node keeps the entering edge of its
    best key and every path from the tree is the one a search for that
    node alone would settle on.

    The search runs level by level.  A level's nodes are ranked by (key,
    node id), equal keys sharing a rank, so a child's key is the int pair
    (parent rank, step id) and never grows with the path.  Parents are
    visited in rank order, and the first edge to reach a child's least key
    enters it, as off a heap of full keys: a later parent of the same rank
    wins only with a lesser step id, and one parent's edges count in
    (step id, `Edge`) order."""
    adjacency = g.adjacency()
    via: dict[str, Edge] = {}
    seen = {start}
    level = [(0, start)]  # (rank, node), in rank order
    while level:
        best: dict[str, tuple] = {}  # next-level node -> (rank, step, node)
        for rank, node in level:
            by_dir = adjacency.get(node)
            if by_dir is None:
                continue
            for by_step in by_dir.values():
                for step, e in by_step.items():
                    dst = e[1]
                    if dst in seen:
                        continue
                    held = best.get(dst)
                    if held is None or rank == held[0] and (
                            step < held[1] or step == held[1]
                            and via[dst][0] == node and e[2] < via[dst][2]):
                        best[dst] = (rank, step, dst)
                        via[dst] = e
        level = []
        rank = last_rank = last_step = -1  # no parent rank is -1
        for parent_rank, step, node in sorted(best.values()):
            if step != last_step or parent_rank != last_rank:
                rank, last_rank, last_step = rank + 1, parent_rank, step
            level.append((rank, node))
        seen.update(best)
    return PathTree(start, via)


def shortest_path(g: NavGraph, start: str,
                  target: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """The `shortest_path_tree` path from `start` to `target`.  Raises
    Unreachable when no path exists.  Nothing in the package calls it; it
    stays because perfbench's layer targets (`perfbench/layers.py`) trace
    it by name."""
    return shortest_path_tree(g, start).path(target)


def conflict_targets(conflict: Conflict) -> tuple[str, str]:
    if conflict.subkind in (SUB_OVERLAP, KIND_NAMING):
        return conflict.nodes[0], conflict.nodes[1]
    if conflict.subkind == SUB_INCONSISTENCY:
        return conflict.nodes[0], conflict.edges[0].src
    # directional and asymmetry: the first two distinct destinations in
    # edge order, since a repeated exit reaches its room again; one
    # destination twice when there is no second (an asymmetric self-loop)
    first, *others = dict.fromkeys(e.dst for e in conflict.edges)
    return first, others[0] if others else first


def _divergence(nodes1: Sequence[str], nodes2: Sequence[str]) -> int:
    common = 0
    for a, b in zip(nodes1, nodes2):
        if a != b:
            break
        common += 1
    return common


def minimal_path_pair(g: NavGraph, conflict: Conflict,
                      tree: PathTree) -> PathPair:
    """The conflict's path pair, read from `tree`, the origin's
    `shortest_path_tree` of `g`."""
    if g.origin is None:
        raise Unreachable("graph has no origin")
    t1, t2 = conflict_targets(conflict)
    nodes1, edges1 = tree.path(t1)
    nodes2, edges2 = tree.path(t2)
    if conflict.subkind == SUB_INCONSISTENCY:
        # close the witness cycle through the re-deriving edge
        nodes2 = nodes2 + (conflict.edges[0].dst,)
        edges2 = edges2 + (conflict.edges[0],)
    # the LCA is the last node of the shared prefix: a cut inside the
    # prefix leaves the node at the cut in both suffixes, so no deeper cut
    # has node-disjoint suffixes
    idx = _divergence(nodes1, nodes2) - 1
    return PathPair(nodes1, nodes2, edges1, edges2,
                    lca=nodes1[idx], lca_index=idx)


def _corroborated(g: NavGraph, e: Edge) -> bool:
    back = g.adjacency().get(e.dst, {}).get(reverse_direction(e.direction), {})
    return any(f.dst == e.src for f in back.values())


def candidate_edges(g: NavGraph, pp: PathPair,
                    include_silent: bool = False) -> list[Edge]:
    edges = dict.fromkeys(pp.suffix_edges1 + pp.suffix_edges2)
    if include_silent:
        for node in pp.suffix_nodes:
            edges.update(dict.fromkeys(
                sorted(g.out_edges(node), key=lambda e: e.step_id)))
    return [e for e in edges if not _corroborated(g, e)]


def _minmax(values: list[int]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def score_candidates(g: NavGraph, conflicts: Iterable[Conflict],
                     cands: Sequence[Edge],
                     tree: PathTree) -> list[CandidateEdge]:
    """Rank `cands`.  Every conflict's path pair is read from `tree`, the
    origin's `shortest_path_tree` of `g`."""
    if not cands:
        raise EmptyCandidates("no candidate edges to score")
    in_conflicts: Counter = Counter()  # edge -> conflicts it belongs to
    on_paths: Counter = Counter()      # edge -> suffix paths it lies on
    for c in conflicts:
        edges = set(c.edges)
        try:
            pp = minimal_path_pair(g, c, tree)
        except Unreachable:
            pass
        else:
            suffix1, suffix2 = set(pp.suffix_edges1), set(pp.suffix_edges2)
            on_paths.update(suffix1)
            on_paths.update(suffix2)
            edges |= suffix1 | suffix2
        in_conflicts.update(edges)

    reach_of = g.reach_sizes(e.dst for e in cands)
    reach = [reach_of[e.dst] for e in cands]
    conf = [in_conflicts[e] for e in cands]
    usage = [on_paths[e] for e in cands]
    reach_n, conf_n, usage_n = _minmax(reach), _minmax(conf), _minmax(usage)

    scored = [
        CandidateEdge(edge=e, reach=reach[i], conflict_count=conf[i],
                      usage=usage[i], reach_n=reach_n[i],
                      conflict_n=conf_n[i], usage_n=usage_n[i],
                      score=reach_n[i] + conf_n[i] + usage_n[i])
        for i, e in enumerate(cands)
    ]
    scored.sort(key=lambda c: (-c.score, -c.conflict_count, -c.edge.step_id))
    return scored
