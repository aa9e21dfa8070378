"""Root-cause localization: path pair, LCA, candidate edges, impact scores.

Given a detected conflict, trace origin-rooted shortest paths to the two
participants, find the deepest shared node before the paths diverge
disjointly, and rank the edges on the divergent suffixes by a composite of
reachability, distinct-conflict membership and conflict-path usage
(min-max normalized within the candidate set, so the score lies in [0, 3]).

Edges corroborated by a consistent reverse observation (u->v:d matched by
v->u:reverse(d)) are exempt from candidacy: both directions were observed
to agree, so the edge is very unlikely to be the root cause.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .conflict_detector import (
    KIND_NAMING, SUB_ASYMMETRY, SUB_INCONSISTENCY, SUB_OVERLAP, Conflict,
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
        seen = []
        for n in self.nodes1[self.lca_index + 1:] + self.nodes2[self.lca_index + 1:]:
            if n not in seen:
                seen.append(n)
        return tuple(seen)


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


def shortest_path(g: NavGraph, start: str,
                  target: str) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
    """BFS shortest path, ties broken by the lexicographically smallest
    step-id sequence.  Raises Unreachable when no path exists."""
    best: dict[str, tuple] = {start: (0, ())}
    heap = [(0, (), start, (start,), ())]
    while heap:
        length, steps, node, path, edges = heapq.heappop(heap)
        if (length, steps) > best.get(node, (length, steps)):
            continue
        if node == target:
            return path, edges
        for e in sorted(g.out_edges(node), key=lambda e: e.step_id):
            if e.dst in path:
                continue
            key = (length + 1, steps + (e.step_id,))
            if e.dst not in best or key < best[e.dst]:
                best[e.dst] = key
                heapq.heappush(heap, (key[0], key[1], e.dst,
                                      path + (e.dst,), edges + (e,)))
    raise Unreachable(f"no path from {start} to {target}")


def conflict_targets(conflict: Conflict) -> tuple[str, str]:
    if conflict.subkind in (SUB_OVERLAP, KIND_NAMING):
        return conflict.nodes[0], conflict.nodes[1]
    if conflict.subkind == SUB_ASYMMETRY:
        return conflict.edges[0].dst, conflict.edges[1].dst
    if conflict.subkind == SUB_INCONSISTENCY:
        return conflict.nodes[0], conflict.edges[0].src
    # directional: the two destinations reached under one label
    return conflict.edges[0].dst, conflict.edges[1].dst


def _divergence(nodes1: Sequence[str], nodes2: Sequence[str]) -> int:
    common = 0
    for a, b in zip(nodes1, nodes2):
        if a != b:
            break
        common += 1
    return common


def lowest_common_ancestor(nodes1: Sequence[str],
                           nodes2: Sequence[str]) -> int:
    """Index of the LCA: the deepest shared prefix node whose suffixes are
    node-disjoint, backing off while they re-intersect.  Falls back to the
    plain divergence point when no cut yields disjoint suffixes (cycles)."""
    common = _divergence(nodes1, nodes2)
    for cut in range(common, 0, -1):
        s1 = set(nodes1[cut:])
        s2 = set(nodes2[cut:])
        if not s1 & s2:
            return cut - 1
    return common - 1


def minimal_path_pair(g: NavGraph, conflict: Conflict) -> PathPair:
    if g.origin is None:
        raise Unreachable("graph has no origin")
    t1, t2 = conflict_targets(conflict)
    nodes1, edges1 = shortest_path(g, g.origin, t1)
    nodes2, edges2 = shortest_path(g, g.origin, t2)
    if conflict.subkind == SUB_INCONSISTENCY:
        # close the witness cycle through the re-deriving edge
        nodes2 = nodes2 + (conflict.edges[0].dst,)
        edges2 = edges2 + (conflict.edges[0],)
    idx = lowest_common_ancestor(nodes1, nodes2)
    return PathPair(nodes1, nodes2, edges1, edges2,
                    lca=nodes1[idx], lca_index=idx)


def _corroborated(g: NavGraph, e: Edge) -> bool:
    return any(f.direction == reverse_direction(e.direction)
               for f in g.edges_between(e.dst, e.src))


def candidate_edges(g: NavGraph, pp: PathPair,
                    include_silent: bool = False) -> list[Edge]:
    cands: list[Edge] = []
    on_suffix = set()
    for e in pp.suffix_edges1 + pp.suffix_edges2:
        on_suffix.add(e)
        if e not in cands and not _corroborated(g, e):
            cands.append(e)
    if include_silent:
        for node in pp.suffix_nodes:
            for e in sorted(g.out_edges(node), key=lambda e: e.step_id):
                if e not in on_suffix and e not in cands \
                        and not _corroborated(g, e):
                    cands.append(e)
    return cands


def _minmax(values: list[int]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def score_candidates(g: NavGraph, conflicts: Iterable[Conflict],
                     cands: Sequence[Edge]) -> list[CandidateEdge]:
    if not cands:
        raise EmptyCandidates("no candidate edges to score")
    suffix_paths: list[tuple[Edge, ...]] = []
    membership: list[set[Edge]] = []
    for c in conflicts:
        edges = set(c.edges)
        try:
            pp = minimal_path_pair(g, c)
        except Unreachable:
            pass
        else:
            suffix_paths.extend((pp.suffix_edges1, pp.suffix_edges2))
            edges |= set(pp.suffix_edges1) | set(pp.suffix_edges2)
        membership.append(edges)

    reach = [len(g.reachable_from(e.dst)) for e in cands]
    conf = [sum(1 for m in membership if e in m) for e in cands]
    usage = [sum(1 for p in suffix_paths if e in p) for e in cands]
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
