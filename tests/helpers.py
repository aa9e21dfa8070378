"""Shared test utilities: independent re-implementations used as oracles.

These deliberately use different algorithms from the package (matrix
closure instead of DFS, layered BFS with DP reconstruction instead of a
heap) so agreement is meaningful.
"""

from __future__ import annotations

import random

from maprepair.graph_core import (
    DIRECTIONS, Edge, NavGraph, displacement, normalize_name,
)
from maprepair.position_inference import infer_positions
from maprepair.version_store import (
    TRIGGER_OBSERVATION, VersionChain, _unapply_commit, add,
)


def brute_reachable(g: NavGraph, start: str) -> set[str]:
    """Reachability by boolean matrix closure."""
    ids = sorted(g.nodes)
    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    adj = [[i == j for j in range(n)] for i in range(n)]
    for e in g.edges():
        adj[index[e.src]][index[e.dst]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not adj[i][j] and any(adj[i][k] and adj[k][j]
                                         for k in range(n)):
                    adj[i][j] = True
                    changed = True
    return {ids[j] for j in range(n) if adj[index[start]][j]}


def brute_closure(g: NavGraph) -> dict[str, set[str]]:
    """Warshall closure; reachable set (incl. self) for every node."""
    ids = sorted(g.nodes)
    index = {n: i for i, n in enumerate(ids)}
    n = len(ids)
    adj = [[i == j for j in range(n)] for i in range(n)]
    for e in g.edges():
        adj[index[e.src]][index[e.dst]] = True
    for k in range(n):
        row_k = adj[k]
        for i in range(n):
            if adj[i][k]:
                row_i = adj[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {ids[i]: {ids[j] for j in range(n) if adj[i][j]}
            for i in range(n)}


def brute_shortest(g: NavGraph, start: str, target: str):
    """Layered BFS; among minimum-length paths, pick the one whose step-id
    sequence is lexicographically smallest.  Returns (nodes, edges) or None.
    """
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for e in g.out_edges(node):
                if e.dst not in dist:
                    dist[e.dst] = dist[node] + 1
                    nxt.append(e.dst)
        frontier = nxt
    if target not in dist:
        return None
    # DP over layers: best step-id tuple and its realizing edge per node
    best: dict[str, tuple] = {start: ()}
    via: dict[str, Edge] = {}
    order = sorted(dist, key=dist.get)
    for node in order:
        if node == start:
            continue
        options = []
        for e in g.edges():
            if e.dst == node and dist.get(e.src) == dist[node] - 1 \
                    and e.src in best:
                options.append((best[e.src] + (e.step_id,), e))
        steps, edge = min(options)
        best[node] = steps
        via[node] = edge
    nodes, edges = [target], []
    while nodes[0] != start:
        e = via[nodes[0]]
        edges.insert(0, e)
        nodes.insert(0, e.src)
    return tuple(nodes), tuple(edges)


def random_graph(rng: random.Random, max_nodes: int = 12) -> NavGraph:
    g = NavGraph()
    n = rng.randint(2, max_nodes)
    ids = [g.add_node(f"Room {i}") for i in range(n)]
    step = 1
    for _ in range(rng.randint(n - 1, 3 * n)):
        src, dst = rng.choice(ids), rng.choice(ids)
        d = rng.choice(DIRECTIONS)
        try:
            g.add_edge(src, dst, d, step)
        except Exception:
            pass
        step += 1
    return g


def flip_edges(g: NavGraph, rng: random.Random, count: int) -> NavGraph:
    """Graph-level misdirections: relabel `count` random edges."""
    g = g.copy()
    edges = sorted(g.edge_set())
    rng.shuffle(edges)
    flipped = 0
    for e in edges:
        if flipped >= count:
            break
        choices = [d for d in DIRECTIONS if d != e.direction]
        rng.shuffle(choices)
        for d in choices:
            try:
                g.remove_edge(e)
                g.add_edge(e.src, e.dst, d, e.step_id)
            except Exception:
                g.add_edge(e.src, e.dst, e.direction, e.step_id)
                continue
            flipped += 1
            break
    return g


def unapplied(chain, version: int) -> NavGraph:
    """State as of `version` by inverse-applying head..version+1 to a copy
    of the live graph: the inverse path, checked against replay."""
    g = chain.graph.copy()
    for c in reversed(chain.commits[version + 1:]):
        _unapply_commit(g, c)
    return g


def reference_construct(steps) -> VersionChain:
    """Construction as first specified: infer positions from scratch at
    every revisit of a name, and reuse the namesake found at the target
    position (or, with no geometry to go on, an unpositioned one)."""
    chain = VersionChain()
    g = chain.graph
    cursor = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=steps[0].step_num,
                 analysis=steps[0].location_line,
                 new_nodes=[(cursor, steps[0].location_line)])
    for step in steps[1:]:
        name = step.location_line
        if not step.is_movement or \
                normalize_name(name) == normalize_name(g.nodes[cursor]):
            continue
        dst = None
        namesakes = sorted(g.nodes_named(name))
        if namesakes:
            pm = infer_positions(g)
            here = pm.get(cursor)
            shift = displacement(step.direction)
            if here is None or shift == (0, 0, 0):
                target = None
            else:
                target = tuple(a + b for a, b in zip(here, shift))
            dst = next((n for n in namesakes if pm.get(n) == target), None)
        new_nodes = []
        if dst is None:
            dst = chain.allocate_node_id()
            new_nodes.append((dst, name))
        chain.commit([add(Edge(cursor, dst, step.direction, step.step_num))],
                     TRIGGER_OBSERVATION, obs_id=step.step_num, analysis=name,
                     new_nodes=new_nodes)
        cursor = dst
    return chain


def names(g: NavGraph, ids) -> list[str]:
    return [g.nodes[i] for i in ids]


def edge_by(g: NavGraph, src_name: str, dst_name: str) -> Edge:
    for e in g.edges():
        if g.nodes[e.src] == src_name and g.nodes[e.dst] == dst_name:
            return e
    raise AssertionError(f"no edge {src_name} -> {dst_name}")
