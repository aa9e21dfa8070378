"""Shared test utilities: independent re-implementations used as oracles.

These deliberately use different algorithms from the package (matrix
closure instead of DFS, layered BFS with DP reconstruction instead of a
heap) so agreement is meaningful.
"""

from __future__ import annotations

import heapq
import json
import random
import re
import sys
import warnings

from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from hypothesis import strategies as st

from maprepair.conflict_detector import (
    KIND_DIRECTIONAL, KIND_NAMING, KIND_TOPOLOGICAL, SUB_ASYMMETRY,
    SUB_INCONSISTENCY, SUB_OVERLAP, Conflict, Detection, detect, detect_all,
)
from maprepair.error_localizer import (
    CandidateEdge, PathPair, _minmax, conflict_targets,
)
from maprepair.errors import (
    AdvisorFailure, CorruptLog, DuplicateEdge, EmptyCandidates, IllegalAction,
    InvalidDelta, MalformedBlock, NonMonotonicStep, UnknownNode,
    UnknownVersion, Unreachable,
)
from maprepair.fault_injector import (
    FAULT_MISDIRECTION, FAULT_MISNAME, FAULT_PHANTOM, FAULT_SILENT, Fault,
    FaultLedger, World, _apply_fault, _walk_sources,
)
from maprepair.graph_core import (
    COMPASS, DIRECTIONS, Edge, NavGraph, displacement, normalize_name,
    reverse_direction,
)
from maprepair.metrics_bench import OUTCOME_EXHAUSTED, OUTCOME_REPAIRED
from maprepair.position_inference import (
    Inconsistency, PositionMap, infer_positions,
)
from maprepair.repair_engine import (
    ACT_GIVE_UP, QUERY_ACTIONS, VERSION_ACTIONS, Advisor, Loop, RepairAction,
    ToolConfig, apply_action, build_context,
)
from maprepair.transcript_parser import (
    _first_nonempty, normalize_act, origin_location_line,
)
from maprepair.version_store import (
    TRIGGER_CHECKPOINT, TRIGGER_OBSERVATION, Commit, EdgeDelta, VersionChain,
    _apply_commit, _inverse, add,
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


_NAMES = ("Hall", "hall", "Cellar", "Attic", "Yard")
_FEW_DIRECTIONS = ("north", "south", "east", "west", "up", "in")
_SUBKINDS = (KIND_DIRECTIONAL, KIND_NAMING, SUB_ASYMMETRY, SUB_OVERLAP,
             SUB_INCONSISTENCY)


@st.composite
def multigraphs(draw):
    """Small multigraphs: namesakes, equal step ids on one source in
    different directions, self-loops, cycles, unreachable parts, node ids
    whose string order differs from their numeric order, and an origin
    that is the first node, a later one or unset.  Returns the
    graph and its conflicts: the detected ones, then some made from any
    nodes and edges, so that every subkind's targets, and an
    inconsistency whose re-deriving edge is a shortest-path edge, occur."""
    g = NavGraph()
    ids = [g.add_node(draw(st.sampled_from(_NAMES)))
           for _ in range(draw(st.integers(1, 12)))]
    origin = draw(st.sampled_from(("first", "later", "none")))
    if origin == "later" and len(ids) > 1:
        g.origin = draw(st.sampled_from(ids[1:]))
    moves = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    st.sampled_from(_FEW_DIRECTIONS),
                                    st.integers(0, 4)), max_size=30))
    for src, dst, d, step in moves:
        try:
            g.add_edge(src, dst, d, step)
        except DuplicateEdge:
            pass
    if origin == "none":
        g.origin = None
    conflicts = detect_all(g)
    edges = sorted(g.edges())
    for subkind, i, j in draw(st.lists(st.tuples(
            st.sampled_from(_SUBKINDS), st.integers(0, 99),
            st.integers(0, 99)), max_size=4)):
        if subkind in (SUB_OVERLAP, KIND_NAMING):
            nodes, pair = (ids[i % len(ids)], ids[j % len(ids)]), ()
        elif not edges:
            continue
        elif subkind == SUB_INCONSISTENCY:
            via = edges[i % len(edges)]
            nodes, pair = (via.dst,), (via,)
        else:
            pair = (edges[i % len(edges)], edges[j % len(edges)])
            nodes = ()
        kind = subkind if subkind in (KIND_NAMING, KIND_DIRECTIONAL) \
            else KIND_TOPOLOGICAL
        conflicts.append(Conflict(kind, subkind, nodes, pair, (i, j)))
    return g, conflicts


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
    """State as of `version` by applying the inverse commits of
    head..version+1, newest first, to a copy of the live graph: the undo
    path, checked against replay."""
    g = chain.graph.copy()
    for c in reversed(chain.commits[version + 1:]):
        _apply_commit(g, _inverse(c))
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


# ---------------------------------------------------------------------------
# transcript parsing as first written: three header patterns tried in turn
# on every line, the separator pattern on every line, and the observation
# gathered line by line.  The body is verbatim but for its name and the
# step type's; `ReferenceStep` has `WalkthroughStep`'s fields.

_REFERENCE_SEPARATOR = re.compile(r"^={5,}\s*$")
_REFERENCE_STEP_RE = re.compile(r"^==>STEP NUM:\s*(\d+)\s*$")
_REFERENCE_ACT_RE = re.compile(r"^==>ACT:\s*(.*)$")
_REFERENCE_OBS_RE = re.compile(r"^==>OBSERVATION:\s*(.*)$")


@dataclass(frozen=True)
class ReferenceStep:
    step_num: int
    act: str
    observation: str
    location_line: str
    is_movement: bool
    direction: Optional[str]


def reference_parse_transcript(text: str) -> list[ReferenceStep]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.splitlines():
        if _REFERENCE_SEPARATOR.match(line):
            if current:
                blocks.append(current)
            current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)

    steps: list[ReferenceStep] = []
    for block in blocks:
        if not any(line.strip() for line in block):
            continue
        step_num = act = None
        obs_lines: list[str] = []
        in_obs = False
        for line in block:
            if in_obs:
                obs_lines.append(line)
                continue
            m = _REFERENCE_STEP_RE.match(line)
            if m:
                step_num = int(m.group(1))
                continue
            m = _REFERENCE_ACT_RE.match(line)
            if m:
                act = m.group(1).strip()
                continue
            m = _REFERENCE_OBS_RE.match(line)
            if m:
                obs_lines.append(m.group(1))
                in_obs = True
        if step_num is None or act is None or not in_obs:
            raise MalformedBlock(
                f"block missing STEP NUM/ACT/OBSERVATION header: {block[:3]}")
        observation = "\n".join(obs_lines).rstrip("\n")
        direction = normalize_act(act)
        expected = steps[-1].step_num if steps else -1
        if step_num <= expected or (not steps and step_num != 0):
            raise NonMonotonicStep(
                f"step {step_num} after {expected}; must increase from 0")
        location = (origin_location_line(observation) if not steps
                    else _first_nonempty(observation))
        steps.append(ReferenceStep(
            step_num=step_num,
            act=act,
            observation=observation,
            location_line=location,
            is_movement=direction is not None,
            direction=direction,
        ))
    return steps


def names(g: NavGraph, ids) -> list[str]:
    return [g.nodes[i] for i in ids]


def edge_by(g: NavGraph, src_name: str, dst_name: str) -> Edge:
    for e in g.edges():
        if g.nodes[e.src] == src_name and g.nodes[e.dst] == dst_name:
            return e
    raise AssertionError(f"no edge {src_name} -> {dst_name}")


# ---------------------------------------------------------------------------
# detection and position inference as first written: every edge sorted,
# every name normalized, one `edges_between` per edge


def _reference_out_groups(g: NavGraph) -> dict[tuple[str, str], list[Edge]]:
    """(src, direction) -> edges, re-derived from the edge list."""
    groups: dict[tuple[str, str], list[Edge]] = {}
    for e in g.edges():
        groups.setdefault((e.src, e.direction), []).append(e)
    return {key: sorted(edges) for key, edges in groups.items()}


def _reference_propagating_edges(g: NavGraph, node: str) -> list[Edge]:
    """Compass out-edges of `node`, one per direction (minimum step)."""
    best: dict[str, Edge] = {}
    for e in g.out_edges(node):
        if e.direction not in COMPASS:
            continue
        cur = best.get(e.direction)
        if cur is None or e.step_id < cur.step_id:
            best[e.direction] = e
    return sorted(best.values(), key=lambda e: e.step_id)


def reference_infer_positions(g: NavGraph) -> PositionMap:
    pm = PositionMap()
    if g.origin is None:
        return pm
    pm.assignment[g.origin] = (0, 0, 0)
    queue: deque[str] = deque([g.origin])
    seen_bad: set[tuple] = set()
    while queue:
        node = queue.popleft()
        px, py, pz = pm.assignment[node]
        for e in _reference_propagating_edges(g, node):
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


def _reference_position_overlaps(pm: PositionMap) -> list[tuple]:
    """Unordered pairs of distinct nodes sharing one position."""
    by_pos: dict[tuple, list[str]] = {}
    for node, pos in pm.assignment.items():
        by_pos.setdefault(pos, []).append(node)
    out = []
    for pos in sorted(by_pos):
        nodes = sorted(by_pos[pos])
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                out.append((nodes[i], nodes[j], pos))
    return out


def _reference_detect_directional(g: NavGraph) -> list[Conflict]:
    out = []
    for (src, direction), edges in sorted(_reference_out_groups(g).items()):
        if len({e.dst for e in edges}) >= 2:
            out.append(Conflict(
                kind=KIND_DIRECTIONAL,
                subkind=KIND_DIRECTIONAL,
                nodes=tuple(sorted({src} | {e.dst for e in edges})),
                edges=tuple(edges),
                witness=(src, direction),
            ))
    return out


def _reference_detect_naming(g: NavGraph, pm: PositionMap) -> list[Conflict]:
    out = []
    by_name: dict[str, list[str]] = {}
    for nid, name in g.nodes.items():
        if pm.get(nid) is not None:
            by_name.setdefault(normalize_name(name), []).append(nid)
    for name in sorted(by_name):
        nodes = sorted(by_name[name])
        positions = {pm.get(n) for n in nodes}
        if len(nodes) >= 2 and len(positions) >= 2:
            out.append(Conflict(
                kind=KIND_NAMING,
                subkind=KIND_NAMING,
                nodes=tuple(nodes),
                edges=(),
                witness=(name, tuple(sorted(pm.get(n) for n in nodes))),
            ))
    return out


def _reference_detect_topological(g: NavGraph,
                                  pm: PositionMap) -> list[Conflict]:
    out: list[Conflict] = []
    asym_pairs: list[tuple[Edge, Edge]] = []
    seen: set[frozenset] = set()
    for e in sorted(g.edges()):
        for f in g.edges_between(e.dst, e.src):
            if f.direction == reverse_direction(e.direction):
                continue
            pair_key = frozenset((e.key, f.key))
            if pair_key in seen or e == f:
                continue
            seen.add(pair_key)
            asym_pairs.append((e, f))
    asym_edges = {e.key for pair in asym_pairs for e in pair}
    for e, f in sorted(asym_pairs):
        out.append(Conflict(
            kind=KIND_TOPOLOGICAL,
            subkind=SUB_ASYMMETRY,
            nodes=tuple(sorted({e.src, e.dst})),
            edges=(e, f),
            witness=(e.direction, f.direction,
                     reverse_direction(e.direction)),
        ))
    for a, b, pos in _reference_position_overlaps(pm):
        out.append(Conflict(
            kind=KIND_TOPOLOGICAL,
            subkind=SUB_OVERLAP,
            nodes=(a, b),
            edges=(),
            witness=(pos,),
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
        ))
    return out


def reference_detect_all(g: NavGraph,
                         commit: Optional[int] = None) -> list[Conflict]:
    """All conflicts: directional, then topological, then naming."""
    pm = reference_infer_positions(g)
    conflicts = (_reference_detect_directional(g)
                 + _reference_detect_topological(g, pm)
                 + _reference_detect_naming(g, pm))
    if commit is not None:
        conflicts = [Conflict(c.kind, c.subkind, c.nodes, c.edges, c.witness,
                              first_visible_commit=commit) for c in conflicts]
    return conflicts


# ---------------------------------------------------------------------------
# localization as first written: one heap search per target, one
# `reachable_from` per candidate, one membership scan per (candidate, path)


def reference_shortest_path(g: NavGraph, start: str, target: str
                            ) -> tuple[tuple[str, ...], tuple[Edge, ...]]:
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


def reference_minimal_path_pair(g: NavGraph, conflict: Conflict) -> PathPair:
    if g.origin is None:
        raise Unreachable("graph has no origin")
    t1, t2 = conflict_targets(conflict)
    nodes1, edges1 = reference_shortest_path(g, g.origin, t1)
    nodes2, edges2 = reference_shortest_path(g, g.origin, t2)
    if conflict.subkind == SUB_INCONSISTENCY:
        # close the witness cycle through the re-deriving edge
        nodes2 = nodes2 + (conflict.edges[0].dst,)
        edges2 = edges2 + (conflict.edges[0],)
    idx = reference_lowest_common_ancestor(nodes1, nodes2)
    return PathPair(nodes1, nodes2, edges1, edges2,
                    lca=nodes1[idx], lca_index=idx)


def reference_lowest_common_ancestor(nodes1: Sequence[str],
                                     nodes2: Sequence[str]) -> int:
    """Index of the LCA as first written: the deepest shared prefix node
    whose suffixes are node-disjoint, backing off while they re-intersect,
    and the plain divergence point when no cut yields disjoint suffixes."""
    common = 0
    for a, b in zip(nodes1, nodes2):
        if a != b:
            break
        common += 1
    for cut in range(common, 0, -1):
        if not set(nodes1[cut:]) & set(nodes2[cut:]):
            return cut - 1
    return common - 1


def reference_suffix_nodes(pp: PathPair) -> tuple[str, ...]:
    """Nodes strictly after the LCA, path 1 first, deduplicated."""
    seen = []
    for n in pp.nodes1[pp.lca_index + 1:] + pp.nodes2[pp.lca_index + 1:]:
        if n not in seen:
            seen.append(n)
    return tuple(seen)


def _corroborated(g: NavGraph, e: Edge) -> bool:
    return any(f.direction == reverse_direction(e.direction)
               for f in g.edges_between(e.dst, e.src))


def reference_candidate_edges(g: NavGraph, pp: PathPair,
                              include_silent: bool = False) -> list[Edge]:
    cands: list[Edge] = []
    on_suffix = set()
    for e in pp.suffix_edges1 + pp.suffix_edges2:
        on_suffix.add(e)
        if e not in cands and not _corroborated(g, e):
            cands.append(e)
    if include_silent:
        for node in reference_suffix_nodes(pp):
            for e in sorted(g.out_edges(node), key=lambda e: e.step_id):
                if e not in on_suffix and e not in cands \
                        and not _corroborated(g, e):
                    cands.append(e)
    return cands


def reference_score_candidates(g: NavGraph, conflicts: Iterable[Conflict],
                               cands: Sequence[Edge]) -> list[CandidateEdge]:
    if not cands:
        raise EmptyCandidates("no candidate edges to score")
    suffix_paths: list[tuple[Edge, ...]] = []
    membership: list[set[Edge]] = []
    for c in conflicts:
        edges = set(c.edges)
        try:
            pp = reference_minimal_path_pair(g, c)
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


# ---------------------------------------------------------------------------
# the heuristic's trial relabel as first written: every other label in
# DIRECTIONS order, each with a whole-graph detection, no early stop


def reference_unique_resolving_direction(g: NavGraph, e: Edge, conflict_key,
                                         before: set) -> Optional[str]:
    """Trial-relabel `e` in place; the graph is restored after each."""
    fixes = []
    for d in DIRECTIONS:
        if d == e.direction:
            continue
        g.remove_edge(e)
        try:
            trial = g.add_edge(e.src, e.dst, d, e.step_id)
            try:
                after = {x.key for x in detect_all(g)}
            finally:
                g.remove_edge(trial)
        finally:
            g.add_edge(e.src, e.dst, e.direction, e.step_id)
        if conflict_key not in after and after <= before:
            fixes.append(d)
    return fixes[0] if len(fixes) == 1 else None


# ---------------------------------------------------------------------------
# the heuristic's edge order as first written: every visible edge listed
# before the first trial, the neighborhood built whatever the answer


def reference_visible_edges(ctx) -> list[Edge]:
    """Ranked candidates when available, always unioned with the conflict
    neighborhood."""
    out = dict.fromkeys(c.edge for c in ctx.ranked_candidates or ())
    out.update(dict.fromkeys(sorted(ctx.neighborhood.edges())))
    return list(out)


def reference_heuristic_order(ctx) -> list[Edge]:
    """The edges the heuristic tries on a conflict that is not
    directional: the conflict's edges, then `reference_visible_edges`."""
    order = dict.fromkeys(ctx.conflict.edges)
    order.update(dict.fromkeys(reference_visible_edges(ctx)))
    return list(order)


# ---------------------------------------------------------------------------
# a checkpoint row read as first written: its ids and directions shared in
# place, then its state read as one commit of adds and applied to the empty
# graph by `_apply_commit`


_REFERENCE_DIRECTION = {d: d for d in DIRECTIONS}


def reference_share_strings(row: list) -> None:
    ids = {}
    for node in row[4]:
        node[0] = ids[node[0]] = sys.intern(node[0])
    for edge in row[5]:
        edge[1], edge[2], edge[3] = ids[edge[1]], ids[edge[2]], \
            _REFERENCE_DIRECTION[edge[3]]


def reference_checkpoint_state(row: list) -> Commit:
    """The state commit of a checkpoint row, checked as a commit's."""
    if len(row) != 6:
        raise ValueError(f"a checkpoint row has {len(row)} columns, not 6")
    _, version, lines, crc, nodes, edges = row
    for what, value in (("checkpoint version", version),
                        ("checkpoint line count", lines),
                        ("checkpoint crc32", crc)):
        if type(value) is not int:
            raise ValueError(f"{what} is not an int: {value!r}")
    return Commit.from_row([version, edges, TRIGGER_CHECKPOINT, version, "",
                            nodes, [], []])


def reference_checkpoint_graph(state: Commit) -> NavGraph:
    g = NavGraph()
    _apply_commit(g, state)
    return g


# ---------------------------------------------------------------------------
# log replay as first written: `json.loads` on every line, any delta op
# accepted (an op other than "+" removes), and a commit that does not apply
# raised as it is.  The bodies are verbatim but for their names (the undo
# of a rejected commit is inline in `reference_apply_commit`), for the
# origin (they edit a `NavGraph`, which refuses a drop of the origin while
# other rooms remain, so the undo needs no origin restore) and for the
# line format: a line is read as a row, by position, unchecked
# (`reference_commit_from_row`).
# `load` and `reference_apply_commit` take what they call as parameters,
# so a test can model a fix in one of them.


def _reference_steps(c: Commit) -> list[tuple]:
    return ([("+", nid, name) for nid, name in c.new_nodes]
            + [(d.op, d.edge) for d in c.deltas]
            + [("~", nid, old, new) for nid, old, new in c.renames]
            + [("-", nid, name) for nid, name in c.drops])


def _reference_run(g: NavGraph, step: tuple, forward: bool) -> None:
    sign, target, *names = step
    if sign == "~":
        g.rename_node(target, names[1] if forward else names[0])
    elif (sign == "+") == forward:
        if isinstance(target, Edge):
            g.add_edge(target.src, target.dst, target.direction,
                       target.step_id)
        else:
            g.add_node(names[0], node_id=target)
    elif not isinstance(target, Edge):
        g.remove_node(target)
    elif not g.has_edge(target):
        raise InvalidDelta(f"remove of absent edge: {target}")
    else:
        g.remove_edge(target)


def reference_apply_commit(g: NavGraph, c: Commit, *,
                           run=_reference_run) -> None:
    for done, step in enumerate(_reference_steps(c)):
        try:
            run(g, step, forward=True)
        except BaseException:
            for undo in reversed(_reference_steps(c)[:done]):
                _reference_run(g, undo, forward=False)
            raise


def reference_commit_from_row(row: list) -> Commit:
    index, deltas, trigger, obs_id, analysis, nodes, renames, drops = row
    return Commit(
        index=index,
        deltas=tuple(EdgeDelta(op, Edge(src, dst, direction, step))
                     for op, src, dst, direction, step in deltas),
        trigger=trigger,
        obs_id=obs_id,
        analysis=analysis,
        new_nodes=tuple((nid, name) for nid, name in nodes),
        renames=tuple((nid, old, new) for nid, old, new in renames),
        drops=tuple((nid, name) for nid, name in drops),
    )


def reference_load(log_path: str | Path, append: bool = False,
                   fsync: bool = False, *,
                   from_row=reference_commit_from_row,
                   apply=reference_apply_commit) -> VersionChain:
    chain = VersionChain(fsync=fsync)
    good_end, kept = 0, b"\n"  # end of the last line kept, and that line
    with open(log_path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.strip():
                try:
                    c = from_row(json.loads(raw))
                except (ValueError, KeyError, TypeError,
                        RecursionError) as exc:
                    if raw.endswith(b"\n"):
                        raise CorruptLog(
                            f"{log_path}:{lineno}: {exc}") from exc
                    warnings.warn(f"{log_path}:{lineno}: dropped a torn "
                                  f"final line ({len(raw)} bytes)")
                    break
                if c.index != len(chain.commits):
                    raise CorruptLog(
                        f"{log_path}:{lineno}: commit {c.index} where "
                        f"{len(chain.commits)} was expected")
                apply(chain.graph, c)
                chain.commits.append(c)
            good_end, kept = good_end + len(raw), raw
    if append:
        with open(log_path, "r+b") as fh:
            fh.truncate(good_end)
            if not kept.endswith(b"\n"):
                fh.seek(good_end)
                good_end += fh.write(b"\n")
        chain.log_path = Path(log_path)
        chain._log = open(chain.log_path, "ab", buffering=0)
        chain._log_end = good_end
    return chain


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def reference_run_session(chain: VersionChain, config: ToolConfig,
                          advisor: Advisor, primary: Conflict,
                          detection: Detection, max_attempts: int = 10,
                          loop_cap: int = 200
                          ) -> tuple[SimpleNamespace, Detection]:
    """`run_session` as it was before its turn rule: a loop counter, an
    abandoned set, and separate branches for GiveUp, a disabled version
    tool, queries and mutating proposals.  It calls the live
    `build_context` and `apply_action`, and detects the whole map again
    after each applied commit; only the record it returns, with the
    counted loops, is a namespace instead of a `RepairSession`, and its
    contexts are handed a `Loop` for each entry its transcript holds."""
    conflicts = detection.conflicts
    baseline_keys = {c.key for c in conflicts}
    current = {c.key: c for c in conflicts}
    transcript: list[dict] = []
    handed: list[Loop] = []  # the `Loop` of each entry, for the contexts
    spent: Counter = Counter()  # attempts per conflict key
    loops = consecutive_failures = 0
    secondary_seen: dict = {}
    abandoned: set = set()
    asked: set = set()  # (query, chain head) of every query run so far
    outcome = OUTCOME_EXHAUSTED

    def record(entry: dict, action: Optional[RepairAction]) -> None:
        transcript.append(entry)
        ending = "error" if "error" in entry else "result"
        handed.append(Loop(tuple(entry["target"]), action, ending,
                           entry[ending]))

    while True:
        if primary.key in current:
            target, is_primary = current[primary.key], True
        else:
            fresh = [c for k, c in current.items()
                     if k not in baseline_keys and k not in abandoned]
            for c in fresh:
                secondary_seen.setdefault(c.key, c)
            if not fresh:
                outcome = OUTCOME_REPAIRED
                break
            target, is_primary = fresh[0], False
        if spent[target.key] >= max_attempts:
            if is_primary:
                break
            abandoned.add(target.key)
            continue
        if loops >= loop_cap:
            break

        ctx = build_context(chain, config, target, handed,
                            list(current.values()))
        loops += 1
        entry: dict = {"target": list(target.key)}
        action = None
        try:
            action = advisor(ctx)
        except AdvisorFailure as exc:
            failure = str(exc)
        else:
            entry["action"] = action.to_json()
            failure = None
            if action.kind in QUERY_ACTIONS:
                # the chain has not changed since, so neither has the answer
                query = (json.dumps(entry["action"]), chain.head)
                if query in asked:
                    failure = "query already answered at this chain head"
                asked.add(query)
        if failure is not None:
            consecutive_failures += 1
            entry["error"] = f"advisor failure: {failure}"
            record(entry, action)
            if consecutive_failures >= 3:
                break
            continue
        consecutive_failures = 0

        if action.kind == ACT_GIVE_UP:
            if is_primary:
                spent[target.key] += 1
            else:
                abandoned.add(target.key)
            entry["result"] = "gave up"
            record(entry, action)
            continue

        if action.kind in VERSION_ACTIONS and not config.version_control:
            entry["error"] = "ToolUnavailable: version control is disabled"
            record(entry, action)
            continue

        if action.kind in QUERY_ACTIONS:
            try:
                entry["result"] = apply_action(chain, action)
            except (IllegalAction, UnknownVersion) as exc:
                entry["error"] = _describe(exc)
            record(entry, action)
            continue

        # mutating proposal: spends an attempt whether or not it applies
        spent[target.key] += 1
        try:
            apply_action(chain, action)
            entry["result"] = "applied"
        except (IllegalAction, InvalidDelta, UnknownNode, UnknownVersion,
                DuplicateEdge) as exc:
            entry["error"] = _describe(exc)
        else:
            detection = detect(chain.graph, commit=chain.head)
            current = {c.key: c for c in detection.conflicts}
        record(entry, action)

    return SimpleNamespace(primary=primary, outcome=outcome,
                           attempts=spent[primary.key], loop_count=loops,
                           transcript=transcript,
                           secondary=tuple(secondary_seen.values())), detection


# ---------------------------------------------------------------------------
# fault drawing as first written: every option listed, the whole list
# shuffled, and every trial fault's world parsed and built whole.  The body
# is verbatim but for the names.


def _reference_fault_options(corrupted: World, kind: str) -> list[tuple]:
    sources = _walk_sources(corrupted)
    move_steps = [i for i in range(1, len(corrupted.steps))
                  if corrupted.steps[i][0] in COMPASS]
    options = []
    if kind in (FAULT_MISDIRECTION, FAULT_SILENT):
        for step in move_steps:
            true_dir = corrupted.steps[step][0]
            used = {corrupted.steps[i][0] for i in range(1, len(corrupted.steps))
                    if sources[i] == sources[step]}
            options.extend((step, true_dir, d) for d in sorted(COMPASS - used))
    elif kind == FAULT_MISNAME:
        visited: list[str] = [corrupted.steps[0][1].splitlines()[0]]
        for step in move_steps:
            name = corrupted.steps[step][1].splitlines()[0]
            if name not in visited:
                options.extend((step, None, None, name, other)
                               for other in visited if other != sources[step])
            visited.append(name)
    elif kind == FAULT_PHANTOM:
        final_src = corrupted.steps[-1][1].splitlines()[0]
        used = {corrupted.steps[i][0] for i in range(1, len(corrupted.steps))
                if sources[i] == final_src}
        names = sorted({obs.splitlines()[0]
                        for _, obs in corrupted.steps}) + [final_src]
        options.extend((len(corrupted.steps), None, d, None, n)
                       for d in sorted(COMPASS - used)
                       for n in names if n != final_src)
    else:
        raise ValueError(kind)
    return options


def reference_draw_fault(corrupted: World, kind: str,
                         rng: random.Random) -> tuple[Fault, World]:
    options = _reference_fault_options(corrupted, kind)
    rng.shuffle(options)
    for fields in options:
        fault = Fault(kind, *fields)
        trial = _apply_fault(corrupted, fault)
        if bool(detect_all(trial.build().graph)) != (kind == FAULT_SILENT):
            return fault, trial
    raise ValueError(f"no viable {kind} fault for this world")


def reference_inject(world: World, kinds: Sequence[str], seed: int = 0,
                     explicit: Sequence[Fault] = ()
                     ) -> tuple[World, FaultLedger]:
    rng = random.Random(seed)
    ledger = FaultLedger()
    corrupted = world
    for fault in explicit:
        corrupted = _apply_fault(corrupted, fault)
        ledger.faults.append(fault)
    for kind in kinds:
        fault, corrupted = reference_draw_fault(corrupted, kind, rng)
        ledger.faults.append(fault)
    return corrupted, ledger
