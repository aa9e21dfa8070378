"""Bounded advisor-in-the-loop repair.

The engine picks the first open conflict as the session's primary, hands
the advisor a context (conflict, local neighborhood, the conflicts open
at the chain head, and, when enabled, ranked candidates plus the witness
path pair and a version-chain handle), and applies the proposed actions
as repair commits.  A session ends when the primary conflict plus any
conflicts newly exposed by its fixes are gone, or when the attempt budget
runs out.

Detection runs here and nowhere else in the loop: once when `run_repair`
starts and once after each applied commit, the only event that changes
the map.  Each session starts from the conflicts its predecessor ended
on, and every context carries them as `ctx.conflicts`.

Budget rules: mutating proposals and GiveUp consume an attempt; read-only
version queries consume a loop but no attempt; conflicts first exposed
mid-session get their own budget and cost the primary nothing; three
consecutive advisor failures abort the session.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .conflict_detector import Conflict, detect_all
from .error_localizer import (
    CandidateEdge, PathPair, candidate_edges, minimal_path_pair,
    score_candidates, shortest_path_tree,
)
from .errors import (
    AdvisorFailure, DuplicateEdge, IllegalAction, InvalidDelta,
    ToolUnavailable, UnknownNode, UnknownVersion, Unreachable,
)
from .graph_core import Edge, NavGraph, is_direction
from .metrics_bench import (
    Metrics, OUTCOME_EXHAUSTED, OUTCOME_REPAIRED, compute_metrics,
)
from .version_store import TRIGGER_REPAIR, VersionChain, add, remove

ACT_CHANGE_DIRECTION = "ChangeDirection"
ACT_DELETE_EDGE = "DeleteEdge"
ACT_MERGE_NODES = "MergeNodes"
ACT_RENAME_NODE = "RenameNode"
ACT_REDIRECT_EDGE = "RedirectEdge"
ACT_ROLLBACK_TO = "RollbackTo"
ACT_RECALL_STEP = "RecallStep"
ACT_DIFF_VERSIONS = "DiffVersions"
ACT_GIVE_UP = "GiveUp"

MUTATING_ACTIONS = frozenset({
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_MERGE_NODES,
    ACT_RENAME_NODE, ACT_REDIRECT_EDGE, ACT_ROLLBACK_TO,
})
QUERY_ACTIONS = frozenset({ACT_RECALL_STEP, ACT_DIFF_VERSIONS})
VERSION_ACTIONS = frozenset({ACT_ROLLBACK_TO, ACT_RECALL_STEP,
                             ACT_DIFF_VERSIONS})
ALL_ACTIONS = MUTATING_ACTIONS | QUERY_ACTIONS | {ACT_GIVE_UP}


@dataclass(frozen=True)
class ToolConfig:
    edge_impact: bool = True
    version_control: bool = True


@dataclass(frozen=True)
class RepairAction:
    kind: str
    edge: Optional[Edge] = None
    new_direction: Optional[str] = None
    new_dst: Optional[str] = None   # redirect target; merge survivor
    node: Optional[str] = None      # rename target; merge casualty
    new_name: Optional[str] = None
    version: Optional[int] = None
    i: Optional[int] = None
    j: Optional[int] = None

    def to_json(self) -> dict:
        d: dict = {"action": self.kind}
        if self.edge is not None:
            d["edge"] = self.edge.to_json()
        for key in ("new_dst", "node", "new_name", "version", "i", "j"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.new_direction is not None:
            d["new_dir"] = self.new_direction
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RepairAction":
        kind = d.get("action")
        if kind not in ALL_ACTIONS:
            raise IllegalAction(f"unknown action: {kind!r}")
        edge = Edge.from_json(d["edge"]) if "edge" in d else None
        action = cls(kind=kind, edge=edge, new_direction=d.get("new_dir"),
                     new_dst=d.get("new_dst"), node=d.get("node"),
                     new_name=d.get("new_name"), version=d.get("version"),
                     i=d.get("i"), j=d.get("j"))
        action.validate_shape()
        return action

    def validate_shape(self) -> None:
        need = {
            ACT_CHANGE_DIRECTION: ("edge", "new_direction"),
            ACT_DELETE_EDGE: ("edge",),
            ACT_REDIRECT_EDGE: ("edge", "new_dst"),
            ACT_RENAME_NODE: ("node", "new_name"),
            ACT_MERGE_NODES: ("node", "new_dst"),
            ACT_ROLLBACK_TO: ("version",),
            ACT_RECALL_STEP: ("version",),
            ACT_DIFF_VERSIONS: ("i", "j"),
            ACT_GIVE_UP: (),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise IllegalAction(f"{self.kind} requires {name}")
        if self.kind == ACT_CHANGE_DIRECTION \
                and not is_direction(self.new_direction):
            raise IllegalAction(f"not a direction: {self.new_direction!r}")


@dataclass
class AdvisorContext:
    conflict: Conflict
    graph: NavGraph
    neighborhood: NavGraph
    ranked_candidates: Optional[list[CandidateEdge]]
    path_pair: Optional[PathPair]
    chain: Optional[VersionChain]  # None when version control is disabled
    transcript: list[dict]
    conflicts: list[Conflict]  # detected at the chain head, one per key


Advisor = Callable[[AdvisorContext], RepairAction]


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class RepairSession:
    primary: Conflict
    outcome: str
    attempts: int
    loop_count: int
    secondary: tuple[Conflict, ...]
    transcript: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# action application


def apply_action(chain: VersionChain, action: RepairAction):
    """Apply a mutating action as one repair commit, or run a query.

    Mutating actions return the Commit; queries return their payload.  A
    repair commit observes nothing, so its `obs_id` is its own index.
    Raises IllegalAction when the action does not fit the current graph.
    """
    action.validate_shape()
    g = chain.graph
    kind = action.kind
    if kind in QUERY_ACTIONS:
        if kind == ACT_RECALL_STEP:
            return chain.recall_step(action.version).to_json()
        d = chain.diff(action.i, action.j)
        return {"added": [e.to_json() for e in sorted(d["added"])],
                "removed": [e.to_json() for e in sorted(d["removed"])]}
    if kind == ACT_GIVE_UP:
        return None

    if kind in (ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_REDIRECT_EDGE):
        e = action.edge
        if not g.has_edge(e):
            raise IllegalAction(f"edge not in graph: {e}")
        deltas = [remove(e)]
        if kind == ACT_CHANGE_DIRECTION:
            if action.new_direction == e.direction:
                raise IllegalAction("direction is unchanged")
            deltas.append(add(Edge(e.src, e.dst, action.new_direction,
                                   e.step_id)))
        elif kind == ACT_REDIRECT_EDGE:
            if action.new_dst not in g.nodes:
                raise IllegalAction(f"unknown node: {action.new_dst}")
            deltas.append(add(Edge(e.src, action.new_dst, e.direction,
                                   e.step_id)))
        return chain.commit(deltas, TRIGGER_REPAIR, obs_id=chain.head + 1,
                            analysis=f"{kind} on {e.key}")

    if kind == ACT_RENAME_NODE:
        if action.node not in g.nodes:
            raise IllegalAction(f"unknown node: {action.node}")
        old = g.nodes[action.node]
        if old == action.new_name:
            raise IllegalAction("name is unchanged")
        return chain.commit([], TRIGGER_REPAIR, obs_id=chain.head + 1,
                            analysis=f"rename {action.node}",
                            renames=[(action.node, old, action.new_name)])

    if kind == ACT_MERGE_NODES:
        return _merge_commit(chain, action.new_dst, action.node)

    # RollbackTo: restore a past state as a new commit of inverse deltas
    target = _materialize_checked(chain, action.version)
    return _state_commit(chain, target, f"rollback to v{action.version}")


def _materialize_checked(chain: VersionChain, version: int) -> NavGraph:
    try:
        return chain.materialize(version)
    except UnknownVersion as exc:
        raise IllegalAction(str(exc)) from exc


def _merge_commit(chain: VersionChain, keep: str, drop: str):
    g = chain.graph
    if keep not in g.nodes or drop not in g.nodes:
        raise IllegalAction(f"unknown node in merge: {keep}, {drop}")
    if keep == drop:
        raise IllegalAction("cannot merge a node with itself")
    deltas = []
    adjacency = g.adjacency()
    incident = set(g.in_edges(drop))
    for by_step in adjacency.get(drop, {}).values():
        incident.update(by_step.values())
    replacement_edges = set()
    for e in sorted(incident):
        deltas.append(remove(e))
        src = keep if e.src == drop else e.src
        dst = keep if e.dst == drop else e.dst
        moved = Edge(src, dst, e.direction, e.step_id)
        # the edge that holds the moved key stays unless it enters `drop`
        holder = adjacency.get(src, {}).get(e.direction, {}).get(e.step_id)
        if holder is not None and holder.dst != drop \
                or moved in replacement_edges:
            continue  # the duplicate observation dissolves into the survivor
        replacement_edges.add(moved)
        deltas.append(add(moved))
    return chain.commit(deltas, TRIGGER_REPAIR, obs_id=chain.head + 1,
                        analysis=f"merge {drop} into {keep}",
                        drops=[(drop, g.nodes[drop])])


def _state_commit(chain: VersionChain, target: NavGraph, analysis: str):
    g = chain.graph
    removed = sorted(g.edge_set() - target.edge_set())
    added = sorted(target.edge_set() - g.edge_set())
    deltas = [remove(e) for e in removed] + [add(e) for e in added]
    new_nodes = sorted((nid, name) for nid, name in target.nodes.items()
                       if nid not in g.nodes)
    drops = sorted((nid, name) for nid, name in g.nodes.items()
                   if nid not in target.nodes)
    renames = sorted((nid, g.nodes[nid], target.nodes[nid])
                     for nid in g.nodes
                     if nid in target.nodes and g.nodes[nid] != target.nodes[nid])
    return chain.commit(deltas, TRIGGER_REPAIR, obs_id=chain.head + 1,
                        analysis=analysis, new_nodes=new_nodes,
                        renames=renames, drops=drops)


# ---------------------------------------------------------------------------
# the repair loop


def localize(g: NavGraph, conflict: Conflict, conflicts: list[Conflict],
             include_silent: bool = False
             ) -> tuple[Optional[PathPair], Optional[list[CandidateEdge]]]:
    """The conflict's path pair and its candidate edges ranked against the
    open `conflicts`.  The candidates are the path pair's suffix edges, and
    the suffix rooms' exits as well when `include_silent` is set or no
    suffix edge is a candidate.  Both are None when the origin cannot
    reach the conflict; the ranking is None when no edge is a candidate."""
    if g.origin is None:
        return None, None
    # one origin tree holds every conflict's path pair at this head
    tree = shortest_path_tree(g, g.origin)
    try:
        pp = minimal_path_pair(g, conflict, tree)
    except Unreachable:
        return None, None
    cands = candidate_edges(g, pp, include_silent=include_silent) \
        or candidate_edges(g, pp, include_silent=True)
    return pp, score_candidates(g, conflicts, cands, tree) if cands else None


def build_context(chain: VersionChain, config: ToolConfig, conflict: Conflict,
                  transcript: list[dict],
                  conflicts: list[Conflict]) -> AdvisorContext:
    g = chain.graph
    seeds = set(conflict.nodes)
    for e in conflict.edges:
        seeds.update((e.src, e.dst))
    pp, ranked = localize(g, conflict, conflicts) \
        if config.edge_impact else (None, None)
    return AdvisorContext(
        conflict=conflict,
        graph=g,
        neighborhood=g.neighborhood(seeds, radius=2),
        ranked_candidates=ranked,
        path_pair=pp,
        chain=chain if config.version_control else None,
        transcript=transcript,
        conflicts=conflicts,
    )


def run_session(chain: VersionChain, config: ToolConfig, advisor: Advisor,
                primary: Conflict, conflicts: list[Conflict],
                max_attempts: int = 10, loop_cap: int = 200
                ) -> tuple[RepairSession, list[Conflict]]:
    """Repair `primary`, given the `conflicts` detected at the chain head.
    Returns the session and the conflicts at the head it ends on."""
    baseline_keys = {c.key for c in conflicts}
    current = {c.key: c for c in conflicts}
    transcript: list[dict] = []
    spent: Counter = Counter()  # attempts per conflict key
    loops = consecutive_failures = 0
    secondary_seen: dict = {}
    abandoned: set = set()
    outcome = OUTCOME_EXHAUSTED

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

        ctx = build_context(chain, config, target, transcript,
                            list(current.values()))
        loops += 1
        try:
            action = advisor(ctx)
        except AdvisorFailure as exc:
            consecutive_failures += 1
            transcript.append({"target": list(target.key),
                               "error": f"advisor failure: {exc}"})
            if consecutive_failures >= 3:
                break
            continue
        consecutive_failures = 0

        entry: dict = {"target": list(target.key),
                       "action": action.to_json()}
        if action.kind == ACT_GIVE_UP:
            if is_primary:
                spent[target.key] += 1
            else:
                abandoned.add(target.key)
            entry["result"] = "gave up"
            transcript.append(entry)
            continue

        if action.kind in VERSION_ACTIONS and not config.version_control:
            entry["error"] = _describe(
                ToolUnavailable("version control is disabled"))
            transcript.append(entry)
            continue

        if action.kind in QUERY_ACTIONS:
            try:
                entry["result"] = apply_action(chain, action)
            except (IllegalAction, UnknownVersion) as exc:
                entry["error"] = _describe(exc)
            transcript.append(entry)
            continue

        # mutating proposal: spends an attempt whether or not it applies
        spent[target.key] += 1
        try:
            apply_action(chain, action)
            entry["result"] = "applied"
        except (IllegalAction, InvalidDelta, UnknownNode,
                DuplicateEdge) as exc:
            entry["error"] = _describe(exc)
        else:
            conflicts = detect_all(chain.graph, commit=chain.head)
            current = {c.key: c for c in conflicts}
        transcript.append(entry)

    return RepairSession(primary=primary, outcome=outcome,
                         attempts=spent[primary.key], loop_count=loops,
                         transcript=transcript,
                         secondary=tuple(secondary_seen.values())), conflicts


def run_repair(chain: VersionChain, config: ToolConfig, advisor: Advisor,
               max_attempts: int = 10, ledger=None
               ) -> tuple[NavGraph, list[RepairSession], Metrics]:
    sessions: list[RepairSession] = []
    unresolved: set = set()
    conflicts = detect_all(chain.graph, commit=chain.head)
    while True:
        open_conflicts = [c for c in conflicts if c.key not in unresolved]
        if not open_conflicts:
            break
        primary = open_conflicts[0]
        session, conflicts = run_session(chain, config, advisor, primary,
                                         conflicts, max_attempts=max_attempts)
        sessions.append(session)
        if session.outcome != OUTCOME_REPAIRED:
            unresolved.add(primary.key)
    metrics = compute_metrics(sessions, ledger=ledger, graph=chain.graph)
    return chain.graph, sessions, metrics
