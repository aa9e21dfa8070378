"""Bounded advisor-in-the-loop repair.

The engine picks the first open conflict as the session's primary, hands
the advisor a context (conflict, local neighborhood, the conflicts open
at the chain head, and, when enabled, ranked candidates and a
version-chain handle), and applies the proposed actions as repair
commits.  A session ends when the primary conflict plus any
conflicts newly exposed by its fixes are gone, or when the attempt budget
runs out.

A context's neighborhood and candidates are computed when the advisor
first reads them, so a loop iteration pays only for what its advisor
reads; they stay valid until the chain head moves.

Detection runs here and nowhere else in the loop.  `run_repair` detects
the whole map once, when it starts, as a `Detection`; after each applied
commit, the only event that changes the map, the session advances that
detection by the commit's edge deltas (`Detection.advance`) instead of
detecting the map again.  Each session starts from the detection its
predecessor ended on, and every context carries it as `ctx.detection`
and its conflicts as `ctx.conflicts`.

Budget rules: each loop adds one `Loop`.  A mutating proposal
consumes an attempt whether or not it applies; a version query consumes
no attempt.  Conflicts first exposed mid-session get their own budget.
GiveUp costs the primary one attempt and a secondary its whole budget.
An advisor failure, a version tool while version control is off and a
query already run at the same chain head are unusable turns: they cost no
attempt, and three in a row end the session.  No malformed action can be
made (`RepairAction` refuses it), so an llm reply that is one fails its
turn; any other exception than AdvisorFailure from an advisor ends the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

# perfbench wraps `detect_all` by the name this module binds
from .conflict_detector import Conflict, Detection, detect, detect_all
from .error_localizer import (
    CandidateEdge, PathPair, PathTree, candidate_edges, minimal_path_pair,
    score_candidates, shortest_path_tree,
)
from .errors import (
    AdvisorFailure, IllegalAction, MapRepairError, StaleContext, Unreachable,
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

LOOP_CAP = 200  # loops a session may make, whatever its budgets

MUTATING_ACTIONS = frozenset({
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_MERGE_NODES,
    ACT_RENAME_NODE, ACT_REDIRECT_EDGE, ACT_ROLLBACK_TO,
})
QUERY_ACTIONS = frozenset({ACT_RECALL_STEP, ACT_DIFF_VERSIONS})
VERSION_ACTIONS = frozenset({ACT_ROLLBACK_TO, ACT_RECALL_STEP,
                             ACT_DIFF_VERSIONS})
#: Every action kind and the fields it requires, in the order the llm
#: advisor's prompt lists them.
ACTION_FIELDS = {
    ACT_CHANGE_DIRECTION: ("edge", "new_direction"),
    ACT_DELETE_EDGE: ("edge",),
    ACT_REDIRECT_EDGE: ("edge", "new_dst"),
    ACT_RENAME_NODE: ("node", "new_name"),
    ACT_MERGE_NODES: ("node", "new_dst"),
    ACT_GIVE_UP: (),
    ACT_ROLLBACK_TO: ("version",),
    ACT_RECALL_STEP: ("version",),
    ACT_DIFF_VERSIONS: ("i", "j"),
}
ALL_ACTIONS = frozenset(ACTION_FIELDS)


@dataclass(frozen=True)
class ToolConfig:
    edge_impact: bool = True
    version_control: bool = True


@dataclass(frozen=True, slots=True)
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
        edge = Edge.from_json(d["edge"]) if "edge" in d else None
        return cls(kind=d.get("action"), edge=edge,
                   new_direction=d.get("new_dir"), new_dst=d.get("new_dst"),
                   node=d.get("node"), new_name=d.get("new_name"),
                   version=d.get("version"), i=d.get("i"), j=d.get("j"))

    def __post_init__(self) -> None:
        """Refuse, with IllegalAction, a kind that is not the str of an
        action (`unknown action`), a missing field the kind needs and a
        field of the wrong type (a bool is no int, a tuple no `Edge`)."""
        if type(self.kind) is not str or self.kind not in ALL_ACTIONS:
            raise IllegalAction(f"unknown action: {self.kind!r}")
        for name in ACTION_FIELDS[self.kind]:
            if getattr(self, name) is None:
                raise IllegalAction(f"{self.kind} requires {name}")
        e = self.edge
        if e is not None and not (isinstance(e, Edge)
                                  and type(e.src) is type(e.dst) is str
                                  and is_direction(e.direction)
                                  and type(e.step_id) is int):
            raise IllegalAction(f"not an edge: {e!r}")
        if self.new_direction is not None \
                and not is_direction(self.new_direction):
            raise IllegalAction(f"not a direction: {self.new_direction!r}")
        for name, cls, noun in (
                ("new_dst", str, "a str"), ("node", str, "a str"),
                ("new_name", str, "a str"), ("version", int, "an int"),
                ("i", int, "an int"), ("j", int, "an int")):
            value = getattr(self, name)
            if value is not None and type(value) is not cls:
                raise IllegalAction(f"{name} not {noun}: {value!r}")


_UNREAD = object()  # a context part not computed yet


class AdvisorContext:
    """What an advisor sees of one conflict at one chain head.

    `conflict`, `graph`, `chain` (None when version control is disabled),
    `loops` (the session's `Loop`s so far, the list the session appends
    to) and `conflicts` (detected at the chain head, one per key) are
    plain attributes.  `detection`, `neighborhood`, `candidates` and
    `ranked_candidates` are computed on first read, unless given, and
    cached.  They describe the map at the head the context was built at,
    and reading one after the head has moved raises StaleContext."""

    def __init__(self, chain: VersionChain, config: ToolConfig,
                 conflict: Conflict, loops: list[Loop],
                 conflicts: list[Conflict],
                 detection: Optional[Detection] = None):
        self.conflict = conflict
        self.graph = chain.graph
        self.chain = chain if config.version_control else None
        self.loops = loops
        self.conflicts = conflicts
        self._source, self._head = chain, chain.head
        self._edge_impact = config.edge_impact
        self._detection = detection
        self._neighborhood: Optional[NavGraph] = None
        self._found = _UNREAD  # `_suspects` of the conflict
        self._ranked = _UNREAD

    def _check_head(self) -> None:
        if self._source.head != self._head:
            raise StaleContext(f"context built at v{self._head}, "
                               f"chain head is v{self._source.head}")

    @property
    def detection(self) -> Detection:
        """The `Detection` of the map at the context's head."""
        self._check_head()
        if self._detection is None:
            self._detection = detect(self.graph, self._head)
        return self._detection

    @property
    def neighborhood(self) -> NavGraph:
        """The rooms within two undirected hops of the conflict's rooms
        and edge ends, with the edges among them."""
        self._check_head()
        if self._neighborhood is None:
            c = self.conflict
            seeds = set(c.nodes)
            for e in c.edges:
                seeds.update((e.src, e.dst))
            self._neighborhood = self.graph.neighborhood(seeds, radius=2)
        return self._neighborhood

    @property
    def candidates(self) -> Optional[list[Edge]]:
        """The edges `ranked_candidates` ranks, in localization order and
        unscored; None when edge impact is off, empty when there are
        none."""
        self._check_head()
        if not self._edge_impact:
            return None
        if self._found is _UNREAD:
            self._found = _suspects(self.graph, self.conflict)
        return [] if self._found is None else self._found[2]

    @property
    def ranked_candidates(self) -> Optional[list[CandidateEdge]]:
        """`localize(...)[1]` at the context's head: the candidates ranked
        against `conflicts`; None when edge impact is off or there are no
        candidates."""
        cands = self.candidates
        if self._ranked is _UNREAD:
            self._ranked = score_candidates(
                self.graph, self.conflicts, cands,
                self._found[0]) if cands else None
        return self._ranked


Advisor = Callable[[AdvisorContext], RepairAction]


class Loop(NamedTuple):
    """One loop of a session: the key of the conflict it targeted, the
    action the advisor proposed (None when it proposed none) and how the
    loop ended, `ending` "error" or "result" with its `value`."""
    target: tuple
    action: Optional[RepairAction]
    ending: str
    value: object

    def entry(self) -> dict:
        """The loop as a dict: `target` (the key as a list), `action`
        (its JSON) when one was proposed, then `error` or `result`."""
        d: dict = {"target": list(self.target)}
        if self.action is not None:
            d["action"] = self.action.to_json()
        d[self.ending] = self.value
        return d


@dataclass(slots=True)
class RepairSession:
    """A finished session.  It keeps each loop as a `Loop`, less than half
    the memory of the loop's dict (`Loop.entry`), and builds the dicts
    when `transcript` is read."""
    primary: Conflict
    outcome: str
    attempts: int
    secondary: tuple[Conflict, ...]
    loops: tuple[Loop, ...] = ()

    @property
    def transcript(self) -> list[dict]:
        """One dict per loop (`Loop.entry`), new on every read."""
        return [loop.entry() for loop in self.loops]

    @property
    def loop_count(self) -> int:
        return len(self.loops)


# ---------------------------------------------------------------------------
# action application


def apply_action(chain: VersionChain, action: RepairAction):
    """Apply a mutating action as one repair commit, or run a query.

    Mutating actions return the Commit; queries return their payload.  A
    repair commit observes nothing, so its `obs_id` is its own index.
    Every refusal is a MapRepairError: IllegalAction, UnknownVersion from
    a version tool, or one from `commit`.
    """
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
            if action.new_dst == e.dst:
                raise IllegalAction("destination is unchanged")
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
    return _state_commit(chain, chain.materialize(action.version),
                         f"rollback to v{action.version}")


def _merge_commit(chain: VersionChain, keep: str, drop: str):
    g = chain.graph
    if keep not in g.nodes or drop not in g.nodes:
        raise IllegalAction(f"unknown node in merge: {keep}, {drop}")
    if keep == drop:
        raise IllegalAction("cannot merge a node with itself")
    if drop == g.origin:
        raise IllegalAction(f"{drop} is the origin: merge {keep} into it")
    deltas = []
    adjacency = g.adjacency()
    incident = sorted(e for e in g.edges() if drop in (e.src, e.dst))
    replacement_edges = set()
    for e in incident:
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
    if not (deltas or new_nodes or renames or drops):
        raise IllegalAction("state is unchanged")
    return chain.commit(deltas, TRIGGER_REPAIR, obs_id=chain.head + 1,
                        analysis=analysis, new_nodes=new_nodes,
                        renames=renames, drops=drops)


# ---------------------------------------------------------------------------
# the repair loop


def _suspects(g: NavGraph, conflict: Conflict, include_silent: bool = False
              ) -> Optional[tuple[PathTree, PathPair, list[Edge]]]:
    """Localization's first step: the origin tree, the conflict's path
    pair and its candidate edges, unranked.  The candidates are the path
    pair's suffix edges, and the suffix rooms' exits as well when
    `include_silent` is set or no suffix edge is a candidate.  None when
    the origin cannot reach the conflict."""
    if g.origin is None:
        return None
    # one origin tree holds every conflict's path pair at this head
    tree = shortest_path_tree(g, g.origin)
    try:
        pp = minimal_path_pair(g, conflict, tree)
    except Unreachable:
        return None
    cands = candidate_edges(g, pp, include_silent=include_silent) \
        or candidate_edges(g, pp, include_silent=True)
    return tree, pp, cands


def localize(g: NavGraph, conflict: Conflict, conflicts: list[Conflict],
             include_silent: bool = False
             ) -> tuple[Optional[PathPair], Optional[list[CandidateEdge]]]:
    """The conflict's path pair and its candidate edges ranked against the
    open `conflicts` (see `_suspects`).  Both are None when the origin
    cannot reach the conflict; the ranking is None when no edge is a
    candidate."""
    found = _suspects(g, conflict, include_silent)
    if found is None:
        return None, None
    tree, pp, cands = found
    return pp, score_candidates(g, conflicts, cands, tree) if cands else None


def build_context(chain: VersionChain, config: ToolConfig, conflict: Conflict,
                  loops: list[Loop], conflicts: list[Conflict],
                  detection: Optional[Detection] = None) -> AdvisorContext:
    """The context of `conflict` at the chain head; it computes nothing
    until the advisor reads a part."""
    return AdvisorContext(chain, config, conflict, loops, conflicts,
                          detection)


def run_session(chain: VersionChain, config: ToolConfig, advisor: Advisor,
                primary: Conflict, detection: Detection,
                max_attempts: int = 10
                ) -> tuple[RepairSession, Detection]:
    """Repair `primary`, given the `detection` of the map at the chain
    head.  Returns the session and the detection at the head it ends on."""
    baseline_keys = {c.key for c in detection.conflicts}
    current = {c.key: c for c in detection.conflicts}
    # one tuple per target, kept by each of its loops: the primary's key,
    # and a secondary's key as `current` holds it
    primary_key = primary.key
    loops: list[Loop] = []  # the contexts' live list
    spent: Counter = Counter()  # attempts per conflict key
    failures = 0  # unusable turns in a row
    secondary_seen: dict = {}
    asked: set = set()  # (query, chain head) of every query run so far
    outcome = OUTCOME_EXHAUSTED

    while True:
        if primary_key in current:
            key, target = primary_key, current[primary_key]
        else:
            fresh = [(k, c) for k, c in current.items()
                     if k not in baseline_keys]
            for k, c in fresh:
                secondary_seen.setdefault(k, c)
            key, target = next(((k, c) for k, c in fresh
                                if spent[k] < max_attempts), (None, None))
            if target is None:
                outcome = OUTCOME_REPAIRED
                break
        if spent[key] >= max_attempts or len(loops) >= LOOP_CAP:
            break

        ctx = build_context(chain, config, target, loops,
                            list(current.values()), detection)
        action = None
        try:
            action = advisor(ctx)
            if action.kind in VERSION_ACTIONS and not config.version_control:
                raise AdvisorFailure(
                    "ToolUnavailable: version control is disabled")
            if action.kind in QUERY_ACTIONS:
                # the chain has not changed since, so neither has the answer
                query = (action, chain.head)
                if query in asked:
                    raise AdvisorFailure(
                        "query already answered at this chain head")
                asked.add(query)
        except AdvisorFailure as exc:
            loops.append(Loop(key, action, "error",
                              f"advisor failure: {exc}"))
            failures += 1
            if failures >= 3:
                break
            continue
        failures = 0

        if action.kind == ACT_GIVE_UP:
            # a secondary given up on is charged its whole budget
            spent[key] += 1 if key == primary_key else max_attempts
            loops.append(Loop(key, action, "result", "gave up"))
            continue
        if action.kind in MUTATING_ACTIONS:
            spent[key] += 1  # whether or not it applies
        try:
            result = apply_action(chain, action)
        except MapRepairError as exc:
            loops.append(Loop(key, action, "error",
                              f"{type(exc).__name__}: {exc}"))
            continue
        if action.kind in QUERY_ACTIONS:
            loops.append(Loop(key, action, "result", result))
        else:
            loops.append(Loop(key, action, "result", "applied"))
            detection = detection.advance(chain.graph, result.deltas,
                                          commit=chain.head)
            current = {c.key: c for c in detection.conflicts}

    return RepairSession(primary=primary, outcome=outcome,
                         attempts=spent[primary_key], loops=tuple(loops),
                         secondary=tuple(secondary_seen.values())), detection


def run_repair(chain: VersionChain, config: ToolConfig, advisor: Advisor,
               max_attempts: int = 10, ledger=None
               ) -> tuple[NavGraph, list[RepairSession], Metrics]:
    sessions: list[RepairSession] = []
    unresolved: set = set()
    detection = detect(chain.graph, commit=chain.head)
    while True:
        open_conflicts = [c for c in detection.conflicts
                          if c.key not in unresolved]
        if not open_conflicts:
            break
        primary = open_conflicts[0]
        session, detection = run_session(chain, config, advisor, primary,
                                         detection, max_attempts=max_attempts)
        sessions.append(session)
        if session.outcome != OUTCOME_REPAIRED:
            unresolved.add(primary.key)
    metrics = compute_metrics(sessions, ledger=ledger, graph=chain.graph)
    return chain.graph, sessions, metrics
