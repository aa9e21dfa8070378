"""Repair advisors: oracle, heuristic, remote LLM, and playback.

Every advisor is a callable AdvisorContext -> RepairAction, so the engine
treats them interchangeably and the actions of a session transcript can be
replayed against the same conflicts.

The heuristic tries the edges of `_visible_edges` in order: the conflict's
edges, then the ranked candidates, and only then the neighborhood's edges.
It returns at its first new proposal, so a session that settles on a
conflict edge or a candidate never builds the neighborhood.  The oracle
asks the neighborhood whether a fault's edge is visible, and the llm
advisor puts it in its prompt.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

# perfbench wraps `detect_all` by the name this module binds
from .conflict_detector import KIND_DIRECTIONAL, KIND_NAMING, SUB_OVERLAP, \
    Detection, detect_all
from .errors import AdvisorFailure
from .fault_injector import FAULT_MISDIRECTION, FAULT_MISNAME, \
    FAULT_PHANTOM, FAULT_SILENT, FaultLedger, corrupted_at, edges_by_step, \
    fixed_at
from .graph_core import COMPASS, DIRECTIONS, Edge, NavGraph, normalize_name
from .repair_engine import (
    ACT_CHANGE_DIRECTION, ACT_DELETE_EDGE, ACT_DIFF_VERSIONS, ACT_GIVE_UP,
    ACT_MERGE_NODES, ACT_RECALL_STEP, ACT_REDIRECT_EDGE, ACT_RENAME_NODE,
    ACT_ROLLBACK_TO, ACTION_FIELDS, VERSION_ACTIONS, AdvisorContext, Loop,
    RepairAction,
)
from .version_store import add, remove


def _visible_edges(ctx: AdvisorContext) -> Iterator[Edge]:
    """Edges the advisor may act on, each once: the conflict's edges, the
    ranked candidates when available, then the conflict neighborhood's
    edges in sorted order.  Each part is read only when the iteration
    reaches it, so a caller that stops early never builds the
    neighborhood."""
    seen: set[Edge] = set()
    yield from _unseen(ctx.conflict.edges, seen)
    yield from _unseen([c.edge for c in ctx.ranked_candidates or ()], seen)
    yield from _unseen(sorted(ctx.neighborhood.edges()), seen)


def _unseen(edges: Iterable[Edge], seen: set[Edge]) -> Iterator[Edge]:
    """The `edges` not in `seen`, each added to it as it is yielded."""
    for e in edges:
        if e not in seen:
            seen.add(e)
            yield e


def _visible(ctx: AdvisorContext, e: Edge) -> bool:
    """Is `e` among `_visible_edges(ctx)`?  It asks the neighborhood
    first and the unranked candidates only then, so it never ranks."""
    return ctx.neighborhood.has_edge(e) or e in (ctx.candidates or ())


def _proposed_before(ctx: AdvisorContext, action: RepairAction) -> bool:
    return any(loop.action == action for loop in ctx.loops)


class OracleAdvisor:
    """Answers from the fault ledger: whenever an unfixed fault's corrupted
    artifact is visible in the context, emit the exactly corrective action.
    Construction artifacts of correct observations (a revisited room parsed
    as a second node) are healed by merging the duplicates."""

    def __init__(self, ledger: FaultLedger):
        self.ledger = ledger

    def __call__(self, ctx: AdvisorContext) -> RepairAction:
        g = ctx.graph
        sites = edges_by_step(g)
        for fault in self.ledger.faults:
            site = sites.get(fault.step, ())
            if fixed_at(g, fault, site):
                continue
            bad = corrupted_at(fault, site)
            if bad is None or not _visible(ctx, bad):
                continue
            if fault.kind in (FAULT_MISDIRECTION, FAULT_SILENT):
                return RepairAction(ACT_CHANGE_DIRECTION, edge=bad,
                                    new_direction=fault.true_direction)
            if fault.kind == FAULT_PHANTOM:
                return RepairAction(ACT_DELETE_EDGE, edge=bad)
            if fault.kind == FAULT_MISNAME:
                return RepairAction(ACT_RENAME_NODE, node=bad.dst,
                                    new_name=fault.true_name)
        merge = _same_name_merge(ctx)
        if merge is not None:
            return merge
        return RepairAction(ACT_GIVE_UP)


def _same_name_merge(ctx: AdvisorContext) -> Optional[RepairAction]:
    c = ctx.conflict
    if c.kind != KIND_NAMING and c.subkind != SUB_OVERLAP:
        return None
    names = {normalize_name(ctx.graph.nodes[n]) for n in c.nodes}
    if len(names) != 1:
        return None
    keep, drop = sorted(c.nodes, key=lambda n: (len(n), n))[:2]
    return RepairAction(ACT_MERGE_NODES, new_dst=keep, node=drop)


class HeuristicAdvisor:
    """Deterministic, ledger-free strategy.

    Directional conflicts drop the later of the clashing edges, never an
    edge that repeats an earlier-step exit to the same room.  For the
    rest, each candidate edge is simulated under the alternative labels;
    if exactly one label resolves the conflict without introducing new
    ones, relabel, otherwise delete.  The non-compass labels are tried
    first and the search stops at a second fixing label: the answer does
    not depend on the trial order, and a second fix settles it.  Never
    repeats a proposal within a session; proposes GiveUp once out of
    ideas."""

    def __call__(self, ctx: AdvisorContext) -> RepairAction:
        c = ctx.conflict
        if c.kind == KIND_DIRECTIONAL:
            for e in sorted(c.edges, key=lambda e: -e.step_id):
                if any(f.dst == e.dst and f.step_id < e.step_id
                       for f in c.edges):
                    continue  # a repeat of an earlier exit to that room
                action = RepairAction(ACT_DELETE_EDGE, edge=e)
                if not _proposed_before(ctx, action):
                    return action
            return RepairAction(ACT_GIVE_UP)

        before = {x.key for x in ctx.conflicts}
        for e in _visible_edges(ctx):
            fix = _unique_resolving_direction(ctx.detection, ctx.graph, e,
                                              c.key, before)
            plans = []
            if fix is not None:
                plans.append(RepairAction(ACT_CHANGE_DIRECTION, edge=e,
                                          new_direction=fix))
            plans.append(RepairAction(ACT_DELETE_EDGE, edge=e))
            for action in plans:
                if not _proposed_before(ctx, action):
                    return action
        return RepairAction(ACT_GIVE_UP)


# Non-compass labels first: they take the edge out of position
# propagation, so they are the labels that most often fix a conflict, and
# two fixes end the search.
_TRIAL_ORDER = (tuple(d for d in DIRECTIONS if d not in COMPASS)
                + tuple(d for d in DIRECTIONS if d in COMPASS))


def _unique_resolving_direction(detection: Detection, g: NavGraph, e: Edge,
                                conflict_key, before: set) -> Optional[str]:
    """The one label that fixes `conflict_key` when `e` is relabelled to
    it, or None if no label or more than one does.  A fix clears the
    conflict and adds none to `before`; a label whose (src, direction,
    step) key another edge holds is no fix.  Each trial relabels `e` in
    place, advances `detection`, the detection of `g`, by the relabel's
    two deltas, and restores `e`, also when detection raises.  Any trial
    order gives the same answer, so the labels are tried in `_TRIAL_ORDER`
    and the search stops at the second fix, which settles the answer as
    None."""
    fix = None
    for d in _TRIAL_ORDER:
        # read afresh: the trial rebuilds the src level when e is its only exit
        if d == e.direction or e.step_id in g.adjacency()[e.src].get(d, ()):
            continue
        g.remove_edge(e)
        trial = g.add_edge(e.src, e.dst, d, e.step_id)
        try:
            after = {x.key for x in detection.advance(
                g, (remove(e), add(trial))).conflicts}
        finally:
            g.remove_edge(trial)
            g.insert_edge(e)
        if conflict_key not in after and after <= before:
            if fix is not None:
                return None
            fix = d
    return fix


# ---------------------------------------------------------------------------
# remote advisor

PROMPT_TEMPLATE = """You repair direction-labeled navigation maps built \
from game walkthroughs.  A conflict was detected; propose exactly one \
repair action.

Conflict:
{conflict}

Nearby map (nodes and edges):
{neighborhood}
{candidates_block}{session_block}{tools_block}
Respond with a single JSON object and nothing else, shaped like one of:
{shapes}
"""

#: The prompt's JSON shape of each action kind, in the order it lists them.
_ACTION_SHAPES = {
    ACT_CHANGE_DIRECTION: '{"action": "ChangeDirection", "edge": {"src": '
                          '..., "dst": ..., "dir": ..., "step": ...}, '
                          '"new_dir": "<direction>"}',
    ACT_DELETE_EDGE: '{"action": "DeleteEdge", "edge": {...}}',
    ACT_REDIRECT_EDGE: '{"action": "RedirectEdge", "edge": {...}, '
                       '"new_dst": "<node id>"}',
    ACT_RENAME_NODE: '{"action": "RenameNode", "node": "<node id>", '
                     '"new_name": "<name>"}',
    ACT_MERGE_NODES: '{"action": "MergeNodes", "node": "<node to fold>", '
                     '"new_dst": "<node to keep>"}',
    ACT_ROLLBACK_TO: '{"action": "RollbackTo", "version": <int>}',
    ACT_RECALL_STEP: '{"action": "RecallStep", "version": <int>}',
    ACT_DIFF_VERSIONS: '{"action": "DiffVersions", "i": <int>, "j": <int>}',
    ACT_GIVE_UP: '{"action": "GiveUp"}',
}

_REPROMPT = ("Your previous reply could not be used: {error}\n"
             "Reply again with one valid JSON action object and nothing else.")


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    api_key: str = ""
    model: str = "gpt-4o"
    timeout: float = 60.0

    @classmethod
    def from_env(cls, env=os.environ) -> "EndpointConfig":
        base = env.get("MAPREPAIR_API_BASE")
        if not base:
            raise AdvisorFailure("MAPREPAIR_API_BASE is not set")
        return cls(base_url=base,
                   api_key=env.get("MAPREPAIR_API_KEY", ""),
                   model=env.get("MAPREPAIR_MODEL", "gpt-4o"))


def _default_transport(endpoint: EndpointConfig, payload: dict) -> dict:
    """POST `payload` as JSON to the endpoint's chat completions; an HTTP
    error status raises `urllib.error.HTTPError`."""
    import urllib.request  # here, not at the top: it loads ssl, ~7 MB

    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    request = urllib.request.Request(url, data=json.dumps(payload).encode(),
                                     headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=endpoint.timeout) as resp:
        return json.load(resp)


def _extract_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch == "{":
            try:
                obj, _ = decoder.raw_decode(text[i:])
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                return obj
    raise ValueError("no JSON object in reply")


def _describe_loop(loop: Loop) -> str:
    """One loop as a prompt line: the action, then its result or error."""
    action = "(no usable reply)" if loop.action is None \
        else json.dumps(loop.action.to_json())
    if loop.ending == "result":
        return f"{action} -> {json.dumps(loop.value)}"
    return f"{action} -> error: {loop.value}"


class LlmAdvisor:
    """Adapter for an OpenAI-style chat-completions endpoint.  Sends the
    conflict context at temperature 0, parses the single-action JSON reply,
    reprompts once on a malformed reply, then raises AdvisorFailure."""

    def __init__(self, endpoint: Optional[EndpointConfig] = None,
                 transport: Callable[[EndpointConfig, dict], dict] = None):
        self.endpoint = endpoint or EndpointConfig.from_env()
        self.transport = transport or _default_transport

    def build_prompt(self, ctx: AdvisorContext) -> str:
        if ctx.ranked_candidates:
            rows = "\n".join(
                f"  {json.dumps(c.to_json())}" for c in ctx.ranked_candidates)
            candidates_block = f"\nRanked suspect edges:\n{rows}\n"
        else:
            candidates_block = ""
        if ctx.loops:
            rows = "\n".join(f"  {_describe_loop(loop)}" for loop in ctx.loops)
            session_block = f"\nThis session so far:\n{rows}\n"
        else:
            session_block = ""
        tools = [kind for kind in ACTION_FIELDS
                 if ctx.chain is not None or kind not in VERSION_ACTIONS]
        tools_block = f"\nAvailable actions: {', '.join(tools)}\n"
        return PROMPT_TEMPLATE.format(
            conflict=json.dumps(ctx.conflict.to_json(), indent=2),
            neighborhood=json.dumps(ctx.neighborhood.to_json(), indent=2),
            candidates_block=candidates_block,
            session_block=session_block,
            tools_block=tools_block,
            shapes="\n".join(f"  {shape}" for kind, shape
                             in _ACTION_SHAPES.items() if kind in tools),
        )

    def _ask(self, messages: list[dict]) -> str:
        payload = {"model": self.endpoint.model, "temperature": 0,
                   "messages": messages}
        try:
            data = self.transport(self.endpoint, payload)
            return data["choices"][0]["message"]["content"]
        except AdvisorFailure:
            raise
        except Exception as exc:
            raise AdvisorFailure(f"endpoint error: {exc}") from exc

    def __call__(self, ctx: AdvisorContext) -> RepairAction:
        messages = [{"role": "user", "content": self.build_prompt(ctx)}]
        for final in (False, True):
            reply = self._ask(messages)
            try:
                return RepairAction.from_json(_extract_json_object(reply))
            except Exception as exc:
                if final:
                    raise AdvisorFailure(
                        f"unusable reply after reprompt: {exc}") from exc
                messages += [
                    {"role": "assistant", "content": reply},
                    {"role": "user",
                     "content": _REPROMPT.format(error=exc)},
                ]


# ---------------------------------------------------------------------------
# replay


class PlaybackAdvisor:
    """Replays a fixed action sequence, such as the actions of a session
    transcript; gives up when it runs dry."""

    def __init__(self, actions: Sequence[RepairAction]):
        self._actions = list(actions)
        self._cursor = 0

    def __call__(self, ctx: AdvisorContext) -> RepairAction:
        if self._cursor >= len(self._actions):
            return RepairAction(ACT_GIVE_UP)
        action = self._actions[self._cursor]
        self._cursor += 1
        return action
