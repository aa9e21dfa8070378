"""Six-step cleanup turning a raw edge dump into a conflict-free graph.

Raw edges are name-keyed records (src, dst, action, step).  The steps run
strictly in order; the pipeline's postcondition is an empty conflict report
on the refined graph, and a second run removes nothing.

1. action filtering       drop edges whose label is not one of the 14
                          movement directions
2. directional dedup      per (src, direction) keep the minimum-step edge
3. topological resolution drop an edge whose already-kept reverse edge
                          disagrees with spatial symmetry
4. reverse-edge conflicts drop an edge whose symmetric closure would give
                          its destination two same-direction exits
5. naming resolution      iteratively drop the latest-step edge behind any
                          remaining position inconsistency, overlap, or
                          naming conflict (self-loop symptoms excluded;
                          those fall to step 6)
6. self-loop removal      drop every edge from a node to itself
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import Edge, NavGraph, is_direction, normalize_name, \
    reverse_direction
from .position_inference import infer_positions, position_overlaps

STEP_NAMES = (
    "action_filtering",
    "directional_dedup",
    "topological_resolution",
    "reverse_edge_resolution",
    "naming_resolution",
    "self_loop_removal",
)


@dataclass(frozen=True)
class RawEdge:
    src: str
    dst: str
    action: str
    step: int

    def to_json(self) -> dict:
        return {"src": self.src, "dst": self.dst,
                "action": self.action, "step": self.step}

    @classmethod
    def from_json(cls, d: dict) -> "RawEdge":
        """Raises ValueError on a row that is not an object, lacks a key,
        or has a `src`, `dst` or `action` that is not a str or a `step`
        that is not an exact int (`true` is not).  Extra keys are
        ignored."""
        if not isinstance(d, dict):
            raise ValueError("not an object")
        missing = [k for k in ("src", "dst", "action", "step") if k not in d]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        for name in ("src", "dst", "action"):
            if type(d[name]) is not str:
                raise ValueError(f"{name} not a str: {d[name]!r}")
        if type(d["step"]) is not int:
            raise ValueError(f"step not an int: {d['step']!r}")
        return cls(d["src"], d["dst"], d["action"], d["step"])


@dataclass
class RefinementReport:
    initial_edges: int
    removed: dict[str, list[RawEdge]] = field(
        default_factory=lambda: {name: [] for name in STEP_NAMES})

    @property
    def total_removed(self) -> int:
        return sum(len(v) for v in self.removed.values())

    @property
    def final_edges(self) -> int:
        return self.initial_edges - self.total_removed

    def to_json(self) -> dict:
        return {
            "initial_edges": self.initial_edges,
            "final_edges": self.final_edges,
            "total_removed": self.total_removed,
            "removed": {k: [e.to_json() for e in v]
                        for k, v in self.removed.items()},
        }


def _build_graph(edges: list[RawEdge]) -> tuple[NavGraph, dict[Edge, RawEdge]]:
    g = NavGraph()
    ids: dict[str, str] = {}
    back: dict[Edge, RawEdge] = {}

    def node(name: str) -> str:
        key = normalize_name(name)
        if key not in ids:
            ids[key] = g.add_node(name)
        return ids[key]

    for r in sorted(edges, key=lambda e: e.step):
        e = g.add_edge(node(r.src), node(r.dst), r.action, r.step)
        back[e] = r
    return g, back


def refine(raw_edges: list[RawEdge]) -> tuple[NavGraph, RefinementReport]:
    report = RefinementReport(initial_edges=len(raw_edges))
    kept = sorted(raw_edges, key=lambda e: (e.step, e.src, e.dst, e.action))

    # 1. action filtering
    kept, dropped = _split(kept, lambda e: is_direction(e.action))
    report.removed["action_filtering"] = dropped

    # 2. directional dedup: keep the minimum-step edge per (src, direction)
    seen: dict[tuple[str, str], RawEdge] = {}
    survivors, dropped = [], []
    for e in kept:
        key = (normalize_name(e.src), e.action)
        if key in seen:
            dropped.append(e)
        else:
            seen[key] = e
            survivors.append(e)
    kept = survivors
    report.removed["directional_dedup"] = dropped

    # 3. topological resolution: reverse edge disagrees with symmetry
    survivors, dropped = [], []
    kept_pairs: dict[tuple[str, str], list[str]] = {}
    for e in kept:
        u, v = normalize_name(e.src), normalize_name(e.dst)
        mismatch = any(d != reverse_direction(e.action)
                       for d in kept_pairs.get((v, u), ()))
        if mismatch and u != v:
            dropped.append(e)
        else:
            survivors.append(e)
            kept_pairs.setdefault((u, v), []).append(e.action)
    kept = survivors
    report.removed["topological_resolution"] = dropped

    # 4. reverse-edge conflicts: adding v->u:reverse(d) must not give v a
    #    second exit in that direction
    survivors, dropped = [], []
    # step 2 left one kept exit per (src, direction): its destination
    exit_to = {(normalize_name(e.src), e.action): normalize_name(e.dst)
               for e in kept}
    for e in kept:
        u, v = normalize_name(e.src), normalize_name(e.dst)
        collides = exit_to.get((v, reverse_direction(e.action)), u) != u
        if collides and u != v:
            dropped.append(e)
            del exit_to[(u, e.action)]
        else:
            survivors.append(e)
    kept = survivors
    report.removed["reverse_edge_resolution"] = dropped

    # 5. naming resolution: drop latest-step culprits until position
    #    inference is clean.  Geometry is judged without self-loops: step 6
    #    discards them anyway, and a self-loop holding the minimum step
    #    would otherwise pin the origin to the wrong room here
    dropped = []
    while True:
        g, back = _build_graph(
            [e for e in kept
             if normalize_name(e.src) != normalize_name(e.dst)])
        culprit = _position_culprit(g, back)
        if culprit is None:
            break
        kept = [e for e in kept if e != culprit]
        dropped.append(culprit)
    report.removed["naming_resolution"] = dropped

    # 6. self-loop removal
    kept, dropped = _split(
        kept, lambda e: normalize_name(e.src) != normalize_name(e.dst))
    report.removed["self_loop_removal"] = dropped

    graph, _ = _build_graph(kept)
    return graph, report


def _split(edges, keep_pred):
    keep, drop = [], []
    for e in edges:
        (keep if keep_pred(e) else drop).append(e)
    return keep, drop


def _position_culprit(g: NavGraph, back: dict[Edge, RawEdge]):
    """Latest-step raw edge behind the first remaining position defect."""
    pm = infer_positions(g)
    bad_edges = [inc.via for inc in pm.inconsistent]
    for a, b, _ in position_overlaps(pm):
        for nid in (a, b):
            bad_edges.extend(g.in_edges(nid))
    if not bad_edges:
        return None
    latest = max(bad_edges, key=lambda e: e.step_id)
    return back[latest]

