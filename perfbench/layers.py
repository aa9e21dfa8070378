"""Layer boundaries the traced run wraps, and the per-layer metrics.

The package binds names with ``from .x import f``, so a function is wrapped
in every namespace its callers read it from (``conflict_detector`` and
``transcript_parser`` each hold their own ``infer_positions``).  Span names
are ``<module>.<function>`` of the callee, so a module's self time is the
time spent in its own code, not in the modules it calls.

Every value is per traced pass over the workload's items.  README.md lists
which end-to-end metric each one should move.
"""

from __future__ import annotations

from statistics import median

from maprepair import (
    advisors, conflict_detector, error_localizer, fault_injector,
    graph_core, repair_engine, transcript_parser, version_store,
)

from spans import Target, Tracer

HEURISTIC = "advisors.heuristic"


def setup_targets() -> list[Target]:
    return [
        Target(fault_injector, "generate_world", "fault_injector.generate_world"),
        Target(fault_injector, "inject", "fault_injector.inject"),
        Target(fault_injector.World, "build", "fault_injector.build"),
    ]


def run_targets(tracer: Tracer, ledgers: dict) -> list[Target]:
    """Call sites of the measured passes.  `ledgers` maps item key to the
    item's fault ledger, for the localizer's top-1 hit rate."""

    def count(name, measure):
        def hook(result, args):
            tracer.counters[name] += measure(result)
        return hook

    def top1(ctx, args):
        ledger = ledgers.get(tracer.item)
        if ledger is None or not ctx.ranked_candidates:
            return
        tracer.counters["error_localizer.ranked_contexts"] += 1
        top, g = ctx.ranked_candidates[0].edge, ctx.graph
        if any(not ledger.fixed(g, f) and ledger.corrupted_edge(g, f) == top
               for f in ledger.faults):
            tracer.counters["error_localizer.top1_hits"] += 1

    positioned = count("position_inference.nodes_positioned",
                       lambda pm: len(pm.assignment))
    reported = count("conflict_detector.conflicts_reported", len)
    nav, chain = graph_core.NavGraph, version_store.VersionChain
    return [
        Target(transcript_parser, "parse_transcript", "transcript_parser.parse",
               hook=count("transcript_parser.steps", len)),
        Target(transcript_parser, "construct_graph",
               "transcript_parser.construct_graph"),
        Target(transcript_parser, "infer_positions",
               "position_inference.infer_positions", hook=positioned),
        Target(conflict_detector, "infer_positions",
               "position_inference.infer_positions", hook=positioned),
        Target(chain, "commit", "version_store.commit"),
        Target(chain, "load", "version_store.load"),
        Target(chain, "materialize", "version_store.materialize"),
        Target(nav, "copy", "graph_core.copy",
               hook=count("graph_core.copied_edges",
                          lambda g: len(g.edge_set()))),
        Target(nav, "out_edges", "graph_core.out_edges", keep=False),
        Target(nav, "edges_between", "graph_core.edges_between", keep=False),
        Target(nav, "reachable_from", "graph_core.reachable_from"),
        Target(nav, "neighborhood", "graph_core.neighborhood"),
        Target(repair_engine, "detect_all", "conflict_detector.detect_all",
               hook=reported),
        Target(advisors, "detect_all", "conflict_detector.detect_all",
               hook=reported),
        Target(repair_engine, "minimal_path_pair",
               "error_localizer.minimal_path_pair"),
        Target(error_localizer, "minimal_path_pair",
               "error_localizer.minimal_path_pair"),
        Target(error_localizer, "shortest_path", "error_localizer.shortest_path"),
        Target(repair_engine, "score_candidates",
               "error_localizer.score_candidates",
               hook=count("error_localizer.candidates_scored", len)),
        Target(repair_engine, "run_repair", "repair_engine.run_repair"),
        Target(repair_engine, "run_session", "repair_engine.run_session"),
        Target(repair_engine, "build_context", "repair_engine.build_context",
               hook=top1),
        Target(repair_engine, "apply_action", "repair_engine.apply_action"),
        Target(advisors.OracleAdvisor, "__call__", "advisors.oracle"),
        Target(advisors.HeuristicAdvisor, "__call__", HEURISTIC),
    ]


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _transcript_counts(outcomes) -> tuple[int, int]:
    """(mutating proposals, of which applied) over all sessions."""
    mutating = applied = 0
    for o in outcomes:
        for s in o.sessions:
            for entry in s.transcript:
                kind = entry.get("action", {}).get("action")
                if kind in repair_engine.MUTATING_ACTIONS:
                    mutating += 1
                    applied += entry.get("result") == "applied"
    return mutating, applied


def report_layers(report, run_totals: dict, run_counters, setup_totals: dict,
                  traced: list, untraced_pass_s: list[float],
                  traced_pass_s: list[float]) -> None:
    """Add every per-layer metric to `report`, per traced pass."""
    n = len(traced)
    per = f"{n} traced pass(es)"
    outs = [o for p in traced for o in p if not o.error]
    repair = [o for o in outs if o.item.advisor]

    def calls(name):
        return run_totals.get(name, (0, 0.0, 0.0))[0] / n

    def total_s(name):
        return run_totals.get(name, (0, 0.0, 0.0))[1] / n

    def self_s(name):
        return run_totals.get(name, (0, 0.0, 0.0))[2] / n

    def counter(key):
        return run_counters[key] / n

    def by_advisor(name):
        return [o for o in repair if o.item.advisor == name]

    loops = sum(s.loop_count for o in repair for s in o.sessions) / n
    sessions = sum(len(o.sessions) for o in repair) / n
    mutating, applied = _transcript_counts(repair)
    conflicts = sum(o.metrics.total_conflicts for o in repair)
    repaired = sum(o.metrics.repaired for o in repair)
    correct = sum(o.metrics.correct or 0 for o in repair)
    heuristic = by_advisor("heuristic")
    before = sum(o.rooms_before for o in heuristic)
    kept = sum(o.rooms_kept for o in heuristic)

    rows = [
        ("transcript_parser.parse_s", self_s("transcript_parser.parse"), "s/pass"),
        ("transcript_parser.construct_self_s",
         self_s("transcript_parser.construct_graph"), "s/pass"),
        ("transcript_parser.steps", counter("transcript_parser.steps"), "count/pass"),
        ("version_store.commits", calls("version_store.commit"), "count/pass"),
        ("version_store.commit_self_s", self_s("version_store.commit"), "s/pass"),
        ("version_store.commit_us", 1e6 * _ratio(self_s("version_store.commit"),
                                                 calls("version_store.commit")), "us"),
        ("version_store.wal_bytes_per_commit",
         _ratio(sum(o.wal_bytes for o in outs), sum(o.commits for o in outs)),
         "bytes"),
        ("version_store.load_s", total_s("version_store.load"), "s/pass"),
        ("version_store.materialize_calls", calls("version_store.materialize"),
         "count/pass"),
        ("graph_core.copies", calls("graph_core.copy"), "count/pass"),
        ("graph_core.copies_per_commit",
         _ratio(calls("graph_core.copy"), calls("version_store.commit")), "ratio"),
        ("graph_core.copied_edges", counter("graph_core.copied_edges"), "count/pass"),
        ("graph_core.copy_s", total_s("graph_core.copy"), "s/pass"),
        ("graph_core.out_edges_calls", calls("graph_core.out_edges"), "count/pass"),
        ("graph_core.out_edges_s", total_s("graph_core.out_edges"), "s/pass"),
        ("graph_core.edges_between_calls", calls("graph_core.edges_between"),
         "count/pass"),
        ("graph_core.edges_between_s", total_s("graph_core.edges_between"), "s/pass"),
        ("graph_core.reachable_from_calls", calls("graph_core.reachable_from"),
         "count/pass"),
        ("graph_core.reachable_from_s", total_s("graph_core.reachable_from"),
         "s/pass"),
        ("graph_core.neighborhood_s", total_s("graph_core.neighborhood"), "s/pass"),
        ("position_inference.calls", calls("position_inference.infer_positions"),
         "count/pass"),
        ("position_inference.self_s", self_s("position_inference.infer_positions"),
         "s/pass"),
        ("position_inference.nodes_positioned",
         counter("position_inference.nodes_positioned"), "count/pass"),
        ("conflict_detector.detect_calls", calls("conflict_detector.detect_all"),
         "count/pass"),
        ("conflict_detector.self_s", self_s("conflict_detector.detect_all"), "s/pass"),
        ("conflict_detector.conflicts_reported",
         counter("conflict_detector.conflicts_reported"), "count/pass"),
        ("error_localizer.path_pair_calls",
         calls("error_localizer.minimal_path_pair"), "count/pass"),
        ("error_localizer.shortest_path_calls",
         calls("error_localizer.shortest_path"), "count/pass"),
        ("error_localizer.path_pair_s", total_s("error_localizer.minimal_path_pair"),
         "s/pass"),
        ("error_localizer.score_s", total_s("error_localizer.score_candidates"),
         "s/pass"),
        ("error_localizer.candidates_scored",
         counter("error_localizer.candidates_scored"), "count/pass"),
        ("error_localizer.top1_hit_pct",
         _pct(run_counters["error_localizer.top1_hits"],
              run_counters["error_localizer.ranked_contexts"]), "%"),
        ("repair_engine.sessions", sessions, "count/pass"),
        ("repair_engine.loops", loops, "count/pass"),
        ("repair_engine.loop_ms",
         1e3 * _ratio(total_s("repair_engine.run_session"), loops), "ms"),
        ("repair_engine.context_self_s", self_s("repair_engine.build_context"),
         "s/pass"),
        ("repair_engine.apply_s", total_s("repair_engine.apply_action"), "s/pass"),
        ("repair_engine.applied_ratio", _ratio(applied, mutating), "ratio"),
        ("repair_engine.repair_rate_pct", _pct(repaired, conflicts), "%"),
        ("repair_engine.accuracy_pct", _pct(correct, repaired), "%"),
        ("repair_engine.avg_loops", _ratio(loops, sessions), "count"),
        ("advisors.oracle.calls", calls("advisors.oracle"), "count/pass"),
        ("advisors.oracle.self_s", self_s("advisors.oracle"), "s/pass"),
        ("advisors.oracle.truth_restored_pct",
         _pct(sum(o.truth_ok for o in by_advisor("oracle")),
              len(by_advisor("oracle"))), "%"),
        ("advisors.heuristic.calls", calls(HEURISTIC), "count/pass"),
        ("advisors.heuristic.self_s", self_s(HEURISTIC), "s/pass"),
        ("advisors.heuristic.trial_copies",
         counter(f"graph_core.copy@{HEURISTIC}"), "count/pass"),
        ("advisors.heuristic.trial_detects",
         counter(f"conflict_detector.detect_all@{HEURISTIC}"), "count/pass"),
        ("advisors.heuristic.truth_restored_pct",
         _pct(sum(o.truth_ok for o in heuristic), len(heuristic)), "%"),
        ("advisors.heuristic.rooms_orphaned_pct", _pct(before - kept, before), "%"),
        ("fault_injector.generate_s",
         setup_totals.get("fault_injector.generate_world", (0, 0.0))[1], "s"),
        ("fault_injector.inject_s",
         setup_totals.get("fault_injector.inject", (0, 0.0))[1], "s"),
        ("fault_injector.trial_builds",
         setup_totals.get("fault_injector.build", (0,))[0], "count"),
        ("trace.overhead_pct",
         100.0 * (median(traced_pass_s) / median(untraced_pass_s) - 1), "%"),
    ]
    for name, value, unit in rows:
        note = per
        if name.startswith("fault_injector."):
            note = "1 traced set-up"
        elif name == "trace.overhead_pct":
            note = (f"median of {len(traced_pass_s)} traced vs "
                    f"{len(untraced_pass_s)} untraced passes")
        report.add(name, value, unit, note)
