"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 conflicts found (detect only).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

from . import advisors, fault_injector
from .conflict_detector import detect_all, unreachable_nodes
from .dataset_refiner import RawEdge, refine
from .errors import MapRepairError
from .metrics_bench import emit_csv, emit_table
from .position_inference import positions_tsv
from .repair_engine import ToolConfig, localize, run_repair
from .transcript_parser import construct_graph, parse_transcript
from .version_store import VersionChain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFLICTS = 3


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_build(args) -> int:
    text = Path(args.transcript).read_text(encoding="utf-8")
    steps = parse_transcript(text)
    chain = VersionChain(log_path=args.log)
    try:
        g = construct_graph(steps, chain)
    finally:
        chain.close()
    print(f"built {len(g.nodes)} nodes, {len(g.edge_set())} edges "
          f"over {chain.head + 1} commits -> {args.log}")
    if args.graph:
        Path(args.graph).write_text(json.dumps(g.to_json(), indent=2),
                                    encoding="utf-8")
    return EXIT_OK


def cmd_detect(args) -> int:
    chain = VersionChain.load(args.log)
    conflicts = detect_all(chain.graph, commit=chain.head)
    if args.json:
        print(json.dumps([c.to_json() for c in conflicts], indent=2))
    else:
        for c in conflicts:
            print(f"{c.kind}/{c.subkind}: nodes={list(c.nodes)} "
                  f"witness={c.witness}")
        for nid in unreachable_nodes(chain.graph):
            print(f"warning: unreachable node {nid} "
                  f"({chain.graph.nodes[nid]})")
        print(f"{len(conflicts)} conflict(s)")
    return EXIT_CONFLICTS if conflicts else EXIT_OK


def cmd_localize(args) -> int:
    chain = VersionChain.load(args.log)
    conflicts = detect_all(chain.graph, commit=chain.head)
    if not conflicts:
        print("no conflicts to localize")
        return EXIT_OK
    if not 0 <= args.conflict < len(conflicts):
        print(f"conflict index {args.conflict} out of range "
              f"0..{len(conflicts) - 1}", file=sys.stderr)
        return EXIT_DATA
    target = conflicts[args.conflict]
    pp, ranked = localize(chain.graph, target, conflicts,
                          include_silent=args.include_silent)
    payload = {"conflict": target.to_json(), "lca": None,
               "path1": [], "path2": [], "candidates": []}
    if pp is not None:
        payload.update(lca=pp.lca, path1=list(pp.nodes1),
                       path2=list(pp.nodes2),
                       candidates=[c.to_json() for c in ranked or ()])
    _write_or_print(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _make_advisor(name: str, ledger):
    """The named advisor; `ledger` is the oracle's fault ledger."""
    if name == "heuristic":
        return advisors.HeuristicAdvisor()
    if name == "oracle":
        return advisors.OracleAdvisor(ledger)
    return advisors.LlmAdvisor()


def _tool_config(args) -> ToolConfig:
    return ToolConfig(edge_impact=not args.no_edge_impact,
                      version_control=not args.no_version_control)


def cmd_repair(args) -> int:
    # the advisor first: a bad advisor setting leaves the log untouched
    ledger = None
    if args.ledger:  # the oracle's truth, and every advisor's scorecard
        try:
            data = json.loads(Path(args.ledger).read_text(encoding="utf-8"))
        except RecursionError as exc:
            raise ValueError(f"{args.ledger}: {exc}") from exc
        ledger = fault_injector.FaultLedger.from_json(data)
    elif args.advisor == "oracle":
        raise MapRepairError("oracle advisor needs --ledger")
    advisor = _make_advisor(args.advisor, ledger)
    config = _tool_config(args)
    chain = VersionChain.load(args.log, append=args.append)
    try:
        g, sessions, metrics = run_repair(chain, config, advisor,
                                          max_attempts=args.max_attempts,
                                          ledger=ledger)
    finally:
        chain.close()
    for s in sessions:
        print(f"session {s.primary.kind}/{s.primary.subkind}: {s.outcome} "
              f"({s.attempts} attempts, {s.loop_count} loops, "
              f"{len(s.secondary)} secondary)")
    print(emit_table([(args.advisor, metrics)]), end="")
    if args.graph:
        Path(args.graph).write_text(json.dumps(g.to_json(), indent=2),
                                    encoding="utf-8")
    return EXIT_OK


def cmd_refine(args) -> int:
    raw = []
    with open(args.edges, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    raw.append(RawEdge.from_json(json.loads(line)))
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{args.edges}:{n}: {exc}") from exc
    graph, report = refine(raw)
    print(f"{report.initial_edges} raw edges, "
          f"{report.total_removed} removed, {report.final_edges} kept")
    for step, dropped in report.removed.items():
        print(f"  {step}: -{len(dropped)}")
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json(), indent=2),
                                     encoding="utf-8")
    if args.graph:
        Path(args.graph).write_text(json.dumps(graph.to_json(), indent=2),
                                    encoding="utf-8")
    return EXIT_OK


def cmd_synth(args) -> int:
    names = list(inspect.signature(fault_injector.SHAPES[args.shape])
                 .parameters)
    if len(args.params) != len(names):
        print(f"usage: --shape {args.shape} takes {len(names)} --params: "
              f"{' '.join(names)}", file=sys.stderr)
        return EXIT_USAGE
    spec = fault_injector.WorldSpec(args.shape, tuple(args.params))
    world = fault_injector.generate_world(spec)
    corrupted, ledger = fault_injector.inject(world, args.fault or [],
                                              seed=args.seed)
    Path(args.out).write_text(corrupted.transcript(), encoding="utf-8")
    print(f"{args.shape}{tuple(args.params)}: "
          f"{len(world.truth.nodes)} rooms, {len(corrupted.steps) - 1} moves, "
          f"{len(ledger.faults)} fault(s) -> {args.out}")
    if args.ledger:
        Path(args.ledger).write_text(json.dumps(ledger.to_json(), indent=2),
                                     encoding="utf-8")
    return EXIT_OK


_BENCH_SUITE = (
    ("grid 4x3 misdirection", fault_injector.WorldSpec("grid", (4, 3)),
     ("misdirection",)),
    ("grid 4x3 misname", fault_injector.WorldSpec("grid", (4, 3)),
     ("misname",)),
    ("tree d3 b2 misdirection", fault_injector.WorldSpec("tree", (3, 2)),
     ("misdirection",)),
    ("loopchain 8 phantom", fault_injector.WorldSpec("loopchain", (8,)),
     ("phantom_edge",)),
)


def cmd_bench(args) -> int:
    config = _tool_config(args)
    rows = []
    for name, spec, kinds in _BENCH_SUITE:
        world = fault_injector.generate_world(spec)
        corrupted, ledger = fault_injector.inject(world, kinds,
                                                  seed=args.seed)
        chain = corrupted.build()
        advisor = _make_advisor(args.advisor, ledger)
        _, _, metrics = run_repair(chain, config, advisor, ledger=ledger)
        rows.append((name, metrics))
    text = emit_csv(rows) if args.csv else emit_table(rows)
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    chain = VersionChain.load(args.log)
    if args.format == "dot":
        text = chain.graph.to_dot()
    elif args.format == "tsv":
        text = positions_tsv(chain.graph)
    else:
        text = json.dumps(chain.graph.to_json(), indent=2) + "\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maprepair",
        description="Build, audit and repair walkthrough navigation maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    ablations = argparse.ArgumentParser(add_help=False)
    ablations.add_argument("--no-edge-impact", action="store_true")
    ablations.add_argument("--no-version-control", action="store_true")

    p = sub.add_parser("build", help="construct a map from a transcript")
    p.add_argument("--transcript", required=True)
    p.add_argument("--log", required=True, help="commit log to write (JSONL)")
    p.add_argument("--graph", help="also write the final graph as JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("detect", help="list conflicts in a built map")
    p.add_argument("--log", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("localize", help="rank suspect edges for a conflict")
    p.add_argument("--log", required=True)
    p.add_argument("--conflict", type=int, default=0,
                   help="index into the detected conflict list")
    p.add_argument("--include-silent", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("repair", help="run the advisor repair loop",
                       parents=[ablations])
    p.add_argument("--log", required=True)
    p.add_argument("--advisor", choices=("oracle", "heuristic", "llm"),
                   default="heuristic")
    p.add_argument("--ledger", help="fault ledger JSON (any advisor)")
    p.add_argument("--max-attempts", type=int, default=10)
    p.add_argument("--append", action="store_true",
                   help="append repair commits to the input log")
    p.add_argument("--graph", help="write the repaired graph as JSON")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("refine", help="clean a raw edge dump (JSONL)")
    p.add_argument("--edges", required=True)
    p.add_argument("--report")
    p.add_argument("--graph")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("synth", help="generate a synthetic walkthrough")
    p.add_argument("--shape", required=True,
                   choices=tuple(fault_injector.SHAPES))
    p.add_argument("--params", type=int, nargs="+", required=True)
    p.add_argument("--fault", action="append",
                   choices=("misdirection", "misname", "phantom_edge",
                            "silent_misdirection"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--ledger")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run the synthetic benchmark suite",
                       parents=[ablations])
    p.add_argument("--advisor", choices=("oracle", "heuristic"),
                   default="heuristic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="export a built map")
    p.add_argument("--log", required=True)
    p.add_argument("--format", choices=("dot", "json", "tsv"),
                   default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for data errors here
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except MapRepairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
