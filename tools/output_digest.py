"""Print one SHA-256 over a checkout's repair outputs, to show that a change
leaves them as they were.

    python3 tools/output_digest.py <checkout> [--commits]
                                              [--no-edge-impact]
                                              [--no-version-control]
    python3 tools/output_digest.py <checkout> --build
    python3 tools/output_digest.py <checkout> --inputs

The items are perfbench's repair-mixed items of seeds 0-4, made by the
checkout's ``perfbench/workloads.py``: 600 items, 300 faulted worlds each
under both the oracle and the heuristic advisor.  Each item is built to a fresh WAL and
repaired with appends to it.  The digest takes in, per item, the WAL bytes,
every session (primary, outcome, attempts, loops, secondaries and
transcript) and the ``Metrics``.  Two checkouts that print the same digest
write the same logs and sessions on these items.  Nothing is written to
the checkout.  ``--no-edge-impact`` and ``--no-version-control`` repair
with that tool ablated, as ``maprepair repair`` does with the same flags.

``--commits`` takes in, per item, the commits of the WAL reloaded after
the repair (``Commit.to_json`` of each) instead of the WAL bytes, beside
the sessions and the ``Metrics``.  Two checkouts that print the same
commits digest make the same commits, sessions and metrics on these items
whatever bytes their logs hold them in, so a change of the log format
alone leaves it as it was.

``--build`` prints instead one SHA-256 over the WAL bytes of a build alone:
perfbench's build-grid and build-tree items of seeds 0-4 and the
checkout's ``tests/fixtures/advent_walkthrough.txt``, each parsed and
committed to a fresh WAL.  Two checkouts that print the same build digest
parse the same steps and write the same log lines for them.

``--inputs`` prints one SHA-256 over the inputs alone, with no build or
repair: perfbench's ``workloads.digest`` of the repair-mixed items of seeds
0-9, each of which hashes every item's transcript and fault ledger.  Two
checkouts that print the same inputs digest draw the same faults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = range(5)
INPUT_SEEDS = range(10)


def _import_checkout(checkout: Path):
    """Import perfbench's workloads, and maprepair from `checkout` only."""
    src = checkout / "src"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(checkout / "perfbench")]
    import maprepair
    import workloads
    if src not in Path(maprepair.__file__).resolve().parents:
        raise ImportError(f"maprepair imported from {maprepair.__file__}, "
                          f"not from {src}")
    return workloads


def _session(s) -> dict:
    return {"primary": s.primary.to_json(), "outcome": s.outcome,
            "attempts": s.attempts, "loops": s.loop_count,
            "secondary": [c.to_json() for c in s.secondary],
            "transcript": s.transcript}


def _build(wal: Path, transcript: str) -> None:
    """Parse `transcript` and commit its steps to a new WAL at `wal`."""
    from maprepair import transcript_parser
    from maprepair.version_store import VersionChain

    chain = VersionChain(wal)
    try:
        transcript_parser.construct_graph(
            transcript_parser.parse_transcript(transcript), chain)
    finally:
        chain.close()


def build_digest(checkout: str | Path) -> str:
    checkout = Path(checkout).resolve()
    workloads = _import_checkout(checkout)
    fixture = checkout / "tests" / "fixtures" / "advent_walkthrough.txt"
    inputs = [(f"{workload}/s{seed}/{item.key}", item.transcript)
              for workload in ("build-grid", "build-tree") for seed in SEEDS
              for item in workloads.make_items(workload, seed)]
    inputs.append((fixture.name, fixture.read_text()))

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "item.jsonl"
        for key, transcript in inputs:
            _build(wal, transcript)
            record = {"item": key,
                      "wal": hashlib.sha256(wal.read_bytes()).hexdigest()}
            h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            wal.unlink()
    return h.hexdigest()


def inputs_digest(checkout: str | Path) -> str:
    workloads = _import_checkout(Path(checkout).resolve())
    h = hashlib.sha256()
    for seed in INPUT_SEEDS:
        items = workloads.make_items("repair-mixed", seed)
        h.update(f"{seed} {workloads.digest(items)}\n".encode())
    return h.hexdigest()


def output_digest(checkout: str | Path, edge_impact: bool = True,
                  version_control: bool = True, commits: bool = False) -> str:
    workloads = _import_checkout(Path(checkout).resolve())
    from maprepair import advisors, repair_engine
    from maprepair.version_store import VersionChain

    config = repair_engine.ToolConfig(edge_impact=edge_impact,
                                      version_control=version_control)

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "item.jsonl"
        for seed in SEEDS:
            for item in workloads.make_items("repair-mixed", seed):
                _build(wal, item.transcript)
                if item.advisor == "oracle":
                    advisor = advisors.OracleAdvisor(item.ledger)
                else:
                    advisor = advisors.HeuristicAdvisor()
                chain = VersionChain.load(wal, append=True)
                try:
                    _, sessions, metrics = repair_engine.run_repair(
                        chain, config, advisor,
                        ledger=item.ledger)
                finally:
                    chain.close()
                record = {"item": item.key,
                          "sessions": [_session(s) for s in sessions],
                          "metrics": metrics.to_json()}
                if commits:
                    record["commits"] = [
                        c.to_json() for c in VersionChain.load(wal).commits]
                else:
                    record["wal"] = hashlib.sha256(
                        wal.read_bytes()).hexdigest()
                h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                wal.unlink()
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of a maprepair checkout")
    parser.add_argument("--no-edge-impact", action="store_true")
    parser.add_argument("--no-version-control", action="store_true")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--build", action="store_true",
                      help="digest the WALs of builds alone")
    what.add_argument("--inputs", action="store_true",
                      help="digest the repair-mixed inputs alone")
    what.add_argument("--commits", action="store_true",
                      help="digest the reloaded commits, not the WAL bytes")
    args = parser.parse_args(argv)
    if (args.build or args.inputs) and \
            (args.no_edge_impact or args.no_version_control):
        parser.error(f"--{'build' if args.build else 'inputs'} takes no "
                     "repair flag")
    if args.build:
        print(build_digest(args.checkout))
    elif args.inputs:
        print(inputs_digest(args.checkout))
    else:
        print(output_digest(args.checkout,
                            edge_impact=not args.no_edge_impact,
                            version_control=not args.no_version_control,
                            commits=args.commits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
