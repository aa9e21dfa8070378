"""Print one SHA-256 over a checkout's repair outputs, to show that a change
leaves them as they were.

    python3 tools/output_digest.py <checkout>

The items are perfbench's repair-mixed items of seeds 0-4, made by the
checkout's ``perfbench/workloads.py``: 600 faulted worlds, each under the
oracle or the heuristic advisor.  Each item is built to a fresh WAL and
repaired with appends to it.  The digest takes in, per item, the WAL bytes,
every session (primary, outcome, attempts, loops, secondaries and
transcript) and the ``Metrics``.  Two checkouts that print the same digest
write the same logs and sessions on these items.  Nothing is written to
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

SEEDS = range(5)


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


def output_digest(checkout: str | Path) -> str:
    workloads = _import_checkout(Path(checkout).resolve())
    from maprepair import advisors, repair_engine, transcript_parser
    from maprepair.version_store import VersionChain

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "item.jsonl"
        for seed in SEEDS:
            for item in workloads.make_items("repair-mixed", seed):
                chain = VersionChain(wal)
                transcript_parser.construct_graph(
                    transcript_parser.parse_transcript(item.transcript), chain)
                chain.close()
                if item.advisor == "oracle":
                    advisor = advisors.OracleAdvisor(item.ledger)
                else:
                    advisor = advisors.HeuristicAdvisor()
                chain = VersionChain.load(wal, append=True)
                try:
                    _, sessions, metrics = repair_engine.run_repair(
                        chain, repair_engine.ToolConfig(), advisor,
                        ledger=item.ledger)
                finally:
                    chain.close()
                record = {"item": item.key,
                          "wal": hashlib.sha256(wal.read_bytes()).hexdigest(),
                          "sessions": [_session(s) for s in sessions],
                          "metrics": metrics.to_json()}
                h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                wal.unlink()
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of a maprepair checkout")
    args = parser.parse_args(argv)
    print(output_digest(args.checkout))
    return 0


if __name__ == "__main__":
    sys.exit(main())
