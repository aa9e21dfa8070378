"""Run perfbench in alternating parent/change pairs and keep every result.

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload W --seed S --pairs N --seconds T [--trace 0|1] \\
        --out BENCH_<n>.json

Each run is ``perfbench/run.py`` of one checkout, with the same arguments
for both.  Within pair k the parent runs first when k is even and the
change runs first when k is odd.  The last JSON line a run prints is
merged into ``--out`` after every run, so an interrupted series keeps the
runs it finished.  The file's layout: ``description``, ``parent``,
``hardware``, and ``runs`` (``--trace 0``) or ``traced`` (``--trace 1``),
each keyed workload -> seed -> side -> pair.  New pairs are numbered after
the ones already in the file.  Each run's leaf also holds ``source``, a
SHA-256 of its checkout's ``src/`` and ``perfbench/`` files; the script
refuses (exit 2, before any run) to merge into an ``--out`` that holds a
run of either side made from other sources, so runs of two versions never
share one side.

At the end it prints each side's median number of item runs, which
repair-mixed ``peak_rss_mb`` grows with, and then, for every metric of
the workload and seed, each side's median and quartiles over the pairs
that have both sides, and in how many pairs the change was better.  A
metric's better direction comes from the change checkout's
``BENCHMARK.json``; a tie counts for neither side.  The script writes
only ``--out``; runs get no bytecode files, and ``perfbench/run.py`` keeps
its own scratch under each checkout's ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")
SOURCE_DIRS = ("src", "perfbench")


def run_order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def result_line(stdout: str) -> dict:
    """The last line of `stdout` that is a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise ValueError("the run printed no JSON result line")


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return result_line(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, median(values), q3


def paired(by_side: dict) -> list[str]:
    """The pairs of `by_side` (side -> pair -> result line) that have both
    sides, in order."""
    return sorted(set(by_side.get("parent", {}))
                  & set(by_side.get("change", {})), key=int)


def item_runs(by_side: dict) -> dict[str, float]:
    """Each side's median item-run count (`attempted`) over the pairs that
    have both sides; empty when there is no such pair."""
    pairs = paired(by_side)
    if not pairs:
        return {}
    return {side: median(by_side[side][p]["attempted"] for p in pairs)
            for side in SIDES}


def summarize(by_side: dict, better: dict[str, str]) -> list[dict]:
    """One row per metric over the pairs that have both sides.  `by_side`
    maps side -> pair -> result line; `better` maps a metric name to
    "lower" or "higher".  `wins` is None where the direction is unknown."""
    pairs = paired(by_side)
    if not pairs:
        return []
    first = by_side["change"][pairs[0]]["metrics"]
    rows = []
    for name in first:
        values = {side: [by_side[side][p]["metrics"][name]["value"]
                         for p in pairs] for side in SIDES}
        if any(v is None for vs in values.values() for v in vs):
            continue
        wins = None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = sum(sign * (c - p) > 0
                       for p, c in zip(values["parent"], values["change"]))
        rows.append({"name": name, "unit": first[name]["unit"],
                     "pairs": len(pairs), "wins": wins,
                     **{side: quartiles(values[side]) for side in SIDES}})
    return rows


def format_rows(rows: list[dict]) -> str:
    width = max((len(r["name"]) for r in rows), default=6)
    lines = [f"{'metric'.ljust(width)}  {'parent q1/median/q3':>32}  "
             f"{'change q1/median/q3':>32}  {'change':>7}  wins"]
    for r in rows:
        cells = ["/".join(f"{v:.4g}" for v in r[side]) for side in SIDES]
        change = (r["change"][1] / r["parent"][1] - 1) * 100 \
            if r["parent"][1] else float("nan")
        wins = "-" if r["wins"] is None else f"{r['wins']}/{r['pairs']}"
        lines.append(f"{r['name'].ljust(width)}  {cells[0]:>32}  "
                     f"{cells[1]:>32}  {change:>+6.1f}%  {wins}")
    return "\n".join(lines)


def directions(checkout: Path) -> dict[str, str]:
    try:
        spec = json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, ())}


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()}-core {model}, Python "
            f"{platform.python_version()}, runs one at a time")


def source_digest(checkout: Path) -> str:
    """SHA-256 over the path and bytes of every file under the checkout's
    `SOURCE_DIRS`, bytecode caches left out."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for path in sorted((checkout / top).rglob("*")):
            rel = path.relative_to(checkout)
            if path.is_file() and "__pycache__" not in rel.parts:
                data = path.read_bytes()
                h.update(f"{rel.as_posix()}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def foreign_runs(data: dict, side: str, digest: str) -> int:
    """How many of `side`'s runs in `data` were made from sources other
    than `digest` (or record none)."""
    return sum(run.get("source") != digest
               for group in ("runs", "traced")
               for seeds in data.get(group, {}).values()
               for sides in seeds.values()
               for run in sides.get(side, {}).values())


def revision(checkout: Path) -> str:
    """The checkout's short git revision, or its `source_digest` when it is
    not the top of a git work tree (a `git archive` export, say)."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse",
                           "--show-toplevel", "--short", "HEAD"],
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode == 0 and len(lines) == 2 \
            and Path(lines[0]).resolve() == checkout.resolve():
        return lines[1]
    return source_digest(checkout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    digests = {side: source_digest(path) for side, path in checkouts.items()}
    for side in SIDES:
        foreign = foreign_runs(data, side, digests[side])
        if foreign:
            print(f"error: {args.out} holds {foreign} {side} run(s) of other "
                  f"sources than {checkouts[side]}; use another --out",
                  file=sys.stderr)
            return 2
    data.setdefault("description",
        "Alternating parent/change perfbench pairs. Each leaf is the JSON "
        "result line of `python3 perfbench/run.py --workload W --seed S "
        "--seconds T --trace X`; `runs` holds --trace 0 runs and `traced` "
        "--trace 1 runs. Within pair k the parent ran first when k is even "
        "and the change ran first when k is odd.")
    data.setdefault("parent", revision(checkouts["parent"]))
    data.setdefault("hardware", hardware())
    group = "traced" if args.trace else "runs"
    by_side = data.setdefault(group, {}).setdefault(
        args.workload, {}).setdefault(str(args.seed), {})
    start = 1 + max((int(p) for runs in by_side.values() for p in runs),
                    default=-1)
    for pair in range(start, start + args.pairs):
        for side in run_order(pair):
            result = run_once(checkouts[side], args)
            result["source"] = digests[side]
            by_side.setdefault(side, {})[str(pair)] = result
            args.out.write_text(json.dumps(data, indent=1) + "\n")
            print(f"pair {pair} {side}: {result['attempted']} item runs, "
                  f"{result['failed']} failed", flush=True)
    print(f"{args.workload} seed {args.seed} trace {args.trace}:")
    runs = item_runs(by_side)
    if runs:
        print("median item runs: " + ", ".join(
            f"{side} {runs[side]:g}" for side in SIDES))
    print(format_rows(summarize(by_side, directions(checkouts["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
