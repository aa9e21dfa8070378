"""Benchmark of the maprepair pipeline: build and repair, end to end and
per layer.

    python3 perfbench/run.py --workload build-grid --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  With ``--trace 0`` the run times whole items and
prints the end-to-end metrics.  With ``--trace 1`` it alternates untraced
and traced passes, prints the per-layer metrics and writes the spans to
``.perfbench/``.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from statistics import median

from spans import Tracer, patched
from speedref import NOMINAL_S, SpeedReference
from summary import Report, beyond, percentile, tail_ok

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3   # set-up is timed as the median of these; digests must agree
EXIT_NO_RESULT = 2


def load_library():
    """Import maprepair from the checkout's src/, and from nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "maprepair" / "__init__.py").is_file():
        raise ImportError(f"no maprepair package under {src}")
    sys.path.insert(0, str(src))
    import maprepair
    if src not in Path(maprepair.__file__).resolve().parents:
        raise ImportError(f"maprepair imported from {maprepair.__file__}, "
                          f"not from {src}")
    return maprepair


def set_up(workload: str, seed: int, trace: bool, tracer: Tracer,
           speed: SpeedReference) -> tuple[list, list[float], bool]:
    """Generate the inputs SETUP_REPEATS times.  Returns the items, each
    set-up's time at nominal speed, and whether all digests agreed."""
    import layers
    import workloads

    times, digests = [], set()
    for i in range(SETUP_REPEATS):
        traced = trace and i == SETUP_REPEATS - 1
        before = speed.sample()
        start = time.perf_counter()
        with patched(tracer, layers.setup_targets()) if traced else nullcontext():
            items = workloads.make_items(workload, seed)
        raw = time.perf_counter() - start
        speed.sample()
        times.append(raw * speed.scale(before))
        digests.add(workloads.digest(items))
    return items, times, len(digests) == 1


def end_to_end(report: Report, passes: list, setup_s: list[float]) -> None:
    """Every time is at nominal speed: each item's raw seconds times the
    speed scale of the kernel runs around it."""
    ok = [o for p in passes for o in p if not o.error]
    first = passes[0]
    builds = defaultdict(list)
    item_s = defaultdict(list)
    per_step = defaultdict(list)
    rung_steps = defaultdict(list)
    for o in ok:
        item_s[o.item.key].append(o.scale * o.item_s)
        if o.item.builds:
            builds[o.item.key].append(o.scale * o.build_s)
            per_step[o.item.rung].append(o.scale * o.build_s / o.item.steps)
            rung_steps[o.item.rung].append(o.item.steps)
    report.add("setup_s", median(setup_s), "s",
               f"median of {len(setup_s)} set-ups")
    if ok:
        steps = {o.item.key: o.item.steps for o in ok if o.item.builds}
        report.add("build_steps_per_s",
                   sum(steps.values()) / sum(median(v) for v in builds.values()),
                   "steps/s", f"{sum(map(len, builds.values()))} builds of "
                   f"{len(builds)} worlds, "
                   "median per world")
        order = sorted(rung_steps, key=lambda r: median(rung_steps[r]))
        small, large = order[0], order[-1]
        report.add("build_cost_growth",
                   median(per_step[large]) / median(per_step[small]), "ratio",
                   f"us/step of {large} ({len(per_step[large])} builds) over "
                   f"{small} ({len(per_step[small])} builds)")
        per_item = [median(v) for v in item_s.values()]
        n = len(per_item)
        runs = f"{n} items, median of {min(map(len, item_s.values()))}+ runs each"
        report.add("item_s_p50", percentile(per_item, 50), "s", runs)
        short = "" if tail_ok(n, 90) else " (under the 10 a tail needs)"
        report.add("item_s_p90", percentile(per_item, 90), "s",
                   f"{runs}, {beyond(n, 90)} past p90{short}")
    before = sum(o.rooms_before for o in first)
    report.add("truth_restored_pct",
               100.0 * sum(o.truth_ok for o in first) / len(first), "%",
               f"{len(first)} items")
    report.add("rooms_kept_pct",
               100.0 * sum(o.rooms_kept for o in first) / before if before
               else None, "%", f"{before} reachable rooms in {len(first)} items")
    attempted = sum(len(p) for p in passes)
    report.add("ok_pct", 100.0 * len(ok) / attempted, "%",
               f"{attempted} item runs")
    report.add("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
               "1 process")


def measure(items: list, workdir: Path, seconds: float, trace: bool,
            tracer: Tracer, speed: SpeedReference) -> tuple[list, list]:
    """Passes over `items` for `seconds`: untraced ones, the first of them
    checked and whole, and with `trace` whole traced ones alternating with
    them.  Without `trace` the last pass stops at the deadline."""
    import layers
    import workloads

    targets = layers.run_targets(tracer, {i.key: i.ledger for i in items})
    passes, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while (not passes or time.perf_counter() < deadline
           or (trace and not traced_passes)):
        # collector pauses should scan the library's garbage, not ours
        gc.collect()
        gc.freeze()
        if trace and len(traced_passes) < len(passes):
            with patched(tracer, targets):
                traced_passes.append(
                    workloads.run_pass(items, workdir, False, tracer))
        else:
            cut = deadline if passes and not trace else float("inf")
            passes.append(workloads.run_pass(
                items, workdir, check=not passes, between=speed.maybe_sample,
                deadline=cut))
    speed.sample()
    for o in (o for p in passes for o in p):
        o.scale = speed.scale(o.ref)
    return passes, traced_passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_RESULT

    tracer = Tracer(under=(layers.HEURISTIC,))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        speed = SpeedReference(workdir / "kernel.jsonl")
        items, setup_s, same_inputs = set_up(
            args.workload, args.seed, bool(args.trace), tracer, speed)
        setup_totals, _ = tracer.take_totals()
        passes, traced_passes = measure(items, workdir, args.seconds,
                                        bool(args.trace), tracer, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = passes + traced_passes
    errors = [o for p in runs for o in p if o.error]
    for o in errors[:5]:
        print(f"failed: {o.item.key}: {o.error}", file=sys.stderr)
    report = Report()
    if args.trace:
        run_totals, run_counters = tracer.take_totals()
        layers.report_layers(
            report, run_totals, run_counters, setup_totals, traced_passes,
            [sum(o.work_s for o in p) for p in passes],
            [sum(o.work_s for o in p) for p in traced_passes])
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} kept)")
    else:
        end_to_end(report, passes, setup_s)
    print(f"speed reference: kernel median {speed.median_ms():.3f} ms over "
          f"{len(speed.samples)} runs (nominal {NOMINAL_S * 1e3:g} ms)")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} untraced, {len(traced_passes)} traced  "
          f"items/pass {len(items)}  "
          f"inputs {'deterministic' if same_inputs else 'DIFFER between set-ups'}")
    print(report.table())
    attempted = sum(len(p) for p in runs)
    print(report.result_line(correct=not errors and same_inputs,
                             attempted=attempted, failed=len(errors)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
