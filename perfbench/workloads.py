"""Seeded inputs, the timed work of one item, and the output checks.

An item is one unit of user work.  On the build workloads it is one clean
world parsed and committed to a fresh on-disk WAL.  On repair-mixed it is
one faulted world built to a WAL, then reopened with appends and repaired
under one advisor; its latency runs from ``VersionChain.load`` to the
repaired map.  README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from maprepair import (
    advisors, conflict_detector, fault_injector, repair_engine,
    transcript_parser, version_store,
)
from maprepair.graph_core import NavGraph

WORKLOADS = ("build-grid", "build-tree", "repair-mixed")
BUILD_RUNGS = {
    "build-grid": ("grid", ((20, 20), (30, 30))),
    "build-tree": ("tree", ((4, 3), (6, 3))),
}
REPAIR_WORLDS = (("grid", (10, 10)), ("tree", (4, 3)), ("loopchain", (64,)))
VISIBLE_FAULTS = (fault_injector.FAULT_MISDIRECTION,
                  fault_injector.FAULT_MISNAME, fault_injector.FAULT_PHANTOM)
FAULT_MIXES = tuple((kind,) for kind in VISIBLE_FAULTS) + (VISIBLE_FAULTS,)
# 5 seeds x 3 worlds x 4 mixes x 2 advisors = 120 items, so p90 has 12 past it
FAULT_SEEDS_PER_RUN = 5
ADVISORS = ("oracle", "heuristic")


class CheckFailed(Exception):
    """An output check did not hold."""


@dataclass(frozen=True)
class Item:
    key: str
    rung: str                 # world label; build_cost_growth compares rungs
    transcript: str
    steps: int                # walkthrough blocks, the Init block included
    truth: Optional[NavGraph] = None                 # clean worlds
    ledger: Optional[fault_injector.FaultLedger] = None  # faulted worlds
    advisor: str = ""         # "oracle" | "heuristic" on repair items
    # False: start from a copy of the WAL the previous item built from the
    # same transcript, so one build serves both advisors
    builds: bool = True


@dataclass
class Outcome:
    item: Item
    build_s: float = 0.0
    repair_s: float = 0.0     # load + run_repair; 0 on build items
    truth_ok: bool = False
    rooms_before: int = 0     # reachable from the origin before repair
    rooms_kept: int = 0       # ... and still reachable after it
    wal_bytes: int = 0
    commits: int = 0
    sessions: list = field(default_factory=list)
    metrics: Optional[object] = None   # repair_engine's Metrics
    error: str = ""
    ref: int = 0              # speed sample taken just before the item
    scale: float = 1.0        # raw to nominal seconds, set after the run

    @property
    def item_s(self) -> float:
        return self.repair_s if self.item.advisor else self.build_s

    @property
    def work_s(self) -> float:
        return self.build_s + self.repair_s


def _label(shape: str, params: tuple[int, ...]) -> str:
    return f"{shape}-{'x'.join(map(str, params))}"


def relabel(world: fault_injector.World, seed) -> fault_injector.World:
    """The same world with every room renamed from `seed`."""
    rng = random.Random(seed)
    names = sorted(set(world.truth.nodes.values()))
    codes = rng.sample(range(1_000_000), len(names))
    new = {old: f"Room {code:06d}" for old, code in zip(names, codes)}
    steps = []
    for act, obs in world.steps:
        first, sep, rest = obs.partition("\n")
        steps.append((act, new[first] + sep + rest))
    truth = NavGraph()
    for nid, name in world.truth.nodes.items():
        truth.add_node(new[name], node_id=nid)
    truth.origin = world.truth.origin
    for e in world.truth.edges():
        truth.add_edge(e.src, e.dst, e.direction, e.step_id)
    return fault_injector.World(steps=steps, truth=truth)


def make_items(workload: str, seed: int) -> list[Item]:
    """Every input of one run, generated from `seed` alone."""
    if workload in BUILD_RUNGS:
        shape, rungs = BUILD_RUNGS[workload]
        items = []
        for params in rungs:
            label = _label(shape, params)
            world = relabel(fault_injector.generate_world(
                fault_injector.WorldSpec(shape, params)), f"{seed}/{label}")
            items.append(Item(label, label, world.transcript(),
                              len(world.steps), truth=world.truth))
        return items
    if workload != "repair-mixed":
        raise ValueError(f"unknown workload: {workload}")
    worlds = [(_label(shape, params), fault_injector.generate_world(
        fault_injector.WorldSpec(shape, params)))
        for shape, params in REPAIR_WORLDS]
    items = []
    first = seed * FAULT_SEEDS_PER_RUN
    for fault_seed in range(first, first + FAULT_SEEDS_PER_RUN):
        for label, world in worlds:
            for mix in FAULT_MIXES:
                corrupted, ledger = fault_injector.inject(world, mix,
                                                          seed=fault_seed)
                text = corrupted.transcript()
                for i, advisor in enumerate(ADVISORS):
                    key = f"{label}/{'+'.join(mix)}/s{fault_seed}/{advisor}"
                    items.append(Item(key, label, text, len(corrupted.steps),
                                      ledger=ledger, advisor=advisor,
                                      builds=i == 0))
    return items


def digest(items: list[Item]) -> str:
    """Hash of every transcript, truth and ledger, for the determinism check."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.key.encode())
        h.update(item.transcript.encode())
        for part in (item.truth, item.ledger):
            if part is not None:
                h.update(json.dumps(part.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _canonical(g: NavGraph) -> set[tuple]:
    return {(g.nodes[e.src], g.nodes[e.dst], e.direction, e.step_id)
            for e in g.edges()}


def _reachable(g: NavGraph) -> set[str]:
    return g.reachable_from(g.origin) if g.origin in g.nodes else set()


def _check_reload(wal: Path, graph: NavGraph, when: str) -> None:
    if not version_store.VersionChain.load(wal).graph.state_equal(graph):
        raise CheckFailed(f"WAL reload differs from the in-memory map {when}")


def _make_advisor(item: Item):
    if item.advisor == "oracle":
        return advisors.OracleAdvisor(item.ledger)
    return advisors.HeuristicAdvisor()


def _build(item: Item, wal: Path, out: Outcome) -> NavGraph:
    start = time.perf_counter()
    chain = version_store.VersionChain(wal)
    try:
        transcript_parser.construct_graph(
            transcript_parser.parse_transcript(item.transcript), chain)
    finally:
        chain.close()
    out.build_s = time.perf_counter() - start
    out.wal_bytes, out.commits = wal.stat().st_size, len(chain.commits)
    return chain.graph


def _run(item: Item, wal: Path, pristine: Path, check: bool, untimed,
         out: Outcome) -> None:
    if item.builds:
        built = _build(item, wal, out)
    else:
        with untimed():
            shutil.copyfile(pristine, wal)
            built = version_store.VersionChain.load(wal).graph

    with untimed():
        if check and item.builds:
            _check_reload(wal, built, "after build")
        if item.ledger is None:
            if check and conflict_detector.detect_all(built):
                raise CheckFailed("a clean world built with conflicts")
            out.truth_ok = _canonical(built) == _canonical(item.truth)
            if check and not out.truth_ok:
                raise CheckFailed("built map differs from the world's truth")
            truth_rooms = {item.truth.nodes[n] for n in _reachable(item.truth)}
            out.rooms_before = len(truth_rooms)
            out.rooms_kept = len(truth_rooms
                                 & {built.nodes[n] for n in _reachable(built)})
            return
        if item.builds:
            shutil.copyfile(wal, pristine)
        if check and not conflict_detector.detect_all(built):
            raise CheckFailed("a faulted world shows no conflict")
        before = _reachable(built)
        advisor = _make_advisor(item)

    start = time.perf_counter()
    chain = version_store.VersionChain.load(wal, append=True)
    try:
        graph, sessions, metrics = repair_engine.run_repair(
            chain, repair_engine.ToolConfig(), advisor, ledger=item.ledger)
    finally:
        chain.close()
    out.repair_s = time.perf_counter() - start

    with untimed():
        if check:
            _check_reload(wal, graph, "after repair")
        out.truth_ok = item.ledger.all_fixed(graph, ignore_silent=True)
        out.rooms_before = len(before)
        out.rooms_kept = len(before & _reachable(graph))
        out.sessions, out.metrics = sessions, metrics
        out.wal_bytes, out.commits = wal.stat().st_size, len(chain.commits)


def run_item(item: Item, wal: Path, check: bool,
             untimed=nullcontext) -> Outcome:
    """Time one item; with `check`, also verify its outputs.  `untimed`
    wraps bookkeeping that a tracer must not attribute to the library.
    A repair item that builds leaves a copy of its built WAL beside `wal`
    for the next item with ``builds=False``."""
    out = Outcome(item)
    try:
        _run(item, wal, wal.with_suffix(".built"), check, untimed, out)
    except Exception as exc:  # one failed item is counted; the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        wal.unlink(missing_ok=True)
    return out


def run_pass(items: list[Item], workdir: Path, check: bool, tracer=None,
             between=None, deadline: float = float("inf")) -> list[Outcome]:
    """One pass over `items`, cut short at `deadline` (a perf_counter
    time).  `between()` runs before each item, untimed, and returns the
    index of the speed sample taken last."""
    wal = workdir / "item.jsonl"
    untimed = tracer.paused if tracer is not None else nullcontext
    outcomes = []
    for item in items:
        if time.perf_counter() >= deadline:
            break
        ref = between() if between is not None else 0
        if tracer is not None:
            tracer.item = item.key
        out = run_item(item, wal, check, untimed)
        out.ref = ref
        outcomes.append(out)
    return outcomes
