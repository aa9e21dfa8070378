"""Synthetic worlds with known ground truth, plus parameterized faults.

A World bundles a MANGO-format transcript with the graph it reconstructs.
Faults corrupt the transcript only; the ledger records (true, corrupted)
specs so oracle advisors and correctness metrics can judge repairs.
World generation is deterministic; fault injection is deterministic in
its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .conflict_detector import detect_all
from .graph_core import (
    COMPASS, Edge, NavGraph, displacement, normalize_name, reverse_direction,
)
from .transcript_parser import construct_graph, parse_transcript
from .version_store import TRIGGER_OBSERVATION, VersionChain, add

FAULT_MISDIRECTION = "misdirection"
FAULT_MISNAME = "misname"
FAULT_PHANTOM = "phantom_edge"
FAULT_SILENT = "silent_misdirection"


@dataclass(frozen=True)
class WorldSpec:
    shape: str  # "grid" | "tree" | "loopchain"
    params: tuple[int, ...]


@dataclass(frozen=True)
class Fault:
    kind: str
    step: int
    true_direction: Optional[str] = None
    corrupted_direction: Optional[str] = None
    true_name: Optional[str] = None
    corrupted_name: Optional[str] = None

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def edges_by_step(g: NavGraph) -> dict[int, list[Edge]]:
    """Every edge of `g` under its step id, in `g.edges()` order: the sites
    of all faults from one pass over the graph."""
    sites: dict[int, list[Edge]] = {}
    for e in g.edges():
        if e[3] in sites:
            sites[e[3]].append(e)
        else:
            sites[e[3]] = [e]
    return sites


def _site(g: NavGraph, fault: Fault) -> list[Edge]:
    return [e for e in g.edges() if e.step_id == fault.step]


def fixed_at(g: NavGraph, fault: Fault, site: Sequence[Edge]) -> bool:
    """`FaultLedger.fixed`, given the edges of the fault's step."""
    if fault.kind == FAULT_PHANTOM:
        return not site
    if fault.kind in (FAULT_MISDIRECTION, FAULT_SILENT):
        return bool(site) and all(
            e.direction == fault.true_direction for e in site)
    if fault.kind == FAULT_MISNAME:
        return bool(site) and all(
            normalize_name(g.nodes[e.dst]) == normalize_name(fault.true_name)
            for e in site)
    raise ValueError(fault.kind)


def corrupted_at(fault: Fault, site: Sequence[Edge]) -> Optional[Edge]:
    """`FaultLedger.corrupted_edge`, given the edges of the fault's step in
    `g.edges()` order."""
    for e in site:
        if fault.kind not in (FAULT_MISDIRECTION, FAULT_SILENT) or \
                e.direction == fault.corrupted_direction:
            return e
    return None


_FAULT_KINDS = frozenset({FAULT_MISDIRECTION, FAULT_MISNAME, FAULT_PHANTOM,
                         FAULT_SILENT})
_FAULT_FIELDS = frozenset(Fault.__dataclass_fields__)


@dataclass
class FaultLedger:
    faults: list[Fault] = field(default_factory=list)

    def fixed(self, g: NavGraph, fault: Fault) -> bool:
        """Does the graph match ground truth at this fault's site?"""
        return fixed_at(g, fault, _site(g, fault))

    def all_fixed(self, g: NavGraph, ignore_silent: bool = False) -> bool:
        sites = edges_by_step(g)
        return all(fixed_at(g, f, sites.get(f.step, ())) for f in self.faults
                   if not (ignore_silent and f.kind == FAULT_SILENT))

    def corrupted_edge(self, g: NavGraph, fault: Fault) -> Optional[Edge]:
        return corrupted_at(fault, _site(g, fault))

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.faults]

    @classmethod
    def from_json(cls, data: list[dict]) -> "FaultLedger":
        """Raises ValueError, naming the row, on anything but a list of
        fault objects of a known kind with their kind and step."""
        if not isinstance(data, list):
            raise ValueError("fault ledger: not a list of faults")
        for i, d in enumerate(data):
            if not isinstance(d, dict):
                raise ValueError(f"fault ledger row {i}: not an object")
            unknown = sorted(set(d) - _FAULT_FIELDS)
            if unknown:
                raise ValueError(f"fault ledger row {i}: unknown key(s) "
                                 f"{', '.join(unknown)}")
            missing = [k for k in ("kind", "step") if k not in d]
            if missing:
                raise ValueError(f"fault ledger row {i}: missing "
                                 f"{', '.join(missing)}")
            if d["kind"] not in _FAULT_KINDS:
                raise ValueError(f"fault ledger row {i}: unknown kind "
                                 f"{d['kind']!r}")
        return cls(faults=[Fault(**d) for d in data])


@dataclass
class World:
    # steps[i] = (act, observation); step 0 is the Init block
    steps: list[tuple[str, str]]
    truth: NavGraph

    def transcript(self) -> str:
        blocks = []
        for i, (act, obs) in enumerate(self.steps):
            blocks.append(f"===========\n==>STEP NUM: {i}\n"
                          f"==>ACT: {act}\n==>OBSERVATION: {obs}")
        return "\n".join(blocks) + "\n"

    def build(self, log_path=None) -> VersionChain:
        chain = VersionChain(log_path=log_path)
        construct_graph(parse_transcript(self.transcript()), chain)
        return chain


def _world_from_walk(names: Sequence[str],
                     moves: Sequence[tuple[str, str]]) -> World:
    """Walk = origin name + (direction, destination name) per move."""
    truth = NavGraph()
    ids = {names[0]: truth.add_node(names[0])}
    steps = [("Init", f"{names[0]}\nYou are here.")]
    cursor = ids[names[0]]
    for i, (direction, dst_name) in enumerate(moves, start=1):
        if dst_name not in ids:
            ids[dst_name] = truth.add_node(dst_name)
        truth.add_edge(cursor, ids[dst_name], direction, i)
        cursor = ids[dst_name]
        steps.append((direction, dst_name))
    return World(steps=steps, truth=truth)


def generate_grid(width: int, height: int) -> World:
    """Serpentine spanning walk over a width x height lattice."""
    if width < 1 or height < 1 or width * height < 2:
        raise ValueError("grid needs at least 2 rooms")

    def name(x, y):
        return f"Room {x}-{y}"

    moves = []
    x, y = 0, 0
    for row in range(height):
        stride = range(1, width) if row % 2 == 0 else range(width - 2, -1, -1)
        for nx in stride:
            moves.append(("east" if nx > x else "west", name(nx, y)))
            x = nx
        if row + 1 < height:
            y += 1
            moves.append(("north", name(x, y)))
    return _world_from_walk([name(0, 0)], moves)


def generate_loopchain(n: int) -> World:
    """One-directional loop of n rooms around a rectangle perimeter."""
    if n < 4 or n % 2:
        raise ValueError("loopchain needs an even n >= 4")
    a = (n // 2) // 2
    b = n // 2 - a
    dirs = ["north"] * a + ["east"] * b + ["south"] * a + ["west"] * b
    names = [f"Room {i}" for i in range(n)]
    moves = [(dirs[i], names[(i + 1) % n]) for i in range(n)]
    return _world_from_walk(names, moves)


_TREE_DIR_ORDER = ("north", "east", "south", "west", "northeast",
                   "southeast", "southwest", "northwest", "up", "down")


def generate_tree(depth: int, branching: int) -> World:
    """DFS walk over a lattice-embedded tree; return moves use the exact
    reverse direction, and the final walk back to the root is trimmed."""
    if depth < 1 or branching < 1:
        raise ValueError("tree needs depth >= 1 and branching >= 1")
    occupied = {(0, 0, 0)}
    counter = [0]
    # (direction, destination, is_return_move)
    moves: list[tuple[str, str, bool]] = []

    def visit(name: str, pos, level: int, incoming: Optional[str]):
        if level >= depth:
            return
        banned = {reverse_direction(incoming)} if incoming else set()
        placed = 0
        for d in _TREE_DIR_ORDER:
            if placed >= branching:
                break
            if d in banned:
                continue
            dx, dy, dz = displacement(d)
            child_pos = (pos[0] + dx, pos[1] + dy, pos[2] + dz)
            if child_pos in occupied:
                continue
            occupied.add(child_pos)
            counter[0] += 1
            child = f"Room {counter[0]}"
            moves.append((d, child, False))
            visit(child, child_pos, level + 1, d)
            moves.append((reverse_direction(d), name, True))
            placed += 1

    root = "Room 0"
    visit(root, (0, 0, 0), 0, None)
    while moves and moves[-1][2]:
        moves.pop()  # the walk need not return to the root at the end
    return _world_from_walk([root], [(d, dst) for d, dst, _ in moves])


def generate_world(spec: WorldSpec) -> World:
    shapes = {"grid": generate_grid, "tree": generate_tree,
              "loopchain": generate_loopchain}
    if spec.shape not in shapes:
        raise ValueError(f"unknown world shape: {spec.shape}")
    return shapes[spec.shape](*spec.params)


# ---------------------------------------------------------------------------
# fault injection


def _corrupt_steps(world: World, step: int, act=None, obs=None) -> World:
    steps = list(world.steps)
    old_act, old_obs = steps[step]
    steps[step] = (act or old_act, obs or old_obs)
    return World(steps=steps, truth=world.truth)


def _walk_sources(world: World) -> list[str]:
    """Source room name of each step's move (index-aligned with steps)."""
    out = [""]
    cursor = world.steps[0][1].splitlines()[0]
    for act, obs in world.steps[1:]:
        out.append(cursor)
        cursor = obs.splitlines()[0]
    return out


def inject(world: World, kinds: Sequence[str], seed: int = 0,
           explicit: Sequence[Fault] = ()) -> tuple[World, FaultLedger]:
    """Corrupt the transcript with one fault per requested kind.

    Each fault is drawn at random (seeded) from the choices of its kind:
    a silent misdirection from those whose built map shows no conflict,
    every other kind from those whose built map shows one.  A misdirection
    always changes the map: its step commits an edge in a direction the
    truth lacks there.  Explicit faults, when given, are applied verbatim
    before the drawn ones.
    """
    rng = random.Random(seed)
    ledger = FaultLedger()
    corrupted = world
    for fault in explicit:
        corrupted = _apply_fault(corrupted, fault)
        ledger.faults.append(fault)
    for kind in kinds:
        fault, corrupted = _draw_fault(corrupted, kind, rng)
        ledger.faults.append(fault)
    return corrupted, ledger


def _apply_fault(world: World, fault: Fault) -> World:
    if fault.kind in (FAULT_MISDIRECTION, FAULT_SILENT):
        return _corrupt_steps(world, fault.step,
                              act=fault.corrupted_direction)
    if fault.kind == FAULT_MISNAME:
        return _corrupt_steps(world, fault.step, obs=fault.corrupted_name)
    if fault.kind == FAULT_PHANTOM:
        steps = list(world.steps)
        steps.append((fault.corrupted_direction, fault.corrupted_name))
        return World(steps=steps, truth=world.truth)
    raise ValueError(fault.kind)


def _fault_options(corrupted: World, kind: str) -> list[tuple]:
    """Every fault of `kind` this transcript can take, in a fixed order, as
    the `Fault` fields after `kind`: there are O(rooms^2) misname options,
    and a `Fault` is made only of those tried."""
    sources = _walk_sources(corrupted)
    move_steps = [i for i in range(1, len(corrupted.steps))
                  if corrupted.steps[i][0] in COMPASS]
    options = []
    if kind in (FAULT_MISDIRECTION, FAULT_SILENT):
        for step in move_steps:
            true_dir = corrupted.steps[step][0]
            used = {corrupted.steps[i][0] for i in range(1, len(corrupted.steps))
                    if sources[i] == sources[step]}
            options.extend((step, true_dir, d) for d in sorted(COMPASS - used))
    elif kind == FAULT_MISNAME:
        visited: list[str] = [corrupted.steps[0][1].splitlines()[0]]
        for step in move_steps:
            name = corrupted.steps[step][1].splitlines()[0]
            if name not in visited:
                # corrupt only first arrivals, and never to the move's own
                # source room: that would read as a blocked move, not an edge
                options.extend((step, None, None, name, other)
                               for other in visited if other != sources[step])
            visited.append(name)
    elif kind == FAULT_PHANTOM:
        final_src = corrupted.steps[-1][1].splitlines()[0]
        used = {corrupted.steps[i][0] for i in range(1, len(corrupted.steps))
                if sources[i] == final_src}
        names = sorted({obs.splitlines()[0]
                        for _, obs in corrupted.steps}) + [final_src]
        options.extend((len(corrupted.steps), None, d, None, n)
                       for d in sorted(COMPASS - used)
                       for n in names if n != final_src)
    else:
        raise ValueError(kind)
    return options


def _draw_fault(corrupted: World, kind: str,
                rng: random.Random) -> tuple[Fault, World]:
    """A seeded random fault of `kind` whose built map shows a conflict,
    or, for a silent misdirection, shows none."""
    options = _fault_options(corrupted, kind)
    rng.shuffle(options)
    for fields in options:
        fault = Fault(kind, *fields)
        trial = _apply_fault(corrupted, fault)
        if bool(detect_all(trial.build().graph)) != (kind == FAULT_SILENT):
            return fault, trial
    raise ValueError(f"no viable {kind} fault for this world")


def first_visible_commit(world: World) -> Optional[int]:
    """Replay construction commit by commit; first head with a conflict."""
    chain = world.build()
    probe = VersionChain()
    for c in chain.commits:
        probe.commit(c.deltas, c.trigger, c.obs_id, c.analysis,
                     new_nodes=c.new_nodes, renames=c.renames, drops=c.drops)
        if detect_all(probe.graph):
            return probe.head
    return None


# ---------------------------------------------------------------------------
# ten-room branching demo: a misdirected edge whose conflict surfaces two
# rooms away, a second fault exposed only after the first fix, and a silent
# third on a dead end.

_DEMO_EDGES = (
    # (step, src, dst, true_dir, corrupted_dir)
    (1, "Room B", "Room C", "north", None),
    (2, "Room C", "Room D", "north", None),
    (3, "Room D", "Room F", "west", None),
    (4, "Room B", "Room E", "east", None),
    (5, "Room E", "Room G", "east", "north"),
    (6, "Room G", "Room H", "north", None),
    (7, "Room H", "Room I", "west", None),
    (8, "Room E", "Room B", "west", None),   # corroborates B->E
    (9, "Room E", "Room A", "southeast", "northeast"),
    (10, "Room E", "Room J", "south", "southwest"),
)


def demo_chain(corrupted: bool = True,
               log_path=None) -> tuple[VersionChain, FaultLedger]:
    chain = VersionChain(log_path=log_path)
    ids: dict[str, str] = {}
    ledger = FaultLedger()
    origin = _DEMO_EDGES[0][1]
    ids[origin] = chain.allocate_node_id()
    chain.commit([], TRIGGER_OBSERVATION, obs_id=0, analysis=origin,
                 new_nodes=[(ids[origin], origin)])
    for step, src, dst, true_dir, bad_dir in _DEMO_EDGES:
        new_nodes = []
        if dst not in ids:
            ids[dst] = chain.allocate_node_id()
            new_nodes.append((ids[dst], dst))
        direction = bad_dir if (corrupted and bad_dir) else true_dir
        chain.commit([add(Edge(ids[src], ids[dst], direction, step))],
                     TRIGGER_OBSERVATION, obs_id=step,
                     analysis=f"{dst} lies {direction} of {src}",
                     new_nodes=new_nodes)
        if corrupted and bad_dir:
            kind = FAULT_SILENT if dst == "Room J" else FAULT_MISDIRECTION
            ledger.faults.append(Fault(kind, step, true_direction=true_dir,
                                       corrupted_direction=bad_dir))
    return chain, ledger
