"""Synthetic worlds with known ground truth, plus parameterized faults.

A World bundles a MANGO-format transcript with the graph it reconstructs.
Faults corrupt the transcript only; the ledger records (true, corrupted)
specs so oracle advisors and correctness metrics can judge repairs.
World generation is deterministic; fault injection is deterministic in
its seed.

`inject` draws each fault by trying the options of its kind in a seeded
random order until one shows on the built map as it must.  The options
are counted and made one by one, by index, so only the tried ones cost
anything; `rng.shuffle` of their indices makes the swaps a shuffle of the
options themselves would make, so a seed draws the same faults either way.
A trial fault at step k leaves the commits before k as they were, so each
`World` keeps a private build record: its parsed steps and the commits
construction makes of all of them, built once when the record is made.  A
trial replays the record's commits before k, parses only its own block,
constructs the steps from k on (`transcript_parser.extend_graph`) and
runs `detect_all` on the whole map; it never changes the record.  The
record is used only while `World.steps` is what it was made from, and an
accepted trial hands its own to the corrupted world, for the next draw of
a mix.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .conflict_detector import detect_all
from .errors import MalformedBlock, MapRepairError, NonMonotonicStep
from .graph_core import (
    COMPASS, Edge, NavGraph, displacement, is_direction, normalize_name,
    reverse_direction,
)
from .transcript_parser import (
    WalkthroughStep, construct_graph, extend_graph, parse_block,
    parse_transcript,
)
from .version_store import TRIGGER_OBSERVATION, Commit, VersionChain, add

FAULT_MISDIRECTION = "misdirection"
FAULT_MISNAME = "misname"
FAULT_PHANTOM = "phantom_edge"
FAULT_SILENT = "silent_misdirection"


@dataclass(frozen=True)
class WorldSpec:
    shape: str  # "grid" | "tree" | "loopchain" | "walk"
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


#: The fields each fault kind needs besides its kind and step.
_KIND_FIELDS = {
    FAULT_MISDIRECTION: ("true_direction", "corrupted_direction"),
    FAULT_SILENT: ("true_direction", "corrupted_direction"),
    FAULT_MISNAME: ("true_name",),
    FAULT_PHANTOM: (),
}
_FAULT_FIELDS = frozenset(Fault.__dataclass_fields__)


@dataclass
class FaultLedger:
    faults: list[Fault] = field(default_factory=list)

    def fixed(self, g: NavGraph, fault: Fault) -> bool:
        """Does the graph match ground truth at this fault's site?"""
        return fixed_at(g, fault, edges_by_step(g).get(fault.step, ()))

    def all_fixed(self, g: NavGraph, ignore_silent: bool = False) -> bool:
        sites = edges_by_step(g)
        return all(fixed_at(g, f, sites.get(f.step, ())) for f in self.faults
                   if not (ignore_silent and f.kind == FAULT_SILENT))

    def corrupted_edge(self, g: NavGraph, fault: Fault) -> Optional[Edge]:
        return corrupted_at(fault, edges_by_step(g).get(fault.step, ()))

    def to_json(self) -> list[dict]:
        return [f.to_json() for f in self.faults]

    @classmethod
    def from_json(cls, data: list[dict]) -> "FaultLedger":
        """Raises ValueError, naming the row, on anything but a list of
        fault objects of a known kind with their kind and step, whose step
        is an exact int (`true` is not), direction fields directions and
        name fields strs, and which hold the fields their kind needs
        (`_KIND_FIELDS`)."""
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
            if d["kind"] not in _KIND_FIELDS:
                raise ValueError(f"fault ledger row {i}: unknown kind "
                                 f"{d['kind']!r}")
            if type(d["step"]) is not int:
                raise ValueError(f"fault ledger row {i}: step not an int: "
                                 f"{d['step']!r}")
            for name in ("true_direction", "corrupted_direction"):
                if name in d and not is_direction(d[name]):
                    raise ValueError(f"fault ledger row {i}: {name} not a "
                                     f"direction: {d[name]!r}")
            for name in ("true_name", "corrupted_name"):
                if name in d and type(d[name]) is not str:
                    raise ValueError(f"fault ledger row {i}: {name} not a "
                                     f"str: {d[name]!r}")
            missing = [k for k in _KIND_FIELDS[d["kind"]] if k not in d]
            if missing:
                raise ValueError(f"fault ledger row {i}: {d['kind']} missing "
                                 f"{', '.join(missing)}")
        return cls(faults=[Fault(**d) for d in data])


@dataclass
class World:
    # steps[i] = (act, observation); step 0 is the Init block
    steps: list[tuple[str, str]]
    truth: NavGraph
    # what fault trials know of this world's build (`_build_record`)
    _record: Optional["_BuildRecord"] = field(
        default=None, init=False, repr=False, compare=False)

    def transcript(self) -> str:
        return "\n".join([f"===========\n{_block(i, act, obs)}"
                          for i, (act, obs) in enumerate(self.steps)]) + "\n"

    def build(self, log_path=None) -> VersionChain:
        chain = VersionChain(log_path=log_path)
        construct_graph(parse_transcript(self.transcript()), chain)
        return chain


def _block(i: int, act: str, obs: str) -> str:
    """Step `i`'s block in a transcript, without its separator line."""
    return f"==>STEP NUM: {i}\n==>ACT: {act}\n==>OBSERVATION: {obs}"


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
    reverse direction, and the final walk back to the root is trimmed.  The
    walk keeps the rooms on its way down on a stack, so no depth reaches
    the recursion limit."""
    if depth < 1 or branching < 1:
        raise ValueError("tree needs depth >= 1 and branching >= 1")
    occupied = {(0, 0, 0)}

    def children(pos, level: int, incoming: Optional[str]):
        """Each child direction and position of the room at `pos`, placed
        when the walk asks for it, after the subtrees of those before."""
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
            yield d, child_pos
            placed += 1

    root = "Room 0"
    # (direction, destination, is_return_move)
    moves: list[tuple[str, str, bool]] = []
    # the rooms from the root down: name, entering direction, children
    way = [(root, None, children((0, 0, 0), 0, None))]
    while way:
        _, incoming, rest = way[-1]
        child = next(rest, None)
        if child is None:
            way.pop()
            if way:
                moves.append((reverse_direction(incoming), way[-1][0], True))
            continue
        d, child_pos = child
        child_name = f"Room {len(occupied) - 1}"  # the rooms placed so far
        moves.append((d, child_name, False))
        way.append((child_name, d, children(child_pos, len(way), d)))
    while moves and moves[-1][2]:
        moves.pop()  # the walk need not return to the root at the end
    return _world_from_walk([root], [(d, dst) for d, dst, _ in moves])


def generate_walk(width: int, height: int, moves: int,
                  walk_seed: int) -> World:
    """Seeded random walk of `moves` moves over a width x height lattice
    from its corner, each move to a north, south, east or west neighbour
    drawn uniformly.  Unlike the other shapes it revisits rooms and takes
    exits more than once.  `walk_seed` fixes the walk, so the parameters
    fix the world."""
    if width < 1 or height < 1 or width * height < 2:
        raise ValueError("walk needs at least 2 rooms")
    if moves < 1:
        raise ValueError("walk needs at least 1 move")
    rng = random.Random(walk_seed)
    x = y = 0
    walk = []
    for _ in range(moves):
        options = []
        for d in ("north", "south", "east", "west"):
            dx, dy, _ = displacement(d)
            if 0 <= x + dx < width and 0 <= y + dy < height:
                options.append((d, x + dx, y + dy))
        d, x, y = rng.choice(options)
        walk.append((d, f"Room {x}-{y}"))
    return _world_from_walk(["Room 0-0"], walk)


#: Each world shape's generator, whose parameters are the shape's params.
SHAPES = {"grid": generate_grid, "tree": generate_tree,
          "loopchain": generate_loopchain, "walk": generate_walk}


def generate_world(spec: WorldSpec) -> World:
    if spec.shape not in SHAPES:
        raise ValueError(f"unknown world shape: {spec.shape}")
    return SHAPES[spec.shape](*spec.params)


# ---------------------------------------------------------------------------
# fault injection


def _corrupt_step(world: World, step: int, act=None, obs=None) -> World:
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

    A trial fault at step k costs the construction of the steps from k on
    and one `detect_all` of the whole map: the commits before k come from
    the world's build record (`_build_record`), which is kept on `world`
    for the next `inject` and handed on from draw to draw.
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
        return _corrupt_step(world, fault.step,
                             act=fault.corrupted_direction)
    if fault.kind == FAULT_MISNAME:
        return _corrupt_step(world, fault.step, obs=fault.corrupted_name)
    if fault.kind == FAULT_PHANTOM:
        steps = list(world.steps)
        steps.append((fault.corrupted_direction, fault.corrupted_name))
        return World(steps=steps, truth=world.truth)
    raise ValueError(fault.kind)


def _fault_options(corrupted: World,
                   kind: str) -> tuple[int, Callable[[int], Fault]]:
    """How many faults of `kind` this transcript can take, and the i-th of
    them in a fixed order.  There are O(rooms^2) misname options, so they
    are kept as one block per first arrival, and a `Fault` is made only of
    the options tried."""
    steps = corrupted.steps
    sources = _walk_sources(corrupted)
    used: dict[str, set[str]] = {}  # actions taken from each source room
    for i in range(1, len(steps)):
        used.setdefault(sources[i], set()).add(steps[i][0])
    move_steps = [i for i in range(1, len(steps)) if steps[i][0] in COMPASS]
    if kind in (FAULT_MISDIRECTION, FAULT_SILENT):
        options = [(step, steps[step][0], d) for step in move_steps
                   for d in sorted(COMPASS - used[sources[step]])]
        return len(options), lambda i: Fault(kind, *options[i])
    if kind == FAULT_MISNAME:
        visited: list[str] = [steps[0][1].splitlines()[0]]
        times = Counter(visited)
        # one block per first arrival: its options are the rooms visited
        # before it but the move's source, and `starts` holds the index of
        # each block's first option
        starts: list[int] = []
        blocks: list[tuple[int, str, int, str]] = []
        count = 0
        for step in move_steps:
            name = steps[step][1].splitlines()[0]
            if name not in times:
                # corrupt only first arrivals, and never to the move's own
                # source room: that would read as a blocked move, not an edge
                others = len(visited) - times[sources[step]]
                if others:
                    starts.append(count)
                    blocks.append((step, name, len(visited), sources[step]))
                    count += others
            visited.append(name)
            times[name] += 1

        def misname(i: int) -> Fault:
            b = bisect_right(starts, i) - 1
            step, name, before, source = blocks[b]
            others = (n for n in visited[:before] if n != source)
            for _ in range(i - starts[b]):
                next(others)
            return Fault(kind, step, true_name=name,
                         corrupted_name=next(others))
        return count, misname
    if kind == FAULT_PHANTOM:
        final_src = steps[-1][1].splitlines()[0]
        dirs = sorted(COMPASS - used.get(final_src, set()))
        names = sorted({obs.splitlines()[0] for _, obs in steps} - {final_src})

        def phantom(i: int) -> Fault:
            d, n = divmod(i, len(names))
            return Fault(kind, len(steps), corrupted_direction=dirs[d],
                         corrupted_name=names[n])
        return len(dirs) * len(names), phantom
    raise ValueError(kind)


def _draw_fault(corrupted: World, kind: str,
                rng: random.Random) -> tuple[Fault, World]:
    """A seeded random fault of `kind` whose built map shows a conflict,
    or, for a silent misdirection, shows none.

    The options are tried in the order `rng.shuffle` gives their indices.
    Its swaps depend only on the list's length, so the faults come in the
    order a shuffle of the options themselves would give, and each seed
    draws the faults it always drew.  Each trial is built from the
    world's build record (`_trial`); an accepted trial hands its record to
    the corrupted world it returns."""
    count, option = _fault_options(corrupted, kind)
    order = list(range(count))
    rng.shuffle(order)
    record = _build_record(corrupted)
    for i in order:
        fault = option(i)
        trial = _apply_fault(corrupted, fault)
        chain, parsed = _trial(record, trial, fault.step)
        if bool(detect_all(chain.graph)) != (kind == FAULT_SILENT):
            if parsed is not None:
                trial._record = _BuildRecord(list(trial.steps), parsed,
                                             chain.commits)
            return fault, trial
    raise ValueError(f"no viable {kind} fault for this world")


@dataclass
class _BuildRecord:
    """What fault trials know of one world's build: the world's steps it
    was made from, their parsed steps (None when the transcript does not
    parse to one step per world step numbered as the world numbers them),
    and the commits construction makes of them (none when not parsed, or
    when construction refuses a commit of them)."""
    steps: list[tuple[str, str]]
    parsed: Optional[list[WalkthroughStep]]
    commits: list[Commit]


def _build_record(world: World) -> _BuildRecord:
    """The build record of `world`, made anew (parsed, and its steps
    constructed on a log-less chain) when there is none or `world.steps`
    changed since it was made."""
    record = world._record
    if record is not None and record.steps == world.steps:
        return record
    parsed = None
    # a separator inside a step would split its block from the others
    if not any("=====" in act or "=====" in obs for act, obs in world.steps):
        try:
            parsed = parse_transcript(world.transcript())
        except (MalformedBlock, NonMonotonicStep):
            pass  # every trial then fails or succeeds as a whole build
        if parsed is not None and \
                [s.step_num for s in parsed] != list(range(len(world.steps))):
            parsed = None
    commits: list[Commit] = []
    if parsed is not None:
        chain = VersionChain()
        try:
            extend_graph(parsed, chain)
            commits = chain.commits
        except (MapRepairError, ValueError):
            parsed = None  # a refused commit: trials are built whole too
    world._record = _BuildRecord(list(world.steps), parsed, commits)
    return world._record


_obs_id = attrgetter("obs_id")


def _trial(record: _BuildRecord, trial: World,
           k: int) -> tuple[VersionChain, Optional[list[WalkthroughStep]]]:
    """The log-less build of `trial`, which differs from the record's world
    in step k alone (or appends it), and the trial's parsed steps.

    The chain starts from the record's commits of the steps before k
    (`VersionChain.from_commits`), and construction goes on from step k;
    only step k's block is parsed, and the record is left as it was.  When
    the world's transcript does not parse step for step, the trial is
    built whole (`World.build`)."""
    if record.parsed is None:
        return trial.build(), None
    act, obs = trial.steps[k]
    parsed = record.parsed[:k]
    parsed.append(parse_block(_block(k, act, obs).splitlines(), k - 1))
    parsed += record.parsed[k + 1:]
    chain = VersionChain.from_commits(
        record.commits[:bisect_left(record.commits, k, key=_obs_id)])
    extend_graph(parsed[k:], chain)
    return chain, parsed


def first_visible_commit(world: World) -> Optional[int]:
    """The first version of the world's build whose state has a conflict."""
    chain = world.build()
    return next((v for v in range(len(chain.commits))
                 if detect_all(chain.materialize(v))), None)


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
