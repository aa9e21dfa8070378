"""Navigation graph: named locations joined by direction-labeled edges.

The graph is a directed multigraph.  Structurally conflicting edges (two
north exits, self-loops, duplicate names) are admitted on insertion; finding
them is the conflict detector's job, removing them the refiner's.  An
`Edge` is a named tuple: it hashes, compares and orders by its fields.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import DuplicateEdge, DuplicateNode, InvalidDelta, UnknownNode

DIRECTIONS = (
    "north", "south", "east", "west", "up", "down",
    "northeast", "northwest", "southeast", "southwest",
    "in", "out", "enter", "exit",
)

REVERSE = {
    "north": "south", "south": "north",
    "east": "west", "west": "east",
    "up": "down", "down": "up",
    "northeast": "southwest", "southwest": "northeast",
    "northwest": "southeast", "southeast": "northwest",
    "in": "out", "out": "in",
    "enter": "exit", "exit": "enter",
}

# east = +x, north = +y, up = +z.  Containment moves carry no displacement.
DISPLACEMENT = {
    "north": (0, 1, 0), "south": (0, -1, 0),
    "east": (1, 0, 0), "west": (-1, 0, 0),
    "up": (0, 0, 1), "down": (0, 0, -1),
    "northeast": (1, 1, 0), "northwest": (-1, 1, 0),
    "southeast": (1, -1, 0), "southwest": (-1, -1, 0),
    "in": (0, 0, 0), "out": (0, 0, 0),
    "enter": (0, 0, 0), "exit": (0, 0, 0),
}

#: Directions that move on the lattice and therefore propagate positions.
COMPASS = frozenset(d for d, v in DISPLACEMENT.items() if v != (0, 0, 0))


def is_direction(s) -> bool:
    return type(s) is str and s in REVERSE


def reverse_direction(d: str) -> str:
    return REVERSE[d]


def displacement(d: str) -> tuple[int, int, int]:
    return DISPLACEMENT[d]


def normalize_name(name: str) -> str:
    """Case-fold, trim and collapse internal whitespace."""
    return " ".join(name.casefold().split())


class Edge(NamedTuple):
    """A tuple of its fields: it hashes, compares and orders as
    `(src, dst, direction, step_id)`, and cannot be changed."""

    src: str
    dst: str
    direction: str
    step_id: int

    @property
    def key(self) -> tuple[str, str, int]:
        # (src, direction, step_id) is unique within one graph
        return (self.src, self.direction, self.step_id)

    def to_json(self) -> dict:
        return {"src": self.src, "dst": self.dst,
                "dir": self.direction, "step": self.step_id}

    @classmethod
    def from_json(cls, d: dict) -> "Edge":
        return cls(d["src"], d["dst"], d["dir"], d["step"])


@dataclass
class NavGraph:
    nodes: dict[str, str] = field(default_factory=dict)  # id -> raw name
    origin: Optional[str] = None
    _name_index: dict[str, set[str]] = field(default_factory=dict)
    # The one edge index, src -> direction -> step_id -> Edge; empty levels
    # are pruned.  `in_edges` and `neighborhood` scan it.
    _out: dict[str, dict[str, dict[int, Edge]]] = field(default_factory=dict)
    # dst -> number of edges entering it, for `remove_node`; no zero counts
    _in_degree: dict[str, int] = field(default_factory=dict)
    _next_id: int = 0

    @classmethod
    def build(cls, rooms: Iterable[tuple[str, str]],
              edges: Iterable[Edge]) -> "NavGraph":
        """A fresh graph with `add_node` of each `(id, name)` room, the
        first one the origin, then `insert_edge` of each `Edge`.  It
        refuses what those calls refuse, with their errors: a duplicate
        room id (`DuplicateNode`), an edge end that is no room
        (`UnknownNode`), an unknown direction (`ValueError`) and a second
        edge of one (src, direction, step) key (`DuplicateEdge`).  A
        refused input leaves no graph behind."""
        g = cls()
        for nid, name in rooms:
            g.add_node(name, node_id=nid)
        for edge in edges:
            g.insert_edge(edge)
        return g

    # -- nodes ------------------------------------------------------------

    def add_node(self, name: str, node_id: Optional[str] = None) -> str:
        """Add a fresh node, the origin if the graph is empty.  Same-name
        nodes are admitted, never reused."""
        key = normalize_name(name)  # a name that is not a str raises here
        if node_id is None:
            node_id = self.fresh_id()
        elif node_id in self.nodes:
            raise DuplicateNode(f"node id already in use: {node_id}")
        if not self.nodes:
            self.origin = node_id
        self.nodes[node_id] = name
        self._name_index.setdefault(key, set()).add(node_id)
        return node_id

    def fresh_id(self) -> str:
        nid = f"n{self._next_id}"
        while nid in self.nodes:
            self._next_id += 1
            nid = f"n{self._next_id}"
        self._next_id += 1
        return nid

    def node_name(self, node_id: str) -> str:
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        return self.nodes[node_id]

    def nodes_named(self, name: str) -> set[str]:
        return set(self._name_index.get(normalize_name(name), ()))

    def namesakes(self) -> Iterator[tuple[str, frozenset[str]]]:
        """(normalized name, ids) for every name two or more nodes share,
        in no particular order."""
        return ((name, frozenset(ids)) for name, ids in self._name_index.items()
                if len(ids) >= 2)

    def _unindex_name(self, node_id: str, name: str) -> None:
        ids = self._name_index[normalize_name(name)]
        ids.discard(node_id)
        if not ids:
            del self._name_index[normalize_name(name)]

    def rename_node(self, node_id: str, new_name: str) -> None:
        key = normalize_name(new_name)
        self._unindex_name(node_id, self.node_name(node_id))
        self.nodes[node_id] = new_name
        self._name_index.setdefault(key, set()).add(node_id)

    def remove_node(self, node_id: str) -> None:
        """Remove a node with no incident edges; the origin only as the
        last node, so the origin never moves to another node."""
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        if node_id in self._out or node_id in self._in_degree:
            raise InvalidDelta(f"node still has edges: {node_id}")
        if node_id == self.origin:
            if len(self.nodes) > 1:
                raise InvalidDelta(f"origin {node_id} is not the last node")
            self.origin = None
        self._unindex_name(node_id, self.nodes.pop(node_id))

    # -- edges ------------------------------------------------------------

    def add_edge(self, src: str, dst: str, direction: str, step_id: int) -> Edge:
        return self.insert_edge(Edge(src, dst, direction, step_id))

    def insert_edge(self, edge: Edge) -> Edge:
        """`add_edge` of an `Edge` already built; it is stored as it is.
        An edge refused for its ends, direction or key leaves no trace."""
        src, dst, direction, step_id = edge
        if src not in self.nodes:
            raise UnknownNode(src)
        if dst not in self.nodes:
            raise UnknownNode(dst)
        if direction not in REVERSE:  # an unhashable one raises TypeError
            raise ValueError(f"unknown direction: {direction!r}")
        by_dir = self._out.get(src)
        if by_dir is None:
            self._out[src] = {direction: {step_id: edge}}
        else:
            by_step = by_dir.get(direction)
            if by_step is None:
                by_dir[direction] = {step_id: edge}
            elif step_id in by_step:
                raise DuplicateEdge(
                    f"duplicate (src, direction, step): {edge.key}")
            else:
                by_step[step_id] = edge
        self._in_degree[dst] = self._in_degree.get(dst, 0) + 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        if not self.has_edge(edge):
            raise UnknownNode(f"edge not present: {edge}")
        src, dst, direction, step_id = edge
        by_dir = self._out[src]
        del by_dir[direction][step_id]
        if not by_dir[direction]:
            del by_dir[direction]
        if not by_dir:
            del self._out[src]
        if self._in_degree[dst] == 1:
            del self._in_degree[dst]
        else:
            self._in_degree[dst] -= 1

    def has_edge(self, edge: Edge) -> bool:
        src, _, direction, step_id = edge
        return self._out.get(src, {}).get(direction, {}).get(step_id) == edge

    def _out_iter(self, src: str) -> Iterator[Edge]:
        return (e for by_step in self._out.get(src, {}).values()
                for e in by_step.values())

    def edges(self) -> Iterator[Edge]:
        return (e for by_dir in self._out.values()
                for by_step in by_dir.values() for e in by_step.values())

    def edge_set(self) -> set[Edge]:
        return set(self.edges())

    def out_edges(self, src: str, direction: Optional[str] = None) -> list[Edge]:
        if direction is not None:
            return sorted(self._out.get(src, {}).get(direction, {}).values())
        return sorted(self._out_iter(src))

    def in_edges(self, dst: str) -> list[Edge]:
        return sorted(e for e in self.edges() if e.dst == dst)

    def edges_between(self, src: str, dst: str) -> list[Edge]:
        return sorted(e for e in self._out_iter(src) if e.dst == dst)

    def adjacency(self) -> Mapping[str, Mapping[str, Mapping[int, Edge]]]:
        """The graph's one edge index, src -> direction -> step id -> Edge,
        for passes that walk it in place.  Only sources with an exit have an
        entry, and no level is empty.  Neither the sources, the directions
        nor the steps come in any particular order.  Read-only: it is the
        live index, not a copy, and is valid until the graph next changes."""
        return self._out

    # -- queries ----------------------------------------------------------

    def reachable_from(self, start: str) -> set[str]:
        if start not in self.nodes:
            raise UnknownNode(start)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for e in self._out_iter(node):
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return seen

    def reach_sizes(self, starts: Iterable[str]) -> dict[str, int]:
        """`len(self.reachable_from(s))` for every `s` in `starts`, from one
        pass: Tarjan's strongly connected components over what the starts
        reach.  Tarjan closes a component only after every component it
        reaches, so a component's reach is an int bitset of its own nodes
        OR-ed with its successor components' bitsets.  Each node's
        destinations are read from the index once, when it is numbered."""
        out = self._out
        number: dict[str, int] = {}  # node -> DFS number, its bit
        low: dict[str, int] = {}
        component: dict[str, int] = {}  # node -> index into `reach`
        successors: dict[str, list[str]] = {}
        reach: list[int] = []
        stack: list[str] = []  # visited nodes whose component is open

        def visit(node: str) -> tuple:
            """Number and push `node`; its DFS frame is the node, an
            iterator over its destinations and its place on the stack."""
            number[node] = low[node] = len(number)
            stack.append(node)
            by_dir = out.get(node)
            dsts = successors[node] = [] if by_dir is None else [
                e[1] for by_step in by_dir.values() for e in by_step.values()]
            return node, iter(dsts), len(stack) - 1

        roots = list(starts)
        for root in roots:
            if root not in self.nodes:
                raise UnknownNode(root)
            if root in number:
                continue
            work = [visit(root)]
            while work:
                node, dsts, depth = work[-1]
                for m in dsts:
                    if m not in number:
                        work.append(visit(m))
                        break
                    if m not in component and number[m] < low[node]:
                        low[node] = number[m]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                    if low[node] != number[node]:
                        continue
                    members = stack[depth:]
                    del stack[depth:]
                    index, bits = len(reach), 0
                    for m in members:
                        component[m] = index
                        bits |= 1 << number[m]
                    for m in members:
                        for d in successors[m]:
                            c = component[d]
                            if c != index:
                                bits |= reach[c]
                    reach.append(bits)
        return {s: reach[component[s]].bit_count() for s in roots}

    def neighborhood(self, seeds: Iterable[str], radius: int = 2) -> "NavGraph":
        """Induced subgraph within undirected `radius` hops of seeds.  One
        pass over the index finds every room's sources; each hop then reads
        the frontier's exits and sources only.  `build` makes the subgraph
        from the kept rooms and the edges among them, in this graph's
        order."""
        out = self._out
        sources: dict[str, set[str]] = {}  # dst -> sources of edges into it
        for src, by_dir in out.items():
            for by_step in by_dir.values():
                for e in by_step.values():
                    dst = e[1]
                    if dst in sources:
                        sources[dst].add(src)
                    else:
                        sources[dst] = {src}
        keep = set(seeds)
        frontier = set(keep)
        for _ in range(radius):
            reached: set[str] = set()
            for n in frontier:
                for by_step in out.get(n, {}).values():
                    reached.update([e[1] for e in by_step.values()])
                reached |= sources.get(n, set())
            frontier = reached - keep
            keep |= frontier
        rooms = [(nid, name) for nid, name in self.nodes.items()
                 if nid in keep]
        sub = NavGraph.build(rooms, [e for nid, _ in rooms
                                     for e in self._out_iter(nid)
                                     if e[1] in keep])
        sub.origin = self.origin if self.origin in keep else None
        return sub

    # -- maintenance ------------------------------------------------------

    def copy(self) -> "NavGraph":
        """An independent graph of the same state and next fresh id, whose
        nodes and edges iterate in this graph's order (`build`)."""
        g = NavGraph.build(self.nodes.items(), self.edges())
        g.origin, g._next_id = self.origin, self._next_id
        return g

    def state_equal(self, other: "NavGraph") -> bool:
        return (self.nodes == other.nodes
                and self.origin == other.origin
                and self._out == other._out)

    def indices_consistent(self) -> bool:
        """Do the indices equal ones rebuilt from the nodes and edges, and
        does every edge join two nodes?"""
        name_index: dict[str, set[str]] = {}
        for nid, name in self.nodes.items():
            name_index.setdefault(normalize_name(name), set()).add(nid)
        out: dict[str, dict[str, dict[int, Edge]]] = {}
        for e in self.edges():
            out.setdefault(e.src, {}).setdefault(e.direction, {})[e.step_id] = e
        in_degree = Counter(e.dst for e in self.edges())
        ends = {m for e in self.edges() for m in e[:2]}
        return (name_index == self._name_index and out == self._out
                and in_degree == self._in_degree
                and ends <= self.nodes.keys())

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": nid, "name": name} for nid, name in self.nodes.items()],
            "edges": [e.to_json() for e in sorted(self.edges())],
            "origin": self.origin,
        }

    @classmethod
    def from_json(cls, data: dict) -> "NavGraph":
        """Refuses what `build` refuses and, with a ValueError naming the
        row, an id, name, src or dst not a str or a step not an int."""
        for table, key, want, noun in (
                ("nodes", "id", str, "a str"), ("nodes", "name", str, "a str"),
                ("edges", "src", str, "a str"), ("edges", "dst", str, "a str"),
                ("edges", "step", int, "an int")):
            for i, row in enumerate(data[table]):
                if type(row[key]) is not want:
                    raise ValueError(f"{table} row {i}: {key} not {noun}: "
                                     f"{row[key]!r}")
        g = cls.build([(n["id"], n["name"]) for n in data["nodes"]],
                      [Edge.from_json(d) for d in data["edges"]])
        origin = data.get("origin")
        if origin is not None and origin not in g.nodes:
            raise UnknownNode(f"origin is not a node: {origin!r}")
        g.origin = origin
        return g

    def to_dot(self) -> str:
        """The graph in Graphviz DOT, each id and name a quoted string with
        its `\\` and `"` escaped."""
        lines = ["digraph navmap {"]
        for nid, name in self.nodes.items():
            shape = ' shape=doubleoctagon' if nid == self.origin else ""
            lines.append(f'  {_dot_quoted(nid)} '
                         f'[label={_dot_quoted(name)}{shape}];')
        for e in sorted(self.edges()):
            lines.append(
                f'  {_dot_quoted(e.src)} -> {_dot_quoted(e.dst)} '
                f'[label="{e.direction} (step {e.step_id})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_quoted(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
