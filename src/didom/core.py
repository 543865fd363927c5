"""Digraph and undirected-graph representations and structural predicates.

Vertices are dense 0-based indices; a graph stores one out-adjacency bitmask
per vertex (see :mod:`didom.bitset`) and derives its in-adjacency.  An
undirected graph is a symmetric digraph, so every digraph function takes one
as its bidirected digraph.  Both graph types are immutable after construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from didom import bitset
from didom.errors import ArcListParseError, CapacityError, Deadline, InvalidArcError

MAX_VERTICES = 4096


@dataclass(frozen=True)
class Digraph:
    """A finite irreflexive digraph.

    ``out_adj[v]`` / ``in_adj[v]`` are bitmasks of the open out-/in-neighbors
    of v.  Only ``out_adj`` is a field: ``in_adj`` is its transpose.
    """

    n: int
    out_adj: tuple[int, ...]

    @cached_property
    def in_adj(self) -> tuple[int, ...]:
        in_adj = [0] * self.n
        for u, mask in enumerate(self.out_adj):
            for v in bitset.to_list(mask):
                in_adj[v] |= 1 << u
        return tuple(in_adj)

    def out_closed(self, v: int) -> int:
        return self.out_adj[v] | (1 << v)

    def in_closed(self, v: int) -> int:
        return self.in_adj[v] | (1 << v)

    def out_degree(self, v: int) -> int:
        return self.out_adj[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_adj[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_adj[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, m in enumerate(self.out_adj) if m for v in bitset.to_list(m)]

    @cached_property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_adj)

    @cached_property
    def min_in_degree(self) -> int:
        return min((m.bit_count() for m in self.in_adj), default=0)

    @cached_property
    def max_out_degree(self) -> int:
        return max((m.bit_count() for m in self.out_adj), default=0)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


class UndirectedGraph(Digraph):
    """A symmetric digraph: ``out_adj`` and ``in_adj`` are one tuple, ``adj``.
    It never equals a Digraph, since dataclass equality compares classes."""

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        # written as cached_property writes, a fifth faster than through the
        # dataclass __init__ (642 ns against 802 ns on CPython 3.11): every
        # underlying_graph call builds one, and every packing left to a kernel
        fields = self.__dict__
        fields["n"] = n
        fields["out_adj"] = fields["in_adj"] = adj

    @property
    def adj(self) -> tuple[int, ...]:
        return self.out_adj

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in self.arcs() if u < v]

    @property
    def edge_count(self) -> int:
        return self.arc_count // 2

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edge_count})"


def build_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a digraph from an arc list.

    Duplicate arcs collapse silently; self-loops and out-of-range indices are
    rejected, naming the offending arc.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceeds capacity {MAX_VERTICES}")
    out_adj = [0] * n
    in_adj = [0] * n
    for u, v in arcs:
        if u == v:
            raise InvalidArcError(f"self-loop ({u}, {v}) is not allowed", (u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidArcError(f"arc ({u}, {v}) out of range for n={n}", (u, v))
        out_adj[u] |= 1 << v
        in_adj[v] |= 1 << u
    d = Digraph(n, tuple(out_adj))
    # fill the cached transpose while the arcs are read: derived later, it cost peak memory
    d.__dict__["in_adj"] = tuple(in_adj)
    return d


def build_undirected(n: int, edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build an undirected graph: the underlying graph of the arc list, with
    ``build_digraph``'s checks."""
    return underlying_graph(build_digraph(n, edges))


def underlying_graph(d: Digraph) -> UndirectedGraph:
    """The undirected graph with an edge wherever at least one arc exists."""
    # tuple() of a list, not of a generator: a generator's tuple is sized
    # by resizing, which drains CPython's free list of one tuple size into
    # others, where the freed tuples pile up until a full collection
    return UndirectedGraph(d.n, tuple([o | i for o, i in zip(d.out_adj, d.in_adj)]))


def girth(g: UndirectedGraph, *, deadline: Optional[Deadline] = None) -> Optional[int]:
    """Length of a shortest cycle, or None when the graph is a forest.

    Every cycle lies in the 2-core, what is left once vertices of degree at
    most 1 are peeled until none is left (Batagelj & Zaversnik 2003).  A
    forest peels to nothing in one pass over its edges and returns None
    with no search.  Otherwise a BFS runs from a core vertex, inside the
    core; its least closing-edge estimate is at most the shortest cycle
    through the root, and every estimate is at least the girth (Itai &
    Rodeh 1978).  So once its BFS ends the root is peeled too, with what
    that leaves of degree at most 1, and the next root is taken from what
    is left; on a cycle the first BFS is the only one.  A triangle ends the
    search at once, since no cycle is shorter.  Each BFS root polls
    ``deadline`` (None: no bound), so a search past it raises SolveTimeout.
    """
    adj = g.adj
    degree = [m.bit_count() for m in adj]
    core = bitset.full(g.n)
    peel = [v for v in range(g.n) if degree[v] <= 1]
    poll = Deadline().poll if deadline is None else deadline.poll
    best: Optional[int] = None
    dist = [-1] * g.n
    parent = [0] * g.n
    while True:
        while peel:
            v = peel.pop()
            core ^= 1 << v
            for w in bitset.to_list(adj[v] & core):
                degree[w] -= 1
                if degree[w] == 1:
                    peel.append(w)
        if not core:
            return best
        poll()
        root = (core & -core).bit_length() - 1
        dist[root] = 0
        parent[root] = -1
        order = [root]
        for x in order:  # the BFS queue: the loop reaches what it appends
            dx = dist[x]
            if best is not None and 2 * dx >= best:
                break
            for y in bitset.to_list(adj[x] & core):
                if dist[y] == -1:
                    dist[y] = dx + 1
                    parent[y] = x
                    order.append(y)
                elif y != parent[x]:
                    cycle = dx + dist[y] + 1
                    if cycle == 3:
                        return 3
                    if best is None or cycle < best:
                        best = cycle
        for v in order:
            dist[v] = -1
        peel.append(root)


def underlying_connected(d: Digraph) -> bool:
    return is_connected(underlying_graph(d))


def is_connected(g: UndirectedGraph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bitset.to_list(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == bitset.full(g.n)


def is_tree(g: UndirectedGraph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def is_ditree(d: Digraph) -> bool:
    """True when the underlying graph is a tree."""
    return is_tree(underlying_graph(d))


def is_acyclic_digraph(d: Digraph) -> bool:
    """True when the digraph has no directed cycle (Kahn peeling)."""
    indeg = [d.in_degree(v) for v in range(d.n)]
    queue = deque(v for v in range(d.n) if indeg[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in bitset.to_list(d.out_adj[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == d.n


class LeafClasses(NamedTuple):
    """Vertex masks over the underlying graph.  A leaf has underlying degree
    1, and is isolated when it also has no in-neighbors; a support vertex
    neighbors at least one leaf, a strong support at least two.  A vertex
    can be in several masks (both vertices of a 2-path are leaves and
    supports)."""

    isolated_leaves: int
    non_isolated_leaves: int
    supports: int
    strong_supports: int


def classify_leaves(d: Digraph) -> LeafClasses:
    """The leaves and support vertices of d, as masks."""
    un = underlying_graph(d)
    leaves = isolated = supports = strong = 0
    for v, nbrs in enumerate(un.adj):
        if nbrs.bit_count() == 1:
            leaves |= 1 << v
            if not d.in_adj[v]:
                isolated |= 1 << v
            # a leaf's one neighbor is a support, strong the second time
            strong |= supports & nbrs
            supports |= nbrs
    return LeafClasses(isolated, leaves ^ isolated, supports, strong)


# ---------------------------------------------------------------------------
# Arc-list text format: line 1 is "n <N>", then one "<u> <v>" arc per line.
# "#" starts a comment, blank lines are ignored, indices are 0-based decimal.
# ---------------------------------------------------------------------------


def dumps_arclist(d: Digraph) -> str:
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"


def loads_arclist(text: str) -> Digraph:
    n: Optional[int] = None
    arcs: list[tuple[int, int]] = []
    lines: list[int] = []  # the line of each arc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ArcListParseError("expected header 'n <count>'", line_no)
            try:
                n = int(parts[1])
            except ValueError:
                raise ArcListParseError(f"bad vertex count {parts[1]!r}", line_no) from None
            if n < 0:
                raise ArcListParseError(f"negative vertex count {n}", line_no)
            continue
        if len(parts) != 2:
            raise ArcListParseError(f"expected '<u> <v>', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ArcListParseError(f"non-integer arc {line!r}", line_no) from None
        arcs.append((u, v))
        lines.append(line_no)
    if n is None:
        raise ArcListParseError("empty input: missing 'n <count>' header", 1)
    try:
        return build_digraph(n, arcs)
    except InvalidArcError as exc:
        # build_digraph stops at the first invalid arc, so that arc's first
        # occurrence is its line
        u, v = exc.arc
        line_no = lines[arcs.index(exc.arc)]
        raise ArcListParseError(f"invalid arc ({u}, {v}) for n={n}", line_no) from None


def write_arclist(d: Digraph, path_or_file) -> None:
    if hasattr(path_or_file, "write"):
        path_or_file.write(dumps_arclist(d))
    else:
        with open(path_or_file, "w", encoding="ascii") as fh:
            fh.write(dumps_arclist(d))


def read_arclist(path_or_file) -> Digraph:
    if hasattr(path_or_file, "read"):
        return loads_arclist(path_or_file.read())
    with open(path_or_file, "r", encoding="ascii") as fh:
        return loads_arclist(fh.read())
