"""Digraph and undirected-graph representations and structural predicates.

Vertices are dense 0-based indices; adjacency is stored as one bitmask per
vertex (see :mod:`didom.bitset`).  Both graph types are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from didom import bitset
from didom.errors import ArcListParseError, CapacityError, InvalidArcError

MAX_VERTICES = 4096

# Tags assigned by classify_leaves.  A vertex can carry several (a vertex of
# a 2-path is both a leaf and a support).
ISOLATED_LEAF = "isolated_leaf"
NON_ISOLATED_LEAF = "non_isolated_leaf"
SUPPORT = "support"
STRONG_SUPPORT = "strong_support"
OTHER = "other"


@dataclass(frozen=True)
class Digraph:
    """A finite irreflexive digraph.

    ``out_adj[v]`` / ``in_adj[v]`` are bitmasks of the open out-/in-neighbors
    of v.  The two directions are kept consistent by the constructors.
    """

    n: int
    out_adj: tuple[int, ...]
    in_adj: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def out_open(self, v: int) -> int:
        return self.out_adj[v]

    def out_closed(self, v: int) -> int:
        return self.out_adj[v] | (1 << v)

    def in_open(self, v: int) -> int:
        return self.in_adj[v]

    def in_closed(self, v: int) -> int:
        return self.in_adj[v] | (1 << v)

    def out_degree(self, v: int) -> int:
        return self.out_adj[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_adj[v].bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_adj[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bitset.iter_bits(self.out_adj[u])]

    @cached_property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_adj)

    @cached_property
    def min_in_degree(self) -> int:
        return min((m.bit_count() for m in self.in_adj), default=0)

    @cached_property
    def max_out_degree(self) -> int:
        return max((m.bit_count() for m in self.out_adj), default=0)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


@dataclass(frozen=True)
class UndirectedGraph:
    """Symmetric irreflexive adjacency; ``adj[v]`` is the open neighborhood."""

    n: int
    adj: tuple[int, ...]

    # The graph read as its bidirected digraph: the digraph solvers,
    # validators and auxiliary graphs take an undirected graph as it is.
    out_adj = in_adj = property(lambda self: self.adj)

    def neighborhood(self, v: int) -> int:
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    out_closed = closed_neighborhood

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.n)
            for v in bitset.iter_bits(self.adj[u] >> (u + 1) << (u + 1))
        ]

    @cached_property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edge_count})"


def build_digraph(
    n: int,
    arcs: Iterable[tuple[int, int]],
    labels: Optional[Sequence[str]] = None,
) -> Digraph:
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
            raise InvalidArcError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidArcError(f"arc ({u}, {v}) out of range for n={n}")
        out_adj[u] |= 1 << v
        in_adj[v] |= 1 << u
    if labels is not None:
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        labels = tuple(labels)
    return Digraph(n, tuple(out_adj), tuple(in_adj), labels)


def build_undirected(n: int, edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    """Build an undirected graph; self-loops and bad indices are rejected."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"{n} vertices exceeds capacity {MAX_VERTICES}")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise InvalidArcError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidArcError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return UndirectedGraph(n, tuple(adj))


def underlying_graph(d: Digraph) -> UndirectedGraph:
    """The undirected graph with an edge wherever at least one arc exists."""
    return UndirectedGraph(d.n, tuple(o | i for o, i in zip(d.out_adj, d.in_adj)))


def as_bidirected(g: UndirectedGraph) -> Digraph:
    """The digraph with both arc directions on every edge of ``g``."""
    return Digraph(g.n, g.adj, g.adj)


def girth(g: UndirectedGraph) -> Optional[int]:
    """Length of a shortest cycle, or None when the graph is a forest.

    BFS from every vertex; the minimum closing-edge estimate over all roots
    is exact for unweighted graphs.
    """
    best: Optional[int] = None
    dist = [0] * g.n
    parent = [0] * g.n
    for root in range(g.n):
        for v in range(g.n):
            dist[v] = -1
        dist[root] = 0
        parent[root] = -1
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if best is not None and 2 * dist[x] >= best:
                break
            for y in bitset.iter_bits(g.adj[x]):
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    cycle = dist[x] + dist[y] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def underlying_connected(d: Digraph) -> bool:
    return is_connected(underlying_graph(d))


def is_connected(g: UndirectedGraph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bitset.iter_bits(frontier):
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
        for w in bitset.iter_bits(d.out_adj[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == d.n


def classify_leaves(d: Digraph) -> tuple[frozenset[str], ...]:
    """Per-vertex structural tags over the underlying graph.

    A leaf has underlying degree 1; it is isolated when it additionally has
    no in-neighbors.  A support vertex neighbors at least one leaf, a strong
    support at least two.  All applicable tags are reported; ``other`` marks
    vertices with none.
    """
    un = underlying_graph(d)
    leaf_mask = bitset.from_iter(v for v in range(un.n) if un.degree(v) == 1)
    tags = []
    for v in range(un.n):
        t = set()
        if leaf_mask >> v & 1:
            t.add(ISOLATED_LEAF if d.in_adj[v] == 0 else NON_ISOLATED_LEAF)
        leaf_neighbors = (un.adj[v] & leaf_mask).bit_count()
        if leaf_neighbors >= 1:
            t.add(SUPPORT)
        if leaf_neighbors >= 2:
            t.add(STRONG_SUPPORT)
        if not t:
            t.add(OTHER)
        tags.append(frozenset(t))
    return tuple(tags)


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
        try:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InvalidArcError("")
        except InvalidArcError:
            raise ArcListParseError(f"invalid arc ({u}, {v}) for n={n}", line_no) from None
        arcs.append((u, v))
    if n is None:
        raise ArcListParseError("empty input: missing 'n <count>' header", 1)
    return build_digraph(n, arcs)


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
