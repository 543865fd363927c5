"""Auxiliary undirected graphs and their structural checks.

Packings of a digraph are exactly the independent sets of its closed
in-neighborhood graph (and open packings those of the open variant), which
is what lets the exact independent-set kernel compute packing numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Optional

from didom import bitset
from didom.core import Digraph, UndirectedGraph
from didom.errors import CliqueLimitExceeded, SolveTimeout

DEFAULT_CLIQUE_CAP = 1_000_000


def _clique_union(n: int, sets) -> UndirectedGraph:
    """The graph on n vertices in which every set of the family induces a
    clique (and no other edges)."""
    adj = [0] * n
    for m in sets:
        rem = m
        while rem:
            low = rem & -rem
            rem ^= low
            adj[low.bit_length() - 1] |= m
    for v in range(n):
        adj[v] &= ~(1 << v)
    return UndirectedGraph(n, tuple(adj))


def closed_in_neighborhood_graph(d: Digraph) -> UndirectedGraph:
    """Edge uv iff the closed in-neighborhoods of u and v intersect.

    Equivalently: every closed out-neighborhood N+[w] induces a clique.
    On an undirected graph this is its square (edges at distance <= 2).
    """
    return _clique_union(d.n, [d.out_closed(w) for w in range(d.n)])


def open_in_neighborhood_graph(d: Digraph) -> UndirectedGraph:
    """Edge uv iff the open in-neighborhoods of u and v intersect; on an
    undirected graph, iff u and v have a common neighbor."""
    return _clique_union(d.n, d.out_adj)


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    elimination_order: Optional[tuple[int, ...]]  # perfect elimination order
    hole: Optional[tuple[int, ...]]  # induced chordless cycle, length >= 4

    def __bool__(self) -> bool:
        return self.chordal


def _lex_bfs(g: UndirectedGraph) -> list[int]:
    # O(n^2) label-list variant; ties broken toward the lowest index.
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order = []
    for step in range(g.n):
        best = -1
        for v in range(g.n):
            if not visited[v] and (best == -1 or labels[v] > labels[best]):
                best = v
        visited[best] = True
        order.append(best)
        for w in bitset.iter_bits(g.adj[best]):
            if not visited[w]:
                labels[w].append(g.n - step)
    return order


def _peo_violation(
    g: UndirectedGraph, elimination: list[int]
) -> Optional[tuple[int, int, int]]:
    # Tarjan-Yannakakis test; returns (v, u, w) with u, w non-adjacent
    # later-neighbors of v on failure.
    pos = [0] * g.n
    for i, v in enumerate(elimination):
        pos[v] = i
    eliminated = 0
    for v in elimination:
        eliminated |= 1 << v
        later = g.adj[v] & ~eliminated
        if not later:
            continue
        w = min(bitset.iter_bits(later), key=lambda u: pos[u])
        rest = later & ~(1 << w) & ~g.adj[w]
        if rest:
            u = (rest & -rest).bit_length() - 1
            return v, u, w
    return None


def _find_hole(g: UndirectedGraph) -> Optional[tuple[int, ...]]:
    # Shortest u-w path avoiding N[v] - {u, w} closes a chordless cycle
    # through v whenever u, w are non-adjacent neighbors of v.
    for v in range(g.n):
        nbrs = bitset.to_list(g.adj[v])
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u, w = nbrs[ai], nbrs[bi]
                if g.has_arc(u, w):
                    continue
                allowed = ~g.out_closed(v) | (1 << u) | (1 << w)
                prev = {u: -1}
                queue = deque([u])
                while queue:
                    x = queue.popleft()
                    if x == w:
                        break
                    for y in bitset.iter_bits(g.adj[x] & allowed):
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                if w in prev:
                    path = [w]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return tuple([v] + path[::-1])
    return None


def is_chordal(g: UndirectedGraph) -> ChordalityResult:
    """Certifying chordality test.

    Chordal graphs come with a perfect elimination order; non-chordal ones
    with an induced chordless cycle of length at least 4.
    """
    elimination = _lex_bfs(g)[::-1]
    if _peo_violation(g, elimination) is None:
        return ChordalityResult(True, tuple(elimination), None)
    hole = _find_hole(g)
    if hole is None:
        raise AssertionError("elimination check failed but no hole found")
    return ChordalityResult(False, None, hole)


def maximal_cliques(
    g: UndirectedGraph, cap: int = DEFAULT_CLIQUE_CAP, *, timeout_ms: Optional[float] = None
) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch with pivoting).

    The result is complete, duplicate-free, and sorted by member lists; the
    cap turns pathological inputs into CliqueLimitExceeded, and a search
    past ``timeout_ms`` (None: no deadline) into SolveTimeout.
    """
    if g.n == 0:
        return []
    deadline = None if timeout_ms is None else monotonic() + timeout_ms / 1000.0
    out: list[int] = []
    adj = g.adj

    def expand(r: int, p: int, x: int) -> None:
        if deadline is not None and monotonic() > deadline:
            raise SolveTimeout("clique enumeration exceeded its deadline")
        if not p and not x:
            out.append(r)
            if len(out) > cap:
                raise CliqueLimitExceeded(f"more than {cap} maximal cliques")
            return
        pivot = -1
        best = -1
        for u in bitset.iter_bits(p | x):
            c = (p & adj[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        for v in bitset.iter_bits(p & ~adj[pivot]):
            expand(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, bitset.full(g.n), 0)
    return sorted(out, key=bitset.to_list)

