"""Auxiliary undirected graphs and their structural checks.

Packings of a digraph are exactly the independent sets of its closed
in-neighborhood graph (and open packings those of the open variant), which
is what lets the exact independent-set kernel compute packing numbers.
``solvers.packing_against`` builds them only for the packings that its
root bounds do not certify, and ``solvers.all_maximum_packings`` builds the
closed one to enumerate the maximum packings once ``packing_against`` has
solved their size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from didom import bitset
from didom.core import Digraph, UndirectedGraph
from didom.errors import CliqueLimitExceeded, Deadline

CLIQUE_CAP = 1_000_000  # maximal_cliques raises past this many


def _clique_union(n: int, sets, deadline: Optional[Deadline]) -> UndirectedGraph:
    """The graph on n vertices in which every set of the family induces a
    clique (and no other edges).  Each set polls ``deadline`` (None: no
    bound), so a construction past it raises SolveTimeout."""
    adj = [0] * n
    for m in sets:
        if deadline is not None:
            deadline.poll()
        rem = m
        while rem:
            low = rem & -rem
            rem ^= low
            adj[low.bit_length() - 1] |= m
    for v in range(n):
        adj[v] &= ~(1 << v)
    return UndirectedGraph(n, tuple(adj))


def closed_in_neighborhood_graph(
    d: Digraph, deadline: Optional[Deadline] = None
) -> UndirectedGraph:
    """Edge uv iff the closed in-neighborhoods of u and v intersect.

    Equivalently: every closed out-neighborhood N+[w] induces a clique.
    On an undirected graph this is its square (edges at distance <= 2).
    Each N+[w] polls ``deadline`` (None: no bound).
    """
    return _clique_union(d.n, [d.out_closed(w) for w in range(d.n)], deadline)


def open_in_neighborhood_graph(d: Digraph, deadline: Optional[Deadline] = None) -> UndirectedGraph:
    """Edge uv iff the open in-neighborhoods of u and v intersect; on an
    undirected graph, iff u and v have a common neighbor.  Each N+(w)
    polls ``deadline`` (None: no bound)."""
    return _clique_union(d.n, d.out_adj, deadline)


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


def maximal_cliques(g: UndirectedGraph, *, deadline: Optional[Deadline] = None) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch with pivoting).

    The result is complete, duplicate-free, and sorted by member lists;
    more than ``CLIQUE_CAP`` cliques raise CliqueLimitExceeded, and a search
    past ``deadline`` (None: no bound) raises SolveTimeout.
    """
    if g.n == 0:
        return []
    poll = Deadline().poll if deadline is None else deadline.poll
    out: list[int] = []
    adj = g.adj
    # the search path by depth k: the clique, candidates, excluded vertices
    # and branch vertices left of its k-th node that has children.  Lists,
    # not the call stack, so no recursion limit bounds the depth.
    rs, ps, xs, branches = ([0] * (g.n + 1) for _ in range(4))
    r, p, x, k = 0, bitset.full(g.n), 0, -1
    while True:
        poll()  # entering the node (r, p, x)
        if not p and not x:
            out.append(r)
            if len(out) > CLIQUE_CAP:
                raise CliqueLimitExceeded(f"more than {CLIQUE_CAP} maximal cliques")
        else:
            pivot = -1
            best = -1
            for u in bitset.iter_bits(p | x):
                c = (p & adj[u]).bit_count()
                if c > best:
                    best = c
                    pivot = u
            k += 1
            rs[k], ps[k], xs[k], branches[k] = r, p, x, p & ~adj[pivot]
        while k >= 0 and not branches[k]:
            k -= 1
        if k < 0:
            break
        low = branches[k] & -branches[k]
        v = low.bit_length() - 1
        branches[k] ^= low
        p, x = ps[k], xs[k]
        ps[k], xs[k] = p & ~low, x | low
        r, p, x = rs[k] | low, p & adj[v], x & adj[v]
    return sorted(out, key=bitset.to_list)

