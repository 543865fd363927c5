"""Correctness checks written from the definitions alone.

A digraph is built from ``(n, arcs)`` with arcs ``(u, v)`` over vertices
``0..n-1``; vertex sets are bitmasks, bit v standing for vertex v.  Nothing here
imports didom, so the benchmark audits the program's answers with code that
shares none of its logic: no auxiliary graphs, no branch and bound, no
``didom.validate``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional


def members_of(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def mask_of(members: Iterable[int]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


class Arcs:
    """Open out- and in-neighbourhoods of one digraph, as bitmasks."""

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]):
        self.n = n
        self.out = [0] * n
        self.inn = [0] * n
        for u, v in arcs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) is not an arc of a digraph on {n} vertices")
            self.out[u] |= 1 << v
            self.inn[v] |= 1 << u

    def symmetric(self) -> "Arcs":
        """The underlying graph, as a digraph with both arcs of each edge."""
        sym = Arcs(self.n, ())
        for v in range(self.n):
            sym.out[v] = sym.inn[v] = self.out[v] | self.inn[v]
        return sym


def dominates(d: Arcs, members: int) -> bool:
    """Closed out-neighbourhoods of the members cover every vertex."""
    covered = members
    for v in members_of(members):
        covered |= d.out[v]
    return covered == (1 << d.n) - 1


def totally_dominates(d: Arcs, members: int) -> bool:
    """Open out-neighbourhoods of the members cover every vertex."""
    covered = 0
    for v in members_of(members):
        covered |= d.out[v]
    return covered == (1 << d.n) - 1


def is_packing(d: Arcs, members: int) -> bool:
    """Closed in-neighbourhoods of the members are pairwise disjoint."""
    seen = 0
    for v in members_of(members):
        closed_in = d.inn[v] | (1 << v)
        if closed_in & seen:
            return False
        seen |= closed_in
    return True


def is_open_packing(d: Arcs, members: int) -> bool:
    """Open in-neighbourhoods of the members are pairwise disjoint."""
    seen = 0
    for v in members_of(members):
        if d.inn[v] & seen:
            return False
        seen |= d.inn[v]
    return True


def is_acyclic(d: Arcs) -> bool:
    indeg = [bin(m).count("1") for m in d.inn]
    ready = [v for v in range(d.n) if indeg[v] == 0]
    removed = 0
    while ready:
        u = ready.pop()
        removed += 1
        for v in members_of(d.out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return removed == d.n


def is_ditree(d: Arcs) -> bool:
    """The underlying graph is a tree: connected with n - 1 edges."""
    if d.n == 0:
        return False
    sym = d.symmetric()
    edges = sum(bin(m).count("1") for m in sym.out) // 2
    reached, frontier = 1, 1
    while frontier:
        step = 0
        for v in members_of(frontier):
            step |= sym.out[v]
        frontier = step & ~reached
        reached |= frontier
    return edges == d.n - 1 and reached == (1 << d.n) - 1


def has_source(d: Arcs) -> bool:
    return any(m == 0 for m in d.inn)


def max_out_degree(d: Arcs) -> int:
    return max((bin(m).count("1") for m in d.out), default=0)


# ---------------------------------------------------------------------------
# Products, with the flattening the program documents: (g, h) -> g * n_H + h.
# ---------------------------------------------------------------------------


def cartesian(g: Arcs, h: Arcs) -> Arcs:
    """(g1,h1)->(g2,h2) iff one coordinate follows an arc, the other stays."""
    arcs = []
    for a in range(g.n):
        for b in range(h.n):
            v = a * h.n + b
            arcs += [(v, a * h.n + b2) for b2 in members_of(h.out[b])]
            arcs += [(v, a2 * h.n + b) for a2 in members_of(g.out[a])]
    return Arcs(g.n * h.n, arcs)


def direct(g: Arcs, h: Arcs) -> Arcs:
    """(g1,h1)->(g2,h2) iff both coordinates follow arcs."""
    arcs = []
    for a in range(g.n):
        for b in range(h.n):
            v = a * h.n + b
            for a2 in members_of(g.out[a]):
                arcs += [(v, a2 * h.n + b2) for b2 in members_of(h.out[b])]
    return Arcs(g.n * h.n, arcs)


# ---------------------------------------------------------------------------
# Subset-enumeration oracle.
# ---------------------------------------------------------------------------

ORACLE_LIMIT = 16

_MINIMISE = {"gamma": dominates, "gamma_t": totally_dominates}
_MAXIMISE = {"rho": is_packing, "rho_o": is_open_packing}


def oracle(d: Arcs, which: str) -> Optional[int]:
    """Exact invariant by enumerating vertex subsets from the definition.

    ``gamma_t`` is None when some vertex has no in-neighbour.  Apply it to
    ``d.symmetric()`` for the undirected domination, 2-packing and open
    packing numbers of the underlying graph.
    """
    if d.n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} vertices, got {d.n}")
    if which == "gamma_t" and (d.n == 0 or has_source(d)):
        return None
    if which in _MINIMISE:
        predicate, sizes = _MINIMISE[which], range(0, d.n + 1)
    else:
        predicate, sizes = _MAXIMISE[which], range(d.n, -1, -1)
    for size in sizes:
        for combo in combinations(range(d.n), size):
            if predicate(d, mask_of(combo)):
                return size
    raise ValueError(f"no {which} set exists")
