"""Definition-level witness validators.

Each predicate re-checks a witness straight from its definition, without
touching the solvers or auxiliary graphs, so solver results can be audited
by genuinely independent code.  The digraph predicates take an undirected
graph as its bidirected digraph.
"""

from __future__ import annotations

from didom import bitset
from didom.core import Digraph, UndirectedGraph


def is_dominating_set(d: Digraph, members: int) -> bool:
    """Union of closed out-neighborhoods of ``members`` covers V."""
    covered = members
    for v in bitset.iter_bits(members):
        covered |= d.out_adj[v]
    return covered == bitset.full(d.n)


def is_total_dominating_set(d: Digraph, members: int) -> bool:
    """Union of open out-neighborhoods of ``members`` covers V."""
    covered = 0
    for v in bitset.iter_bits(members):
        covered |= d.out_adj[v]
    return covered == bitset.full(d.n)


def _packing_by_definition(d: Digraph, members: int) -> bool:
    # No arcs joining members, and no vertex with arcs to two members.
    for v in bitset.iter_bits(members):
        if d.out_adj[v] & members:
            return False
    for m in d.out_adj:
        if (m & members).bit_count() >= 2:
            return False
    return True


def _packing_by_disjointness(d: Digraph, members: int) -> bool:
    # Closed in-neighborhoods of members are pairwise disjoint.
    seen = 0
    for v in bitset.iter_bits(members):
        closed_in = d.in_adj[v] | (1 << v)
        if closed_in & seen:
            return False
        seen |= closed_in
    return True


def is_packing(d: Digraph, members: int) -> bool:
    """Packing check through both definitional routes, asserting agreement."""
    by_def = _packing_by_definition(d, members)
    by_disj = _packing_by_disjointness(d, members)
    if by_def != by_disj:
        raise AssertionError(
            f"packing formulations disagree on {bitset.to_list(members)}"
        )
    return by_def


def is_open_packing(d: Digraph, members: int) -> bool:
    """Open in-neighborhoods of members are pairwise disjoint."""
    vs = bitset.to_list(members)
    for a in range(len(vs)):
        for b in range(a + 1, len(vs)):
            if d.in_adj[vs[a]] & d.in_adj[vs[b]]:
                return False
    return True


def is_independent_set(g: UndirectedGraph, members: int) -> bool:
    for v in bitset.iter_bits(members):
        if g.adj[v] & members:
            return False
    return True


def is_clique(g: UndirectedGraph, members: int) -> bool:
    for v in bitset.iter_bits(members):
        rest = members & ~(1 << v)
        if rest & ~g.adj[v]:
            return False
    return True


def is_set_cover(sets: list[int], chosen: tuple[int, ...], universe: int) -> bool:
    covered = 0
    for i in chosen:
        covered |= sets[i]
    return covered & universe == universe


def is_perfect_elimination_order(g: UndirectedGraph, order: tuple[int, ...]) -> bool:
    """Later neighbors of every vertex form a clique (quadratic re-check)."""
    if sorted(order) != list(range(g.n)):
        return False
    eliminated = 0
    for v in order:
        eliminated |= 1 << v
        later = g.adj[v] & ~eliminated
        if not is_clique(g, later):
            return False
    return True
