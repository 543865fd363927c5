"""Cartesian and direct products of digraphs, with fiber views.

Product vertices are flattened row-major: pair (g, h) sits at index
g * n_H + h, so witnesses decode back to factor pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from didom import bitset
from didom.core import MAX_VERTICES, Digraph
from didom.errors import CapacityError


@dataclass(frozen=True)
class ProductVertexMap:
    """Bijection between factor pairs and flat product indices."""

    n_g: int
    n_h: int

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise IndexError(f"pair ({g}, {h}) outside {self.n_g}x{self.n_h}")
        return g * self.n_h + h

    def decode(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n_g * self.n_h:
            raise IndexError(f"index {index} outside {self.n_g * self.n_h} vertices")
        return divmod(index, self.n_h)

    def g_fiber(self, h: int) -> int:
        """Vertices (g, h) over all g: the copy of the first factor at h."""
        if not 0 <= h < self.n_h:
            raise IndexError(f"fiber index {h} outside factor of order {self.n_h}")
        return bitset.from_iter(g * self.n_h + h for g in range(self.n_g))

    def h_fiber(self, g: int) -> int:
        """Vertices (g, h) over all h: the copy of the second factor at g."""
        if not 0 <= g < self.n_g:
            raise IndexError(f"fiber index {g} outside factor of order {self.n_g}")
        base = g * self.n_h
        return bitset.full(self.n_h) << base


def _product_guard(g: Digraph, h: Digraph) -> None:
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")
    if g.n * h.n > MAX_VERTICES:
        raise CapacityError(
            f"product order {g.n * h.n} exceeds capacity {MAX_VERTICES}"
        )


def cartesian_product(g: Digraph, h: Digraph) -> tuple[Digraph, ProductVertexMap]:
    """(g1,h1) -> (g2,h2) iff one coordinate moves along a factor arc while
    the other stays fixed; |A| = n_G*|A(H)| + n_H*|A(G)|."""
    _product_guard(g, h)
    pmap = ProductVertexMap(g.n, h.n)
    out_adj = []
    for a in range(g.n):
        base = a * h.n
        move_g = g.out_adj[a]
        for b in range(h.n):
            mask = h.out_adj[b] << base
            for a2 in bitset.iter_bits(move_g):
                mask |= 1 << (a2 * h.n + b)
            out_adj.append(mask)
    return Digraph(g.n * h.n, tuple(out_adj)), pmap


def direct_product(g: Digraph, h: Digraph) -> tuple[Digraph, ProductVertexMap]:
    """(g1,h1) -> (g2,h2) iff both coordinates move along factor arcs;
    |A| = |A(G)|*|A(H)| and fibers are independent sets."""
    _product_guard(g, h)
    pmap = ProductVertexMap(g.n, h.n)
    out_adj = []
    for a in range(g.n):
        move_g = g.out_adj[a]
        for b in range(h.n):
            mask = 0
            for a2 in bitset.iter_bits(move_g):
                mask |= h.out_adj[b] << (a2 * h.n)
            out_adj.append(mask)
    return Digraph(g.n * h.n, tuple(out_adj)), pmap


def induced_subdigraph(d: Digraph, members: int) -> Digraph:
    """The subdigraph induced on ``members``, renumbered 0..k-1 in index order."""
    verts = bitset.to_list(members)
    index = {v: i for i, v in enumerate(verts)}
    return Digraph(
        len(verts),
        tuple(
            bitset.from_iter(index[w] for w in bitset.iter_bits(d.out_adj[v] & members))
            for v in verts
        ),
    )
