"""Vertex sets as integer bitmasks.

A set of vertices of a graph on n vertices is an int whose bit v is set
when vertex v is a member.  Python ints give arbitrary width, so the same
representation serves graphs of any supported order.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def from_iter(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def to_list(mask: int) -> list[int]:
    """Members of the set in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def full(n: int) -> int:
    """The set {0, ..., n-1}."""
    return (1 << n) - 1
