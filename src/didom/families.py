"""Generators for the named digraph constructions and harness instances.

Vertices are bare indices: v_k is index k - 1, and a construction with other
names gives their indices, so witnesses read against the figures.  All
randomness goes through an explicitly seeded Mersenne Twister
(`random.Random`), making every generator a pure function of (parameters,
seed).
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import product as iter_product
from typing import Iterator, Sequence

from didom.core import (
    Digraph,
    UndirectedGraph,
    build_digraph,
    build_undirected,
    is_acyclic_digraph,
    is_ditree,
    is_tree,
)

EDGE_FWD = "fwd"
EDGE_BWD = "bwd"
EDGE_BOTH = "both"
EDGE_STATES = (EDGE_FWD, EDGE_BWD, EDGE_BOTH)

LEAF_IN = "in"  # arc from the base vertex into its pendant leaf
LEAF_OUT = "out"  # arc from the pendant leaf into its base vertex
LEAF_BOTH = "both"
LEAF_MODES = (LEAF_IN, LEAF_OUT, LEAF_BOTH)

ENUM_DITREE_LIMIT = 6
# all_dags(n) builds 3^(n(n-1)/2) digraphs: 59,049 at n = 5, 14,348,907 at n = 6
EXHAUSTIVE_DAG_LIMIT = 5


def gen_oriented_cycle(n: int) -> Digraph:
    """Consistently oriented cycle v_1 -> v_2 -> ... -> v_n -> v_1 (v_k at
    index k - 1): every vertex has in- and out-degree 1."""
    if n < 3:
        raise ValueError(f"oriented cycle needs n >= 3, got {n}")
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_G_m(m: int) -> Digraph:
    """Fan of m directed triangles through a hub: 2m+1 vertices, 3m arcs.

    Arcs: v1->v_2i, v_2i->v_2i+1, v_2i+1->v1 for i in 1..m (v_k at index
    k - 1).  Has packing number m and domination number m+1.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = 2 * m + 1
    arcs = []
    for i in range(1, m + 1):
        arcs.append((0, 2 * i - 1))
        arcs.append((2 * i - 1, 2 * i))
        arcs.append((2 * i, 0))
    return build_digraph(n, arcs)


def gen_H_m(k: int) -> Digraph:
    """Strongly connected sharpness family on 4m vertices, m = 3k.

    m directed triangles (a_i, b_i, c_i) plus hubs d_1..d_m; within block j,
    a_{3j-2}, b_{3j-1}, c_{3j} each point at the block's three hubs, and
    d_i points at a_{i+3} cyclically.  gamma = 2m.  Indices: a_i, b_i, c_i
    at 3(i - 1) + 0, 1, 2, and d_i at 3m + i - 1.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    m = 3 * k

    def a(i: int) -> int:  # 1-based triangle indices
        return 3 * (i - 1)

    def b(i: int) -> int:
        return 3 * (i - 1) + 1

    def c(i: int) -> int:
        return 3 * (i - 1) + 2

    def dv(i: int) -> int:
        return 3 * m + (i - 1)

    arcs = []
    for i in range(1, m + 1):
        arcs += [(a(i), b(i)), (b(i), c(i)), (c(i), a(i))]
    for j in range(1, k + 1):
        shooters = (a(3 * j - 2), b(3 * j - 1), c(3 * j))
        targets = (dv(3 * j - 2), dv(3 * j - 1), dv(3 * j))
        arcs += [(s, t) for s in shooters for t in targets]
    for i in range(1, m + 1):
        arcs.append((dv(i), a((i + 3 - 1) % m + 1)))
    return build_digraph(4 * m, arcs)


C4_VARIANTS = ((0, 2, 1, 1), (0, 1, 2, 1), (0, 2, 0, 2), (1, 1, 1, 1))


def gen_C4_orientation(variant: Sequence[int]) -> Digraph:
    """Orientation of the 4-cycle with the given circular out-degree sequence."""
    variant = tuple(variant)
    if variant not in C4_VARIANTS:
        raise ValueError(f"unknown C4 orientation {variant}; pick from {C4_VARIANTS}")
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for code in range(16):  # lowest code first: deterministic representative
        arcs = []
        outdeg = [0, 0, 0, 0]
        for idx, (u, v) in enumerate(edges):
            if code >> idx & 1:
                arcs.append((v, u))
                outdeg[v] += 1
            else:
                arcs.append((u, v))
                outdeg[u] += 1
        if tuple(outdeg) == variant:
            return build_digraph(4, arcs)
    raise AssertionError(f"variant {variant} not realizable")


def gen_bidirected_path(n: int) -> Digraph:
    """Path v_1 - v_2 - ... - v_n (v_k at index k - 1) with arcs in both
    directions on every edge; 2(n-1) arcs."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    arcs = []
    for i in range(n - 1):
        arcs += [(i, i + 1), (i + 1, i)]
    return build_digraph(n, arcs)


def gen_chorded_5cycle() -> Digraph:
    """Oriented 5-cycle with one extra chord out of the last vertex.

    The smallest known partner digraph: its Cartesian product with the
    directed triangle has domination number 5 < 2 * 3, violating the
    product lower bound that holds for ditrees.  u, v, x, y, z are 0-4,
    along the cycle; the chord is z -> x.
    """
    return build_digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 2)])


_K1_STAR_NAMES = ("a", "b", "c", "x", "c'", "b'", "a'")
_K1_STAR_ARCS = (
    ("a", "b"),
    ("b", "c"),
    ("c", "b"),
    ("c", "x"),
    ("c'", "x"),
    ("b'", "c'"),
    ("c'", "b'"),
    ("a'", "b'"),
)


def gen_K1_star() -> Digraph:
    """The 7-vertex ditree with domination number 4 whose product with the
    bidirected P4 attains equality in the Vizing-type bound.  Indices 0-6
    are a, b, c, x, c', b', a' (``_K1_STAR_NAMES``); x is the center."""
    pos = {name: i for i, name in enumerate(_K1_STAR_NAMES)}
    arcs = [(pos[u], pos[v]) for u, v in _K1_STAR_ARCS]
    return build_digraph(7, arcs)


K1_STAR_CENTER = _K1_STAR_NAMES.index("x")


def gen_T_star(t: Digraph) -> Digraph:
    """One 7-vertex gadget per vertex of the ditree t, with the gadget center
    identified with the t-vertex; t's arcs run between centers.

    The result has 7*n(t) vertices and domination number 4*n(t).  The
    gadget of v is 7v .. 7v + 6 in ``gen_K1_star`` order, center 7v + 3.
    """
    if not is_ditree(t):
        raise ValueError("T* requires a ditree base")
    gadget = gen_K1_star()
    n = 7 * t.n
    arcs = []
    for v in range(t.n):
        base = 7 * v
        arcs += [(base + x, base + y) for x, y in gadget.arcs()]
    for u, v in t.arcs():
        arcs.append((7 * u + K1_STAR_CENTER, 7 * v + K1_STAR_CENTER))
    return build_digraph(n, arcs)


def gen_corona_digraph(
    base_tree: UndirectedGraph,
    internal_orientation: Sequence[str],
    leaf_arc_mode: Sequence[str],
) -> Digraph:
    """Digraph whose underlying graph is the corona of ``base_tree``.

    Base vertices keep their indices; the pendant leaf of base vertex i is
    n + i.  ``internal_orientation`` maps the tree's sorted edge list to
    fwd/bwd/both ("fwd" orients low index -> high index); ``leaf_arc_mode``
    gives one of in/out/both per base vertex (see LEAF_* constants, "in"
    meaning the arc enters the leaf).
    """
    if not is_tree(base_tree):
        raise ValueError("corona base must be a tree")
    edges = base_tree.edges()
    if len(internal_orientation) != len(edges):
        raise ValueError(f"need {len(edges)} edge orientations")
    if len(leaf_arc_mode) != base_tree.n:
        raise ValueError(f"need {base_tree.n} leaf modes")
    n = base_tree.n
    for state in internal_orientation:
        if state not in EDGE_STATES:
            raise ValueError(f"bad edge orientation {state!r}")
    arcs = _orient(edges, internal_orientation)
    for i, mode in enumerate(leaf_arc_mode):
        if mode not in LEAF_MODES:
            raise ValueError(f"bad leaf mode {mode!r}")
        leaf = n + i
        if mode in (LEAF_IN, LEAF_BOTH):
            arcs.append((i, leaf))
        if mode in (LEAF_OUT, LEAF_BOTH):
            arcs.append((leaf, i))
    return build_digraph(2 * n, arcs)


def fig5_corona() -> Digraph:
    """The corona-class example over a 3-path: one bidirected pendant edge,
    two pendant arcs into the leaves; partitions into two minimum
    dominating sets."""
    base = build_undirected(3, [(0, 1), (1, 2)])
    return gen_corona_digraph(base, [EDGE_FWD, EDGE_FWD], [LEAF_BOTH, LEAF_IN, LEAF_IN])


# ---------------------------------------------------------------------------
# Trees: Pruefer decoding, random and exhaustive ditree generation.
# ---------------------------------------------------------------------------


def _tree_edges_from_pruefer(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    # Standard decode; n >= 3, len(seq) == n - 2.
    count = [0] * n
    for v in seq:
        count[v] += 1
    free = [v for v in range(n) if count[v] == 0]
    heapq.heapify(free)
    edges = []
    for v in seq:
        leaf = heapq.heappop(free)
        edges.append((min(leaf, v), max(leaf, v)))
        count[v] -= 1
        if count[v] == 0:
            heapq.heappush(free, v)
    u = heapq.heappop(free)
    w = heapq.heappop(free)
    edges.append((min(u, w), max(u, w)))
    return edges


def _labeled_tree_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return _tree_edges_from_pruefer(seq, n)


def _orient(edges: list[tuple[int, int]], states: Sequence[str]) -> list[tuple[int, int]]:
    arcs = []
    for (u, v), state in zip(edges, states):
        if state in (EDGE_FWD, EDGE_BOTH):
            arcs.append((u, v))
        if state in (EDGE_BWD, EDGE_BOTH):
            arcs.append((v, u))
    return arcs


def random_ditree(
    n: int,
    seed: int,
    orientation_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> Digraph:
    """Uniform random labeled tree with i.i.d. per-edge orientation states.

    ``orientation_weights`` weighs (fwd, bwd, both); deterministic per seed.
    """
    if n < 1:
        raise ValueError(f"ditree needs n >= 1, got {n}")
    w = orientation_weights
    # random.choices checks only that the total is positive; a nan fails here
    if not (len(w) == 3 and min(w) >= 0 and 0 < sum(w) < math.inf):
        raise ValueError(f"ditree weights want three finite numbers >= 0, sum > 0; got {w}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(max(0, n - 2))]
    edges = _labeled_tree_edges(seq, n)
    states = rng.choices(EDGE_STATES, weights=w, k=len(edges))
    return build_digraph(n, _orient(edges, states))


def enumerate_ditrees(n: int) -> Iterator[Digraph]:
    """All labeled trees on n vertices crossed with all per-edge orientation
    assignments: n^(n-2) * 3^(n-1) ditrees, isomorphic duplicates included.

    Refuses n > 6.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUM_DITREE_LIMIT:
        raise ValueError(
            f"n={n} yields n^(n-2)*3^(n-1) ditrees; the limit is n={ENUM_DITREE_LIMIT}"
        )
    if n == 1:
        yield build_digraph(1, [])
        return
    sequences = iter_product(range(n), repeat=n - 2) if n > 2 else [()]
    for seq in sequences:
        edges = _labeled_tree_edges(seq, n)
        for states in iter_product(EDGE_STATES, repeat=n - 1):
            yield build_digraph(n, _orient(edges, states))


# ---------------------------------------------------------------------------
# Random digraph sources for the verification harness.
# ---------------------------------------------------------------------------


def _random_arcs(n: int, arc_prob: float, rng: random.Random) -> list[tuple[int, int]]:
    """Each ordered pair, in order, becomes an arc with ``arc_prob``."""
    return [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < arc_prob
    ]


def random_digraph(n: int, arc_prob: float, seed: int) -> Digraph:
    """Each ordered pair becomes an arc independently with ``arc_prob``."""
    return build_digraph(n, _random_arcs(n, arc_prob, random.Random(seed)))


def random_digraph_min_indegree(n: int, arc_prob: float, seed: int) -> Digraph:
    """``random_digraph`` patched so every vertex has an in-neighbor (n >= 2):
    the same draws, then one random in-neighbor for each source."""
    if n < 2:
        raise ValueError("min in-degree >= 1 needs n >= 2")
    rng = random.Random(seed)
    arcs = _random_arcs(n, arc_prob, rng)
    indeg = [0] * n
    for _, v in arcs:
        indeg[v] += 1
    for v in range(n):
        if indeg[v] == 0:
            u = rng.randrange(n - 1)
            if u >= v:
                u += 1
            arcs.append((u, v))
    return build_digraph(n, arcs)


def random_dag(n: int, arc_prob: float, seed: int) -> Digraph:
    """Random DAG: arcs go forward along a random vertex permutation."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    draw = rng.random
    arcs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if draw() < arc_prob]
    return build_digraph(n, arcs)


def all_digraphs(n: int) -> Iterator[Digraph]:
    """Every labeled digraph on n vertices (2^(n(n-1)) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for code in range(1 << len(pairs)):
        yield build_digraph(n, [p for i, p in enumerate(pairs) if code >> i & 1])


def all_dags(n: int) -> Iterator[Digraph]:
    """The acyclic digraphs of ``all_digraphs(n)``, in its order.  A code
    holding both (u, v) and (v, u) has a 2-cycle, so only the 3^(n(n-1)/2)
    codes with at most one arc per vertex pair are built and tested."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    choices = [(0, bit[u, v], bit[v, u]) for u, v in pairs if u < v]
    for code in sorted(map(sum, iter_product(*choices))):
        d = build_digraph(n, [p for i, p in enumerate(pairs) if code >> i & 1])
        if is_acyclic_digraph(d):
            yield d


# ---------------------------------------------------------------------------
# Compact family-spec strings (CLI surface).
# ---------------------------------------------------------------------------

_FAMILY_USAGE = (
    "family specs: cycle:N | Gm:M | Hm:K | C4:ABCD | path:N | K1star | chord5 | "
    "fig5corona | Tstar(SPEC) | corona:n=N,edges=S1/S2/...,leaves=M1/M2/... | "
    "ditree:n=N,seed=S[,w=a/b/c]"
)


class _KeyValues(dict):
    """key=value pairs; a missing key is a ValueError that names it."""

    def __missing__(self, key: str):
        raise ValueError(f"missing key {key!r}")


def parse_kv(body: str, keys: str) -> dict[str, str]:
    """The key=value pairs of a family spec or an instance source; a key
    outside the comma-separated ``keys``, or given twice, is a ValueError
    that names it.  An empty body has no pairs."""
    allowed = keys.split(",")
    out = _KeyValues()
    for part in body.split(",") if body else ():
        key, _, value = part.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"expected key=value, got {part!r}")
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {body!r}; expected {keys}")
        if key in out:
            raise ValueError(f"repeated key {key!r} in {body!r}")
        out[key] = value.strip()
    return out


def build_family(spec: str) -> Digraph:
    """Build the digraph a compact family-spec string describes."""
    spec = spec.strip()
    levels = 0  # Tstar(...) wrappers, peeled in a loop however deep they nest
    while spec.startswith("Tstar(") and spec.endswith(")"):
        spec = spec[len("Tstar(") : -1].strip()
        levels += 1
    d = _base_family(spec)
    for _ in range(levels):
        d = gen_T_star(d)
    return d


def _base_family(spec: str) -> Digraph:
    """The digraph of a stripped family spec that is not ``Tstar(...)``."""
    if spec == "K1star":
        return gen_K1_star()
    if spec == "chord5":
        return gen_chorded_5cycle()
    if spec == "fig5corona":
        return fig5_corona()
    if ":" not in spec:
        raise ValueError(f"unrecognized family {spec!r}; {_FAMILY_USAGE}")
    kind, body = spec.split(":", 1)
    if kind == "cycle":
        return gen_oriented_cycle(int(body))
    if kind == "Gm":
        return gen_G_m(int(body))
    if kind == "Hm":
        return gen_H_m(int(body))
    if kind == "path":
        return gen_bidirected_path(int(body))
    if kind == "C4":
        if len(body) != 4 or not body.isdigit():
            raise ValueError(f"C4 spec wants four digits, got {body!r}")
        return gen_C4_orientation(tuple(int(ch) for ch in body))
    if kind == "corona":
        kv = parse_kv(body, "n,edges,leaves")
        n = int(kv["n"])
        base = build_undirected(n, [(i, i + 1) for i in range(n - 1)])
        edges = kv["edges"].split("/") if "edges" in kv else [EDGE_BOTH] * (n - 1)
        leaves = kv["leaves"].split("/") if "leaves" in kv else [LEAF_BOTH] * n
        return gen_corona_digraph(base, edges, leaves)
    if kind == "ditree":
        kv = parse_kv(body, "n,seed,w")
        weights = tuple(float(w) for w in kv.get("w", "1/1/1").split("/"))
        return random_ditree(int(kv["n"]), int(kv.get("seed", "0")), weights)
    raise ValueError(f"unrecognized family {spec!r}; {_FAMILY_USAGE}")

