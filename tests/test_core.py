import dataclasses
import io
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from didom import bitset
from didom.core import (
    Digraph,
    LeafClasses,
    UndirectedGraph,
    build_digraph,
    build_undirected,
    classify_leaves,
    dumps_arclist,
    girth,
    is_acyclic_digraph,
    is_ditree,
    loads_arclist,
    underlying_connected,
    underlying_graph,
)
from didom.errors import (
    ArcListParseError, CapacityError, Deadline, InvalidArcError, SolveTimeout,
)
from didom.families import _FAMILY_USAGE, build_family, gen_C4_orientation, gen_G_m, gen_K1_star
from didom.products import cartesian_product, direct_product, induced_subdigraph


def in_masks_from_arcs(d):
    """In-neighbour bitmasks read off the arc list, independent of in_adj."""
    masks = [0] * d.n
    for u, v in d.arcs():
        masks[v] |= 1 << u
    return tuple(masks)


def random_digraphs(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda arcs: build_digraph(n, arcs),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda p: p[0] != p[1]),
                max_size=3 * n,
            ),
        )
    )


class TestBuildDigraph:
    def test_triangle(self, directed_triangle):
        assert directed_triangle.n == 3
        assert directed_triangle.arc_count == 3
        assert directed_triangle.has_arc(0, 1)
        assert not directed_triangle.has_arc(1, 0)

    def test_isolated_vertex(self):
        d = build_digraph(1, [])
        assert d.arc_count == 0
        assert d.out_closed(0) == 1

    def test_duplicate_arcs_collapse(self):
        d = build_digraph(2, [(0, 1), (0, 1)])
        assert d.arc_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidArcError, match=r"\(1, 1\)"):
            build_digraph(3, [(0, 1), (1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArcError, match=r"\(0, 7\)"):
            build_digraph(3, [(0, 7)])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_digraph(5000, [])


class TestDerivedInAdjacency:
    def test_fields_are_n_and_out_adj(self):
        assert [f.name for f in dataclasses.fields(Digraph)] == ["n", "out_adj"]

    def test_raw_constructor_derives_in_adj(self):
        d = Digraph(2, (0b10, 0))
        assert d.in_adj == (0, 0b01)
        assert d == build_digraph(2, [(0, 1)])

    @given(random_digraphs())
    def test_build_digraph_fills_the_transpose(self, d):
        assert d.in_adj == in_masks_from_arcs(d)
        assert Digraph(d.n, d.out_adj).in_adj == d.in_adj

    @given(random_digraphs(), st.integers(0, 255))
    def test_induced_subdigraph(self, d, members):
        members &= bitset.full(d.n)
        sub = induced_subdigraph(d, members)
        assert sub.in_adj == in_masks_from_arcs(sub)
        assert [m.bit_count() for m in sub.in_adj] == [
            (d.in_adj[v] & members).bit_count() for v in bitset.to_list(members)
        ]


class TestNeighborhoods:
    def test_triangle_neighborhoods(self, directed_triangle):
        # arcs a->b and c->a around vertex a
        assert bitset.to_list(directed_triangle.out_closed(0)) == [0, 1]
        assert bitset.to_list(directed_triangle.in_closed(0)) == [0, 2]
        assert directed_triangle.out_adj[0] == 0b010
        assert directed_triangle.in_adj[0] == 0b100

    def test_isolated(self):
        d = build_digraph(2, [])
        assert d.out_closed(0) == 0b01
        assert d.out_adj[0] == 0

    def test_bidirected_interior(self, bidirected_p4):
        assert bitset.to_list(bidirected_p4.out_closed(1)) == [0, 1, 2]

    @given(random_digraphs())
    def test_neighborhood_union_is_underlying(self, d):
        un = underlying_graph(d)
        for v in range(d.n):
            assert un.out_closed(v) == d.out_closed(v) | d.in_closed(v)

    @given(random_digraphs())
    def test_degree_sums_match_arc_count(self, d):
        assert sum(d.out_degree(v) for v in range(d.n)) == d.arc_count
        assert sum(d.in_degree(v) for v in range(d.n)) == d.arc_count


class TestDegrees:
    def test_oriented_cycle(self):
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert d.min_in_degree == 1
        assert d.max_out_degree == 1

    def test_G3_degrees(self):
        d = gen_G_m(3)
        assert d.min_in_degree == 1
        assert d.max_out_degree == 3

    def test_single_vertex(self):
        assert build_digraph(1, []).min_in_degree == 0


class TestUnderlying:
    def test_triangle_underlying(self, directed_triangle):
        un = underlying_graph(directed_triangle)
        assert un.edge_count == 3

    def test_both_orientations_one_edge(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert underlying_graph(d).edge_count == 1

    def test_G3_edge_count(self):
        # the nine arcs pair up into nine distinct undirected edges
        assert underlying_graph(gen_G_m(3)).edge_count == 9

    @given(random_digraphs())
    def test_underlying_symmetric_irreflexive(self, d):
        un = underlying_graph(d)
        for v in range(un.n):
            assert not un.adj[v] >> v & 1
            for w in bitset.to_list(un.adj[v]):
                assert un.adj[w] >> v & 1


class TestUndirectedGraph:
    def test_is_its_bidirected_digraph(self):
        g = build_undirected(4, [(0, 1), (1, 2), (1, 3)])
        assert isinstance(g, Digraph)
        assert g.out_adj is g.in_adj is g.adj
        assert g.arcs() == [(0, 1), (1, 0), (1, 2), (1, 3), (2, 1), (3, 1)]
        assert g.min_in_degree == 1

    def test_undirected_names(self):
        g = build_undirected(4, [(0, 1), (1, 2), (1, 3)])
        assert g.edges() == [(0, 1), (1, 2), (1, 3)]
        assert g.edge_count == 3
        assert g.out_degree(1) == 3
        assert g.adj[1] == 0b1101
        assert g.out_closed(0) == 0b0011
        assert g.has_arc(2, 1) and not g.has_arc(2, 3)
        assert repr(g) == "UndirectedGraph(n=4, edges=3)"

    def test_equality_per_class(self):
        g = build_undirected(3, [(0, 1), (1, 2)])
        d = build_digraph(g.n, g.arcs())
        assert g == UndirectedGraph(3, g.adj)
        assert d == Digraph(3, g.adj)
        assert g != d and d != g
        assert hash(g) == hash(d)

    def test_frozen(self):
        g = build_undirected(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3


class TestGirth:
    def test_triangle(self, directed_triangle):
        assert girth(underlying_graph(directed_triangle)) == 3

    def test_tree_has_none(self):
        tree = build_undirected(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert girth(tree) is None

    def test_bidirected_path_has_none(self, bidirected_p4):
        assert girth(underlying_graph(bidirected_p4)) is None

    def test_c4(self):
        assert girth(build_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 4

    def test_c5_with_long_tail(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)]
        assert girth(build_undirected(7, edges)) == 5

    def test_agrees_with_definition(self):
        rng = random.Random(31)
        kinds = Counter()
        for _ in range(2000):
            kind, g = _girth_sample(rng)
            kinds[kind, girth_oracle(g) is None] += 1
            assert girth(g) == girth_oracle(g), (kind, g.n, g.edges())
        assert girth(build_undirected(0, [])) is None
        # every kind of sample, and both forests and graphs with cycles
        assert {k for k, _ in kinds} == {"random", "forest", "cycle+trees", "components"}
        assert kinds["forest", True] and kinds["cycle+trees", False]
        assert kinds["random", True] and kinds["random", False]

    @pytest.mark.parametrize("n", range(3, 7))
    def test_complete(self, n):
        k = build_undirected(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert girth(k) == 3

    @pytest.mark.parametrize("k", range(3, 61))
    def test_cycle(self, k):
        assert girth(build_undirected(k, [(v, (v + 1) % k) for v in range(k)])) == k

    def test_cycle_takes_one_bfs(self):
        # every cycle through a root is at least what its BFS found, so the
        # root is peeled; on a cycle that peels the rest, and one BFS is all
        deadline = Deadline()
        assert girth(underlying_graph(build_family("cycle:2000")), deadline=deadline) == 2000
        assert deadline.nodes == 1

    def test_deadline(self):
        with pytest.raises(SolveTimeout):
            girth(underlying_graph(build_family("cycle:5")), deadline=Deadline(0))
        # a forest peels to nothing, with no search to stop
        tree = build_undirected(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert girth(tree, deadline=Deadline(0)) is None


def girth_oracle(g):
    """The girth from its definition: the least 1 + dist(u, v) over edges
    uv, the distance taken with uv removed; None when no edge closes."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in bitset.to_list(g.adj[x]):
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def _girth_sample(rng):
    """A random graph on at most 13 vertices, relabeled at random, and its
    kind: G(n, p); a forest; a cycle with pendant trees and perhaps one
    chord; or the disjoint union of two or three such graphs."""

    def part(n, kind):
        if kind == "random":
            p = rng.choice([0.1, 0.2, 0.3, 0.5])
            return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if kind == "forest":
            return [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]
        k = rng.randint(3, n)
        edges = [(v, (v + 1) % k) for v in range(k)]
        edges += [(v, rng.randrange(v)) for v in range(k, n)]
        if rng.random() < 0.3:
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
        return edges

    kind = rng.choice(["random", "forest", "cycle+trees", "components"])
    if kind == "components":
        edges, n = [], 0
        for _ in range(rng.randint(2, 3)):
            size = rng.randint(3, 4)
            edges += [(n + u, n + v) for u, v in part(size, rng.choice(["random", "forest", "cycle+trees"]))]
            n += size
    else:
        n = rng.randint(3 if kind == "cycle+trees" else 0, 13)
        edges = part(n, kind)
    label = list(range(n))
    rng.shuffle(label)
    return kind, build_undirected(n, {(label[u], label[v]) for u, v in edges})


class TestPredicates:
    def test_k1_star_is_ditree(self):
        assert is_ditree(gen_K1_star())

    def test_triangle_not_ditree(self, directed_triangle):
        assert not is_ditree(directed_triangle)
        assert not is_acyclic_digraph(directed_triangle)

    def test_c4_0202_acyclic(self):
        assert is_acyclic_digraph(gen_C4_orientation((0, 2, 0, 2)))

    def test_bidirected_edge_not_acyclic(self):
        assert not is_acyclic_digraph(build_digraph(2, [(0, 1), (1, 0)]))

    def test_connectivity(self):
        assert underlying_connected(build_digraph(2, [(0, 1)]))
        assert not underlying_connected(build_digraph(2, []))

    def test_single_vertex_is_ditree(self):
        assert is_ditree(build_digraph(1, []))


class TestClassifyLeaves:
    def test_k1_star(self):
        # a b c x c' b' a': the isolated leaves a, a' hang off the supports
        # b, b', and x has underlying degree 2
        classes = classify_leaves(gen_K1_star())
        assert classes == LeafClasses(
            isolated_leaves=0b1000001, non_isolated_leaves=0, supports=0b0100010,
            strong_supports=0,
        )

    def test_fig5_leaves_non_isolated(self):
        d = build_digraph(6, [(0, 1), (1, 2), (0, 3), (3, 0), (1, 4), (2, 5)])
        classes = classify_leaves(d)
        assert classes.non_isolated_leaves == bitset.from_iter((3, 4, 5))
        assert classes.supports == bitset.from_iter((0, 1, 2))
        assert classes.isolated_leaves == classes.strong_supports == 0

    def test_single_arc_both_leaves(self):
        classes = classify_leaves(build_digraph(2, [(0, 1)]))
        assert classes == LeafClasses(0b01, 0b10, 0b11, 0)

    def test_strong_support(self):
        star = build_digraph(3, [(0, 1), (0, 2)])
        assert classify_leaves(star) == LeafClasses(0, 0b110, 0b001, 0b001)


# one spec of every family in the CLI's family-spec grammar, then one
# product of each kind (``cart:`` / ``direct:`` joining the two factors)
ROUNDTRIP_SPECS = (
    "cycle:5",
    "Gm:2",
    "Hm:3",
    "C4:0202",
    "path:4",
    "K1star",
    "chord5",
    "fig5corona",
    "Tstar(path:2)",
    "corona:n=3,edges=fwd/both,leaves=in/out/both",
    "ditree:n=6,seed=3",
    "cart:cycle:3|cycle:3",
    "direct:Gm:2|chord5",
)


def _roundtrip_instance(spec):
    op, _, pair = spec.partition(":")
    if op in ("cart", "direct"):
        left, right = pair.split("|")
        product = cartesian_product if op == "cart" else direct_product
        return product(build_family(left), build_family(right))[0]
    return build_family(spec)


class TestArcListFormat:
    def test_roundtrip_specs_cover_every_family(self):
        usage = _FAMILY_USAGE.split(": ", 1)[1].split(" | ")
        kinds = {re.split(r"[:(]", entry, maxsplit=1)[0] for entry in usage}
        listed = {re.split(r"[:(]", spec, maxsplit=1)[0] for spec in ROUNDTRIP_SPECS}
        assert kinds | {"cart", "direct"} == listed

    @pytest.mark.parametrize("spec", ROUNDTRIP_SPECS)
    def test_roundtrip(self, spec):
        d = _roundtrip_instance(spec)
        back = loads_arclist(dumps_arclist(d))
        assert d.in_adj == in_masks_from_arcs(d)
        assert back.n == d.n
        assert back.out_adj == d.out_adj
        assert back.in_adj == d.in_adj
        assert back == d
        assert hash(back) == hash(d)

    def test_comments_and_blanks(self):
        text = "# leading comment\nn 3\n\n0 1  # trailing\n2 1\n"
        d = loads_arclist(text)
        assert d.arc_count == 2

    def test_bidirected_edges_are_two_lines(self):
        d = loads_arclist("n 2\n0 1\n1 0\n")
        assert d.arc_count == 2
        assert underlying_graph(d).edge_count == 1

    def test_missing_header(self):
        with pytest.raises(ArcListParseError, match="line 1"):
            loads_arclist("0 1\n")

    def test_bad_arc_line_number(self):
        with pytest.raises(ArcListParseError, match="line 3"):
            loads_arclist("n 2\n0 1\n0 2\n")

    def test_self_loop_line_number(self):
        # the first invalid arc is named, after a valid one and before an
        # out-of-range one
        with pytest.raises(ArcListParseError, match=r"^line 3: invalid arc \(2, 2\) for n=3$"):
            loads_arclist("n 3\n0 1\n2 2\n0 5\n")

    def test_non_integer(self):
        with pytest.raises(ArcListParseError, match="line 2"):
            loads_arclist("n 2\n0 x\n")

    def test_empty_input(self):
        with pytest.raises(ArcListParseError):
            loads_arclist("# nothing\n")

    def test_file_object_io(self, directed_triangle):
        from didom.core import read_arclist, write_arclist

        buf = io.StringIO()
        write_arclist(directed_triangle, buf)
        buf.seek(0)
        assert read_arclist(buf).out_adj == directed_triangle.out_adj


@given(random_digraphs())
def test_ditree_implies_forest_girth(d):
    if is_ditree(d):
        assert girth(underlying_graph(d)) is None


@given(random_digraphs())
def test_arclist_roundtrip_property(d):
    back = loads_arclist(dumps_arclist(d))
    assert back.n == d.n
    assert back.out_adj == d.out_adj
    assert back.in_adj == d.in_adj
