import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didom.core import build_digraph
from didom.errors import CapacityError
from didom.families import gen_K1_star, gen_bidirected_path, gen_oriented_cycle
from didom.products import (
    ProductVertexMap,
    cartesian_product,
    direct_product,
    induced_subdigraph,
)
from didom.solvers import domination_number


def small_digraphs(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda arcs: build_digraph(n, arcs),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=2 * n,
            ),
        )
    )


class TestVertexMap:
    def test_roundtrip(self):
        pmap = ProductVertexMap(3, 5)
        for g in range(3):
            for h in range(5):
                assert pmap.decode(pmap.encode(g, h)) == (g, h)

    def test_out_of_range(self):
        pmap = ProductVertexMap(2, 2)
        with pytest.raises(IndexError):
            pmap.encode(2, 0)
        with pytest.raises(IndexError):
            pmap.decode(4)
        with pytest.raises(IndexError):
            pmap.g_fiber(2)


class TestCartesian:
    def test_fig1_product_size(self, directed_triangle, chorded_5cycle):
        prod, _ = cartesian_product(directed_triangle, chorded_5cycle)
        assert prod.n == 15
        assert prod.arc_count == 3 * 6 + 5 * 3

    def test_identity_factor(self, chorded_5cycle):
        k1 = build_digraph(1, [])
        prod, _ = cartesian_product(k1, chorded_5cycle)
        assert prod.n == chorded_5cycle.n
        assert prod.out_adj == chorded_5cycle.out_adj

    def test_k1star_p4_grid(self):
        prod, _ = cartesian_product(gen_K1_star(), gen_bidirected_path(4))
        assert prod.n == 28

    def test_empty_factor_rejected(self, directed_triangle):
        with pytest.raises(ValueError):
            cartesian_product(build_digraph(0, []), directed_triangle)

    def test_capacity_overflow(self):
        big = gen_bidirected_path(70)
        with pytest.raises(CapacityError):
            cartesian_product(big, big)

    @settings(max_examples=40)
    @given(small_digraphs(), small_digraphs())
    def test_arc_count_identity(self, g, h):
        prod, _ = cartesian_product(g, h)
        assert prod.arc_count == g.n * h.arc_count + h.n * g.arc_count

    @settings(max_examples=15, deadline=None)
    @given(small_digraphs(4), small_digraphs(4))
    def test_commutes_up_to_relabeling(self, g, h):
        ab, _ = cartesian_product(g, h)
        ba, _ = cartesian_product(h, g)
        assert domination_number(ab)[0] == domination_number(ba)[0]


class TestDirect:
    def test_cycle_product_arcs(self):
        c3 = gen_oriented_cycle(3)
        prod, _ = direct_product(c3, c3)
        assert prod.n == 9
        assert prod.arc_count == 9

    def test_arcless_factor(self, directed_triangle):
        arcless = build_digraph(3, [])
        prod, _ = direct_product(directed_triangle, arcless)
        assert prod.arc_count == 0

    @settings(max_examples=40)
    @given(small_digraphs(), small_digraphs())
    def test_arc_count_identity(self, g, h):
        prod, _ = direct_product(g, h)
        assert prod.arc_count == g.arc_count * h.arc_count

    @settings(max_examples=40)
    @given(small_digraphs(), small_digraphs())
    def test_min_indegree_preserved(self, g, h):
        if g.min_in_degree >= 1 and h.min_in_degree >= 1:
            prod, _ = direct_product(g, h)
            assert prod.min_in_degree >= 1

    @settings(max_examples=15, deadline=None)
    @given(small_digraphs(4), small_digraphs(4))
    def test_commutes_up_to_relabeling(self, g, h):
        from didom.solvers import total_domination_number

        ab, _ = direct_product(g, h)
        ba, _ = direct_product(h, g)
        solved_ab = total_domination_number(ab)
        solved_ba = total_domination_number(ba)
        assert (solved_ab and solved_ab[0]) == (solved_ba and solved_ba[0])


class TestFibers:
    def test_fiber_cardinalities(self, directed_triangle, chorded_5cycle):
        _, pmap = cartesian_product(directed_triangle, chorded_5cycle)
        assert pmap.h_fiber(1).bit_count() == 5
        assert pmap.g_fiber(3).bit_count() == 3

    def test_cartesian_fiber_is_factor_copy(self, directed_triangle, chorded_5cycle):
        prod, pmap = cartesian_product(directed_triangle, chorded_5cycle)
        fiber = induced_subdigraph(prod, pmap.g_fiber(2))
        assert fiber.arc_count == directed_triangle.arc_count
        assert fiber.out_adj == directed_triangle.out_adj

    def test_direct_fibers_independent(self):
        c5 = gen_oriented_cycle(5)
        c3 = gen_oriented_cycle(3)
        prod, pmap = direct_product(c5, c3)
        for h in range(3):
            fiber = induced_subdigraph(prod, pmap.g_fiber(h))
            assert fiber.arc_count == 0
