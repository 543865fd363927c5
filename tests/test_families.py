import pytest

from didom import bitset
from didom.core import (
    build_undirected,
    girth,
    is_acyclic_digraph,
    is_ditree,
    underlying_graph,
)
from didom.families import (
    C4_VARIANTS,
    build_family,
    enumerate_ditrees,
    fig5_corona,
    gen_C4_orientation,
    gen_G_m,
    gen_H_m,
    gen_K1_star,
    gen_T_star,
    gen_bidirected_path,
    gen_chorded_5cycle,
    gen_corona_digraph,
    gen_oriented_cycle,
    random_digraph_min_indegree,
    random_ditree,
)
from didom.solvers import domination_number, packing_number


class TestOrientedCycle:
    def test_matches_triangle(self, directed_triangle):
        assert gen_oriented_cycle(3).out_adj == directed_triangle.out_adj

    def test_degrees(self):
        c4 = gen_oriented_cycle(4)
        assert c4.min_in_degree == 1 and c4.max_out_degree == 1

    def test_domination(self):
        assert domination_number(gen_oriented_cycle(5))[0] == 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_oriented_cycle(2)


class TestGm:
    def test_structure_m3(self):
        g3 = gen_G_m(3)
        assert g3.n == 7 and g3.arc_count == 9
        # hub fans out to the even-indexed (1-based) vertices
        assert bitset.to_list(g3.out_adj[0]) == [1, 3, 5]

    def test_arc_count_formula(self):
        assert gen_G_m(5).arc_count == 15

    def test_values(self):
        for m in (1, 2, 3, 4):
            gm = gen_G_m(m)
            assert packing_number(gm)[0] == m
            assert domination_number(gm)[0] == m + 1


class TestHm:
    def test_counts(self):
        h9 = gen_H_m(3)
        assert h9.n == 36
        assert h9.arc_count == 63  # 27 triangle + 27 block + 9 wrap arcs

    def test_hub_in_degrees(self):
        h9 = gen_H_m(3)
        for i in range(27, 36):
            assert h9.in_degree(i) == 3

    def test_wrap_arc(self):
        # d_m points at a_3 under the 1-based modular shift
        h9 = gen_H_m(3)
        d_m = 27 + 8  # d_9
        a_3 = 3 * 2  # a_3
        assert h9.has_arc(d_m, a_3)

    def test_gamma(self):
        assert domination_number(gen_H_m(3))[0] == 18

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            gen_H_m(2)


class TestC4Orientations:
    def test_all_variants_have_rho_gamma_two(self):
        for variant in C4_VARIANTS:
            d = gen_C4_orientation(variant)
            assert packing_number(d)[0] == 2
            assert domination_number(d)[0] == 2

    def test_out_degree_sequences(self):
        for variant in C4_VARIANTS:
            d = gen_C4_orientation(variant)
            assert tuple(d.out_degree(v) for v in range(4)) == variant

    def test_variants_distinct_up_to_rotation_reflection(self):
        def canonical(seq):
            rotations = [seq[i:] + seq[:i] for i in range(4)]
            rotations += [tuple(reversed(r)) for r in rotations]
            return min(rotations)

        canons = {canonical(v) for v in C4_VARIANTS}
        assert len(canons) == 4

    def test_0202_acyclic(self):
        assert is_acyclic_digraph(gen_C4_orientation((0, 2, 0, 2)))

    def test_1111_is_oriented_cycle(self):
        d = gen_C4_orientation((1, 1, 1, 1))
        assert d.min_in_degree == 1 and d.max_out_degree == 1

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            gen_C4_orientation((2, 2, 0, 0))


class TestBidirectedPath:
    def test_arc_count(self):
        assert gen_bidirected_path(4).arc_count == 6

    def test_k1(self):
        assert gen_bidirected_path(1).n == 1

    def test_underlying_is_path(self):
        un = underlying_graph(gen_bidirected_path(4))
        assert un.edge_count == 3 and girth(un) is None

    def test_gamma(self):
        assert domination_number(gen_bidirected_path(4))[0] == 2


class TestK1StarAndTStar:
    def test_k1_star_shape(self):
        d = gen_K1_star()
        assert d.n == 7 and is_ditree(d)
        assert domination_number(d)[0] == 4

    def test_t_star_of_k1_is_k1_star(self):
        from didom.core import build_digraph

        t = build_digraph(1, [])
        star = gen_T_star(t)
        assert star.n == 7
        assert star.out_adj == gen_K1_star().out_adj

    def test_t_star_gamma_scales(self):
        for n_t, spec in ((1, "path:1"), (2, "path:2"), (3, "path:3")):
            t = build_family(spec)
            star = gen_T_star(t)
            assert star.n == 7 * n_t
            assert is_ditree(star)
            assert domination_number(star)[0] == 4 * n_t

    def test_rejects_non_ditree(self, directed_triangle):
        with pytest.raises(ValueError):
            gen_T_star(directed_triangle)


class TestCorona:
    def test_fig5(self):
        d = fig5_corona()
        assert d.n == 6
        assert d.has_arc(0, 3) and d.has_arc(3, 0)  # bidirected pendant at u
        assert d.has_arc(1, 4) and not d.has_arc(4, 1)
        assert domination_number(d)[0] == 3

    def test_all_both_leaves_have_unit_degrees(self):
        base = build_undirected(3, [(0, 1), (1, 2)])
        d = gen_corona_digraph(base, ["fwd", "bwd"], ["both"] * 3)
        for leaf in (3, 4, 5):
            assert d.in_degree(leaf) == 1 and d.out_degree(leaf) == 1

    def test_corona_over_k1(self):
        base = build_undirected(1, [])
        d = gen_corona_digraph(base, [], ["both"])
        assert d.n == 2 and domination_number(d)[0] == 1

    @pytest.mark.parametrize("spec", ["corona:n=1,edges=fwd", "corona:n=1,edges=bogus"])
    def test_one_vertex_spec_wants_no_edges(self, spec):
        # a one-vertex base has no edge, so any given orientation is one
        # too many, as a 3-vertex base refuses a single one
        with pytest.raises(ValueError, match="need 0 edge orientations"):
            build_family(spec)

    @pytest.mark.parametrize(
        "spec, arcs", [("corona:n=1", [(0, 1), (1, 0)]), ("corona:n=1,leaves=in", [(0, 1)])]
    )
    def test_one_vertex_spec_builds(self, spec, arcs):
        assert sorted(build_family(spec).arcs()) == arcs

    def test_underlying_is_corona(self):
        base = build_undirected(3, [(0, 1), (1, 2)])
        d = gen_corona_digraph(base, ["both", "both"], ["in", "out", "both"])
        un = underlying_graph(d)
        assert un.edge_count == 5
        for i in range(3):
            assert un.out_degree(3 + i) == 1

    def test_non_tree_base_rejected(self):
        square = build_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            gen_corona_digraph(square, ["fwd"] * 4, ["both"] * 4)


class TestRandomDitree:
    def test_deterministic(self):
        a = random_ditree(9, 123)
        b = random_ditree(9, 123)
        assert a.out_adj == b.out_adj

    def test_different_seeds_differ(self):
        assert random_ditree(9, 1).out_adj != random_ditree(9, 2).out_adj

    def test_always_ditree(self):
        for seed in range(50):
            assert is_ditree(random_ditree(7, seed))

    def test_k1(self):
        assert random_ditree(1, 0).n == 1

    def test_all_both_weights_give_min_indegree(self):
        for seed in range(20):
            t = random_ditree(6, seed, orientation_weights=(0, 0, 1))
            assert t.min_in_degree >= 1

    def test_random_tree_is_tree(self):
        from didom.core import is_tree, underlying_graph

        for seed in range(20):
            assert is_tree(underlying_graph(random_ditree(8, seed)))


class TestEnumerateDitrees:
    @pytest.mark.parametrize(
        "n,count", [(1, 1), (2, 3), (3, 27), (4, 432)]
    )
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_ditrees(n)) == count

    def test_all_are_ditrees(self):
        assert all(is_ditree(d) for d in enumerate_ditrees(4))

    def test_large_rejected_without_flag(self):
        with pytest.raises(ValueError, match="the limit is n=6"):
            next(enumerate_ditrees(7))


class TestRandomDigraphMinIndegree:
    def test_patched_in_degrees(self):
        for seed in range(20):
            d = random_digraph_min_indegree(6, 0.2, seed)
            assert d.min_in_degree >= 1


class TestFamilySpecs:
    @pytest.mark.parametrize(
        "spec,n,arcs",
        [
            ("cycle:5", 5, 5),
            ("Gm:3", 7, 9),
            ("Hm:3", 36, 63),
            ("path:4", 4, 6),
            ("C4:0202", 4, 4),
            ("K1star", 7, 8),
            ("chord5", 5, 6),
            ("fig5corona", 6, 6),
            ("Tstar(path:2)", 14, 18),
            ("corona:n=2,edges=both,leaves=both/both", 4, 6),
            ("ditree:n=6,seed=42,w=1/1/1", 6, None),
        ],
    )
    def test_build(self, spec, n, arcs):
        d = build_family(spec)
        assert d.n == n
        if arcs is not None:
            assert d.arc_count == arcs

    def test_chord5_is_fig_partner(self, chorded_5cycle):
        assert gen_chorded_5cycle().out_adj == chorded_5cycle.out_adj

    def test_bad_specs(self):
        for spec in (
            "nope", "Gm:x", "C4:123", "corona:n=", "pair:1|2",
            "ditree:seed=1", "corona:edges=both",
            "ditree:n=6,sed=5", "corona:n=2,edge=fwd",
            "ditree:n=6,seed=1,w=1/-0.5/1", "ditree:n=6,seed=1,w=-1/-1/3",
            "ditree:n=6,seed=1,seed=2", "corona:n=2,n=3",
        ):
            with pytest.raises(ValueError):
                build_family(spec)

    def test_ditree_spec_deterministic(self):
        assert build_family("ditree:n=6,seed=42").out_adj == build_family(
            "ditree:n=6,seed=42"
        ).out_adj
