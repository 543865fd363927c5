import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from time import perf_counter

import pytest

import didom
from didom import auxgraph, bitset, kernels, solvers, validate
from didom.core import build_digraph, build_undirected, underlying_graph
from didom.families import (
    all_digraphs,
    build_family,
    gen_C4_orientation,
    gen_G_m,
    gen_bidirected_path,
    gen_oriented_cycle,
    random_digraph,
    random_ditree,
)
from didom.products import cartesian_product
from didom.solvers import (
    all_maximum_packings,
    brute_force_invariant,
    compute_invariants,
    domination_number,
    open_packing_number,
    packing_number,
    partition_two_dominating_sets,
    total_domination_number,
    two_packing_number,
    undirected_domination_number,
    undirected_open_packing_number,
)
from didom.verify import check_closed_helly_lemma, check_open_helly_lemma


# A raw cover or independent set comes from the kernel entry points of
# didom.kernels, which dispatch to the backend in use; the solvers are their
# only callers inside the package.


class TestMinSetCover:
    def test_basic(self):
        assert kernels.min_set_cover([0b011, 0b110, 0b100], 0b111)[0] == 2

    def test_single_set(self):
        assert kernels.min_set_cover([0b111], 0b111) == (1, 0b1)

    def test_infeasible_returns_none(self):
        assert kernels.min_set_cover([0b011], 0b111) is None

    def test_fig1_closed_neighborhoods(self, chorded_5cycle):
        sets = [chorded_5cycle.out_closed(v) for v in range(5)]
        size, chosen = kernels.min_set_cover(sets, bitset.full(5))
        assert size == 3 and validate.is_dominating_set(chorded_5cycle, chosen)


class TestMaxIndependentSet:
    def test_edgeless(self):
        g = build_undirected(4, [])
        assert kernels.max_independent_set(g.adj, g.n) == (4, 0b1111)

    def test_complete(self):
        k4 = build_undirected(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert kernels.max_independent_set(k4.adj, k4.n)[0] == 1

    def test_aux_graph_of_G3(self):
        # alpha of the closed in-neighborhood graph is the packing number,
        # and its witness is a packing
        d = gen_G_m(3)
        aux = auxgraph.closed_in_neighborhood_graph(d)
        size, witness = kernels.max_independent_set(aux.adj, aux.n)
        assert size == 3 and validate.is_packing(d, witness)


class TestDominationValues:
    def test_fig1_values(self, directed_triangle, chorded_5cycle):
        assert domination_number(directed_triangle)[0] == 2
        assert domination_number(chorded_5cycle)[0] == 3

    def test_Gm_values(self):
        for m in range(1, 5):
            gm = gen_G_m(m)
            assert domination_number(gm)[0] == m + 1
            assert packing_number(gm)[0] == m

    def test_arcless(self):
        arcless = build_digraph(4, [])
        assert domination_number(arcless)[0] == 4
        assert packing_number(arcless)[0] == 4
        assert open_packing_number(arcless)[0] == 4
        assert total_domination_number(arcless) is None

    def test_oriented_cycles(self):
        for n in (3, 4, 5, 6, 7):
            cyc = gen_oriented_cycle(n)
            assert domination_number(cyc)[0] == -(-n // 2)
            assert total_domination_number(cyc)[0] == n
            assert open_packing_number(cyc)[0] == n

    def test_c4_orientations(self):
        for variant in ((0, 2, 1, 1), (0, 1, 2, 1), (0, 2, 0, 2), (1, 1, 1, 1)):
            d = gen_C4_orientation(variant)
            assert packing_number(d)[0] == 2
            assert domination_number(d)[0] == 2

    def test_gamma_t_absent_iff_source_vertex(self):
        assert total_domination_number(build_digraph(2, [(0, 1)])) is None
        assert total_domination_number(build_digraph(2, [(0, 1), (1, 0)]))[0] == 2

    def test_fig5_corona_open_invariants_cross_checked(self):
        from didom.families import fig5_corona

        d = fig5_corona()
        assert d.min_in_degree >= 1
        assert open_packing_number(d)[0] == brute_force_invariant(d, "rho_open")
        assert total_domination_number(d)[0] == brute_force_invariant(d, "gamma_t")


class TestUndirectedSolvers:
    def test_p4(self):
        p4 = build_undirected(4, [(0, 1), (1, 2), (2, 3)])
        assert undirected_domination_number(p4)[0] == 2
        assert two_packing_number(p4)[0] == 2

    def test_star(self):
        star = build_undirected(5, [(0, i) for i in range(1, 5)])
        assert undirected_domination_number(star)[0] == 1
        assert two_packing_number(star)[0] == 1

    def test_meir_moon_on_random_trees(self):
        for seed in range(30):
            tree = underlying_graph(random_ditree(12, seed))
            assert two_packing_number(tree)[0] == undirected_domination_number(tree)[0]

    def test_open_packing_p2(self):
        p2 = build_undirected(2, [(0, 1)])
        assert undirected_open_packing_number(p2)[0] == 2

    @pytest.mark.parametrize(
        "undirected, digraph",
        [
            (undirected_domination_number, domination_number),
            (two_packing_number, packing_number),
            (undirected_open_packing_number, open_packing_number),
        ],
        ids=["gamma", "two-packing", "open-packing"],
    )
    def test_same_witness_as_bidirected(self, undirected, digraph):
        # an undirected graph and its bidirected digraph have the same
        # closed and open neighbourhoods, so the answers must be identical
        rng = random.Random(2031)
        for _ in range(200):
            n = rng.randint(1, 10)
            p = rng.uniform(0.1, 0.8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = build_undirected(n, edges)
            assert undirected(g) == digraph(build_digraph(g.n, g.arcs()))


class TestUndirectedIsSymmetricDigraph:
    """Every digraph entry point takes an undirected graph as the digraph
    with both arcs on each of its edges."""

    GRAPHS = {
        "path": (5, [(i, i + 1) for i in range(4)]),
        "star": (5, [(0, i) for i in range(1, 5)]),
        "cycle5": (5, [(i, (i + 1) % 5) for i in range(5)]),
        "K4": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
        "edgeless": (3, []),
    }

    ENTRY_POINTS = {
        "total_domination_number": total_domination_number,
        "brute_force_gamma_t": lambda d: brute_force_invariant(d, "gamma_t"),
        "partition_two_dominating_sets": partition_two_dominating_sets,
        "compute_invariants": lambda d: compute_invariants(d, include_timings=False),
        "closed_helly": lambda d: check_closed_helly_lemma(d).to_json(False),
        "open_helly": lambda d: check_open_helly_lemma(d).to_json(False),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_same_result_as_bidirected(self, graph, entry):
        g = build_undirected(*self.GRAPHS[graph])
        solve = self.ENTRY_POINTS[entry]
        assert solve(g) == solve(build_digraph(g.n, g.arcs()))


def _misreport(solve, delta):
    # a kernel that finds a correct witness but reports its size off by delta
    def wrong(*args, **kwargs):
        size, witness = solve(*args, **kwargs)
        return size + delta, witness

    return wrong


_P4 = build_undirected(4, [(0, 1), (1, 2), (2, 3)])
_CYCLE5 = gen_oriented_cycle(5)
# packing solves that every root bound leaves to the kernel, since each
# greedy packing (k vertices) is below the packing number, which no valid
# upper bound undercuts:
# a 2-cycle 0 <-> 1 with the arcs 0 -> 3 and 1 -> 2, k = 1 < rho = 2;
_RHO_SHORT = build_digraph(4, [(0, 1), (0, 3), (1, 0), (1, 2)])
# k = 2 < rho_o = 3;
_OPEN_SHORT = build_digraph(4, [(0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (3, 1)])
# the 5-cycle 0..4 plus a vertex 5 joined to 0 and 1, k = 1 below its
# two-packing number 2;
_C5_TRIANGLE = build_undirected(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4)])
# k = 1 below its open packing number 2
_OPEN_SHORT_GRAPH = build_undirected(5, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4)])


class TestSizeMisreport:
    """Every solver re-checks the size the kernel reports against its
    witness, so a kernel that miscounts cannot pass off a wrong optimum."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: domination_number(_CYCLE5),
            lambda: total_domination_number(_CYCLE5),
            lambda: undirected_domination_number(_P4),
        ],
        ids=["gamma", "gamma_t", "undirected-gamma"],
    )
    def test_cover_size_one_short(self, monkeypatch, solve):
        monkeypatch.setattr(kernels, "min_set_cover", _misreport(kernels.min_set_cover, -1))
        with pytest.raises(AssertionError):
            solve()

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: packing_number(_RHO_SHORT),
            lambda: open_packing_number(_OPEN_SHORT),
            lambda: two_packing_number(_C5_TRIANGLE),
            lambda: undirected_open_packing_number(_OPEN_SHORT_GRAPH),
            lambda: all_maximum_packings(_RHO_SHORT),
        ],
        ids=[
            "rho", "rho_open", "two-packing", "undirected-open-packing", "all-maximum-packings",
        ],
    )
    def test_packing_size_one_over(self, monkeypatch, solve):
        calls = []
        over = _misreport(kernels.max_independent_set, 1)

        def counted(*args):
            calls.append(args)
            return over(*args)

        monkeypatch.setattr(kernels, "max_independent_set", counted)
        with pytest.raises(AssertionError):
            solve()
        assert calls  # the misreport reached the solver, not a root bound


class TestBruteForceOracle:
    def test_rejects_large(self):
        with pytest.raises(ValueError):
            brute_force_invariant(build_digraph(30, []), "gamma")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            brute_force_invariant(build_digraph(2, []), "chromatic")

    def test_triangle(self, directed_triangle):
        assert brute_force_invariant(directed_triangle, "gamma") == 2
        assert brute_force_invariant(directed_triangle, "rho") == 1

    def test_arcless(self):
        d = build_digraph(3, [])
        assert brute_force_invariant(d, "rho") == 3
        assert brute_force_invariant(d, "gamma_t") is None

    def test_oracle_equivalence_exhaustive_up_to_n3(self, backend):
        for n in (1, 2, 3):
            for d in all_digraphs(n):
                assert domination_number(d)[0] == brute_force_invariant(d, "gamma")
                assert packing_number(d)[0] == brute_force_invariant(d, "rho")
                assert open_packing_number(d)[0] == brute_force_invariant(d, "rho_open")
                gt = total_domination_number(d)
                assert (gt[0] if gt else None) == brute_force_invariant(d, "gamma_t")

    def test_oracle_equivalence_random_n5_to_n7(self, backend):
        rng = random.Random(21)
        for _ in range(1000):
            n = rng.randint(5, 7)
            d = random_digraph(n, rng.uniform(0.08, 0.9), rng.getrandbits(32))
            assert domination_number(d)[0] == brute_force_invariant(d, "gamma")
            assert packing_number(d)[0] == brute_force_invariant(d, "rho")
            assert open_packing_number(d)[0] == brute_force_invariant(d, "rho_open")
            gt = total_domination_number(d)
            assert (gt[0] if gt else None) == brute_force_invariant(d, "gamma_t")


class TestPackingRoot:
    """Every packing solve first compares its greedy packing with gamma,
    when given, with the sorted-size bound and with the greedy clique cover
    of the in-neighbourhood graph; a packing that meets one is returned with
    no auxiliary graph."""

    _KINDS = (("rho", packing_number, validate.is_packing),
              ("rho_open", open_packing_number, validate.is_open_packing))

    def test_oracle_up_to_n4(self, backend):
        # every digraph on at most 4 vertices and its underlying graph
        for n in range(5):
            for d in all_digraphs(n):
                for g in (d, underlying_graph(d)):
                    for which, solve, valid in self._KINDS:
                        value, witness = solve(g)
                        assert value == brute_force_invariant(g, which)
                        assert valid(g, witness) and witness.bit_count() == value

    @pytest.mark.parametrize(
        "d, closed, sizes_only",
        [
            # rho(cycle:5) = 2: two closed in-neighbourhoods of size 2 fit
            # in 5 vertices, three do not
            pytest.param(gen_oriented_cycle(5), True, True, id="sorted-size"),
            # the out-star 0 -> 1, 2, 3: the source joins every maximal open
            # packing, and the other open in-neighbourhoods, {0} each, fill
            # their union {0} once, so rho_o = 1 + 1 (the old counting bound
            # was 1 + 4)
            pytest.param(
                build_digraph(4, [(0, 1), (0, 2), (0, 3)]), False, True, id="open-with-source"
            ),
            # the out-star 0 -> 1, 2: every closed in-neighbourhood holds 0,
            # so one clique covers the graph and rho = 1, while the sizes
            # 1, 2, 2 give 2
            pytest.param(build_digraph(3, [(0, 1), (0, 2)]), True, False, id="clique-cover"),
            # the out-star 0 -> 1, 2, 3 plus 1 -> 2: the source is a clique of
            # its own and the rest share 0, so rho_o = 2, while the sizes
            # 0, 1, 1, 2 in a union of 2 give 3
            pytest.param(
                build_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]), False, False,
                id="clique-cover-with-source",
            ),
            # rho_o(Gm:3) = 5, below the sorted-size bound 6
            pytest.param(build_family("Gm:3"), False, False, id="Gm3-open"),
        ],
    )
    def test_certified_without_auxiliary_graph(self, monkeypatch, d, closed, sizes_only):
        def refuse(*args, **kwargs):
            raise AssertionError("the root left a certified packing to the kernel")

        for module in (solvers, auxgraph):
            monkeypatch.setattr(module, "closed_in_neighborhood_graph", refuse)
            monkeypatch.setattr(module, "open_in_neighborhood_graph", refuse)
        monkeypatch.setattr(kernels, "max_independent_set", refuse)
        if sizes_only:
            monkeypatch.setattr(solvers, "_hood_clique_cover", refuse)
        which, solve, valid = self._KINDS[not closed]
        value, witness = solve(d)
        assert value == brute_force_invariant(d, which)
        assert valid(d, witness) and witness.bit_count() == value

    @staticmethod
    def _bounds(d, closed):
        """The sorted-size bound, the in-neighbourhood clique cover, the old
        counting bound ``free + n // least`` and, from the built graph, its
        greedy clique cover as the independent-set kernel's root takes it."""
        hoods = [d.in_closed(v) if closed else d.in_adj[v] for v in range(d.n)]
        outs = [d.out_closed(w) if closed else d.out_adj[w] for w in range(d.n)]
        sizes = [m.bit_count() for m in hoods]
        union = bitset.from_iter(v for m in hoods for v in bitset.to_list(m))
        least = min(filter(None, sizes), default=0)
        counting = sizes.count(0) + (d.n // least if least else 0)
        adj = (auxgraph.closed_in_neighborhood_graph if closed
               else auxgraph.open_in_neighborhood_graph)(d).adj
        left, greedy = bitset.full(d.n), 0
        while left:
            low = left & -left
            cand = left & adj[low.bit_length() - 1]
            clique = low
            while cand:
                u = cand & -cand
                clique |= u
                cand &= adj[u.bit_length() - 1]
            left &= ~clique
            greedy += 1
        return (
            solvers._sorted_size_bound(sizes, union.bit_count()),
            solvers._hood_clique_cover(hoods, outs, d.n),
            counting,
            greedy,
        )

    def test_bounds_against_oracle(self):
        # every digraph on at most 3 vertices, 1,000 seeded random ones on
        # at most 8, and the underlying graphs of both, in both kinds
        rng = random.Random(38)
        digraphs = [d for n in range(4) for d in all_digraphs(n)]
        digraphs += [
            random_digraph(rng.randint(1, 8), rng.uniform(0.05, 0.9), rng.getrandbits(32))
            for _ in range(1000)
        ]
        for d in digraphs:
            for g in (d, underlying_graph(d)):
                for closed, which in ((True, "rho"), (False, "rho_open")):
                    rho = brute_force_invariant(g, which)
                    sized, cover, counting, kernel_cover = self._bounds(g, closed)
                    assert rho <= sized <= counting
                    assert rho <= cover == kernel_cover
                    assert solvers.packing_against(g, None, closed=closed)[0] == rho

    def test_clique_cover_stops_past_most(self):
        # ten isolated vertices take ten cliques; the count stops at most + 1
        hoods = [1 << v for v in range(10)]
        assert solvers._hood_clique_cover(hoods, hoods, 10) == 10
        assert solvers._hood_clique_cover(hoods, hoods, 3) == 4


class TestWitnessValidation:
    def test_witnesses_satisfy_definitions(self, backend):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 9)
            d = random_digraph(n, rng.uniform(0.1, 0.8), rng.getrandbits(32))
            gamma, dom = domination_number(d)
            assert validate.is_dominating_set(d, dom)
            assert dom.bit_count() == gamma
            rho, pack = packing_number(d)
            assert validate.is_packing(d, pack)
            assert pack.bit_count() == rho
            rho_o, opack = open_packing_number(d)
            assert validate.is_open_packing(d, opack)
            total = total_domination_number(d)
            if total is not None:
                assert validate.is_total_dominating_set(d, total[1])

    def test_sweep_witnesses_pinned(self, backend, exact_packing_solves):
        # 2,000 digraphs like the observation sweep's: n in 1..10, arc
        # densities 0.1-0.9; one digest over the (value, witness) of all
        # seven invariants, so a change to any kernel's root order or
        # search that moves a witness fails here.  The packing root's
        # bounds leave 342 of the 8,000 packing solves to the
        # independent-set kernel (1,167 with the counting bound and the
        # greedy dominating set it had before the sorted-size bound and
        # the clique cover).
        rng = random.Random(3)
        answers = []
        for _ in range(2000):
            d = random_digraph(
                rng.randint(1, 10), rng.choice((0.1, 0.2, 0.35, 0.5, 0.7, 0.9)),
                rng.getrandbits(32),
            )
            un = underlying_graph(d)
            answers.append((
                domination_number(d), total_domination_number(d),
                packing_number(d), open_packing_number(d),
                undirected_domination_number(un), two_packing_number(un),
                undirected_open_packing_number(un),
            ))
        assert (
            hashlib.sha256(repr(answers).encode("ascii")).hexdigest()
            == "6f34c7381b02aed54d04ac8652b03680c3fab892f7e65b2a2bf3c281c593d112"
        )
        assert exact_packing_solves == {"closed": 163, "open": 179}

    def test_open_packing_is_pairwise_disjointness(self):
        # every vertex subset of small random digraphs, against the
        # pairwise reading of the definition
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.uniform(0.1, 0.8), rng.getrandbits(32))
            for members in range(1 << n):
                vs = bitset.to_list(members)
                pairwise = all(
                    not d.in_adj[a] & d.in_adj[b]
                    for k, a in enumerate(vs)
                    for b in vs[k + 1:]
                )
                assert validate.is_open_packing(d, members) == pairwise

    def test_monotone_adding_arcs_never_raises_gamma(self):
        rng = random.Random(32)
        for _ in range(60):
            n = rng.randint(2, 8)
            d = random_digraph(n, 0.3, rng.getrandbits(32))
            before = domination_number(d)[0]
            free = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and not d.has_arc(u, v)
            ]
            if not free:
                continue
            extra = free[rng.randrange(len(free))]
            augmented = build_digraph(n, d.arcs() + [extra])
            assert domination_number(augmented)[0] <= before


class TestObservationOne:
    """The five definitional inequalities relating the invariants."""

    def test_on_random_digraphs(self):
        rng = random.Random(41)
        for _ in range(250):
            n = rng.randint(1, 9)
            d = random_digraph(n, rng.uniform(0.05, 0.9), rng.getrandbits(32))
            un = underlying_graph(d)
            rho = packing_number(d)[0]
            gamma = domination_number(d)[0]
            assert two_packing_number(un)[0] <= rho
            assert undirected_open_packing_number(un)[0] <= open_packing_number(d)[0]
            assert rho <= gamma
            total = total_domination_number(d)
            if total is not None:
                assert open_packing_number(d)[0] <= total[0]
            assert gamma >= undirected_domination_number(un)[0]
            assert gamma >= -(-d.n // (d.max_out_degree + 1))


class TestPartition:
    def test_fig5_partition_minimum(self):
        d = build_digraph(6, [(0, 1), (1, 2), (0, 3), (3, 0), (1, 4), (2, 5)])
        side_a, side_b = partition_two_dominating_sets(d)
        assert bitset.to_list(side_a) == [0, 2, 4]
        assert bitset.to_list(side_b) == [1, 3, 5]

    def test_isolated_vertex_impossible(self):
        d = build_digraph(3, [(0, 1), (1, 0)])
        assert partition_two_dominating_sets(d) is None

    def test_corona_layers_partition(self):
        # bidirected corona over a 2-path: bases and leaves split
        d = build_digraph(
            4, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1)]
        )
        result = partition_two_dominating_sets(d)
        assert result is not None
        side_a, side_b = result
        assert validate.is_dominating_set(d, side_a)
        assert validate.is_dominating_set(d, side_b)
        assert side_a | side_b == bitset.full(4)
        assert side_a & side_b == 0

    def test_directed_triangle_has_none(self, directed_triangle):
        # every closed in-neighborhood has two vertices, yet the search
        # backs up to vertex 0 and gives up
        assert partition_two_dominating_sets(directed_triangle) is None

    def test_oriented_5_cycle_has_none(self):
        assert partition_two_dominating_sets(build_family("cycle:5")) is None

    def test_partition_on_bidirected_cycle(self):
        d = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
        result = partition_two_dominating_sets(d)
        assert result is not None

    def test_stops_at_deadline(self):
        from didom.errors import Deadline, SolveTimeout

        with pytest.raises(SolveTimeout):
            partition_two_dominating_sets(build_family("corona:n=500"), deadline=Deadline(0))

    def test_thousand_vertices_past_the_recursion_limit(self):
        # a search that recursed once per vertex hit Python's default
        # recursion limit (1000) near 990 vertices
        d = build_family("corona:n=500")
        assert d.n == 1000
        side_a, side_b = partition_two_dominating_sets(d)
        assert side_a | side_b == bitset.full(d.n) and side_a & side_b == 0
        assert validate.is_dominating_set(d, side_a)
        assert validate.is_dominating_set(d, side_b)


class TestAllMaximumPackings:
    def test_path_ditree(self):
        d = gen_bidirected_path(4)
        packs = all_maximum_packings(d)
        rho = packing_number(d)[0]
        assert all(p.bit_count() == rho for p in packs)
        assert len(set(packs)) == len(packs)
        # brute-force the same enumeration
        brute = [
            mask
            for mask in range(1 << 4)
            if mask.bit_count() == rho and validate.is_packing(d, mask)
        ]
        assert sorted(packs) == sorted(brute)

    def test_matches_subset_enumeration(self, backend):
        # every digraph on 4 vertices and 50 random ditrees on up to 9: the
        # enumeration is exactly the packings of the brute-force rho
        rng = random.Random(33)
        ditrees = [random_ditree(rng.randint(1, 9), rng.getrandbits(32)) for _ in range(50)]
        for d in [*all_digraphs(4), *ditrees]:
            rho = brute_force_invariant(d, "rho")
            brute = [
                mask
                for mask in range(1 << d.n)
                if mask.bit_count() == rho and validate.is_packing(d, mask)
            ]
            assert all_maximum_packings(d) == brute

    def test_stops_at_deadline(self):
        from didom.errors import Deadline, SolveTimeout

        # 16 disjoint bidirected edges have 2^16 maximum packings
        d = build_digraph(32, [a for i in range(0, 32, 2) for a in ((i, i + 1), (i + 1, i))])
        start = perf_counter()
        with pytest.raises(SolveTimeout):
            all_maximum_packings(d, deadline=Deadline(50))
        assert perf_counter() - start < 1.0

    def test_search_deeper_than_recursion_limit(self):
        # the one maximum packing of the edgeless digraph on 1100 vertices
        # lies 1100 search nodes deep
        assert all_maximum_packings(build_digraph(1100, [])) == [bitset.full(1100)]

    def test_cap_enforced(self, monkeypatch):
        from didom.errors import CliqueLimitExceeded

        arcless = build_digraph(6, [])
        monkeypatch.setattr(solvers, "PACKING_CAP", 0)
        with pytest.raises(CliqueLimitExceeded):
            all_maximum_packings(arcless)


class TestInvariantReport:
    def test_report_shape(self, directed_triangle):
        data = compute_invariants(directed_triangle, digraph_id="triangle")
        assert data["digraph"] == "triangle"
        assert data["gamma"]["value"] == 2
        assert data["gamma_t"]["value"] == 3
        assert data["rho"]["value"] == 1
        assert data["rho_open"]["value"] == 3
        assert "elapsed_ms" in data["gamma"]

    def test_gamma_t_undefined(self):
        rep = compute_invariants(build_digraph(2, [(0, 1)]))
        assert rep["gamma_t"]["status"] == "undefined"
        assert rep["gamma_t"]["value"] is None

    def test_timeout_entry(self):
        # gamma(Gm:3 [] Gm:3) takes 121 search nodes, so no root certificate
        # answers it before a zero deadline
        gm = gen_G_m(3)
        prod, _ = cartesian_product(gm, gm)
        rep = compute_invariants(prod, timeout_ms=0, include_timings=False)
        assert rep["gamma"] == {"status": "timeout", "value": None, "witness": None}

    @pytest.mark.parametrize("ticks, last", [(517, "ok"), (516, "timeout")])
    def test_each_entry_has_its_own_deadline(self, monkeypatch, ticks, last):
        # a clock that advances one tick per read, on the pure backend, which
        # reads it at every search node: the four entries of Gm:3 [] Gm:3
        # take 66, 15, 121 and 517 nodes, 719 in all, so 517 ticks answer
        # every entry and 516 stop only the last one
        from didom import errors

        clock = itertools.count(0)
        monkeypatch.setattr(errors, "monotonic", lambda: next(clock))
        monkeypatch.setattr(kernels, "_compiled", None)
        gm = gen_G_m(3)
        prod, _ = cartesian_product(gm, gm)
        rep = compute_invariants(prod, timeout_ms=ticks * 1000, include_timings=False)
        statuses = [rep[key]["status"] for key in ("gamma", "gamma_t", "rho", "rho_open")]
        assert statuses == ["ok", "ok", "ok", last]

    @pytest.mark.parametrize(
        "spec, exact_solves",
        [("path:7", {}), ("Gm:3", {}), ("fig5corona", {"closed": 1})],
    )
    def test_packings_taken_against_dominations(self, exact_packing_solves, spec, exact_solves):
        # path:7 is a ditree, so both greedy packings meet gamma and gamma_t;
        # Gm:3 has rho = 3 < gamma = 4, and its greedy packing meets the
        # sorted-size bound 3: three closed in-neighbourhoods of size 2 fit
        # in its 7 vertices, a fourth does not; fig5corona's greedy packing
        # has 2 vertices, below rho = gamma = 3, the sorted-size bound 3 and
        # the clique cover 3, so its closed packing alone goes to the kernel
        d = build_family(spec)
        rep = compute_invariants(d)
        assert exact_packing_solves == exact_solves
        for which in ("gamma", "gamma_t", "rho", "rho_open"):
            assert rep[which]["value"] == brute_force_invariant(d, which)

    def test_json_stable_without_timings(self, directed_triangle):
        a = compute_invariants(directed_triangle, digraph_id="t", include_timings=False)
        b = compute_invariants(directed_triangle, digraph_id="t", include_timings=False)
        assert a == b


class TestRevalidationSurvivesOptimize:
    """Re-validation raises explicitly, so it still runs under ``python -O``,
    which strips ``assert`` statements."""

    @pytest.mark.parametrize(
        "script",
        [
            # a partition whose sides fail re-validation
            """
            from didom import families, solvers, validate
            validate.is_dominating_set = lambda d, s: False
            solvers.partition_two_dominating_sets(families.fig5_corona())
            """,
            # a report whose packing number exceeds its domination number:
            # no root bound certifies the greedy packing of _RHO_SHORT
            # (k = 1 < rho = 2 = gamma), and the kernel's answer, all four
            # vertices, is taken as valid; a report that never reaches the
            # kernel exits 0 and fails
            """
            from didom import core, kernels, solvers, validate
            kernels.max_independent_set = lambda adj, n, deadline: (n, (1 << n) - 1)
            validate.is_packing = lambda d, s: True
            try:
                solvers.compute_invariants(
                    core.build_digraph(4, [(0, 1), (0, 3), (1, 0), (1, 2)])
                )
            except AssertionError as exc:
                if "exceeds its domination bound" in str(exc):
                    raise
            """,
            # a greedy packing as large as gamma that is no packing: the
            # pair check must reject it and fall back to the kernel, here a
            # stub that raises
            """
            from didom import families, kernels, solvers, verify
            def fallback(adj, n, deadline):
                raise AssertionError("the corrupted packing was rejected")
            solvers._ordered_packing = lambda covers, cnt, left: 0b11  # gamma(P4) = 2
            kernels.max_independent_set = fallback
            verify.check_packing_equals_domination(families.build_family("path:4"))
            """,
            # a domination number below the packing number (rho(P4) = 2)
            """
            from didom import families, solvers
            solvers.packing_against(families.build_family("path:4"), 1)
            """,
            # the default suite, whose cover kernel drops one chosen set and
            # counts it out of the size, so only the validator can tell; a
            # later check that catches it instead does not count
            """
            from didom import cli, kernels
            solve = kernels.min_set_cover
            def short(sets, universe, deadline):
                size, chosen = solve(sets, universe, deadline)
                return size - 1, chosen & (chosen - 1)
            kernels.min_set_cover = short
            try:
                cli.main(["verify"])
            except AssertionError as exc:
                if "witness failed re-validation" in str(exc):
                    raise
            """,
        ],
        ids=["partition", "invariant-report", "pair-certificate", "gamma-below-rho", "default-suite"],
    )
    def test_raises_under_O(self, script):
        src = os.path.dirname(os.path.dirname(didom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "AssertionError" in proc.stderr
