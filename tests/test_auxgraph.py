import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didom import auxgraph, bitset, validate
from didom.auxgraph import (
    closed_in_neighborhood_graph,
    is_chordal,
    maximal_cliques,
    open_in_neighborhood_graph,
)
from didom.core import build_digraph, build_undirected, underlying_graph
from didom.errors import CliqueLimitExceeded, SolveTimeout
from didom.families import gen_oriented_cycle, random_digraph, random_ditree
from didom.records import HOLDS, HYPOTHESIS_NOT_MET
from didom.solvers import (
    max_independent_set,
    two_packing_number,
    brute_force_invariant,
)
from didom.verify import check_closed_helly_lemma, check_open_helly_lemma


def small_undirected(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda edges: build_undirected(n, edges),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=2 * n,
            ),
        )
    )


class TestAuxGraphConstructions:
    def test_single_arc_closed(self):
        d = build_digraph(2, [(0, 1)])
        aux = closed_in_neighborhood_graph(d)
        assert aux.has_arc(0, 1)  # 0 lies in both closed in-neighborhoods

    def test_two_isolated_closed(self):
        aux = closed_in_neighborhood_graph(build_digraph(2, []))
        assert aux.edge_count == 0

    def test_triangle_closed_is_complete(self, directed_triangle):
        aux = closed_in_neighborhood_graph(directed_triangle)
        assert aux.edge_count == 3

    def test_common_in_neighbor_open(self):
        d = build_digraph(3, [(2, 0), (2, 1)])
        aux = open_in_neighborhood_graph(d)
        assert aux.has_arc(0, 1)

    def test_single_arc_open_is_edgeless(self):
        aux = open_in_neighborhood_graph(build_digraph(2, [(0, 1)]))
        assert aux.edge_count == 0

    def test_oriented_cycle_open_is_edgeless(self):
        aux = open_in_neighborhood_graph(gen_oriented_cycle(5))
        assert aux.edge_count == 0

    def test_square_of_path(self):
        p4 = build_undirected(4, [(0, 1), (1, 2), (2, 3)])
        sq = closed_in_neighborhood_graph(p4)
        assert sq.edge_count == 5  # adds the two distance-2 chords

    def test_square_of_edgeless(self):
        assert closed_in_neighborhood_graph(build_undirected(3, [])).edge_count == 0

    def test_square_of_star(self):
        star = build_undirected(4, [(0, 1), (0, 2), (0, 3)])
        assert closed_in_neighborhood_graph(star).edge_count == 6  # K4

    def test_open_neighborhood_graph(self):
        p3 = build_undirected(3, [(0, 1), (1, 2)])
        aux = open_in_neighborhood_graph(p3)
        assert aux.has_arc(0, 2) and aux.edge_count == 1


def brute_chordal(g) -> bool:
    # a graph is chordal iff no vertex subset induces a cycle of length >= 4
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            degs = []
            ok = True
            for v in sub:
                d = sum(1 for w in sub if w != v and g.has_arc(v, w))
                degs.append(d)
                if d != 2:
                    ok = False
                    break
            if not ok:
                continue
            # connected 2-regular induced subgraph = induced cycle
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                x = frontier.pop()
                for y in sub:
                    if y not in seen and g.has_arc(x, y):
                        seen.add(y)
                        frontier.append(y)
            if len(seen) == k:
                return False
    return True


class TestChordality:
    def test_c4_not_chordal_with_hole(self):
        c4 = build_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        res = is_chordal(c4)
        assert not res.chordal
        assert len(res.hole) == 4

    def test_tree_aux_graph_chordal(self):
        for seed in range(20):
            t = random_ditree(9, seed)
            res = is_chordal(closed_in_neighborhood_graph(t))
            assert res.chordal
            assert validate.is_perfect_elimination_order(
                closed_in_neighborhood_graph(t), res.elimination_order
            )

    def test_open_aux_chordal_on_min_indegree_ditrees(self):
        found = 0
        for seed in range(200):
            t = random_ditree(7, seed, orientation_weights=(0.2, 0.2, 0.6))
            if t.min_in_degree >= 1:
                found += 1
                assert is_chordal(open_in_neighborhood_graph(t)).chordal
            if found >= 15:
                break
        assert found >= 15

    @settings(max_examples=120, deadline=None)
    @given(small_undirected())
    def test_matches_brute_force(self, g):
        res = is_chordal(g)
        assert res.chordal == brute_chordal(g)
        if res.chordal:
            assert validate.is_perfect_elimination_order(g, res.elimination_order)
        else:
            hole = res.hole
            assert len(hole) >= 4
            # the hole is an induced chordless cycle
            k = len(hole)
            for i, v in enumerate(hole):
                assert g.has_arc(v, hole[(i + 1) % k])
                for j in range(i + 2, k):
                    if (j + 1) % k != i:
                        assert not g.has_arc(v, hole[j])


class TestMaximalCliques:
    def test_k4(self):
        k4 = build_undirected(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert maximal_cliques(k4) == [0b1111]

    def test_p3(self):
        p3 = build_undirected(3, [(0, 1), (1, 2)])
        assert maximal_cliques(p3) == [0b011, 0b110]

    def test_triangle_aux(self, directed_triangle):
        aux = closed_in_neighborhood_graph(directed_triangle)
        assert maximal_cliques(aux) == [0b111]

    def test_cap(self, monkeypatch):
        # 3 disjoint triangles -> moderate count; cap of 2 must trip
        edges = []
        for b in (0, 3, 6):
            edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
        g = build_undirected(9, edges)
        monkeypatch.setattr(auxgraph, "CLIQUE_CAP", 2)
        with pytest.raises(CliqueLimitExceeded):
            maximal_cliques(g)

    def test_deadline(self):
        p3 = build_undirected(3, [(0, 1), (1, 2)])
        with pytest.raises(SolveTimeout):
            maximal_cliques(p3, timeout_ms=0)

    @settings(max_examples=60, deadline=None)
    @given(small_undirected())
    def test_cliques_are_maximal_and_complete(self, g):
        cliques = maximal_cliques(g)
        seen = set()
        for c in cliques:
            assert c not in seen
            seen.add(c)
            assert validate.is_clique(g, c)
            # maximality: no vertex extends the clique
            for v in range(g.n):
                if not c >> v & 1:
                    assert not validate.is_clique(g, c | (1 << v))
        # completeness: every maximal clique appears (brute force n<=8)
        for k in range(1, g.n + 1):
            for sub in combinations(range(g.n), k):
                mask = bitset.from_iter(sub)
                if validate.is_clique(g, mask) and not any(
                    validate.is_clique(g, mask | (1 << v))
                    for v in range(g.n)
                    if not mask >> v & 1
                ):
                    assert mask in seen


class TestObservationIdentities:
    """Packing numbers coincide with independence numbers of the aux graphs."""

    def test_rho_equals_alpha_closed(self):
        rng = random.Random(11)
        for trial in range(400):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
            alpha, _ = max_independent_set(closed_in_neighborhood_graph(d))
            assert alpha == brute_force_invariant(d, "rho")

    def test_rho_open_equals_alpha_open(self):
        rng = random.Random(12)
        for trial in range(400):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
            alpha, _ = max_independent_set(open_in_neighborhood_graph(d))
            assert alpha == brute_force_invariant(d, "rho_open")

    def test_two_packing_equals_alpha_square(self):
        rng = random.Random(13)
        for trial in range(100):
            n = rng.randint(1, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = build_undirected(n, edges)
            rho2, witness = two_packing_number(g)
            alpha, _ = max_independent_set(closed_in_neighborhood_graph(g))
            assert rho2 == alpha
            assert validate.is_packing(g, witness)


class TestHellyCheckers:
    def test_ditree_closed_passes(self):
        for seed in range(10):
            rec = check_closed_helly_lemma(random_ditree(8, seed))
            assert rec.hypotheses_met
            assert rec.verdict == HOLDS

    def test_single_vertex_closed(self):
        rec = check_closed_helly_lemma(build_digraph(1, []))
        assert rec.verdict == HOLDS

    def test_girth4_hypothesis_flagged(self):
        c4 = build_digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
        rec = check_closed_helly_lemma(c4)
        assert not rec.hypotheses_met
        assert rec.verdict == HYPOTHESIS_NOT_MET
        # the conclusion is still checked: the one clique, all of C4, fits
        # in no closed out-neighborhood
        assert (rec.lhs, rec.rhs) == (0, 1)
        assert rec.witnesses == {"uncontained_clique": [0, 1, 2, 3]}

    def test_open_common_in_neighbor(self):
        # arcs w->u, w->v force the clique {u, v} inside N+(w); w itself has
        # no in-neighbor, so only the hypothesis flag is off
        d = build_digraph(3, [(2, 0), (2, 1)])
        rec = check_open_helly_lemma(d)
        assert not rec.hypotheses_met
        assert rec.lhs < rec.rhs  # the clique {w} is uncovered
        assert rec.witnesses == {"uncontained_clique": [2]}
        d2 = build_digraph(3, [(2, 0), (2, 1), (0, 2)])
        rec2 = check_open_helly_lemma(d2)
        assert rec2.hypotheses_met and rec2.verdict == HOLDS

    def test_open_triangle_hypothesis_violated(self):
        d = build_digraph(3, [(2, 0), (2, 1), (0, 1), (1, 2)])
        rec = check_open_helly_lemma(d)
        assert not rec.hypotheses_met
        assert rec.verdict == HYPOTHESIS_NOT_MET

    def test_open_min_indegree_ditrees_pass(self):
        found = 0
        for seed in range(100):
            t = random_ditree(8, seed, orientation_weights=(0.15, 0.15, 0.7))
            if t.min_in_degree >= 1:
                rec = check_open_helly_lemma(t)
                assert rec.hypotheses_met
                assert rec.verdict == HOLDS
                found += 1
        assert found >= 10

    def test_open_sparse_random_girth7_sample(self):
        # sparse random digraphs filtered by girth >= 7 and min in-degree >= 1
        from didom.core import girth as girth_of

        rng = random.Random(5)
        found = 0
        for _ in range(4000):
            d = random_digraph(9, 0.08, rng.getrandbits(32))
            g = girth_of(underlying_graph(d))
            if (g is None or g >= 7) and d.n and d.min_in_degree >= 1:
                rec = check_open_helly_lemma(d)
                assert rec.hypotheses_met and rec.verdict == HOLDS
                found += 1
                if found >= 10:
                    break
        assert found >= 1
