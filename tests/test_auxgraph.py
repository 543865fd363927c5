import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didom import auxgraph, bitset, errors, kernels, validate, verify
from didom.auxgraph import (
    closed_in_neighborhood_graph,
    is_chordal,
    maximal_cliques,
    open_in_neighborhood_graph,
)
from didom.core import UndirectedGraph, build_digraph, build_undirected, girth, underlying_graph
from didom.errors import CliqueLimitExceeded, Deadline, SolveTimeout
from didom.families import build_family, gen_oriented_cycle, random_digraph, random_ditree
from didom.records import FAILS, HOLDS, HYPOTHESIS_NOT_MET, TIMEOUT
from didom.solvers import brute_force_invariant, two_packing_number
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
            maximal_cliques(p3, deadline=Deadline(0))

    def test_search_deeper_than_recursion_limit(self):
        # the one clique of K_1100 lies 1100 search nodes deep
        full = bitset.full(1100)
        k = UndirectedGraph(1100, tuple(full ^ (1 << v) for v in range(1100)))
        assert maximal_cliques(k) == [full]

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


def _alpha(g: UndirectedGraph) -> tuple[int, int]:
    """The independence number of g and the kernel's witness."""
    return kernels.max_independent_set(g.adj, g.n)


class TestObservationIdentities:
    """Packing numbers coincide with independence numbers of the aux graphs,
    and a maximum independent set of one is a maximum packing."""

    def test_rho_equals_alpha_closed(self):
        rng = random.Random(11)
        for trial in range(400):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
            alpha, witness = _alpha(closed_in_neighborhood_graph(d))
            assert alpha == brute_force_invariant(d, "rho")
            assert validate.is_packing(d, witness)

    def test_rho_open_equals_alpha_open(self):
        rng = random.Random(12)
        for trial in range(400):
            n = rng.randint(1, 7)
            d = random_digraph(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
            alpha, witness = _alpha(open_in_neighborhood_graph(d))
            assert alpha == brute_force_invariant(d, "rho_open")
            assert validate.is_open_packing(d, witness)

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
            alpha, _ = _alpha(closed_in_neighborhood_graph(g))
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


def _helly_by_scan(d, closed, hyp):
    """The Helly verdict fields by the definitional scan: a maximal clique
    is contained when some closed (open) out-neighborhood holds it, found by
    trying every vertex w."""
    aux = closed_in_neighborhood_graph(d) if closed else open_in_neighborhood_graph(d)
    cliques = maximal_cliques(aux)
    contained, failing = 0, None
    for k in cliques:
        if any(k & ~(d.out_closed(w) if closed else d.out_adj[w]) == 0 for w in range(d.n)):
            contained += 1
        elif failing is None:
            failing = k
    g = girth(underlying_graph(d))
    if not ((g is None or g >= 7) and hyp):
        verdict = HYPOTHESIS_NOT_MET
    else:
        verdict = HOLDS if failing is None else FAILS
    witnesses = {} if failing is None else {"uncontained_clique": bitset.to_list(failing)}
    return contained, len(cliques), verdict, witnesses


class TestHellyByCommonInNeighbor:
    """The checkers count a clique as contained when its members have a
    common in-neighbor; every field equals the per-vertex scan's."""

    @staticmethod
    def _samples():
        rng = random.Random(31)
        for _ in range(300):
            yield random_digraph(rng.randint(1, 10), rng.uniform(0.05, 0.9), rng.getrandbits(32))
        for _ in range(200):
            weights = rng.choice([(1.0, 1.0, 1.0), (0.15, 0.15, 0.7), (0.45, 0.45, 0.1)])
            yield random_ditree(rng.randint(1, 40), rng.getrandbits(32), orientation_weights=weights)

    def test_same_fields_as_scan(self):
        verdicts = Counter()
        for d in self._samples():
            for closed, checker in ((True, check_closed_helly_lemma), (False, check_open_helly_lemma)):
                rec = checker(d)
                hyp = closed or d.min_in_degree >= 1
                expected = _helly_by_scan(d, closed, hyp)
                assert (rec.lhs, rec.rhs, rec.verdict, rec.witnesses) == expected, d.arcs()
                verdicts[rec.verdict, bool(rec.witnesses)] += 1
        # the sample reaches held lemmas and uncontained cliques alike
        assert verdicts[HOLDS, False] and verdicts[HYPOTHESIS_NOT_MET, True]

    def test_closed_at_capacity(self):
        rec = check_closed_helly_lemma(random_ditree(4000, 1))
        assert rec.verdict == HOLDS and rec.lhs == rec.rhs

    def test_girth_search_stops_at_deadline(self):
        # the 2-core of a cycle is the whole cycle: a zero deadline stops its
        # girth search at the first BFS root, while the one BFS the cycle
        # needs, and the clique search, fit well within 100 ms
        for checker in (check_closed_helly_lemma, check_open_helly_lemma):
            assert checker(build_family("cycle:2000"), timeout_ms=0).verdict == TIMEOUT
            rec = checker(build_family("cycle:2000"), timeout_ms=100)
            assert (rec.verdict, rec.lhs, rec.rhs) == (HOLDS, 2000, 2000)

    @pytest.mark.parametrize("checker", [check_closed_helly_lemma, check_open_helly_lemma])
    def test_dense_digraph_stops_at_deadline(self, checker):
        # 800 vertices at density 0.3: naming the record, building the
        # in-neighborhood graph and enumerating its cliques each take tens
        # of ms, so a 10 ms deadline ends the check
        d = random_digraph(800, 0.3, 1)
        assert checker(d, timeout_ms=10).verdict == TIMEOUT
        assert checker(d, instance="x", timeout_ms=10).verdict == TIMEOUT

    @pytest.mark.parametrize("checker", [check_closed_helly_lemma, check_open_helly_lemma])
    def test_one_deadline_starts_before_the_name(self, monkeypatch, checker):
        # a clock that only the record's name advances, by a second: the
        # check's one deadline of 10 ms has passed at the girth's first BFS
        # root, while a record named by the caller is not delayed and holds
        now = [0.0]
        monkeypatch.setattr(errors, "monotonic", lambda: now[0])
        name = verify.digraph_descriptor

        def slow_name(d):
            now[0] += 1.0
            return name(d)

        monkeypatch.setattr(verify, "digraph_descriptor", slow_name)
        d = build_family("cycle:8")
        assert checker(d, timeout_ms=10).verdict == TIMEOUT
        assert checker(d, instance="cycle:8", timeout_ms=10).verdict == HOLDS

    @pytest.mark.parametrize(
        "build", [closed_in_neighborhood_graph, open_in_neighborhood_graph]
    )
    def test_in_neighborhood_graph_polls_per_set(self, monkeypatch, build):
        # a clock that advances one tick per read: the deadline reads 0 and
        # sets itself at 5.0, which the 6th set's read passes
        clock = iter(range(100))
        monkeypatch.setattr(errors, "monotonic", lambda: next(clock))
        deadline = Deadline(5000)
        with pytest.raises(SolveTimeout):
            build(build_family("cycle:10"), deadline)
        assert deadline.nodes == 6
