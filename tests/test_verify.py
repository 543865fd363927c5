import hashlib
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import didom.verify as verify
from didom import bitset, errors, kernels, solvers, validate
from didom.core import build_digraph, build_undirected, underlying_graph
from didom.errors import SolveTimeout
from didom.families import (
    build_family,
    enumerate_ditrees,
    fig5_corona,
    gen_bidirected_path,
    gen_G_m,
    gen_K1_star,
    gen_oriented_cycle,
    random_digraph,
    random_digraph_min_indegree,
    random_ditree,
)
from didom.products import cartesian_product
from didom.records import (
    ERROR,
    FAILS,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    TIMEOUT,
    VerificationRecord,
    arc_list_descriptor,
    digraph_descriptor,
)
from didom.solvers import brute_force_invariant


class TestRecords:
    def test_json_roundtrip(self):
        rec = VerificationRecord(
            claim="thm:meir-moon",
            instance="tree:x",
            hypotheses_met=True,
            lhs=2,
            rhs=2,
            verdict=HOLDS,
            witnesses={"dominating_set": [0, 2]},
            elapsed_ms=1.25,
            seed=7,
        )
        back = VerificationRecord.from_json(rec.to_json())
        assert back.claim == rec.claim
        assert back.lhs == 2 and back.verdict == HOLDS
        assert back.witnesses == {"dominating_set": [0, 2]}

    def test_schema_keys(self):
        rec = VerificationRecord("c", "i", True, 1, 1, HOLDS)
        data = json.loads(rec.to_json())
        assert set(data) == {
            "claim",
            "instance",
            "hypotheses_met",
            "lhs",
            "rhs",
            "verdict",
            "witnesses",
            "elapsed_ms",
            "seed",
        }

    @pytest.mark.parametrize("include_timings", [True, False])
    def test_to_json_is_sorted_dumps(self, include_timings):
        records = [
            VerificationRecord("c", "i", True, 1, 1, HOLDS),
            VerificationRecord(
                "thm:product", "G □ T · n=3 é", None, None, None, TIMEOUT,
                witnesses={"arcs": [[0, 1], [2, 0]], "set": [1]}, elapsed_ms=0.12345,
                seed=None, extras={"zeta": None, "alpha": {"b": 2, "a": [1, 2]}},
            ),
        ]
        for rec in records:
            text = rec.to_json(include_timings)
            assert text == json.dumps(rec.to_dict(include_timings), sort_keys=True)
            assert text.isascii()
        assert "\\u00e9" in records[1].to_json(include_timings)

    def test_bad_verdict_rejected(self):
        with pytest.raises(ValueError):
            VerificationRecord("c", "i", True, 1, 1, "maybe")

    def test_descriptor_stable(self, directed_triangle):
        assert digraph_descriptor(directed_triangle) == digraph_descriptor(
            build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        )

    def test_descriptor_from_masks_matches_arc_list(self):
        # digraph_descriptor reads the out-masks; arc_list_descriptor the arcs
        rng = random.Random(32)
        complete = build_digraph(9, [(u, v) for u in range(9) for v in range(9) if u != v])
        digraphs = [build_digraph(0, []), build_digraph(7, []), complete]
        for _ in range(497):
            n = rng.randint(0, 40)
            digraphs.append(random_digraph(n, rng.random(), rng.getrandbits(32)))
        for d in digraphs:
            assert digraph_descriptor(d) == arc_list_descriptor(d.n, d.arcs())


class TestMeirMoon:
    def test_path_and_star(self):
        p4 = build_undirected(4, [(0, 1), (1, 2), (2, 3)])
        star = build_undirected(5, [(0, i) for i in range(1, 5)])
        assert verify.check_meir_moon(p4).verdict == HOLDS
        assert verify.check_meir_moon(star).verdict == HOLDS

    def test_random_trees(self):
        rng = random.Random(99)
        for seed in range(500):
            tree = underlying_graph(random_ditree(rng.randint(2, 14), seed))
            rec = verify.check_meir_moon(tree)
            assert rec.verdict == HOLDS

    def test_non_tree_flagged(self):
        c4 = build_undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert verify.check_meir_moon(c4).verdict == HYPOTHESIS_NOT_MET

    def test_digraph_checked_as_its_underlying_graph(self):
        d = build_family("ditree:n=6,seed=2")
        tree = underlying_graph(d)
        on_d, on_tree = verify.check_meir_moon(d), verify.check_meir_moon(tree)
        assert on_d.instance == f"tree:n=6,edges={tree.edges()}"
        assert on_d.to_json(False) == on_tree.to_json(False)
        assert verify.check_meir_moon(d, instance="x").instance == "x"


class TestDitreeEqualities:
    def test_k1_star(self):
        rec = verify.check_packing_equals_domination(gen_K1_star())
        assert rec.verdict == HOLDS and rec.lhs == rec.rhs == 4

    def test_non_ditree_records_values(self, directed_triangle):
        rec = verify.check_packing_equals_domination(directed_triangle)
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.lhs == 1 and rec.rhs == 2

    def test_open_variant_p4(self, bidirected_p4):
        rec = verify.check_open_packing_equals_total_domination(bidirected_p4)
        assert rec.verdict == HOLDS
        assert rec.lhs == rec.rhs == 2

    def test_open_variant_source_vertex(self):
        rec = verify.check_open_packing_equals_total_domination(
            build_digraph(2, [(0, 1)])
        )
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.rhs is None


class TestDirectProduct:
    def test_cycle_products(self):
        c3, c4 = gen_oriented_cycle(3), gen_oriented_cycle(4)
        rec = verify.check_total_domination_direct_product(c3, c3)
        assert rec.verdict == HOLDS and rec.lhs == 9
        rec = verify.check_total_domination_direct_product(c3, c4)
        assert rec.verdict == HOLDS and rec.lhs == 12

    def test_large_product_solved_with_witness(self):
        # 72 vertices: the sandwich is pinned at 72 by rho_o = gamma_t, but
        # the value must come from a solve that carries its witness
        c9, c8 = gen_oriented_cycle(9), gen_oriented_cycle(8)
        rec = verify.check_total_domination_direct_product(c9, c8)
        assert rec.verdict == HOLDS and rec.lhs == rec.rhs == 72
        assert set(rec.extras) == {
            "gamma_t_G", "gamma_t_H", "rho_open_G", "rho_open_H",
        }
        prod, _ = verify.direct_product(c9, c8)
        witness = bitset.from_iter(rec.witnesses["product_total_dominating_set"])
        assert witness.bit_count() == 72
        assert validate.is_total_dominating_set(prod, witness)

    def test_ditree_factor(self):
        p3 = gen_bidirected_path(3)
        for seed in range(10):
            h = random_digraph_min_indegree(5, 0.4, seed)
            rec = verify.check_total_domination_direct_product(p3, h)
            assert rec.verdict == HOLDS

    def test_ditree_times_ditree(self):
        p3 = gen_bidirected_path(3)
        rec = verify.check_total_domination_direct_product(p3, p3)
        assert rec.verdict == HOLDS
        assert rec.lhs == rec.rhs == 4

    def test_source_vertex_flagged(self, directed_triangle):
        rec = verify.check_total_domination_direct_product(
            directed_triangle, build_digraph(2, [(0, 1)])
        )
        assert rec.verdict == HYPOTHESIS_NOT_MET

    def test_hypothesis_rho_lt_gamma_t(self):
        # first factor with open packing < total domination: sandwich still checked
        from didom.solvers import open_packing_number, total_domination_number

        found = False
        for seed in range(200):
            g = random_digraph_min_indegree(6, 0.6, seed)
            if open_packing_number(g)[0] < total_domination_number(g)[0]:
                rec = verify.check_total_domination_direct_product(
                    g, gen_oriented_cycle(3)
                )
                assert rec.verdict in (HYPOTHESIS_NOT_MET, HOLDS)
                assert not rec.hypotheses_met or rec.verdict == HOLDS
                # the sandwich's lower end, read off the four factor extras
                x = rec.extras
                low = max(x["rho_open_G"] * x["gamma_t_H"], x["rho_open_H"] * x["gamma_t_G"])
                assert low <= rec.lhs <= rec.rhs
                found = True
                break
        assert found


class TestCartesianBounds:
    def test_packing_lower_bound_fig1(self, directed_triangle, chorded_5cycle):
        rec = verify.check_packing_lower_bound(directed_triangle, chorded_5cycle)
        assert rec.verdict == HOLDS
        assert rec.lhs == 5
        # gamma(G1) rho(H) = 2 * 2, gamma(H) rho(G1) = 3 * 1
        assert rec.rhs == 4

    def test_packing_lower_bound_k1(self):
        k1 = build_digraph(1, [])
        rec = verify.check_packing_lower_bound(k1, k1)
        assert rec.verdict == HOLDS and rec.lhs == 1 and rec.rhs == 1

    def test_packing_lower_bound_random(self):
        rng = random.Random(55)
        from didom.families import random_digraph

        for _ in range(25):
            g = random_digraph(rng.randint(1, 6), rng.uniform(0.1, 0.7), rng.getrandbits(32))
            h = random_digraph(rng.randint(1, 6), rng.uniform(0.1, 0.7), rng.getrandbits(32))
            assert verify.check_packing_lower_bound(g, h).verdict == HOLDS

    def test_vizing_fails_on_fig1_pair(self, directed_triangle, chorded_5cycle):
        rec = verify.check_vizing_inequality(directed_triangle, chorded_5cycle)
        assert rec.verdict == FAILS
        assert rec.lhs == 5 and rec.rhs == 6
        # the counterwitness re-validates independently of the checker
        from didom.products import cartesian_product

        witness = bitset.from_iter(rec.witnesses["product_dominating_set"])
        prod, _ = cartesian_product(directed_triangle, chorded_5cycle)
        assert validate.is_dominating_set(prod, witness)
        assert witness.bit_count() == 5 < rec.rhs

    def test_half_bound_holds_whenever_vizing_checked(self):
        # the half bound is unconditional: on any pair where both checkers
        # solve, the half-bound verdict must be `holds`
        rng = random.Random(77)
        from didom.families import random_digraph

        for _ in range(30):
            g = random_digraph(rng.randint(1, 5), rng.uniform(0.1, 0.8), rng.getrandbits(32))
            h = random_digraph(rng.randint(1, 5), rng.uniform(0.1, 0.8), rng.getrandbits(32))
            viz = verify.check_vizing_inequality(g, h)
            half = verify.check_half_vizing_bound(g, h)
            assert viz.verdict in (HOLDS, FAILS)
            assert half.verdict == HOLDS

    def test_vizing_holds_for_ditree_factor(self):
        for seed in range(15):
            t = random_ditree(5, seed)
            h = random_digraph_min_indegree(4, 0.4, seed)
            assert verify.check_vizing_inequality(t, h).verdict == HOLDS

    def test_vizing_oriented_cycles(self):
        # gamma of the product is 7 (brute-forced); the floor(16/3) = 6 chain
        # only lower-bounds it, and either way the inequality holds: >= 2*2
        c4 = gen_oriented_cycle(4)
        rec = verify.check_vizing_inequality(c4, c4)
        assert rec.verdict == HOLDS
        assert rec.lhs == 7 and rec.rhs == 4

    def test_half_bound_sharp_triangle(self, directed_triangle):
        rec = verify.check_half_vizing_bound(directed_triangle, directed_triangle)
        assert rec.verdict == HOLDS
        assert rec.extras["slack_x2"] == 0

    def test_half_bound_random(self):
        rng = random.Random(66)
        from didom.families import random_digraph

        for _ in range(25):
            g = random_digraph(rng.randint(1, 6), rng.uniform(0.1, 0.8), rng.getrandbits(32))
            h = random_digraph(rng.randint(1, 6), rng.uniform(0.1, 0.8), rng.getrandbits(32))
            assert verify.check_half_vizing_bound(g, h).verdict == HOLDS

    def test_half_bound_sandwich_pins_h9(self):
        # 108-vertex product, the paper's sharpness instance: the half bound
        # (18 * 2 + 18) / 2 = 27 and the published 27-set pin gamma = 27, and
        # the exact solve the checker now runs lands on that value
        h9 = verify.families.gen_H_m(3)
        g1 = gen_G_m(1)
        prod, pmap = verify.cartesian_product(h9, g1)
        witness = 0
        for i in range(9):
            for col, tri in ((0, 0), (1, 1), (2, 2)):
                witness |= 1 << pmap.encode(3 * i + tri, col)
        assert witness.bit_count() == 27
        assert validate.is_dominating_set(prod, witness)
        rec = verify.check_half_vizing_bound(h9, g1)
        assert rec.verdict == HOLDS
        assert rec.lhs == 27 and rec.rhs == 27
        assert rec.extras["slack_x2"] == 0
        assert set(rec.extras) == {"slack_x2", "gamma_G", "gamma_H"}

    def test_gm_failure_records(self):
        for m in (1, 2, 3):
            rec = verify.check_Gm_vizing_failure(m)
            assert rec.verdict == HOLDS
            assert rec.lhs == m * m + 2 * m
            assert rec.rhs == (m + 1) ** 2
        rec = verify.check_Gm_vizing_failure(5)
        assert rec.verdict == HOLDS
        assert rec.extras["gamma_product"] == 35


class TestGmCertificate:
    @pytest.mark.parametrize("m", [*range(3, 11), 30])
    def test_packing_certifies_gamma(self, m):
        prod, witness = verify.gm_square_dominating_set(m)
        num, den = verify.gm_square_fractional_packing(m)
        assert validate.is_fractional_packing(prod, num, den)
        assert sum(num) == (m * m + 2 * m) * den == witness.bit_count() * den

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_mutants_rejected(self, m):
        prod, _ = verify.gm_square_dominating_set(m)
        num, den = verify.gm_square_fractional_packing(m)
        n = 2 * m + 1
        hub, b, c = 0, 1, 2  # v1, v2, v3 of the first triangle

        def mutant(index, value):
            out = list(num)
            out[index] = value
            return out

        assert not validate.is_fractional_packing(prod, mutant(c * n + c, den), den)
        assert not validate.is_fractional_packing(prod, mutant(hub * n + hub, 1), den)
        assert not validate.is_fractional_packing(
            prod, mutant(hub * n + c, num[hub * n + c] + 1), den
        )
        assert not validate.is_fractional_packing(prod, mutant(b * n + b, -1), den)
        assert not validate.is_fractional_packing(prod, num[:-1], den)
        assert not validate.is_fractional_packing(prod, [0] * len(num), 0)

    def test_no_certificate_below_three(self):
        with pytest.raises(ValueError):
            verify.gm_square_fractional_packing(2)

    def test_invalid_certificate_raises(self, monkeypatch):
        # a certificate that does not validate is an error, not a verdict
        def broken(m):
            num, den = real(m)
            num[0] = den
            return num, den

        real = verify.gm_square_fractional_packing
        monkeypatch.setattr(verify, "gm_square_fractional_packing", broken)
        with pytest.raises(AssertionError, match="Gm:4"):
            verify.check_Gm_vizing_failure(4)


class TestC4Equality:
    def test_fig5(self):
        rec = verify.check_C4_equality(fig5_corona())
        assert rec.verdict == HOLDS
        assert rec.lhs == 6 and rec.rhs == 6
        assert rec.extras["upper_bound_n"] == 6

    def test_all_both_corona_p2(self):
        d = verify.families.build_family("corona:n=2,edges=both,leaves=both/both")
        rec = verify.check_C4_equality(d)
        assert rec.verdict == HOLDS and rec.lhs == 4

    def test_isolated_vertex_hypothesis(self):
        rec = verify.check_C4_equality(build_digraph(2, []))
        assert rec.verdict == HYPOTHESIS_NOT_MET

    def test_directed_triangle_has_no_partition(self):
        rec = verify.check_C4_equality(verify.families.build_family("cycle:3"))
        assert rec.verdict == HYPOTHESIS_NOT_MET and rec.hypotheses_met is False
        assert rec.witnesses == {}
        assert rec.extras == {"gamma_G": 2}

    def test_hypothesis_matches_subset_enumeration(self):
        # every labeled digraph on at most 4 vertices: the hypothesis holds
        # exactly when V splits into two dominating sets of gamma vertices
        # each, and the n(G) bound is checked exactly when V splits at all
        met = 0
        for n in range(1, 5):
            full = bitset.full(n)
            for d in verify.families.all_digraphs(n):
                doms = {s for s in range(1 << n) if validate.is_dominating_set(d, s)}
                gamma = min(s.bit_count() for s in doms)
                splits = [s for s in doms if full & ~s in doms]
                rec = verify.check_C4_equality(d)
                assert ("side_a" in rec.witnesses) == bool(splits)
                assert rec.hypotheses_met == any(
                    s.bit_count() == gamma == n - gamma for s in splits
                )
                met += rec.hypotheses_met
        assert met == 895

    def test_one_partition_search_and_one_gamma_solve(self, monkeypatch):
        g = fig5_corona()
        calls = Counter()

        def counted(name):
            solve = getattr(verify, name)

            def run(d, deadline=None):
                calls[name, d is g] += 1
                return solve(d, deadline=deadline)

            monkeypatch.setattr(verify, name, run)

        counted("partition_two_dominating_sets")
        counted("domination_number")
        assert verify.check_C4_equality(g).verdict == HOLDS
        assert calls == {
            ("partition_two_dominating_sets", True): 1,
            ("domination_number", True): 1,
            ("domination_number", False): 1,  # the product
        }

    def test_partition_without_minimum_still_checks_upper_bound(self):
        # bidirected 3-path: center vs leaves is a two-dominating-set
        # partition, but gamma = 1 so no minimum partition exists; the
        # n(G) upper bound from the partition is still verified
        p3 = gen_bidirected_path(3)
        rec = verify.check_C4_equality(p3)
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.extras["upper_bound_n"] == 3
        assert "side_a" in rec.witnesses


class TestStrongSupport:
    def test_k1_star_p4(self):
        rec = verify.check_strong_support_condition(gen_K1_star(), gen_bidirected_path(4))
        assert rec.verdict == HOLDS
        assert rec.hypotheses_met and rec.lhs == rec.rhs
        assert rec.extras["strong_support_with_two_nonisolated_leaves"] is None

    def test_bad_tree_forces_inequality(self):
        # strong support with two non-isolated leaves: equality must fail
        bad = build_digraph(3, [(0, 1), (0, 2)])
        rec = verify.check_strong_support_condition(bad, gen_bidirected_path(2))
        assert rec.verdict == HOLDS
        assert rec.hypotheses_met and rec.lhs != rec.rhs
        assert rec.extras["strong_support_with_two_nonisolated_leaves"] == 0

    def test_disconnected_partner_flagged(self):
        rec = verify.check_strong_support_condition(
            gen_K1_star(), build_digraph(2, [])
        )
        assert rec.verdict == HYPOTHESIS_NOT_MET


class TestIsolatedLeaf:
    def test_k1_star_extension(self):
        rec = verify.check_isolated_leaf_extension(
            gen_K1_star(), gen_bidirected_path(4), 1
        )
        assert rec.verdict == HOLDS
        assert rec.lhs == 10 and rec.rhs == 10

    def test_attachment_without_gamma_growth(self):
        # ditree l1 -> c -> l2: attaching a leaf onto l2 keeps gamma at 2
        t = build_digraph(3, [(1, 0), (0, 2)])
        rec = verify.check_isolated_leaf_extension(t, gen_bidirected_path(2), 2)
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.extras["gamma_T_extended"] == rec.extras["gamma_T"] == 2

    def test_trivial_pair(self):
        # attaching a leaf to a single vertex does NOT raise gamma (the leaf
        # alone dominates both vertices), so the growth hypothesis fails
        k1 = build_digraph(1, [])
        rec = verify.check_isolated_leaf_extension(k1, k1, 0)
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.extras["gamma_T_extended"] == 1


class TestMaxPackingDominates:
    def test_k1_star_p4(self):
        rec = verify.check_max_packing_dominates(gen_K1_star(), gen_bidirected_path(4))
        assert rec.verdict == HOLDS
        assert rec.extras["max_packings_T1"] >= 1
        assert rec.extras["all_T1_packings_contain_isolated"]

    def test_p4_pair_attains_equality(self):
        # the 4x4 bidirected grid has domination number 4 = 2 * 2
        p4 = gen_bidirected_path(4)
        rec = verify.check_max_packing_dominates(p4, p4)
        assert rec.verdict == HOLDS
        assert rec.lhs == 4

    def test_pair_without_equality(self):
        # 3x3 bidirected grid: gamma is 3, not 1 * 1, so hypotheses fail
        p3 = gen_bidirected_path(3)
        rec = verify.check_max_packing_dominates(p3, p3)
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.lhs == 3 and rec.rhs == 1

    def test_small_factor_rejected(self):
        # order at least 3 is a hypothesis of the claim, not a usage error
        rec = verify.check_max_packing_dominates(
            gen_bidirected_path(2), gen_bidirected_path(4)
        )
        assert rec.verdict == HYPOTHESIS_NOT_MET and not rec.hypotheses_met
        assert rec.extras == {"reason": "both factors must have order at least 3"}

    def test_non_ditree_factor_rejected(self):
        cycle = build_digraph(3, [(0, 1), (1, 2), (2, 0)])
        rec = verify.check_max_packing_dominates(cycle, gen_bidirected_path(4))
        assert rec.verdict == HYPOTHESIS_NOT_MET
        assert rec.extras == {"reason": "both factors must be ditrees"}


def _pair_name(g, h):
    return f"{digraph_descriptor(g)}|{digraph_descriptor(h)}"


def _product(left, right):
    return cartesian_product(build_family(left), build_family(right))[0]


def _checker_cases():
    """(checker, args, default instance name) for every public checker;
    each instance needs a search node, so a zero deadline stops it."""
    tree = underlying_graph(build_family("ditree:n=30,seed=1"))
    gm2, c3c4 = _product("Gm:2", "Gm:2"), _product("cycle:3", "cycle:4")
    pair = build_family("Tstar(path:3)"), build_family("Gm:3")
    indeg = random_digraph_min_indegree(5, 0.3, 19), random_digraph_min_indegree(5, 0.3, 1019)
    k1star, p4 = gen_K1_star(), gen_bidirected_path(4)
    fig5, ditree = fig5_corona(), random_ditree(8, 3)
    return [
        (verify.check_meir_moon, (tree,), f"tree:n=30,edges={tree.edges()}"),
        (verify.check_packing_equals_domination, (gm2,), digraph_descriptor(gm2)),
        (verify.check_open_packing_equals_total_domination, (c3c4,), digraph_descriptor(c3c4)),
        (verify.check_total_domination_direct_product, indeg, _pair_name(*indeg)),
        (verify.check_packing_lower_bound, pair, _pair_name(*pair)),
        (verify.check_vizing_inequality, pair, _pair_name(*pair)),
        (verify.check_half_vizing_bound, pair, _pair_name(*pair)),
        (verify.check_Gm_vizing_failure, (2,), "Gm:2|Gm:2"),
        (verify.check_C4_equality, (fig5,), digraph_descriptor(fig5)),
        (verify.check_strong_support_condition, pair, _pair_name(*pair)),
        (verify.check_isolated_leaf_extension, (*pair, 1), f"{_pair_name(*pair)};attach=1"),
        (verify.check_max_packing_dominates, (k1star, p4), _pair_name(k1star, p4)),
        (verify.check_closed_helly_lemma, (ditree,), digraph_descriptor(ditree)),
        (verify.check_open_helly_lemma, (ditree,), digraph_descriptor(ditree)),
    ]


class TestCheckerShape:
    """Every public checker names its record by its default name, and a
    solve past its deadline gives a ``timeout`` record under that name; the
    suite's label, given as ``instance``, names it instead."""

    @pytest.mark.parametrize(
        "checker, args, name",
        [pytest.param(*case, id=case[0].__name__) for case in _checker_cases()],
    )
    def test_names_and_deadline(self, checker, args, name):
        stopped = checker(*args, timeout_ms=0)
        assert (stopped.instance, stopped.verdict, stopped.hypotheses_met) == (name, TIMEOUT, None)
        assert (stopped.lhs, stopped.rhs, stopped.witnesses, stopped.extras) == (None, None, {}, {})

    @pytest.mark.parametrize(
        "checker, args",
        [pytest.param(checker, args, id=checker.__name__) for checker, args, _ in _checker_cases()],
    )
    def test_instance_names_the_record(self, checker, args):
        given = checker(*args, instance="given", timeout_ms=0)
        assert (given.instance, given.verdict) == ("given", TIMEOUT)

    @pytest.mark.parametrize(
        "ticks, verdict, reads", [(120, TIMEOUT, 122), (146, TIMEOUT, 148), (147, HOLDS, 148)]
    )
    def test_one_deadline_bounds_every_solve(self, monkeypatch, ticks, verdict, reads):
        # a clock that advances one tick per read, on the pure backend, which
        # reads it at every search node: the record's five solves take 0, 3,
        # 44, 0 and 100 nodes, so its one deadline, read once at the start,
        # must allow 147 ticks, and a smaller one stops the record at the
        # first node past it, whichever solve that node is in
        clock = itertools.count(0)
        monkeypatch.setattr(errors, "monotonic", lambda: next(clock))
        monkeypatch.setattr(kernels, "_compiled", None)
        rec = verify.check_isolated_leaf_extension(
            gen_K1_star(), gen_G_m(3), 1, timeout_ms=ticks * 1000
        )
        assert rec.verdict == verdict
        assert next(clock) == reads


class TestFailsBranches:
    """The theorems hold, so the `fails` branches are reached by replacing
    one helper that ``verify`` imports with a wrong one."""

    def test_helly_uncontained_clique(self, monkeypatch):
        k1star = gen_K1_star()
        everything = (1 << k1star.n) - 1
        monkeypatch.setattr(verify, "maximal_cliques", lambda aux, deadline: [0b1, everything])
        rec = verify.check_closed_helly_lemma(k1star)
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (1, 2)
        assert rec.witnesses == {"uncontained_clique": list(range(k1star.n))}
        assert rec.extras == {}
        assert "extras" not in rec.to_dict()

    def test_max_packing_nondominating_and_missing_isolated(self, monkeypatch):
        # ditree 2 -> 1 <-> 0: the packing {0} misses vertex 2, the
        # isolated leaf, and does not dominate the underlying path
        t = build_digraph(3, [(0, 1), (1, 0), (2, 1)])
        monkeypatch.setattr(verify, "all_maximum_packings", lambda d, deadline=None: [0b001])
        rec = verify.check_max_packing_dominates(t, t)
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (4, 4)
        assert rec.witnesses == {
            "factor1_nondominating_packing": [0],
            "factor1_packing_missing_isolated": [0],
            "factor2_packing_missing_isolated": [0],
        }
        assert rec.extras["all_T1_packings_contain_isolated"] is False
        assert rec.extras["all_T2_packings_contain_isolated"] is False

    def test_max_packing_second_factor_nondominating(self, monkeypatch):
        t1 = build_digraph(3, [(0, 1), (1, 0), (2, 1)])
        t2 = build_digraph(3, [(0, 1), (1, 0), (2, 1)])
        monkeypatch.setattr(
            verify, "all_maximum_packings",
            lambda d, deadline=None: [0b101] if d is t1 else [0b001],
        )
        rec = verify.check_max_packing_dominates(t1, t2)
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (4, 4)
        assert rec.witnesses == {"factor2_nondominating_packing": [0]}
        assert rec.extras["all_T1_packings_contain_isolated"] is True
        assert rec.extras["max_packings_T1"] == rec.extras["max_packings_T2"] == 1

    def test_strong_support_vertex(self, monkeypatch):
        monkeypatch.setattr(verify, "_strong_support_with_two_nonisolated", lambda d: 0)
        rec = verify.check_strong_support_condition(gen_K1_star(), gen_bidirected_path(4))
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (8, 8)
        assert rec.witnesses == {"strong_support_vertex": [0]}

    @pytest.mark.parametrize("first", ["cycle:3", "bidirected K3"])
    def test_direct_product_outside_sandwich(self, monkeypatch, first):
        # a product value above gamma_t(G) gamma_t(H) means a faulty solver:
        # `fails` with the product witness, also when rho_o(G) < gamma_t(G)
        # (bidirected K3: 1 < 2) leaves the hypothesis unmet
        k3 = build_digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        g = gen_oriented_cycle(3) if first == "cycle:3" else k3
        c3 = gen_oriented_cycle(3)
        solve = verify.total_domination_number

        def too_large(d, deadline=None):
            value, dom = solve(d, deadline=deadline)
            return (value + 1, dom) if d.n == 9 else (value, dom)

        monkeypatch.setattr(verify, "total_domination_number", too_large)
        rec = verify.check_total_domination_direct_product(g, c3)
        assert rec.verdict == FAILS
        assert rec.hypotheses_met is (first == "cycle:3")
        assert rec.lhs == rec.rhs + 1
        prod, _ = verify.direct_product(g, c3)
        witness = bitset.from_iter(rec.witnesses["product_total_dominating_set"])
        assert set(rec.witnesses) == {"product_total_dominating_set"}
        assert validate.is_total_dominating_set(prod, witness)

    def test_packing_checkers_call_solvers_by_name(self, monkeypatch):
        # each checker looks its domination solver and ``packing_against``
        # up in ``verify`` when they run
        fakes = {(verify, "domination_number"): 8, (verify, "total_domination_number"): 10}
        for (module, name), value in fakes.items():
            monkeypatch.setattr(module, name, lambda d, deadline=None, v=value: (v, 0))
        monkeypatch.setattr(
            verify, "packing_against",
            lambda d, gamma, closed=True, deadline=None: (7 if closed else 9, 0),
        )
        p3 = gen_bidirected_path(3)
        records = [
            verify.check_meir_moon(build_undirected(3, [(0, 1), (1, 2)])),
            verify.check_packing_equals_domination(p3),
            verify.check_open_packing_equals_total_domination(p3),
            next(verify.search_acyclic_problem(max_n=1, budget=0)),
        ]
        assert [(r.verdict, r.lhs, r.rhs) for r in records] == [
            (FAILS, 7, 8), (FAILS, 7, 8), (FAILS, 9, 10), (FAILS, 7, 8),
        ]

    def test_c4_product_below_twice_gamma(self, monkeypatch):
        # vertex 3 dominates this 6-vertex digraph, which splits into two
        # dominating sets and has gamma(G [] C4) = 4; passing gamma(G) off
        # as 3 makes n = 2 gamma, so the split reads as two minimum sets
        g = build_digraph(6, [
            (0, 2), (1, 3), (2, 0), (2, 1), (2, 4), (2, 5),
            (3, 0), (3, 1), (3, 2), (3, 4), (3, 5),
        ])
        solve = verify.domination_number
        monkeypatch.setattr(
            verify, "domination_number",
            lambda d, deadline=None: (3, 0b111) if d is g else solve(d, deadline=deadline),
        )
        rec = verify.check_C4_equality(g)
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (4, 6)
        assert set(rec.witnesses) == {
            "side_a", "side_b", "minimum_side_a", "minimum_side_b", "product_dominating_set",
        }

    def test_c4_partition_witness_not_dominating(self, monkeypatch):
        monkeypatch.setattr(
            verify, "partition_two_dominating_sets", lambda g, deadline=None: (0, 0)
        )
        rec = verify.check_C4_equality(gen_bidirected_path(3))
        assert rec.verdict == FAILS and rec.hypotheses_met is False
        assert rec.lhs is None and rec.rhs is None
        assert rec.witnesses == {"partition_witness": []}
        assert rec.extras == {"reason": "partition witness does not dominate product"}

    @staticmethod
    def _fake_extension(monkeypatch):
        # K1 [] C3 attains gamma(K1) gamma(C3) = 2; the oriented triangle
        # passed off as K1 plus a leaf has gamma 2 but gamma(C3 [] C3) = 3
        c3 = gen_oriented_cycle(3)
        monkeypatch.setattr(verify, "attach_isolated_leaf", lambda t, attach_at: c3)
        return verify.check_isolated_leaf_extension(build_digraph(1, []), c3, 0)

    def test_isolated_leaf_product_below_bound(self, monkeypatch):
        rec = self._fake_extension(monkeypatch)
        assert rec.verdict == FAILS and rec.hypotheses_met is True
        assert (rec.lhs, rec.rhs) == (3, 4)
        assert rec.extras["base_equality"] is True
        assert rec.extras["gamma_T_extended"] == rec.extras["gamma_T"] + 1

    def test_isolated_leaf_fails_carries_product_witness(self, monkeypatch):
        rec = self._fake_extension(monkeypatch)
        c3 = gen_oriented_cycle(3)
        prod, _ = verify.cartesian_product(c3, c3)
        witness = bitset.from_iter(rec.witnesses["product_dominating_set"])
        assert set(rec.witnesses) == {"product_dominating_set"}
        assert witness.bit_count() == rec.lhs
        assert validate.is_dominating_set(prod, witness)


class TestAcyclicSearch:
    def test_exhaustive_small(self):
        records = list(
            verify.search_acyclic_problem(max_n=3, budget=0, exhaustive_n=3)
        )
        # 1 + 3 + 25 labeled DAGs on 1..3 vertices
        assert len(records) == 29
        for rec in records:
            assert rec.verdict in (HOLDS, FAILS)
            if rec.verdict == FAILS:
                assert rec.witnesses

    def test_walk_capped_by_max_n(self):
        # exhaustive_n past the limit is fine while max_n caps the walk
        walk = verify.search_acyclic_problem(max_n=3, budget=0, exhaustive_n=6)
        assert len(list(walk)) == 29

    @pytest.mark.parametrize(
        "max_n, budget, exhaustive_n",
        # over capacity, and an exhaustive walk of the 2^30 digraphs on 6
        # vertices: the first once failed after the exhaustive records, the
        # second ran on
        [(0, 2, 4), (-1, 0, 4), (5, -2, 4), (5, 2, -1), (4097, 1, 4), (6, 0, 6)],
    )
    def test_sizes_refused_before_any_record(self, max_n, budget, exhaustive_n):
        # refused at the call, not at the first next()
        with pytest.raises(ValueError, match="acyclic search wants"):
            verify.search_acyclic_problem(max_n, budget, exhaustive_n=exhaustive_n)

    def test_c4_0202_equality(self):
        from didom.families import gen_C4_orientation

        d = gen_C4_orientation((0, 2, 0, 2))
        assert brute_force_invariant(d, "rho") == brute_force_invariant(d, "gamma") == 2

    def test_transitive_tournament(self):
        t3 = build_digraph(3, [(0, 1), (0, 2), (1, 2)])
        assert brute_force_invariant(t3, "rho") == 1
        assert brute_force_invariant(t3, "gamma") == 1

    def test_random_stream_deterministic(self):
        a = [r.instance for r in verify.search_acyclic_problem(6, 20, seed=3, exhaustive_n=2)]
        b = [r.instance for r in verify.search_acyclic_problem(6, 20, seed=3, exhaustive_n=2)]
        assert a == b

    def test_acyclic_counterexample_regression(self):
        # Found by the random search and confirmed by the subset-enumeration
        # oracle: a 5-vertex DAG with packing number 2 but domination number
        # 3, so the two invariants can differ on acyclic digraphs.  Order 5
        # is minimal: the exhaustive n <= 4 sweep shows equality throughout.
        from didom.core import is_acyclic_digraph

        d = build_digraph(5, [(0, 1), (2, 0), (2, 3), (3, 1), (4, 2)])
        assert is_acyclic_digraph(d)
        assert brute_force_invariant(d, "rho") == 2
        assert brute_force_invariant(d, "gamma") == 3


class TestPairCertificate:
    """The pair checkers take rho = gamma (rho_o = gamma_t) from a greedy
    packing that validates and is as large as the solved domination value,
    the sorted-size bound or the in-neighbourhood clique cover, and
    otherwise fall back to the kernel."""

    def test_ditrees_match_oracle(self, exact_packing_solves):
        # every labelled ditree on n <= 5 vertices and every 64th one on 6
        # (all 325,516 on n <= 6 take about 100 s)
        calls = exact_packing_solves
        checked = with_gamma_t = 0
        for n in range(1, 7):
            for i, d in enumerate(enumerate_ditrees(n)):
                if n == 6 and i % 64:
                    continue
                rec = verify.check_packing_equals_domination(d)
                assert rec.verdict == HOLDS
                assert rec.lhs == brute_force_invariant(d, "rho")
                pack = bitset.from_iter(rec.witnesses["packing"])
                assert validate.is_packing(d, pack) and pack.bit_count() == rec.lhs
                rec = verify.check_open_packing_equals_total_domination(d)
                assert rec.lhs == brute_force_invariant(d, "rho_open")
                pack = bitset.from_iter(rec.witnesses["open_packing"])
                assert validate.is_open_packing(d, pack) and pack.bit_count() == rec.lhs
                checked += 1
                with_gamma_t += rec.rhs is not None
        # the greedy packing certifies 14,808 of the 15,509 closed pairs;
        # every open pair with a total dominating set is certified by
        # gamma_t, and the 11,994 ditrees without one by the sorted-size
        # bound or the clique cover
        assert (checked, with_gamma_t) == (15509, 3515)
        assert calls == {"closed": 701}

    @pytest.mark.parametrize("mutant", ["non-packing", "too-small"])
    @pytest.mark.parametrize("kind", ["closed", "open"])
    @pytest.mark.parametrize("family", ["path:4", "path:7"])
    def test_rejected_certificate_falls_back(self, monkeypatch, mutant, kind, family):
        # a helper answer that is no packing, or one vertex short of gamma,
        # must give the record of the exact packing solver
        d = verify.families.build_family(family)
        if kind == "closed":
            check, key = verify.check_packing_equals_domination, "packing"
            solve, valid = solvers.packing_number, validate.is_packing
            gamma = verify.domination_number(d)[0]
        else:
            check, key = verify.check_open_packing_equals_total_domination, "open_packing"
            solve, valid = solvers.open_packing_number, validate.is_open_packing
            gamma = verify.total_domination_number(d)[0]
        certified = check(d)
        hoods = [d.in_closed(v) if kind == "closed" else d.in_adj[v] for v in range(d.n)]
        greedy = solvers._ordered_packing(hoods, [m.bit_count() for m in hoods], d.n)
        assert greedy.bit_count() == gamma >= 2  # both mutants exist
        if mutant == "non-packing":
            bad = next(
                m for m in map(bitset.from_iter, itertools.combinations(range(d.n), gamma))
                if not valid(d, m)
            )
        else:
            bad = greedy & (greedy - 1)  # drop the lowest vertex
        monkeypatch.setattr(solvers, "_ordered_packing", lambda covers, cnt, left: bad)
        rec = check(d)
        rho, pack = solve(d)
        assert (rec.lhs, rec.rhs, rec.verdict) == (rho, gamma, certified.verdict)
        assert rec.witnesses[key] == bitset.to_list(pack)

    def test_default_suite_exact_solves_per_claim(self, exact_packing_solves):
        # every check that solves gamma (gamma_t) takes its packings through
        # solvers.packing_against; at seed 42 its root certifies every one
        # (the two factor checkers made 22 and 14 exact solves when they did
        # not use it, and 2 and 1 when gamma was its only bound)
        calls = exact_packing_solves
        per_claim = Counter()
        for task in verify.build_tasks(verify.default_suite_config()):
            before = sum(calls.values())
            task.run()
            per_claim[task.claim] += sum(calls.values()) - before
        assert +per_claim == {}

    def test_acyclic_counterexample_classes(self, monkeypatch):
        # README's two isomorphism classes of 5-vertex DAGs with rho = 2 <
        # gamma = 3, fed to the acyclic search as its random DAGs: no
        # packing meets gamma, so both records come from the exact solver
        classes = [
            build_digraph(5, [(0, 1), (0, 2), (1, 3), (3, 2), (4, 0)]),
            build_digraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 0)]),
        ]
        dags = iter(classes)
        monkeypatch.setattr(verify.families, "random_dag", lambda n, p, seed: next(dags))
        records = list(verify.search_acyclic_problem(max_n=5, budget=2, exhaustive_n=0))
        for d, rec in zip(classes, records, strict=True):
            assert (rec.verdict, rec.lhs, rec.rhs) == (FAILS, 2, 3)
            assert rec.instance == digraph_descriptor(d)
            assert rec.witnesses["arcs"] == [list(a) for a in d.arcs()]
            pack = bitset.from_iter(rec.witnesses["packing"])
            assert validate.is_packing(d, pack) and pack.bit_count() == 2


class TestSuite:
    def test_config_parsing(self):
        cfg = verify.parse_suite_config(
            "# comment\nseed 7\ntimeout_ms 1000\n"
            "check thm:meir-moon random-ditrees:count=2,n=5\n"
            "check\tthm:meir-moon\trandom-ditrees:count=2,n=4\n"
        )
        assert cfg.seed == 7 and cfg.timeout_ms == 1000
        assert cfg.checks == [
            ("thm:meir-moon", "random-ditrees:count=2,n=5", 4),
            ("thm:meir-moon", "random-ditrees:count=2,n=4", 5),
        ]

    @pytest.mark.parametrize(
        "line, key",
        [
            ("check prop:packing-lower-bound pair:cycle:3|cycle:3;attach=7", "attach"),
            ("check thm:meir-moon random-ditrees:count=2,n=4,bogus=1", "bogus"),
            ("check problem:acyclic-packing-domination dags:exhuastive=2,random=3,n=5", "exhuastive"),
            ("check thm:ditree-packing-domination family:ditree:n=6,sed=5", "sed"),
            ("check prop:C4-equality family:corona:n=2,edge=fwd", "edge"),
            # an empty body has no pairs, so it lacks the required count
            ("check thm:meir-moon random-ditrees:", "missing key 'count'"),
            # a repeated key once kept its last value
            ("check problem:acyclic-packing-domination dags:n=3,n=9", "repeated key 'n'"),
            ("check thm:ditree-packing-domination family:ditree:n=6,seed=1,seed=2", "repeated key 'seed'"),
        ],
    )
    def test_source_rejects_unknown_key(self, line, key):
        # the first five once ran, with the key or option silently ignored
        with pytest.raises(ValueError, match=key):
            verify.build_tasks(verify.parse_suite_config(line))

    def test_empty_source_body_takes_the_defaults(self):
        # an empty body has no pairs, so every key takes its default
        records = [
            verify.run_suite(verify.build_tasks(verify.parse_suite_config(
                f"check problem:acyclic-packing-domination {source}\n"
            ))).records[0].to_json(False)
            for source in ("dags:", "dags:exhaustive=4,random=0,n=9")
        ]
        assert records[0] == records[1]

    def test_config_rejects_unknown_claim(self):
        with pytest.raises(verify.SuiteConfigError):
            verify.parse_suite_config("check thm:nonexistent family:K1star\n")

    @pytest.mark.parametrize("value, parsed", [("0", 0.0), ("inf", float("inf")), ("2.5", 2.5)])
    def test_config_timeout_values(self, value, parsed):
        assert verify.parse_suite_config(f"timeout_ms {value}\n").timeout_ms == parsed

    @pytest.mark.parametrize("value", ["nan", "-1", "-inf", "soon"])
    def test_config_rejects_bad_timeout(self, value):
        # a nan deadline never passes and a negative one has always passed
        with pytest.raises(verify.SuiteConfigError, match="^line 2: "):
            verify.parse_suite_config(f"seed 3\ntimeout_ms {value}\n")

    def test_config_rejects_bad_line(self):
        with pytest.raises(verify.SuiteConfigError):
            verify.parse_suite_config("seed\n")

    def test_default_suite_covers_every_claim(self):
        cfg = verify.default_suite_config()
        claimed = {claim for claim, _, _ in cfg.checks}
        assert claimed == set(verify.ALL_CLAIMS)

    def test_default_suite_runs_clean(self, tmp_path):
        cfg = verify.default_suite_config()
        out = tmp_path / "records.jsonl"
        tasks = verify.build_tasks(cfg)
        result = verify.run_suite(tasks, out_path=str(out))
        assert result.ok
        lines = out.read_text().splitlines()
        assert len(lines) == len(result.records)
        for line in lines:
            VerificationRecord.from_json(line)

    def test_suite_looks_up_every_checker_when_it_runs(self, monkeypatch):
        # each checker is swapped after the tasks are built, as a tracer swaps
        # module attributes: a task must look its checker up when it runs
        tasks = verify.build_tasks(verify.default_suite_config())
        names = [name for name in vars(verify) if name.startswith("check_")]
        entered = Counter()

        def counting(name, checker):
            def count(*args, **kwargs):
                entered[name] += 1
                return checker(*args, **kwargs)

            return count

        for name in names:
            monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
        verify.run_suite(tasks)
        assert len(names) == 14 and set(entered) == set(names)

    def test_suite_deterministic_given_seed(self):
        cfg = verify.parse_suite_config(
            "seed 11\ncheck thm:ditree-packing-domination random-ditrees:count=4,n=6\n"
        )
        run1 = [r.instance for r in verify.run_suite(verify.build_tasks(cfg)).records]
        run2 = [r.instance for r in verify.run_suite(verify.build_tasks(cfg)).records]
        assert run1 == run2

    # Ids name the backend and seed, not the digest, so a re-pin keeps
    # them.  Both backends must give the same bytes.
    @pytest.mark.parametrize(
        "backend, seed, digest",
        [
            pytest.param(backend, seed, digest, id=f"{backend}-{seed}")
            for seed, digest in (
                (42, "305e8adc1a695b749f44793fc16890db43c2126f7c8f81ed5b674874c18e9a22"),
                (7, "75f25c583ab86f8fc62c9bae6aef2cd59d5142ffba01976d96e1793d199d8ba5"),
            )
            for backend in ("pure", "compiled")
        ],
        indirect=["backend"],
    )
    def test_default_suite_byte_stable(self, backend, seed, digest):
        cfg = verify.default_suite_config()
        cfg.seed = seed
        records = verify.run_suite(verify.build_tasks(cfg)).records
        text = "".join(r.to_json(False) + "\n" for r in records)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_c4_random_digraphs_byte_stable(self, backend):
        # 138 of these digraphs split into two dominating sets, 14 of them
        # into two minimum ones; the default suite checks two C4 instances
        cfg = verify.parse_suite_config(
            "seed 42\ncheck prop:C4-equality random-digraphs:count=300,n=8\n"
        )
        records = verify.run_suite(verify.build_tasks(cfg)).records
        assert Counter(r.verdict for r in records) == {HOLDS: 14, HYPOTHESIS_NOT_MET: 286}
        text = "".join(r.to_json(False) + "\n" for r in records)
        assert (
            hashlib.sha256(text.encode("ascii")).hexdigest()
            == "9a30c6fb14d53e0e0d6016a66283b53578499b44aa9ca6e54fd791dac4fd5f09"
        )

    # Every claim on random sources, with the pairs that reach the branches
    # random digraphs miss: a Vizing failure and both max-packing outcomes.
    EVERY_CLAIM_SUITE = """\
seed 1
check thm:meir-moon random-ditrees:count=6,n=8
check thm:meir-moon random-digraphs:count=6,n=5
check thm:ditree-packing-domination random-ditrees:count=6,n=8
check thm:ditree-packing-domination random-digraphs:count=6,n=5
check thm:ditree-open-packing-total-domination random-ditrees:count=8,n=8
check thm:ditree-open-packing-total-domination random-digraphs:count=6,n=5
check thm:ditree-open-packing-total-domination enum-ditrees-min-indeg:3
check thm:direct-product-total-domination random-min-indeg-pairs:count=5,n=4
check thm:direct-product-total-domination random-pairs:count=3,n=4
check prop:packing-lower-bound random-pairs:count=6,n=4
check conj:vizing-inequality random-pairs:count=12,n=4
check conj:vizing-inequality pair:Gm:1|chord5
check thm:half-vizing-bound random-pairs:count=6,n=4
check family:Gm-vizing-failure m:1,2
check prop:C4-equality random-ditrees:count=6,n=6
check prop:C4-equality random-digraphs:count=6,n=5
check thm:strong-support-necessary random-pairs:count=6,n=4
check cor:isolated-leaf-extension random-pairs:count=6,n=4
check thm:max-packing-dominates random-pairs:count=6,n=4
check thm:max-packing-dominates pair:K1star|path:4
check thm:max-packing-dominates pair:path:3|path:3
check lemma:closed-helly random-ditrees:count=4,n=8
check lemma:closed-helly random-digraphs:count=12,n=6
check lemma:open-helly random-ditrees:count=4,n=8
check lemma:open-helly random-digraphs:count=12,n=6
check problem:acyclic-packing-domination dags:exhaustive=3,random=400,n=5
"""

    def test_every_claim_suite_byte_stable(self):
        cfg = verify.parse_suite_config(self.EVERY_CLAIM_SUITE)
        records = verify.run_suite(verify.build_tasks(cfg)).records
        assert {r.claim for r in records} == set(verify.ALL_CLAIMS)
        # the hypothesis_not_met branches the default suite never reaches
        unmet = {r.claim for r in records if r.verdict == HYPOTHESIS_NOT_MET}
        assert {"prop:C4-equality", "lemma:closed-helly", "thm:max-packing-dominates"} <= unmet
        text = "".join(r.to_json(False) + "\n" for r in records)
        assert (
            hashlib.sha256(text.encode("ascii")).hexdigest()
            == "45ee0e878c9d1c720088fb81a187c94c97f2e75d95e3239c0bf5712d0e21cdd8"
        )

    def test_config_rejects_removed_jobs_key(self):
        with pytest.raises(verify.SuiteConfigError, match="unknown key"):
            verify.parse_suite_config("jobs 2\n")

    def test_config_rejects_removed_product_threshold_key(self):
        with pytest.raises(verify.SuiteConfigError, match="unknown key"):
            verify.parse_suite_config("product_threshold 64\n")

    def test_product_timeout_is_record_and_run_continues(self):
        # the factors solve at once, but the 147-vertex product takes far
        # longer than the 100 ms deadline: each product check must end in a
        # timeout record, and the run must go on to the last task
        pair = "pair:Tstar(path:3)|Gm:3"
        claims = [
            "prop:packing-lower-bound",
            "conj:vizing-inequality",
            "thm:half-vizing-bound",
            "thm:strong-support-necessary",
            "cor:isolated-leaf-extension",
        ]
        cfg = verify.parse_suite_config(
            "timeout_ms 100\n"
            + "".join(f"check {claim} {pair}\n" for claim in claims)
            + "check thm:half-vizing-bound pair:cycle:3|cycle:3\n"
        )
        result = verify.run_suite(verify.build_tasks(cfg))
        *timed_out, last = result.records
        assert [r.claim for r in timed_out] == claims
        for rec in timed_out:
            assert rec.verdict == TIMEOUT
            assert rec.lhs is None and not rec.witnesses
            assert rec.hypotheses_met is None
            assert rec.elapsed_ms >= 100
        assert last.verdict == HOLDS
        assert result.ok
        assert "timeout=5" in result.summary()

    def test_acyclic_timeouts_fold_into_timeout_record(self):
        # 19 of the 329 DAGs need a search, which a zero deadline stops: the
        # equality is not checked there, so the folded record is no `holds`
        cfg = verify.parse_suite_config(
            "seed 3\ntimeout_ms 0\n"
            "check problem:acyclic-packing-domination dags:exhaustive=3,random=300,n=9\n"
        )
        (rec,) = verify.run_suite(verify.build_tasks(cfg)).records
        assert (rec.verdict, rec.hypotheses_met, rec.lhs, rec.rhs) == (TIMEOUT, None, 310, 329)
        assert rec.seed == 3 and not rec.witnesses

    def test_acyclic_fold_is_timed(self, tmp_path):
        cfg = verify.parse_suite_config(
            "check problem:acyclic-packing-domination dags:exhaustive=3,random=20,n=6\n"
        )
        for timings in (True, False):
            out = tmp_path / f"timings-{timings}.jsonl"
            verify.run_suite(verify.build_tasks(cfg), out_path=str(out), include_timings=timings)
            elapsed = json.loads(out.read_text())["elapsed_ms"]
            assert elapsed > 0 if timings else elapsed is None

    def test_acyclic_failure_outranks_timeout(self, monkeypatch):
        # a `fails` record carries a real counterexample, so it wins over an
        # earlier DAG past its deadline: the walk's one exhaustive DAG holds,
        # its first random DAG's gamma solve times out, and its second is
        # README's counterexample, rho = 2 < gamma = 3
        stuck = build_digraph(3, [(0, 1)])
        counterexample = build_digraph(5, [(0, 1), (0, 2), (1, 3), (3, 2), (4, 0)])
        dags = iter([stuck, counterexample])
        monkeypatch.setattr(verify.families, "random_dag", lambda n, p, seed: next(dags))
        solve = verify.domination_number

        def domination_number(d, deadline=None):
            if d is stuck:
                raise SolveTimeout("search exceeded its deadline")
            return solve(d, deadline=deadline)

        monkeypatch.setattr(verify, "domination_number", domination_number)
        cfg = verify.parse_suite_config(
            "check problem:acyclic-packing-domination dags:exhaustive=1,random=2,n=3\n"
        )
        (rec,) = verify.run_suite(verify.build_tasks(cfg)).records
        assert (rec.verdict, rec.hypotheses_met, rec.lhs, rec.rhs) == (FAILS, True, 1, 3)
        expected = verify._check_dag(counterexample, counterexample.arcs(), None)
        assert rec.witnesses == expected.witnesses

    @pytest.mark.parametrize(
        "exhaustive, budget, max_n, seed, timeout_ms, verdict",
        [(4, 2000, 8, seed, None, FAILS) for seed in range(5)]
        + [
            (3, 50, 7, 42, None, HOLDS),
            (3, 50, 7, 7, None, HOLDS),
            (3, 300, 9, 3, 0, TIMEOUT),
            (0, 0, 1, 0, None, HYPOTHESIS_NOT_MET),
        ],
    )
    def test_acyclic_fold_matches_search_records(
        self, exhaustive, budget, max_n, seed, timeout_ms, verdict
    ):
        # the fold only solves each DAG; README's rule applied to the search's
        # own records must give the same record, byte for byte
        records = list(
            verify.search_acyclic_problem(
                max_n, budget, seed, exhaustive_n=exhaustive, timeout_ms=timeout_ms
            )
        )
        holds = sum(r.verdict == HOLDS for r in records)
        bad = next((r for r in records if r.verdict == FAILS), None)
        if bad is not None:
            hyp, expected = True, FAILS
        elif holds < len(records):
            hyp, expected = None, TIMEOUT
        else:
            hyp = bool(records)
            expected = HOLDS if hyp else HYPOTHESIS_NOT_MET
        reference = VerificationRecord(
            verify.CLAIM_ACYCLIC, "dags", hyp, holds, len(records), expected,
            bad.witnesses if bad else {}, seed=seed,
        )
        fold = verify._fold_acyclic(
            exhaustive, budget, max_n, seed, instance="dags", timeout_ms=timeout_ms
        )
        assert expected == verdict
        assert fold.to_json(False) == reference.to_json(False)

    def test_readme_config_and_claims_match(self):
        # README's suite-config example must parse, and its claim list must
        # name exactly the claims the suite knows
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Suite config format", 1)[1]
        block = section.split("```", 2)[1]
        cfg = verify.parse_suite_config(block)
        assert cfg.checks
        claims_text = section.split("Claims:", 1)[1].split("\n\n", 1)[0]
        assert sorted(re.findall(r"`([^`]+)`", claims_text)) == sorted(verify.ALL_CLAIMS)

    def test_checker_exception_becomes_error_record(self):
        def boom():
            raise ValueError("bad instance")

        edge = build_undirected(2, [(0, 1)])
        tasks = [
            verify.SuiteTask("thm:meir-moon", boom, "family:x"),
            verify.SuiteTask("thm:meir-moon", lambda: verify.check_meir_moon(edge)),
        ]
        result = verify.run_suite(tasks)
        first, second = result.records
        assert first.verdict == ERROR and first.instance == "family:x"
        assert first.extras == {"error": "ValueError: bad instance"}
        assert first.hypotheses_met is None
        assert second.verdict == HOLDS
        assert not result.ok
        assert "error=1" in result.summary()

    def test_revalidation_failure_recorded_then_raised(self, tmp_path):
        def broken():
            raise AssertionError("witness failed re-validation")

        out = tmp_path / "records.jsonl"
        tasks = [verify.SuiteTask("thm:meir-moon", broken, "family:x")]
        with pytest.raises(AssertionError):
            verify.run_suite(tasks, out_path=str(out))
        (line,) = out.read_text().splitlines()
        assert VerificationRecord.from_json(line).verdict == ERROR

    def test_expected_failures_whitelisted(self):
        cfg = verify.parse_suite_config(
            "check conj:vizing-inequality pair:Gm:1|chord5\n"
        )
        result = verify.run_suite(verify.build_tasks(cfg))
        assert result.counts()[FAILS] == 1
        assert result.ok  # whitelisted claim

    def test_unexpected_failure_not_ok(self):
        bad = VerificationRecord("thm:meir-moon", "x", True, 1, 2, FAILS)
        result = verify.SuiteResult(records=[bad])
        assert not result.ok
        assert "UNEXPECTED" in result.summary()
