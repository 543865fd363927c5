"""Acceptance gate: every criterion at its stated tolerance (all integral).

Each test prints one `ACCEPTANCE <id> PASS|FAIL` line (visible under
``pytest -s``); stated runtime ceilings are asserted on wall-clock time.
Run the whole gate with:  pytest tests/test_acceptance.py -v -s
"""

import random
from time import perf_counter

import didom.verify as verify
from didom import bitset, validate
from didom.auxgraph import (
    closed_in_neighborhood_graph,
    is_chordal,
    open_in_neighborhood_graph,
)
from didom.core import build_digraph, underlying_graph
from didom.errors import Deadline
from didom.families import (
    all_digraphs,
    enumerate_ditrees,
    fig5_corona,
    gen_bidirected_path,
    gen_C4_orientation,
    gen_G_m,
    gen_H_m,
    gen_K1_star,
    gen_oriented_cycle,
    random_digraph,
    random_digraph_min_indegree,
    random_ditree,
)
from didom.products import cartesian_product, direct_product
from didom.records import FAILS, HOLDS, VerificationRecord
from didom.solvers import (
    brute_force_invariant,
    domination_number,
    open_packing_number,
    packing_number,
    total_domination_number,
    two_packing_number,
    undirected_domination_number,
    undirected_open_packing_number,
)
from didom.verify import check_closed_helly_lemma, check_open_helly_lemma


class Criterion:
    """Context manager asserting a runtime ceiling and printing the verdict."""

    def __init__(self, ident: str, description: str, limit_s: float):
        self.ident = ident
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed <= self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.ident} {status}: {self.description} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed <= self.limit_s, (
                f"criterion {self.ident} exceeded {self.limit_s}s ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_fig1_counterexample(directed_triangle, chorded_5cycle):
    with Criterion("1", "published 2x3 product counterexample", 1.0):
        assert domination_number(directed_triangle)[0] == 2
        assert domination_number(chorded_5cycle)[0] == 3
        prod, _ = cartesian_product(directed_triangle, chorded_5cycle)
        assert domination_number(prod)[0] == 5


def test_criterion_02_gm_family():
    for m in (1, 2, 3, 4):
        with Criterion(f"2(m={m})", "triangle-fan packing/domination values", 1.0):
            gm = gen_G_m(m)
            assert packing_number(gm)[0] == m
            assert domination_number(gm)[0] == m + 1


def test_criterion_03_gm_square():
    with Criterion("3a", "published set dominates G_m[]G_m, m=1..6", 60.0):
        for m in range(1, 7):
            prod, witness = verify.gm_square_dominating_set(m)
            assert validate.is_dominating_set(prod, witness)
            assert witness.bit_count() == m * m + 2 * m < (m + 1) ** 2
    for m in (1, 2, 3, 4, 5):
        with Criterion(f"3b(m={m})", "exact product value below gamma^2", 60.0):
            prod, _ = verify.gm_square_dominating_set(m)
            exact = domination_number(prod, deadline=Deadline(60_000))[0]
            assert exact < (m + 1) ** 2
            # the suite certifies m >= 3 without a solve: the two must agree
            assert verify.check_Gm_vizing_failure(m).extras["gamma_product"] == exact


def test_criterion_04_packing_equals_domination_exhaustive():
    with Criterion("4", "packing = domination on all ditrees up to order 5", 120.0):
        counts = {}
        for n in (2, 3, 4, 5):
            counts[n] = 0
            for d in enumerate_ditrees(n):
                assert packing_number(d)[0] == domination_number(d)[0]
                counts[n] += 1
        assert counts == {2: 3, 3: 27, 4: 432, 5: 10125}


def test_criterion_05_open_packing_equals_total_domination_exhaustive():
    with Criterion("5", "open packing = total domination, min in-degree >= 1", 120.0):
        checked = 0
        for n in (2, 3, 4, 5):
            for d in enumerate_ditrees(n):
                if d.min_in_degree >= 1:
                    assert open_packing_number(d)[0] == total_domination_number(d)[0]
                    checked += 1
        assert checked > 0


def test_criterion_06_direct_product_total_domination():
    with Criterion("6a", "oriented-cycle direct products", 10.0):
        c3, c4 = gen_oriented_cycle(3), gen_oriented_cycle(4)
        p33, _ = direct_product(c3, c3)
        p34, _ = direct_product(c3, c4)
        assert total_domination_number(p33)[0] == 9
        assert total_domination_number(p34)[0] == 12
    with Criterion("6b", "ditree factor multiplies against 10 random partners", 30.0):
        p3 = gen_bidirected_path(3)
        gt_p3 = total_domination_number(p3)[0]
        rng = random.Random(606)
        for _ in range(10):
            n = rng.randint(2, 6)
            h = random_digraph_min_indegree(n, rng.uniform(0.25, 0.7), rng.getrandbits(32))
            prod, _ = direct_product(p3, h)
            assert (
                total_domination_number(prod)[0] == gt_p3 * total_domination_number(h)[0]
            )


def test_criterion_07_half_bound_sharpness(directed_triangle):
    with Criterion("7a", "triangle product meets the half bound exactly", 10.0):
        rec = verify.check_half_vizing_bound(directed_triangle, directed_triangle)
        assert rec.verdict == HOLDS and rec.lhs == 3
        assert rec.extras["slack_x2"] == 0
    with Criterion("7b", "strongly connected family pins slack zero at 27", 180.0):
        h9 = gen_H_m(3)
        gamma_h9, dom = domination_number(h9, deadline=Deadline(120_000))
        assert gamma_h9 == 18
        assert validate.is_dominating_set(h9, dom) and dom.bit_count() == 18
        g1 = gen_G_m(1)
        prod, pmap = cartesian_product(h9, g1)
        # the published dominating set: triangle role i pairs with column i
        witness = 0
        for i in range(9):
            for role in range(3):
                witness |= 1 << pmap.encode(3 * i + role, role)
        assert witness.bit_count() == 27
        assert validate.is_dominating_set(prod, witness)
        rec = verify.check_half_vizing_bound(h9, g1)
        assert rec.verdict == HOLDS and rec.lhs == 27
        assert rec.extras["slack_x2"] == 0  # zero slack at the bound


def test_criterion_08_equality_family():
    with Criterion("8", "gadget-times-path and corona-times-C4 equalities", 30.0):
        k1s = gen_K1_star()
        p4 = gen_bidirected_path(4)
        assert domination_number(k1s)[0] == 4
        assert domination_number(p4)[0] == 2
        prod, _ = cartesian_product(k1s, p4)
        assert domination_number(prod)[0] == 8
        c4 = gen_C4_orientation((0, 2, 0, 2))
        prod2, _ = cartesian_product(c4, fig5_corona())
        assert domination_number(prod2)[0] == 6


def test_criterion_09_oracle_equivalence_exhaustive():
    with Criterion("9", "solver matches brute force on all 4096 digraphs, n=4", 120.0):
        mismatches = 0
        for d in all_digraphs(4):
            if domination_number(d)[0] != brute_force_invariant(d, "gamma"):
                mismatches += 1
            if packing_number(d)[0] != brute_force_invariant(d, "rho"):
                mismatches += 1
            if open_packing_number(d)[0] != brute_force_invariant(d, "rho_open"):
                mismatches += 1
            solved = total_domination_number(d)
            if (solved[0] if solved else None) != brute_force_invariant(d, "gamma_t"):
                mismatches += 1
        assert mismatches == 0


def test_criterion_10_observation_suite():
    with Criterion("10", "definitional inequalities over 10^4 random digraphs", 300.0):
        rng = random.Random(1010)
        violations = 0
        for _ in range(10_000):
            n = rng.randint(1, 10)
            p = rng.choice((0.1, 0.2, 0.35, 0.5, 0.7, 0.9))
            d = random_digraph(n, p, rng.getrandbits(32))
            un = underlying_graph(d)
            rho = packing_number(d)[0]
            gamma = domination_number(d)[0]
            rho_open = open_packing_number(d)[0]
            if two_packing_number(un)[0] > rho:
                violations += 1
            if undirected_open_packing_number(un)[0] > rho_open:
                violations += 1
            if rho > gamma:
                violations += 1
            solved = total_domination_number(d)
            if solved is not None and rho_open > solved[0]:
                violations += 1
            if gamma < undirected_domination_number(un)[0]:
                violations += 1
            if gamma < -(-d.n // (d.max_out_degree + 1)):
                violations += 1
        assert violations == 0


def test_criterion_11_chordality_and_helly():
    with Criterion("11", "aux graphs of 10^3 random ditrees are chordal (certified)", 300.0):
        rng = random.Random(1111)
        open_checked = 0
        for _ in range(1000):
            n = rng.randint(2, 20)
            t = random_ditree(n, rng.getrandbits(32))
            closed_aux = closed_in_neighborhood_graph(t)
            res = is_chordal(closed_aux)
            assert res.chordal
            assert validate.is_perfect_elimination_order(closed_aux, res.elimination_order)
            rec = check_closed_helly_lemma(t)
            assert rec.hypotheses_met and rec.verdict == HOLDS
            if t.min_in_degree >= 1:
                open_aux = open_in_neighborhood_graph(t)
                res_o = is_chordal(open_aux)
                assert res_o.chordal
                assert validate.is_perfect_elimination_order(
                    open_aux, res_o.elimination_order
                )
                rec_o = check_open_helly_lemma(t)
                assert rec_o.hypotheses_met and rec_o.verdict == HOLDS
                open_checked += 1
        assert open_checked > 0


def test_criterion_12_acyclic_problem_run(tmp_path):
    with Criterion("12", "open-problem record stream persists and validates", 300.0):
        out = tmp_path / "acyclic.jsonl"
        count = 0
        with open(out, "w", encoding="ascii") as sink:
            for rec in verify.search_acyclic_problem(
                max_n=9, budget=10_000, seed=12, exhaustive_n=4
            ):
                sink.write(rec.to_json() + "\n")
                count += 1
        lines = out.read_text().splitlines()
        assert len(lines) == count
        assert count == (1 + 3 + 25 + 543) + 10_000
        strict = 0
        for line in lines:
            rec = VerificationRecord.from_json(line)
            assert rec.verdict in (HOLDS, FAILS)
            arcs = [tuple(a) for a in rec.witnesses["arcs"]]
            n = int(rec.instance.split("n=")[1].split(",")[0])
            d = build_digraph(n, arcs)
            packing = bitset.from_iter(rec.witnesses["packing"])
            dominating = bitset.from_iter(rec.witnesses["dominating_set"])
            assert validate.is_packing(d, packing)
            assert validate.is_dominating_set(d, dominating)
            assert rec.lhs == packing.bit_count()
            assert rec.rhs == dominating.bit_count()
            if rec.verdict == FAILS:
                strict += 1
                assert rec.lhs < rec.rhs
        # exploratory: no assertion on strict counts, only report
        print(f"acyclic search: {strict} strict inequalities among {count} records")
