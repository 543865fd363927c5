"""Theorem-level checkers and the verification suite.

Every claim becomes an executable predicate over instances, producing
VerificationRecords.  Checkers never report ``fails`` without an attached,
independently re-validated counterwitness, and hypothesis violations stay
distinguishable from conclusion failures.  Every product checker solves
the product exactly, so no verdict rests on a bound that contains the
claim's own inequality; a solve past its deadline gives a ``timeout``
record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Iterator, Optional

from didom import bitset, families, validate
from didom.auxgraph import (
    CLAIM_CLOSED_HELLY,
    CLAIM_OPEN_HELLY,
    check_closed_helly_lemma,
    check_open_helly_lemma,
)
from didom.core import (
    Digraph,
    ISOLATED_LEAF,
    NON_ISOLATED_LEAF,
    SUPPORT,
    UndirectedGraph,
    build_digraph,
    classify_leaves,
    is_acyclic_digraph,
    is_ditree,
    is_tree,
    underlying_connected,
    underlying_graph,
)
from didom.errors import SolveTimeout
from didom.products import cartesian_product, direct_product
from didom.records import (
    ERROR,
    FAILS,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    TIMEOUT,
    VERDICTS,
    VerificationRecord,
    digraph_descriptor,
)
from didom.solvers import (
    DEFAULT_TIMEOUT_MS,
    all_maximum_packings,
    domination_number,
    open_packing_number,
    packing_number,
    partition_two_dominating_sets,
    total_domination_number,
)

CLAIM_MEIR_MOON = "thm:meir-moon"
CLAIM_DITREE_PACKING = "thm:ditree-packing-domination"
CLAIM_DITREE_OPEN_PACKING = "thm:ditree-open-packing-total-domination"
CLAIM_DIRECT_TOTAL = "thm:direct-product-total-domination"
CLAIM_PACKING_LOWER = "prop:packing-lower-bound"
CLAIM_VIZING = "conj:vizing-inequality"
CLAIM_HALF_VIZING = "thm:half-vizing-bound"
CLAIM_GM_FAILURE = "family:Gm-vizing-failure"
CLAIM_C4_EQUALITY = "prop:C4-equality"
CLAIM_STRONG_SUPPORT = "thm:strong-support-necessary"
CLAIM_ISOLATED_LEAF = "cor:isolated-leaf-extension"
CLAIM_MAX_PACKING = "thm:max-packing-dominates"
CLAIM_ACYCLIC = "problem:acyclic-packing-domination"

# G_m [] G_m is solved exactly, to cross-check the published dominating
# set, for m up to this
GM_SOLVED_UP_TO = 3

# Claims where a `fails` verdict is a first-class finding, not a suite error:
# the product inequality is known false in general, and the acyclic question
# is open (the search records, it does not assert).
EXPECTED_FAILURE_CLAIMS = frozenset({CLAIM_VIZING, CLAIM_ACYCLIC})


def _timed(claim: str, instance: str, build: Callable[[], VerificationRecord]):
    start = perf_counter()
    try:
        record = build()
    except SolveTimeout:
        record = VerificationRecord(
            claim, instance, hypotheses_met=None, lhs=None, rhs=None, verdict=TIMEOUT
        )
    record.elapsed_ms = (perf_counter() - start) * 1000.0
    return record


def _half_bound_rhs(gamma_g: int, gamma_h: int) -> int:
    # gamma of the product is an integer, so ceil the half-sum
    return -(-(gamma_g * gamma_h + max(gamma_g, gamma_h)) // 2)


def _gamma_of_cartesian(
    g: Digraph, h: Digraph, *, timeout_ms: Optional[float]
) -> tuple[int, int]:
    """(gamma, minimum dominating set) of G [] H, solved exactly."""
    prod, _ = cartesian_product(g, h)
    return domination_number(prod, timeout_ms=timeout_ms)


def _product_verdict(gamma: int, witness: int, rhs: int, witnesses: dict) -> str:
    """Verdict for gamma(G [] H) >= rhs; a ``fails`` verdict gets the
    product dominating set as its counterwitness."""
    if gamma >= rhs:
        return HOLDS
    witnesses["product_dominating_set"] = bitset.to_list(witness)
    return FAILS


def _pair_instance(spec_g, spec_h) -> str:
    return f"{families.describe_instance(spec_g)}|{families.describe_instance(spec_h)}"


# ---------------------------------------------------------------------------
# Tree / ditree equalities
# ---------------------------------------------------------------------------


def _packing_vs_domination(
    claim: str, inst: str, hyp: bool, d, timeout_ms, pack_key="packing", **record_fields
) -> VerificationRecord:
    """rho(d) against gamma(d), both witnessed; ``record_fields`` go to the
    record, and any ``witnesses`` among them join the two."""

    def build():
        rho, pack = packing_number(d, timeout_ms=timeout_ms)
        gamma, dom = domination_number(d, timeout_ms=timeout_ms)
        verdict = (HOLDS if rho == gamma else FAILS) if hyp else HYPOTHESIS_NOT_MET
        witnesses = {pack_key: bitset.to_list(pack), "dominating_set": bitset.to_list(dom)}
        witnesses.update(record_fields.pop("witnesses", {}))
        return VerificationRecord(
            claim, inst, hyp, rho, gamma, verdict, witnesses, **record_fields
        )

    return _timed(claim, inst, build)


def check_meir_moon(
    tree: UndirectedGraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """2-packing number equals domination number on trees: the ditree
    theorem on the tree's bidirected digraph."""
    inst = instance or f"tree:n={tree.n},edges={tree.edges()}"
    return _packing_vs_domination(
        CLAIM_MEIR_MOON, inst, is_tree(tree), tree, timeout_ms, pack_key="two_packing"
    )


def check_packing_equals_domination(
    d: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """Packing number equals domination number on ditrees."""
    inst = instance or digraph_descriptor(d)
    return _packing_vs_domination(CLAIM_DITREE_PACKING, inst, is_ditree(d), d, timeout_ms)


def check_open_packing_equals_total_domination(
    d: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """Open packing number equals total domination number on ditrees with
    minimum in-degree at least 1."""
    inst = instance or digraph_descriptor(d)

    def build():
        hyp = is_ditree(d) and d.n > 0 and d.min_in_degree >= 1
        rho_o, pack = open_packing_number(d, timeout_ms=timeout_ms)
        witnesses = {"open_packing": bitset.to_list(pack)}
        total = total_domination_number(d, timeout_ms=timeout_ms)
        gamma_t = None
        if total is not None:
            gamma_t, dom = total
            witnesses["total_dominating_set"] = bitset.to_list(dom)
        if not hyp:
            verdict = HYPOTHESIS_NOT_MET
        else:
            verdict = HOLDS if rho_o == gamma_t else FAILS
        return VerificationRecord(
            CLAIM_DITREE_OPEN_PACKING, inst, hyp, rho_o, gamma_t, verdict, witnesses
        )

    return _timed(CLAIM_DITREE_OPEN_PACKING, inst, build)


# ---------------------------------------------------------------------------
# Direct product: total domination multiplies
# ---------------------------------------------------------------------------


def check_total_domination_direct_product(
    g: Digraph,
    h: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """gamma_t(G x H) = gamma_t(G) gamma_t(H) when the first factor's open
    packing number equals its total domination number (both factors need
    minimum in-degree 1).  The product is solved exactly, and the
    definitional sandwich
    max(rho_o * gamma_t, ...) <= gamma_t(product) <= gamma_t * gamma_t
    is verified against the solved value."""
    inst = instance or _pair_instance(g, h)

    def build():
        deg_ok = g.n > 0 and h.n > 0 and g.min_in_degree >= 1 and h.min_in_degree >= 1
        if not deg_ok:
            return VerificationRecord(
                CLAIM_DIRECT_TOTAL,
                inst,
                False,
                None,
                None,
                HYPOTHESIS_NOT_MET,
                extras={"reason": "a factor has a source vertex"},
            )
        gt_g, _ = total_domination_number(g, timeout_ms=timeout_ms)
        gt_h, _ = total_domination_number(h, timeout_ms=timeout_ms)
        ro_g, _ = open_packing_number(g, timeout_ms=timeout_ms)
        ro_h, _ = open_packing_number(h, timeout_ms=timeout_ms)
        hyp = ro_g == gt_g
        rhs = gt_g * gt_h
        sandwich_low = max(ro_g * gt_h, ro_h * gt_g)
        prod, _ = direct_product(g, h)
        extras = {
            "gamma_t_G": gt_g,
            "gamma_t_H": gt_h,
            "rho_open_G": ro_g,
            "rho_open_H": ro_h,
            "sandwich_lower": sandwich_low,
            "sandwich_upper": rhs,
            "exact": True,
        }
        lhs, dom = total_domination_number(prod, timeout_ms=timeout_ms)
        witnesses = {"product_total_dominating_set": bitset.to_list(dom)}
        if not (sandwich_low <= lhs <= rhs):
            verdict = FAILS
        else:
            verdict = (HOLDS if lhs == rhs else FAILS) if hyp else HYPOTHESIS_NOT_MET
        return VerificationRecord(
            CLAIM_DIRECT_TOTAL, inst, hyp, lhs, rhs, verdict, witnesses, extras=extras
        )

    return _timed(CLAIM_DIRECT_TOTAL, inst, build)


# ---------------------------------------------------------------------------
# Cartesian product lower bounds
# ---------------------------------------------------------------------------


def check_packing_lower_bound(
    g: Digraph,
    h: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """gamma(G [] H) >= max(gamma(G) rho(H), gamma(H) rho(G))."""
    inst = instance or _pair_instance(g, h)

    def build():
        gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
        gamma_h, _ = domination_number(h, timeout_ms=timeout_ms)
        rho_g, _ = packing_number(g, timeout_ms=timeout_ms)
        rho_h, _ = packing_number(h, timeout_ms=timeout_ms)
        rhs = max(gamma_g * rho_h, gamma_h * rho_g)
        lhs, dom = _gamma_of_cartesian(g, h, timeout_ms=timeout_ms)
        extras = {
            "gamma_G": gamma_g,
            "gamma_H": gamma_h,
            "rho_G": rho_g,
            "rho_H": rho_h,
            "exact": True,
        }
        witnesses = {}
        verdict = _product_verdict(lhs, dom, rhs, witnesses)
        return VerificationRecord(
            CLAIM_PACKING_LOWER, inst, True, lhs, rhs, verdict, witnesses, extras=extras
        )

    return _timed(CLAIM_PACKING_LOWER, inst, build)


def check_vizing_inequality(
    g: Digraph,
    h: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """gamma(G [] H) >= gamma(G) gamma(H): true for ditree factors, false in
    general; failures are first-class findings with a small dominating set
    attached as the counterwitness."""
    inst = instance or _pair_instance(g, h)

    def build():
        gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
        gamma_h, _ = domination_number(h, timeout_ms=timeout_ms)
        rhs = gamma_g * gamma_h
        lhs, dom = _gamma_of_cartesian(g, h, timeout_ms=timeout_ms)
        extras = {"gamma_G": gamma_g, "gamma_H": gamma_h, "exact": True}
        witnesses = {}
        verdict = _product_verdict(lhs, dom, rhs, witnesses)
        return VerificationRecord(
            CLAIM_VIZING, inst, True, lhs, rhs, verdict, witnesses, extras=extras
        )

    return _timed(CLAIM_VIZING, inst, build)


def check_half_vizing_bound(
    g: Digraph,
    h: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """gamma(G [] H) >= (gamma(G) gamma(H) + max(gamma(G), gamma(H))) / 2.

    Unconditional; ``extras['slack_x2']`` records twice the slack so
    sharpness (slack zero) stays integral."""
    inst = instance or _pair_instance(g, h)

    def build():
        gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
        gamma_h, _ = domination_number(h, timeout_ms=timeout_ms)
        rhs = _half_bound_rhs(gamma_g, gamma_h)
        lhs, dom = _gamma_of_cartesian(g, h, timeout_ms=timeout_ms)
        extras = {
            "gamma_G": gamma_g,
            "gamma_H": gamma_h,
            "exact": True,
            "slack_x2": 2 * lhs - (gamma_g * gamma_h + max(gamma_g, gamma_h)),
        }
        witnesses = {}
        verdict = _product_verdict(lhs, dom, rhs, witnesses)
        return VerificationRecord(
            CLAIM_HALF_VIZING, inst, True, lhs, rhs, verdict, witnesses, extras=extras
        )

    return _timed(CLAIM_HALF_VIZING, inst, build)


def gm_square_dominating_set(m: int) -> tuple[Digraph, int]:
    """The published size-(m^2+2m) dominating set of G_m [] G_m, flattened."""
    gm = families.gen_G_m(m)
    prod, pmap = cartesian_product(gm, gm)
    members = []
    for i in range(1, m + 1):
        members.append(pmap.encode(0, 2 * i - 1))  # (v1, v_2i)
        members.append(pmap.encode(2 * i, 0))  # (v_2i+1, v1)
        for j in range(1, m + 1):
            members.append(pmap.encode(2 * i - 1, 2 * j))  # (v_2i, v_2j+1)
    return prod, bitset.from_iter(members)


def check_Gm_vizing_failure(
    m: int,
    *,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """The explicit dominating set of G_m [] G_m has size m^2 + 2m, strictly
    below gamma(G_m)^2 = (m+1)^2; for small m the exact product value is
    solved and cross-checked."""
    inst = f"Gm:{m}|Gm:{m}"

    def build():
        prod, witness = gm_square_dominating_set(m)
        size = witness.bit_count()
        dominates = validate.is_dominating_set(prod, witness)
        rhs = (m + 1) * (m + 1)
        ok = dominates and size == m * m + 2 * m and size < rhs
        extras = {"set_size": size, "dominates": dominates}
        if m <= GM_SOLVED_UP_TO:
            exact, _ = domination_number(prod, timeout_ms=timeout_ms)
            extras["gamma_product"] = exact
            ok = ok and exact <= size and exact < rhs
        return VerificationRecord(
            CLAIM_GM_FAILURE,
            inst,
            True,
            size,
            rhs,
            HOLDS if ok else FAILS,
            witnesses={"product_dominating_set": bitset.to_list(witness)},
            extras=extras,
        )

    return _timed(CLAIM_GM_FAILURE, inst, build)


# ---------------------------------------------------------------------------
# Equality families (digraphs times the out-degree-(0,2,0,2) C4 orientation)
# ---------------------------------------------------------------------------


def check_C4_equality(
    g: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """Digraphs partitionable into two minimum dominating sets satisfy
    gamma(G [] C4^(0,2,0,2)) = 2 gamma(G); any two-dominating-set partition
    additionally certifies the upper bound gamma <= n(G)."""
    inst = instance or families.describe_instance(g)

    def build():
        c4 = families.gen_C4_orientation((0, 2, 0, 2))
        u_idx, v_idx = (w for w in range(4) if c4.out_degree(w) == 2)
        prod, pmap = cartesian_product(g, c4)
        any_part = partition_two_dominating_sets(g, False, timeout_ms=timeout_ms)
        extras = {}
        witnesses = {}
        if any_part is not None:
            side_a, side_b = any_part
            partition_witness = bitset.from_iter(
                [pmap.encode(x, u_idx) for x in bitset.iter_bits(side_a)]
                + [pmap.encode(x, v_idx) for x in bitset.iter_bits(side_b)]
            )
            if not validate.is_dominating_set(prod, partition_witness):
                return VerificationRecord(
                    CLAIM_C4_EQUALITY,
                    inst,
                    False,
                    None,
                    None,
                    FAILS,
                    witnesses={"partition_witness": bitset.to_list(partition_witness)},
                    extras={"reason": "partition witness does not dominate product"},
                )
            extras["upper_bound_n"] = g.n
            witnesses["side_a"] = bitset.to_list(side_a)
            witnesses["side_b"] = bitset.to_list(side_b)
        min_part = partition_two_dominating_sets(g, True, timeout_ms=timeout_ms)
        hyp = min_part is not None
        gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
        rhs = 2 * gamma_g
        extras["gamma_G"] = gamma_g
        if not hyp:
            return VerificationRecord(
                CLAIM_C4_EQUALITY,
                inst,
                False,
                None,
                rhs,
                HYPOTHESIS_NOT_MET,
                witnesses,
                extras=extras,
            )
        side_a, side_b = min_part
        witnesses["minimum_side_a"] = bitset.to_list(side_a)
        witnesses["minimum_side_b"] = bitset.to_list(side_b)
        lhs, dom = domination_number(prod, timeout_ms=timeout_ms)
        extras["exact"] = True
        witnesses["product_dominating_set"] = bitset.to_list(dom)
        verdict = HOLDS if lhs == rhs else FAILS
        return VerificationRecord(
            CLAIM_C4_EQUALITY, inst, hyp, lhs, rhs, verdict, witnesses,
            extras=extras,
        )

    return _timed(CLAIM_C4_EQUALITY, inst, build)


def _strong_support_with_two_nonisolated(d: Digraph) -> Optional[int]:
    tags = classify_leaves(d)
    un = underlying_graph(d)
    non_iso = bitset.from_iter(
        v for v in range(d.n) if NON_ISOLATED_LEAF in tags[v]
    )
    for v in range(d.n):
        if (un.adj[v] & non_iso).bit_count() >= 2:
            return v
    return None


def check_strong_support_condition(
    t: Digraph,
    g: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """Necessary condition, checked contrapositively: when the product
    equality gamma(T [] G) = gamma(T) gamma(G) holds exactly, T must not
    contain a strong support vertex adjacent to two non-isolated leaves."""
    inst = instance or _pair_instance(t, g)

    def build():
        hyp = is_ditree(t) and underlying_connected(g) and g.n > 0
        gamma_t_val, _ = domination_number(t, timeout_ms=timeout_ms)
        gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
        rhs = gamma_t_val * gamma_g
        lhs, _ = _gamma_of_cartesian(t, g, timeout_ms=timeout_ms)
        bad_vertex = _strong_support_with_two_nonisolated(t)
        extras = {
            "gamma_T": gamma_t_val,
            "gamma_G": gamma_g,
            "exact": True,
            "strong_support_with_two_nonisolated_leaves": bad_vertex,
        }
        if not hyp:
            return VerificationRecord(
                CLAIM_STRONG_SUPPORT, inst, False, lhs, rhs,
                HYPOTHESIS_NOT_MET, extras=extras,
            )
        equality = lhs == rhs
        extras["equality"] = equality
        verdict = FAILS if (equality and bad_vertex is not None) else HOLDS
        witnesses = {}
        if verdict == FAILS:
            witnesses["strong_support_vertex"] = [bad_vertex]
        return VerificationRecord(
            CLAIM_STRONG_SUPPORT, inst, hyp, lhs, rhs, verdict, witnesses,
            extras=extras,
        )

    return _timed(CLAIM_STRONG_SUPPORT, inst, build)


def attach_isolated_leaf(d: Digraph, attach_at: int) -> Digraph:
    """New digraph with one extra vertex carrying a single arc into
    ``attach_at`` (an isolated leaf of the result)."""
    if not 0 <= attach_at < d.n:
        raise ValueError(f"attach vertex {attach_at} out of range")
    labels = None
    if d.labels is not None:
        labels = tuple(list(d.labels) + ["leaf+"])
    return build_digraph(d.n + 1, d.arcs() + [(d.n, attach_at)], labels)


def check_isolated_leaf_extension(
    t: Digraph,
    h: Digraph,
    attach_at: int,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """Attaching a new isolated leaf that raises gamma by one preserves the
    product equality gamma(T [] H) = gamma(T) gamma(H)."""
    inst = instance or f"{_pair_instance(t, h)};attach={attach_at}"

    def build():
        t_ext = attach_isolated_leaf(t, attach_at)
        gamma_t_val, _ = domination_number(t, timeout_ms=timeout_ms)
        gamma_ext, _ = domination_number(t_ext, timeout_ms=timeout_ms)
        gamma_h, _ = domination_number(h, timeout_ms=timeout_ms)
        base, _ = _gamma_of_cartesian(t, h, timeout_ms=timeout_ms)
        base_equality = base == gamma_t_val * gamma_h
        extras = {
            "gamma_T": gamma_t_val,
            "gamma_T_extended": gamma_ext,
            "gamma_H": gamma_h,
            "gamma_grew": gamma_ext == gamma_t_val + 1,
            "base_equality": base_equality,
        }
        hyp = is_ditree(t) and gamma_ext == gamma_t_val + 1 and base_equality
        lhs, _ = _gamma_of_cartesian(t_ext, h, timeout_ms=timeout_ms)
        rhs = gamma_ext * gamma_h
        if not hyp:
            return VerificationRecord(
                CLAIM_ISOLATED_LEAF, inst, False, lhs, rhs,
                HYPOTHESIS_NOT_MET, extras=extras,
            )
        verdict = HOLDS if lhs == rhs else FAILS
        return VerificationRecord(
            CLAIM_ISOLATED_LEAF, inst, hyp, lhs, rhs, verdict, extras=extras
        )

    return _timed(CLAIM_ISOLATED_LEAF, inst, build)


def check_max_packing_dominates(
    t1: Digraph,
    t2: Digraph,
    *,
    instance: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> VerificationRecord:
    """For ditree pairs attaining the product equality, every maximum packing
    dominates its underlying tree, and all maximum packings of one factor
    contain all of its isolated leaves (a disjunction across the pair)."""
    inst = instance or _pair_instance(t1, t2)

    def build():
        reason = None
        if t1.n < 3 or t2.n < 3:
            reason = "both factors must have order at least 3"
        elif not (is_ditree(t1) and is_ditree(t2)):
            reason = "both factors must be ditrees"
        if reason:
            return VerificationRecord(
                CLAIM_MAX_PACKING, inst, False, None, None,
                HYPOTHESIS_NOT_MET, extras={"reason": reason},
            )
        gamma_1, _ = domination_number(t1, timeout_ms=timeout_ms)
        gamma_2, _ = domination_number(t2, timeout_ms=timeout_ms)
        rhs = gamma_1 * gamma_2
        lhs, _ = _gamma_of_cartesian(t1, t2, timeout_ms=timeout_ms)
        extras = {"gamma_T1": gamma_1, "gamma_T2": gamma_2, "exact": True}
        if lhs != rhs:
            return VerificationRecord(
                CLAIM_MAX_PACKING, inst, False, lhs, rhs,
                HYPOTHESIS_NOT_MET, extras=extras,
            )
        tags1 = classify_leaves(t1)
        tags2 = classify_leaves(t2)
        iso1 = bitset.from_iter(v for v in range(t1.n) if ISOLATED_LEAF in tags1[v])
        iso2 = bitset.from_iter(v for v in range(t2.n) if ISOLATED_LEAF in tags2[v])
        packs1 = all_maximum_packings(t1, timeout_ms=timeout_ms)
        packs2 = all_maximum_packings(t2, timeout_ms=timeout_ms)
        un1, un2 = underlying_graph(t1), underlying_graph(t2)
        bad = None
        for p in packs1:
            if not validate.is_dominating_set(un1, p):
                bad = ("factor1_nondominating_packing", p)
                break
        if bad is None:
            for p in packs2:
                if not validate.is_dominating_set(un2, p):
                    bad = ("factor2_nondominating_packing", p)
                    break
        all1 = all(p & iso1 == iso1 for p in packs1)
        all2 = all(p & iso2 == iso2 for p in packs2)
        extras.update(
            {
                "max_packings_T1": len(packs1),
                "max_packings_T2": len(packs2),
                "isolated_leaves_T1": bitset.to_list(iso1),
                "isolated_leaves_T2": bitset.to_list(iso2),
                "all_T1_packings_contain_isolated": all1,
                "all_T2_packings_contain_isolated": all2,
            }
        )
        witnesses = {}
        if bad is not None:
            witnesses[bad[0]] = bitset.to_list(bad[1])
        if not (all1 or all2):
            witnesses["factor1_packing_missing_isolated"] = bitset.to_list(
                next(p for p in packs1 if p & iso1 != iso1)
            )
            witnesses["factor2_packing_missing_isolated"] = bitset.to_list(
                next(p for p in packs2 if p & iso2 != iso2)
            )
        verdict = HOLDS if bad is None and (all1 or all2) else FAILS
        return VerificationRecord(
            CLAIM_MAX_PACKING, inst, True, lhs, rhs, verdict, witnesses,
            extras=extras,
        )

    return _timed(CLAIM_MAX_PACKING, inst, build)


# ---------------------------------------------------------------------------
# Open problem: packing vs domination on acyclic digraphs
# ---------------------------------------------------------------------------


def search_acyclic_problem(
    max_n: int = 9,
    budget: int = 10_000,
    seed: int = 0,
    *,
    exhaustive_n: int = 4,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> Iterator[VerificationRecord]:
    """Record rho vs gamma over acyclic digraphs: exhaustive up to
    ``exhaustive_n`` vertices, then ``budget`` random DAGs up to ``max_n``.

    Asserts nothing (the question is open); any strict inequality comes out
    as a ``fails`` record carrying both witnesses.
    """

    def one(d: Digraph, inst: str, inst_seed: Optional[int]) -> VerificationRecord:
        arcs = {"arcs": [list(a) for a in d.arcs()]}
        return _packing_vs_domination(
            CLAIM_ACYCLIC, inst, True, d, timeout_ms, witnesses=arcs, seed=inst_seed
        )

    for n in range(1, min(exhaustive_n, max_n) + 1):
        for d in families.all_digraphs(n):
            if is_acyclic_digraph(d):
                yield one(d, digraph_descriptor(d), None)
    rng = random.Random(seed)
    for _ in range(budget):
        n = rng.randint(min(exhaustive_n, max_n) + 1, max_n) if max_n > exhaustive_n else max_n
        p = rng.uniform(0.1, 0.7)
        inst_seed = rng.getrandbits(32)
        d = families.random_dag(n, p, inst_seed)
        yield one(d, digraph_descriptor(d), inst_seed)


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------


@dataclass
class SuiteTask:
    claim: str
    run: Callable[[], VerificationRecord]
    source: str = ""  # the configured instance source, named by error records


@dataclass
class SuiteResult:
    records: list[VerificationRecord] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return out

    def unexpected_failures(self) -> list[VerificationRecord]:
        return [
            r
            for r in self.records
            if r.verdict == FAILS and r.claim not in EXPECTED_FAILURE_CLAIMS
        ]

    def errors(self) -> list[VerificationRecord]:
        return [r for r in self.records if r.verdict == ERROR]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures() and not self.errors()

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{len(self.records)} records"]
        parts += [f"{v}={counts.get(v, 0)}" for v in VERDICTS]
        lines = ["suite: " + " ".join(parts)]
        for r in self.unexpected_failures():
            lines.append(f"UNEXPECTED FAIL {r.claim} on {r.instance}: {r.lhs} vs {r.rhs}")
        for r in self.errors():
            lines.append(f"ERROR {r.claim} on {r.instance}: {r.extras['error']}")
        for claim in sorted({r.claim for r in self.records}):
            sub = [r for r in self.records if r.claim == claim]
            c = {}
            for r in sub:
                c[r.verdict] = c.get(r.verdict, 0) + 1
            detail = " ".join(f"{k}={v}" for k, v in sorted(c.items()))
            lines.append(f"  {claim}: {len(sub)} [{detail}]")
        return "\n".join(lines)


def run_suite(
    tasks: list[SuiteTask],
    *,
    out_path: Optional[str] = None,
    include_timings: bool = True,
) -> SuiteResult:
    """Run the tasks in order, appending each record to ``out_path`` as
    JSON lines.  A task that raises becomes an ``error`` record naming its
    source and the run goes on; a failed re-validation (AssertionError) is
    re-raised once its record is written."""
    result = SuiteResult()
    sink = open(out_path, "a", encoding="ascii") if out_path else None
    try:
        for task in tasks:
            fatal = None
            try:
                record = task.run()
            except Exception as exc:
                record = VerificationRecord(
                    task.claim, task.source, None, None, None, ERROR,
                    extras={"error": f"{type(exc).__name__}: {exc}"},
                )
                if isinstance(exc, AssertionError):
                    fatal = exc
            result.records.append(record)
            if sink is not None:
                sink.write(record.to_json(include_timings) + "\n")
            if fatal is not None:
                raise fatal
    finally:
        if sink is not None:
            sink.close()
    return result


# ---------------------------------------------------------------------------
# Suite configuration: a plain-text key-value file.
#
#   seed 42                   # global RNG seed
#   timeout_ms 60000          # per-solve deadline, product solves included;
#                             # a check past it gives a timeout record
#   out results.jsonl
#   check <claim-id> <instance-source>
#
# Instance sources:
#   family:<spec>                     one generated digraph
#   pair:<specL>|<specR>[;attach=K]   one pair (attach only for leaf extension)
#   enum-ditrees:<n>                  every labeled ditree on n vertices
#   enum-ditrees-min-indeg:<n>        same, filtered to min in-degree >= 1
#   random-ditrees:count=C,n=N        C random ditrees, orders 2..N
#   random-digraphs:count=C,n=N       C random digraphs, mixed densities
#   random-pairs:count=C,n=N          C random digraph pairs
#   random-min-indeg-pairs:count=C,n=N  pairs with min in-degree >= 1
#   m:1,2,3                           G_m construction sizes
#   dags:exhaustive=E,random=C,n=N    acyclic search parameters
# ---------------------------------------------------------------------------


@dataclass
class SuiteConfig:
    seed: int = 42
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    out: Optional[str] = None
    checks: list[tuple[str, str]] = field(default_factory=list)


class SuiteConfigError(ValueError):
    pass


def parse_suite_config(text: str) -> SuiteConfig:
    config = SuiteConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise SuiteConfigError(f"line {line_no}: expected 'key value'")
        key, value = parts
        try:
            if key == "seed":
                config.seed = int(value)
            elif key == "timeout_ms":
                config.timeout_ms = float(value)
            elif key == "out":
                config.out = value
            elif key == "check":
                claim, _, source = value.partition(" ")
                source = source.strip()
                if claim not in ALL_CLAIMS:
                    raise SuiteConfigError(f"line {line_no}: unknown claim {claim!r}")
                if not source:
                    raise SuiteConfigError(f"line {line_no}: missing instance source")
                config.checks.append((claim, source))
            else:
                raise SuiteConfigError(f"line {line_no}: unknown key {key!r}")
        except SuiteConfigError:
            raise
        except ValueError as exc:
            raise SuiteConfigError(f"line {line_no}: {exc}") from None
    return config


def _source_kv(body: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise SuiteConfigError(f"expected key=value in source, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def _digraph_instances(source: str, rng: random.Random):
    """Yield (label, digraph) pairs for a single-digraph source."""
    if source.startswith("family:"):
        spec = source[len("family:") :]
        yield spec, families.build_family(spec)
    elif source.startswith("enum-ditrees:"):
        n = int(source.split(":", 1)[1])
        for i, d in enumerate(families.enumerate_ditrees(n)):
            yield f"enum-ditree:n={n},i={i}", d
    elif source.startswith("enum-ditrees-min-indeg:"):
        n = int(source.split(":", 1)[1])
        i = 0
        for d in families.enumerate_ditrees(n):
            if d.min_in_degree >= 1:
                yield f"enum-ditree-min-indeg:n={n},i={i}", d
            i += 1
    elif source.startswith("random-ditrees:"):
        kv = _source_kv(source.split(":", 1)[1])
        count, n_max = int(kv["count"]), int(kv["n"])
        for _ in range(count):
            n = rng.randint(2, max(2, n_max))
            seed = rng.getrandbits(32)
            yield f"ditree:n={n},seed={seed}", families.random_ditree(n, seed)
    elif source.startswith("random-digraphs:"):
        kv = _source_kv(source.split(":", 1)[1])
        count, n_max = int(kv["count"]), int(kv["n"])
        for _ in range(count):
            n = rng.randint(1, n_max)
            p = rng.uniform(0.05, 0.9)
            seed = rng.getrandbits(32)
            label = f"random-digraph:n={n},p={p:.3f},seed={seed}"
            yield label, families.random_digraph(n, p, seed)
    else:
        raise SuiteConfigError(f"unusable digraph source {source!r}")


def _pair_instances(source: str, rng: random.Random):
    """Yield (label, digraph, digraph, options) for a pair source."""
    options: dict[str, str] = {}
    if ";" in source:
        source, _, opt = source.partition(";")
        options = _source_kv(opt)
    if source.startswith("pair:"):
        left, sep, right = source[len("pair:") :].partition("|")
        if not sep:
            raise SuiteConfigError(f"pair source wants specL|specR, got {source!r}")
        yield (
            f"{left}|{right}",
            families.build_family(left),
            families.build_family(right),
            options,
        )
    elif source.startswith("random-pairs:") or source.startswith(
        "random-min-indeg-pairs:"
    ):
        need_indeg = source.startswith("random-min-indeg-pairs:")
        kv = _source_kv(source.split(":", 1)[1])
        count, n_max = int(kv["count"]), int(kv["n"])
        for _ in range(count):
            lo = 2 if need_indeg else 1
            n1, n2 = rng.randint(lo, n_max), rng.randint(lo, n_max)
            p1, p2 = rng.uniform(0.15, 0.8), rng.uniform(0.15, 0.8)
            s1, s2 = rng.getrandbits(32), rng.getrandbits(32)
            gen = (
                families.random_digraph_min_indegree
                if need_indeg
                else families.random_digraph
            )
            label = f"random-pair:n={n1}/{n2},seed={s1}/{s2}"
            yield label, gen(n1, p1, s1), gen(n2, p2, s2), options
    else:
        raise SuiteConfigError(f"unusable pair source {source!r}")


def default_attach_vertex(t: Digraph) -> int:
    """Lowest-index support vertex, falling back to vertex 0."""
    tags = classify_leaves(t)
    for v in range(t.n):
        if SUPPORT in tags[v]:
            return v
    return 0


def _pair_source(source: str, rng: random.Random):
    for label, a, b, _ in _pair_instances(source, rng):
        yield label, a, b


def _attach_source(source: str, rng: random.Random):
    for label, a, b, options in _pair_instances(source, rng):
        attach = int(options["attach"]) if "attach" in options else default_attach_vertex(a)
        yield f"{label};attach={attach}", a, b, attach


def _m_source(source: str, rng: random.Random):
    if not source.startswith("m:"):
        raise SuiteConfigError(f"{CLAIM_GM_FAILURE} wants source m:1,2,..., got {source!r}")
    for m_str in source[2:].split(","):
        yield (int(m_str),)


def _dags_source(source: str, rng: random.Random):
    if not source.startswith("dags:"):
        raise SuiteConfigError(f"{CLAIM_ACYCLIC} wants source dags:..., got {source!r}")
    kv = _source_kv(source[len("dags:") :])
    yield int(kv.get("exhaustive", "4")), int(kv.get("random", "0")), int(kv.get("n", "9"))


def _run_acyclic(
    config: SuiteConfig, exhaustive: int, budget: int, max_n: int
) -> VerificationRecord:
    """The acyclic search folded into one summary record carrying the first
    failure's witnesses."""
    records = list(
        search_acyclic_problem(
            max_n=max_n,
            budget=budget,
            seed=config.seed,
            exhaustive_n=exhaustive,
            timeout_ms=config.timeout_ms,
        )
    )
    bad = [r for r in records if r.verdict == FAILS]
    return VerificationRecord(
        CLAIM_ACYCLIC,
        f"dags:exhaustive={exhaustive},random={budget},n={max_n}",
        True,
        sum(1 for r in records if r.verdict == HOLDS),
        len(records),
        FAILS if bad else HOLDS,
        witnesses={} if not bad else bad[0].witnesses,
        seed=config.seed,
    )


def _product_check(checker):
    """Run for a checker of the form checker(*graphs, instance, timeout_ms)."""

    def run(config: SuiteConfig, label: str, *args) -> VerificationRecord:
        return checker(*args, instance=label, timeout_ms=config.timeout_ms)

    return run


# claim -> (instance source, run).  A source yields one argument tuple per
# instance; each task calls run(config, *args).  Sources draw from the rng
# in a fixed order, which keeps suites reproducible from their seed.
_CLAIM_TABLE = {
    CLAIM_MEIR_MOON: (
        _digraph_instances,
        lambda c, label, d: check_meir_moon(
            underlying_graph(d), instance=label, timeout_ms=c.timeout_ms
        ),
    ),
    CLAIM_DITREE_PACKING: (
        _digraph_instances,
        lambda c, label, d: check_packing_equals_domination(
            d, instance=label, timeout_ms=c.timeout_ms
        ),
    ),
    CLAIM_DITREE_OPEN_PACKING: (
        _digraph_instances,
        lambda c, label, d: check_open_packing_equals_total_domination(
            d, instance=label, timeout_ms=c.timeout_ms
        ),
    ),
    CLAIM_DIRECT_TOTAL: (_pair_source, _product_check(check_total_domination_direct_product)),
    CLAIM_PACKING_LOWER: (_pair_source, _product_check(check_packing_lower_bound)),
    CLAIM_VIZING: (_pair_source, _product_check(check_vizing_inequality)),
    CLAIM_HALF_VIZING: (_pair_source, _product_check(check_half_vizing_bound)),
    CLAIM_GM_FAILURE: (
        _m_source,
        lambda c, m: check_Gm_vizing_failure(m, timeout_ms=c.timeout_ms),
    ),
    CLAIM_C4_EQUALITY: (_digraph_instances, _product_check(check_C4_equality)),
    CLAIM_STRONG_SUPPORT: (_pair_source, _product_check(check_strong_support_condition)),
    CLAIM_ISOLATED_LEAF: (_attach_source, _product_check(check_isolated_leaf_extension)),
    CLAIM_MAX_PACKING: (_pair_source, _product_check(check_max_packing_dominates)),
    CLAIM_ACYCLIC: (_dags_source, _run_acyclic),
    # Helly records name their instance by digraph_descriptor, not the label
    CLAIM_CLOSED_HELLY: (_digraph_instances, lambda c, label, d: check_closed_helly_lemma(d)),
    CLAIM_OPEN_HELLY: (_digraph_instances, lambda c, label, d: check_open_helly_lemma(d)),
}

ALL_CLAIMS = tuple(_CLAIM_TABLE)


def build_tasks(config: SuiteConfig) -> list[SuiteTask]:
    """Expand configured checks into runnable suite tasks (deterministic
    given the config seed)."""
    tasks: list[SuiteTask] = []
    for index, (claim, source) in enumerate(config.checks):
        # string seeding hashes via sha512: stable across platforms and runs
        rng = random.Random(f"{config.seed}:{index}:{claim}:{source}")
        instances, run = _CLAIM_TABLE[claim]
        for args in instances(source, rng):
            tasks.append(SuiteTask(claim, partial(run, config, *args), source))
    return tasks


DEFAULT_SUITE = """\
# didom default verification suite
seed 42
timeout_ms 60000
check thm:meir-moon random-ditrees:count=25,n=12
check thm:ditree-packing-domination enum-ditrees:3
check thm:ditree-packing-domination family:K1star
check thm:ditree-open-packing-total-domination enum-ditrees-min-indeg:3
check thm:ditree-open-packing-total-domination family:path:4
check thm:direct-product-total-domination pair:cycle:3|cycle:3
check thm:direct-product-total-domination pair:cycle:3|cycle:4
check thm:direct-product-total-domination random-min-indeg-pairs:count=5,n=5
check prop:packing-lower-bound pair:Gm:1|chord5
check prop:packing-lower-bound random-pairs:count=10,n=5
check conj:vizing-inequality pair:Gm:1|chord5
check conj:vizing-inequality pair:cycle:4|cycle:4
check thm:half-vizing-bound pair:cycle:3|cycle:3
check thm:half-vizing-bound random-pairs:count=10,n=5
check family:Gm-vizing-failure m:1,2,3
check prop:C4-equality family:fig5corona
check prop:C4-equality family:corona:n=2,edges=both,leaves=both/both
check thm:strong-support-necessary pair:K1star|path:4
check cor:isolated-leaf-extension pair:K1star|path:4;attach=1
check thm:max-packing-dominates pair:K1star|path:4
check lemma:closed-helly random-ditrees:count=20,n=12
check lemma:open-helly random-ditrees:count=20,n=12
check problem:acyclic-packing-domination dags:exhaustive=3,random=50,n=7
"""


def default_suite_config() -> SuiteConfig:
    return parse_suite_config(DEFAULT_SUITE)
