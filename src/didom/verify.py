"""Theorem-level checkers and the verification suite.

Every claim becomes an executable predicate over instances, producing
VerificationRecords.  Checkers never report ``fails`` without an attached,
independently re-validated counterwitness, and hypothesis violations stay
distinguishable from conclusion failures.  Every product checker solves
the product exactly, so no verdict rests on a bound that contains the
claim's own inequality; a solve past its deadline gives a ``timeout``
record.  The one exception is G_m [] G_m for m >= 3, whose value is
certified instead by the published dominating set and a fractional
packing of the same value (weak LP duality).

Every checker has one shape: a body that states its claim's mathematics
and returns the verdict fields, made public by ``_checker``, which names,
times and builds the record, hands the body its deadline and turns a
solve past it into a ``timeout`` record.  The suite calls every checker
one way: by name when the task runs, with its source's label as the
record's instance and the suite's deadline.  The fields come from one
verdict rule, ``_verdict``:
``hypothesis_not_met`` when the hypotheses fail, otherwise ``holds`` or
``fails`` as the conclusion says.  Only two definitional self-checks (the
direct product's sandwich, the C4 partition witness) report ``fails``
whatever the hypotheses: they catch a faulty solver or construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Iterator, Optional

from didom import bitset, families, validate
from didom.auxgraph import (
    closed_in_neighborhood_graph,
    maximal_cliques,
    open_in_neighborhood_graph,
)
from didom.core import (
    Digraph,
    MAX_VERTICES,
    build_digraph,
    classify_leaves,
    girth,
    is_ditree,
    is_tree,
    underlying_connected,
    underlying_graph,
)
from didom.errors import Deadline, SolveTimeout
from didom.products import cartesian_product, direct_product
from didom.records import (
    ERROR,
    FAILS,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    TIMEOUT,
    VERDICTS,
    VerificationRecord,
    arc_list_descriptor,
    digraph_descriptor,
)
from didom.solvers import (
    DEFAULT_TIMEOUT_MS,
    all_maximum_packings,
    domination_number,
    packing_against,
    parse_timeout_ms,
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
CLAIM_CLOSED_HELLY = "lemma:closed-helly"
CLAIM_OPEN_HELLY = "lemma:open-helly"

# Claims where a `fails` verdict is a first-class finding, not a suite error:
# the product inequality is known false in general, and the acyclic question
# is open (the search records, it does not assert).
EXPECTED_FAILURE_CLAIMS = frozenset({CLAIM_VIZING, CLAIM_ACYCLIC})


def _checker(
    claim: str, name: Optional[Callable[..., str]] = None, *, one_deadline: bool = False
):
    """Decorator: the public checker of ``claim`` whose mathematics is the
    decorated body, ``body(*args, timeout_ms)``, which returns the verdict
    fields (as ``_verdict`` gives them).  ``check(*args, instance=None,
    timeout_ms=DEFAULT_TIMEOUT_MS)`` names the record ``instance``, else
    ``name(*args)`` (the digraph's descriptor by default), passes the
    deadline to the body, times the record, and turns a solve past its
    deadline into a ``timeout`` record.  The suite passes both keywords.
    With ``one_deadline`` the body takes ``deadline`` instead: one
    ``Deadline`` of ``timeout_ms`` for the whole check, started before the
    record is named, since on a large digraph the name alone can take as
    long as a search."""

    def decorate(body):
        def check(
            *args, instance: Optional[str] = None, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
        ) -> VerificationRecord:
            if one_deadline:
                bound = {"deadline": Deadline(timeout_ms)}
            else:
                bound = {"timeout_ms": timeout_ms}
            # the suite names its records, which spares it the default name;
            # the descriptor is looked up per call, where a tracer may wrap it
            inst = instance or (name or digraph_descriptor)(*args)
            start = perf_counter()
            try:
                record = VerificationRecord(claim, inst, **body(*args, **bound))
            except SolveTimeout:
                record = VerificationRecord(claim, inst, None, None, None, TIMEOUT)
            record.elapsed_ms = (perf_counter() - start) * 1000.0
            return record

        check.__name__, check.__qualname__ = body.__name__, body.__qualname__
        check.__doc__ = body.__doc__
        return check

    return decorate


def _verdict(
    hyp: bool, lhs, rhs, holds: bool = True, witnesses: Optional[dict] = None, **fields
) -> dict:
    """The verdict rule: ``hypothesis_not_met`` unless ``hyp``, otherwise
    ``holds`` or ``fails`` as ``holds`` says.  Returns the record's fields
    after its claim and instance; ``fields`` (extras, seed) join them."""
    verdict = (HOLDS if holds else FAILS) if hyp else HYPOTHESIS_NOT_MET
    return dict(
        hypotheses_met=hyp, lhs=lhs, rhs=rhs, verdict=verdict, witnesses=witnesses or {}, **fields
    )


def _gammas(g: Digraph, h: Digraph, timeout_ms) -> tuple[int, int, int, int]:
    """gamma(G), gamma(H), gamma(G [] H) and a minimum dominating set of
    G [] H, each solved exactly."""
    gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
    gamma_h, _ = domination_number(h, timeout_ms=timeout_ms)
    prod, _ = cartesian_product(g, h)
    lhs, dom = domination_number(prod, timeout_ms=timeout_ms)
    return gamma_g, gamma_h, lhs, dom


def _pair_instance(spec_g: Digraph, spec_h: Digraph) -> str:
    return f"{digraph_descriptor(spec_g)}|{digraph_descriptor(spec_h)}"


# ---------------------------------------------------------------------------
# Tree / ditree equalities
# ---------------------------------------------------------------------------


def _solve_packing_vs_domination(d: Digraph, closed: bool, timeout_ms) -> tuple:
    """(gamma, dominating set, rho, packing) of d, open and total unless
    ``closed``.  The domination side is solved first, by a solver looked up
    when the check runs; the total one may be (None, None) (no such set).
    The packing side comes from ``solvers.packing_against``."""
    dom_solver = domination_number if closed else total_domination_number
    gamma, dom = dom_solver(d, timeout_ms=timeout_ms) or (None, None)
    rho, pack = packing_against(d, gamma, closed=closed, timeout_ms=timeout_ms)
    return gamma, dom, rho, pack


def _packing_witnesses(pack: int, dom: Optional[int], keys=("packing", "dominating_set")):
    """The witness lists of a packing and, when there is one, a dominating
    set, under ``keys``."""
    witnesses = {keys[0]: bitset.to_list(pack)}
    if dom is not None:
        witnesses[keys[1]] = bitset.to_list(dom)
    return witnesses


def _packing_vs_domination(
    d: Digraph, hyp: bool, timeout_ms, closed: bool = True, keys=("packing", "dominating_set")
) -> dict:
    """The packing number (open packing number unless ``closed``) against
    the domination (total domination) number of d, witnessed under ``keys``,
    as ``_solve_packing_vs_domination`` solves them."""
    gamma, dom, rho, pack = _solve_packing_vs_domination(d, closed, timeout_ms)
    return _verdict(hyp, rho, gamma, rho == gamma, _packing_witnesses(pack, dom, keys))


@_checker(CLAIM_MEIR_MOON, name=lambda d: f"tree:n={d.n},edges={underlying_graph(d).edges()}")
def check_meir_moon(d: Digraph, *, timeout_ms) -> dict:
    """2-packing number equals domination number on trees: the ditree
    theorem on the bidirected digraph of d's underlying graph."""
    tree = underlying_graph(d)
    return _packing_vs_domination(
        tree, is_tree(tree), timeout_ms, keys=("two_packing", "dominating_set")
    )


@_checker(CLAIM_DITREE_PACKING)
def check_packing_equals_domination(d: Digraph, *, timeout_ms) -> dict:
    """Packing number equals domination number on ditrees."""
    return _packing_vs_domination(d, is_ditree(d), timeout_ms)


@_checker(CLAIM_DITREE_OPEN_PACKING)
def check_open_packing_equals_total_domination(d: Digraph, *, timeout_ms) -> dict:
    """Open packing number equals total domination number on ditrees with
    minimum in-degree at least 1."""
    hyp = is_ditree(d) and d.n > 0 and d.min_in_degree >= 1
    return _packing_vs_domination(
        d, hyp, timeout_ms, closed=False, keys=("open_packing", "total_dominating_set")
    )


# ---------------------------------------------------------------------------
# Direct product: total domination multiplies
# ---------------------------------------------------------------------------


@_checker(CLAIM_DIRECT_TOTAL, name=_pair_instance)
def check_total_domination_direct_product(g: Digraph, h: Digraph, *, timeout_ms) -> dict:
    """gamma_t(G x H) = gamma_t(G) gamma_t(H) when the first factor's open
    packing number equals its total domination number (both factors need
    minimum in-degree 1).  The product is solved exactly, and the
    definitional sandwich
    max(rho_o * gamma_t, ...) <= gamma_t(product) <= gamma_t * gamma_t
    is verified against the solved value."""
    if not (g.n > 0 and h.n > 0 and g.min_in_degree >= 1 and h.min_in_degree >= 1):
        return _verdict(False, None, None, extras={"reason": "a factor has a source vertex"})
    gt_g, _ = total_domination_number(g, timeout_ms=timeout_ms)
    gt_h, _ = total_domination_number(h, timeout_ms=timeout_ms)
    ro_g, _ = packing_against(g, gt_g, closed=False, timeout_ms=timeout_ms)
    ro_h, _ = packing_against(h, gt_h, closed=False, timeout_ms=timeout_ms)
    hyp = ro_g == gt_g
    rhs = gt_g * gt_h
    sandwich_low = max(ro_g * gt_h, ro_h * gt_g)
    prod, _ = direct_product(g, h)
    extras = {
        "gamma_t_G": gt_g,
        "gamma_t_H": gt_h,
        "rho_open_G": ro_g,
        "rho_open_H": ro_h,
    }
    lhs, dom = total_domination_number(prod, timeout_ms=timeout_ms)
    fields = _verdict(
        hyp, lhs, rhs, lhs == rhs,
        {"product_total_dominating_set": bitset.to_list(dom)}, extras=extras,
    )
    if not (sandwich_low <= lhs <= rhs):
        # outside the definitional sandwich the solver is wrong, whatever the hypothesis
        fields["verdict"] = FAILS
    return fields


# ---------------------------------------------------------------------------
# Cartesian product lower bounds
# ---------------------------------------------------------------------------


def _cartesian_bound(g: Digraph, h: Digraph, timeout_ms, bound) -> dict:
    """gamma(G [] H) >= rhs, with gamma(G), gamma(H) and gamma(G [] H)
    solved exactly; ``bound(gamma_G, gamma_H, lhs)`` gives ``(rhs, extras)``
    and its extras join the factor values.  A ``fails`` verdict carries the
    product dominating set as its counterwitness."""
    gamma_g, gamma_h, lhs, dom = _gammas(g, h, timeout_ms)
    rhs, extras = bound(gamma_g, gamma_h, lhs)
    extras.update({"gamma_G": gamma_g, "gamma_H": gamma_h})
    witnesses = {"product_dominating_set": bitset.to_list(dom)} if lhs < rhs else {}
    return _verdict(True, lhs, rhs, lhs >= rhs, witnesses, extras=extras)


@_checker(CLAIM_PACKING_LOWER, name=_pair_instance)
def check_packing_lower_bound(g: Digraph, h: Digraph, *, timeout_ms) -> dict:
    """gamma(G [] H) >= max(gamma(G) rho(H), gamma(H) rho(G))."""

    def bound(gamma_g, gamma_h, lhs):
        rho_g, _ = packing_against(g, gamma_g, timeout_ms=timeout_ms)
        rho_h, _ = packing_against(h, gamma_h, timeout_ms=timeout_ms)
        return max(gamma_g * rho_h, gamma_h * rho_g), {"rho_G": rho_g, "rho_H": rho_h}

    return _cartesian_bound(g, h, timeout_ms, bound)


@_checker(CLAIM_VIZING, name=_pair_instance)
def check_vizing_inequality(g: Digraph, h: Digraph, *, timeout_ms) -> dict:
    """gamma(G [] H) >= gamma(G) gamma(H): true for ditree factors, false in
    general; failures are first-class findings with a small dominating set
    attached as the counterwitness."""
    return _cartesian_bound(
        g, h, timeout_ms, lambda gamma_g, gamma_h, lhs: (gamma_g * gamma_h, {})
    )


@_checker(CLAIM_HALF_VIZING, name=_pair_instance)
def check_half_vizing_bound(g: Digraph, h: Digraph, *, timeout_ms) -> dict:
    """gamma(G [] H) >= (gamma(G) gamma(H) + max(gamma(G), gamma(H))) / 2.

    Unconditional; ``extras['slack_x2']`` records twice the slack so
    sharpness (slack zero) stays integral."""

    def bound(gamma_g, gamma_h, lhs):
        twice = gamma_g * gamma_h + max(gamma_g, gamma_h)
        # gamma of the product is an integer, so ceil the half-sum
        return -(-twice // 2), {"slack_x2": 2 * lhs - twice}

    return _cartesian_bound(g, h, timeout_ms, bound)


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


def gm_square_fractional_packing(m: int) -> tuple[list[int], int]:
    """A fractional packing of G_m [] G_m of value m^2 + 2m, for m >= 3:
    one integer numerator per flattened product vertex and their common
    denominator.

    Write b = v_2i and c = v_2i+1.  It puts 1/m on every (b, b), (b, c)
    and (c, b) vertex, (m-1)/m on every (c, c) vertex and 0 on any vertex
    with the hub v1 as a coordinate.  The closed out-neighbourhoods load
    3/m on (b, b), (m-1)/m on (c, c) and exactly 1 on every other vertex
    but (v1, v1), so m >= 3 keeps every load at most 1.  (m = 2 has LP
    value 54/7 < 8 = gamma, so no fractional packing certifies it.)
    """
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    # weight by the roles (hub 0, b 1, c 2) of the two coordinates
    weight = ((0, 0, 0), (0, 1, 1), (0, 1, m - 1))
    roles = [0] + [1, 2] * m  # v1, then v_2i, v_2i+1 for i = 1..m
    return [weight[r][s] for r in roles for s in roles], m


@_checker(CLAIM_GM_FAILURE, name=lambda m: f"Gm:{m}|Gm:{m}")
def check_Gm_vizing_failure(m: int, *, timeout_ms) -> dict:
    """The explicit dominating set of G_m [] G_m has size m^2 + 2m, strictly
    below gamma(G_m)^2 = (m+1)^2.  The exact product value is certified by a
    fractional packing of value m^2 + 2m for m >= 3 and solved for m <= 2;
    a certificate that does not validate raises AssertionError."""
    prod, witness = gm_square_dominating_set(m)
    size = witness.bit_count()
    dominates = validate.is_dominating_set(prod, witness)
    rhs = (m + 1) * (m + 1)
    ok = dominates and size == m * m + 2 * m and size < rhs
    if m >= 3:
        num, den = gm_square_fractional_packing(m)
        # weak duality: gamma >= sum(num) / den, and gamma is an integer
        exact = -(-sum(num) // den)
        if not validate.is_fractional_packing(prod, num, den) or exact != m * m + 2 * m:
            raise AssertionError(f"fractional packing of Gm:{m}|Gm:{m} does not certify its gamma")
    else:
        exact, _ = domination_number(prod, timeout_ms=timeout_ms)
    ok = ok and exact <= size and exact < rhs
    extras = {"dominates": dominates, "gamma_product": exact}
    witnesses = {"product_dominating_set": bitset.to_list(witness)}
    return _verdict(True, size, rhs, ok, witnesses, extras=extras)


# ---------------------------------------------------------------------------
# Equality families (digraphs times the out-degree-(0,2,0,2) C4 orientation)
# ---------------------------------------------------------------------------


@_checker(CLAIM_C4_EQUALITY)
def check_C4_equality(g: Digraph, *, timeout_ms) -> dict:
    """Digraphs partitionable into two minimum dominating sets satisfy
    gamma(G [] C4^(0,2,0,2)) = 2 gamma(G); any two-dominating-set partition
    additionally certifies the upper bound gamma <= n(G)."""
    part = partition_two_dominating_sets(g, timeout_ms=timeout_ms)
    extras = {}
    witnesses = {}
    if part is not None:
        # the product is read only when G splits
        c4 = families.gen_C4_orientation((0, 2, 0, 2))
        u_idx, v_idx = (w for w in range(4) if c4.out_degree(w) == 2)
        prod, pmap = cartesian_product(g, c4)
        side_a, side_b = part
        partition_witness = bitset.from_iter(
            [pmap.encode(x, u_idx) for x in bitset.to_list(side_a)]
            + [pmap.encode(x, v_idx) for x in bitset.to_list(side_b)]
        )
        if not validate.is_dominating_set(prod, partition_witness):
            # the construction itself is wrong, whatever the hypothesis
            fields = _verdict(
                False, None, None,
                witnesses={"partition_witness": bitset.to_list(partition_witness)},
                extras={"reason": "partition witness does not dominate product"},
            )
            fields["verdict"] = FAILS
            return fields
        extras["upper_bound_n"] = g.n
        witnesses["side_a"] = bitset.to_list(side_a)
        witnesses["side_b"] = bitset.to_list(side_b)
    gamma_g, _ = domination_number(g, timeout_ms=timeout_ms)
    # each side dominates, so has at least gamma vertices: n = 2 gamma
    # makes both sides minimum
    hyp = part is not None and g.n == 2 * gamma_g
    rhs = 2 * gamma_g
    extras["gamma_G"] = gamma_g
    lhs = None
    if hyp:
        witnesses["minimum_side_a"] = bitset.to_list(side_a)
        witnesses["minimum_side_b"] = bitset.to_list(side_b)
        lhs, dom = domination_number(prod, timeout_ms=timeout_ms)
        witnesses["product_dominating_set"] = bitset.to_list(dom)
    return _verdict(hyp, lhs, rhs, lhs == rhs, witnesses, extras=extras)


def _strong_support_with_two_nonisolated(d: Digraph) -> Optional[int]:
    non_iso = classify_leaves(d).non_isolated_leaves
    for v, nbrs in enumerate(underlying_graph(d).adj):
        if (nbrs & non_iso).bit_count() >= 2:
            return v
    return None


@_checker(CLAIM_STRONG_SUPPORT, name=_pair_instance)
def check_strong_support_condition(t: Digraph, g: Digraph, *, timeout_ms) -> dict:
    """Necessary condition, checked contrapositively: when the product
    equality gamma(T [] G) = gamma(T) gamma(G) holds exactly, T must not
    contain a strong support vertex adjacent to two non-isolated leaves."""
    hyp = is_ditree(t) and underlying_connected(g) and g.n > 0
    gamma_t_val, gamma_g, lhs, _ = _gammas(t, g, timeout_ms)
    rhs = gamma_t_val * gamma_g
    bad_vertex = _strong_support_with_two_nonisolated(t)
    extras = {
        "gamma_T": gamma_t_val,
        "gamma_G": gamma_g,
        "strong_support_with_two_nonisolated_leaves": bad_vertex,
    }
    fails = hyp and lhs == rhs and bad_vertex is not None
    witnesses = {"strong_support_vertex": [bad_vertex]} if fails else {}
    return _verdict(hyp, lhs, rhs, not fails, witnesses, extras=extras)


def attach_isolated_leaf(d: Digraph, attach_at: int) -> Digraph:
    """New digraph with one extra vertex carrying a single arc into
    ``attach_at`` (an isolated leaf of the result)."""
    if not 0 <= attach_at < d.n:
        raise ValueError(f"attach vertex {attach_at} out of range")
    return build_digraph(d.n + 1, d.arcs() + [(d.n, attach_at)])


@_checker(CLAIM_ISOLATED_LEAF, name=lambda t, h, at: f"{_pair_instance(t, h)};attach={at}")
def check_isolated_leaf_extension(t: Digraph, h: Digraph, attach_at: int, *, timeout_ms) -> dict:
    """Attaching a new isolated leaf that raises gamma by one preserves the
    product equality gamma(T [] H) = gamma(T) gamma(H)."""
    t_ext = attach_isolated_leaf(t, attach_at)
    gamma_t_val, gamma_h, base, _ = _gammas(t, h, timeout_ms)
    gamma_ext, _ = domination_number(t_ext, timeout_ms=timeout_ms)
    base_equality = base == gamma_t_val * gamma_h
    extras = {
        "gamma_T": gamma_t_val,
        "gamma_T_extended": gamma_ext,
        "gamma_H": gamma_h,
        "base_equality": base_equality,
    }
    hyp = is_ditree(t) and gamma_ext == gamma_t_val + 1 and base_equality
    prod, _ = cartesian_product(t_ext, h)
    lhs, dom = domination_number(prod, timeout_ms=timeout_ms)
    rhs = gamma_ext * gamma_h
    fails = hyp and lhs != rhs
    witnesses = {"product_dominating_set": bitset.to_list(dom)} if fails else {}
    return _verdict(hyp, lhs, rhs, not fails, witnesses, extras=extras)


@_checker(CLAIM_MAX_PACKING, name=_pair_instance)
def check_max_packing_dominates(t1: Digraph, t2: Digraph, *, timeout_ms) -> dict:
    """For ditree pairs attaining the product equality, every maximum packing
    dominates its underlying tree, and all maximum packings of one factor
    contain all of its isolated leaves (a disjunction across the pair)."""
    reason = None
    if t1.n < 3 or t2.n < 3:
        reason = "both factors must have order at least 3"
    elif not (is_ditree(t1) and is_ditree(t2)):
        reason = "both factors must be ditrees"
    if reason:
        return _verdict(False, None, None, extras={"reason": reason})
    gamma_1, gamma_2, lhs, _ = _gammas(t1, t2, timeout_ms)
    rhs = gamma_1 * gamma_2
    extras = {"gamma_T1": gamma_1, "gamma_T2": gamma_2}
    if lhs != rhs:
        return _verdict(False, lhs, rhs, extras=extras)
    # the first non-dominating packing found is the witness; a packing
    # missing isolated leaves is one only if both factors have one
    witnesses, missing = {}, {}
    for i, t in ((1, t1), (2, t2)):
        iso = classify_leaves(t).isolated_leaves
        packs = all_maximum_packings(t, timeout_ms=timeout_ms)
        if not witnesses:
            un = underlying_graph(t)
            for p in packs:
                if not validate.is_dominating_set(un, p):
                    witnesses[f"factor{i}_nondominating_packing"] = bitset.to_list(p)
                    break
        miss = next((p for p in packs if p & iso != iso), None)
        if miss is not None:
            missing[f"factor{i}_packing_missing_isolated"] = bitset.to_list(miss)
        extras[f"max_packings_T{i}"] = len(packs)
        extras[f"isolated_leaves_T{i}"] = bitset.to_list(iso)
        extras[f"all_T{i}_packings_contain_isolated"] = miss is None
    if len(missing) == 2:
        witnesses.update(missing)
    return _verdict(True, lhs, rhs, not witnesses, witnesses, extras=extras)


# ---------------------------------------------------------------------------
# Helly property of the in-neighborhood graphs (underlying girth >= 7)
# ---------------------------------------------------------------------------


def _helly(d: Digraph, closed: bool, hyp: bool, deadline: Deadline) -> dict:
    """Every maximal clique K of the closed (open) in-neighborhood graph sits
    inside some closed (open) out-neighborhood; ``hyp`` joins the girth
    hypothesis.  K lies in N+[w] exactly when w is in N-[v] for every v in
    K, so K counts as contained iff its members have a common closed (open)
    in-neighbor: the intersection of their N-[v] (N-(v)) is not empty.
    That is the Helly statement itself.  The girth search, the
    in-neighborhood graph's construction and the clique enumeration all
    stop at the one ``deadline``."""
    g = girth(underlying_graph(d), deadline=deadline)
    hypotheses_met = (g is None or g >= 7) and hyp
    aux = (closed_in_neighborhood_graph if closed else open_in_neighborhood_graph)(d, deadline)
    cliques = maximal_cliques(aux, deadline=deadline)
    hoods = [d.in_closed(v) for v in range(d.n)] if closed else d.in_adj
    contained = 0
    failing = None
    for k in cliques:
        common = bitset.full(d.n)
        for v in bitset.to_list(k):
            common &= hoods[v]
            if not common:
                break
        if common:
            contained += 1
        elif failing is None:
            failing = k
    witnesses = {} if failing is None else {"uncontained_clique": bitset.to_list(failing)}
    return _verdict(hypotheses_met, contained, len(cliques), failing is None, witnesses)


@_checker(CLAIM_CLOSED_HELLY, one_deadline=True)
def check_closed_helly_lemma(d: Digraph, *, deadline) -> dict:
    """Every maximal clique of the closed in-neighborhood graph sits inside
    some closed out-neighborhood (hypothesis: underlying girth >= 7)."""
    return _helly(d, True, True, deadline)


@_checker(CLAIM_OPEN_HELLY, one_deadline=True)
def check_open_helly_lemma(d: Digraph, *, deadline) -> dict:
    """Open variant: maximal cliques of the open in-neighborhood graph sit
    inside open out-neighborhoods (hypotheses: girth >= 7 and min in-degree
    >= 1, the setting in which total domination is defined)."""
    return _helly(d, False, d.min_in_degree >= 1, deadline)


# ---------------------------------------------------------------------------
# Open problem: packing vs domination on acyclic digraphs
# ---------------------------------------------------------------------------


def _check_acyclic_sizes(who: str, exhaustive: int, budget: int, max_n: int) -> None:
    """Refuse, before any record, acyclic search sizes that cannot run: the
    exhaustive walk covers every labeled DAG on up to min(exhaustive, max_n)
    vertices, so it stops at EXHAUSTIVE_DAG_LIMIT, and ``max_n``, the
    largest DAG's order, at MAX_VERTICES.  ``who`` names the caller."""
    walk_ok = min(exhaustive, max_n) <= families.EXHAUSTIVE_DAG_LIMIT
    if not (exhaustive >= 0 and budget >= 0 and 1 <= max_n <= MAX_VERTICES and walk_ok):
        raise ValueError(
            f"{who} wants exhaustive >= 0, random >= 0, n in 1..{MAX_VERTICES} and "
            f"min(exhaustive, n) <= {families.EXHAUSTIVE_DAG_LIMIT}; "
            f"got exhaustive={exhaustive}, random={budget}, n={max_n}"
        )


@_checker(CLAIM_ACYCLIC, name=lambda d, arcs, seed: arc_list_descriptor(d.n, arcs))
def _check_dag(d: Digraph, arcs: list, seed: Optional[int], *, timeout_ms) -> dict:
    """rho against gamma on one DAG, whose ``arcs`` name it and join the
    witnesses."""
    fields = _packing_vs_domination(d, True, timeout_ms)
    fields["witnesses"]["arcs"] = [list(a) for a in arcs]
    fields["seed"] = seed
    return fields


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
    as a ``fails`` record carrying both witnesses.  Sizes out of range raise
    ValueError at the call, naming ``exhaustive_n``, ``budget`` and ``max_n``
    as exhaustive, random and n.
    """
    _check_acyclic_sizes("acyclic search", exhaustive_n, budget, max_n)
    return (
        _check_dag(d, d.arcs(), inst_seed, timeout_ms=timeout_ms)
        for d, inst_seed in _acyclic_instances(max_n, budget, seed, exhaustive_n)
    )


def _acyclic_instances(
    max_n, budget, seed, exhaustive_n
) -> Iterator[tuple[Digraph, Optional[int]]]:
    """The acyclic search's DAGs with the seed that drew each (None for the
    exhaustive ones): every DAG on 1..min(exhaustive_n, max_n) vertices,
    then ``budget`` random DAGs drawn from ``seed``."""
    for n in range(1, min(exhaustive_n, max_n) + 1):
        for d in families.all_dags(n):
            yield d, None
    rng = random.Random(seed)
    for _ in range(budget):
        n = rng.randint(min(exhaustive_n, max_n) + 1, max_n) if max_n > exhaustive_n else max_n
        p = rng.uniform(0.1, 0.7)
        inst_seed = rng.getrandbits(32)
        yield families.random_dag(n, p, inst_seed), inst_seed


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
            sub = SuiteResult([r for r in self.records if r.claim == claim])
            detail = " ".join(f"{k}={v}" for k, v in sorted(sub.counts().items()))
            lines.append(f"  {claim}: {len(sub.records)} [{detail}]")
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
#   timeout_ms 60000          # per-solve deadline, product solves included,
#                             # and one per Helly check as a whole; a check
#                             # past it gives a timeout record
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
    checks: list[tuple[str, str, int]] = field(default_factory=list)  # (claim, source, line)


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
                config.timeout_ms = parse_timeout_ms(value)
            elif key == "out":
                config.out = value
            elif key == "check":
                claim, *source = value.split(None, 1)
                if claim not in ALL_CLAIMS:
                    raise ValueError(f"unknown claim {claim!r}")
                if not source:
                    raise ValueError("missing instance source")
                config.checks.append((claim, source[0], line_no))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise SuiteConfigError(f"line {line_no}: {exc}") from None
    return config


_PAIR_N = int(MAX_VERTICES**0.5)  # a random pair's largest n: every product fits


def _count_and_order(source: str, lowest: int, highest: int = MAX_VERTICES) -> tuple[int, int]:
    """``count`` and ``n`` of a random source ``kind:count=C,n=N``; a negative
    count, or an n outside the source's orders ``lowest..highest``, raises."""
    kv = families.parse_kv(source.split(":", 1)[1], "count,n")
    count, n = int(kv["count"]), int(kv["n"])
    if count < 0:
        raise SuiteConfigError(f"count must be >= 0, got {count} in {source!r}")
    if n < lowest:
        raise SuiteConfigError(f"n must be >= {lowest}, got {n} in {source!r}")
    if n > highest:
        raise SuiteConfigError(f"n must be <= {highest}, got {n} in {source!r}")
    return count, n


def _check_fits(order: int, what: str, source: str) -> None:
    """SuiteConfigError when ``source`` gives a digraph of ``order`` vertices
    over MAX_VERTICES; ``what`` names that digraph."""
    if order > MAX_VERTICES:
        raise SuiteConfigError(f"{what} order {order}, over capacity {MAX_VERTICES}, in {source!r}")


def _digraph_instances(source: str, rng: random.Random):
    """Yield (label, digraph) pairs for a single-digraph source."""
    if source.startswith("family:"):
        spec = source[len("family:") :]
        yield spec, families.build_family(spec)
    elif source.startswith(("enum-ditrees:", "enum-ditrees-min-indeg:")):
        kind, _, n_str = source.partition(":")
        n = int(n_str)
        for i, d in enumerate(families.enumerate_ditrees(n)):
            if kind == "enum-ditrees" or d.min_in_degree >= 1:
                yield f"{kind.replace('ditrees', 'ditree')}:n={n},i={i}", d
    elif source.startswith("random-ditrees:"):
        count, n_max = _count_and_order(source, 2)
        for _ in range(count):
            n = rng.randint(2, n_max)
            seed = rng.getrandbits(32)
            yield f"ditree:n={n},seed={seed}", families.random_ditree(n, seed)
    elif source.startswith("random-digraphs:"):
        count, n_max = _count_and_order(source, 1)
        for _ in range(count):
            n = rng.randint(1, n_max)
            p = rng.uniform(0.05, 0.9)
            seed = rng.getrandbits(32)
            label = f"random-digraph:n={n},p={p:.3f},seed={seed}"
            yield label, families.random_digraph(n, p, seed)
    else:
        raise SuiteConfigError(f"unusable digraph source {source!r}")


def _pair_instances(source: str, rng: random.Random):
    """Yield (label, digraph, digraph) for a pair source."""
    if ";" in source:
        raise SuiteConfigError(
            f"option {source[source.index(';'):]!r} is for {CLAIM_ISOLATED_LEAF} only"
        )
    if source.startswith("pair:"):
        left, sep, right = source[len("pair:") :].partition("|")
        if not sep:
            raise SuiteConfigError(f"pair source wants specL|specR, got {source!r}")
        g, h = families.build_family(left), families.build_family(right)
        _check_fits(g.n * h.n, "product", source)
        yield f"{left}|{right}", g, h
    elif source.startswith(("random-pairs:", "random-min-indeg-pairs:")):
        need_indeg = source.startswith("random-min-indeg-pairs:")
        lo = 2 if need_indeg else 1
        count, n_max = _count_and_order(source, lo, _PAIR_N)
        gen = families.random_digraph_min_indegree if need_indeg else families.random_digraph
        for _ in range(count):
            n1, n2 = rng.randint(lo, n_max), rng.randint(lo, n_max)
            p1, p2 = rng.uniform(0.15, 0.8), rng.uniform(0.15, 0.8)
            s1, s2 = rng.getrandbits(32), rng.getrandbits(32)
            label = f"random-pair:n={n1}/{n2},seed={s1}/{s2}"
            yield label, gen(n1, p1, s1), gen(n2, p2, s2)
    else:
        raise SuiteConfigError(f"unusable pair source {source!r}")


def default_attach_vertex(t: Digraph) -> int:
    """Lowest-index support vertex, falling back to vertex 0."""
    supports = classify_leaves(t).supports
    return (supports & -supports).bit_length() - 1 if supports else 0


def _attach_source(source: str, rng: random.Random):
    """A pair source with an optional ``;attach=K`` (default: the first
    factor's lowest support vertex).  The extended product T'□H has
    (n_T + 1)·n_H vertices, so a ``pair:`` source over capacity there, or a
    random one with n over 63, raises SuiteConfigError, as does a K outside
    a ``pair:`` source's first factor or outside a random source's 0..n-1.
    A random draw that lacks K gives its own error record."""
    source, sep, option = source.partition(";")
    attach = int(families.parse_kv(option, "attach")["attach"]) if sep else None
    if source.startswith("random-"):
        n_max = _count_and_order(source, 1, _PAIR_N - 1)[1]
        if sep and not 0 <= attach < n_max:
            raise SuiteConfigError(f"attach vertex {attach} is in no first factor of {source!r}")
    for label, a, b in _pair_instances(source, rng):
        at = default_attach_vertex(a) if attach is None else attach
        if source.startswith("pair:") and not 0 <= at < a.n:
            raise SuiteConfigError(f"attach vertex {at} is not a vertex of {label}'s first factor")
        _check_fits((a.n + 1) * b.n, "extended product", source)
        yield f"{label};attach={at}", a, b, at


def _m_source(source: str, rng: random.Random):
    if not source.startswith("m:"):
        raise SuiteConfigError(f"{CLAIM_GM_FAILURE} wants source m:1,2,..., got {source!r}")
    for m_str in source[2:].split(","):
        if not m_str.isdecimal() or int(m_str) < 1:
            raise SuiteConfigError(f"m must be a positive integer, got {m_str!r} in {source!r}")
        m = int(m_str)
        _check_fits((2 * m + 1) ** 2, f"m = {m_str} gives product", source)
        yield f"Gm:{m}|Gm:{m}", m


def _dags_source(source: str, rng: random.Random):
    if not source.startswith("dags:"):
        raise SuiteConfigError(f"{CLAIM_ACYCLIC} wants source dags:..., got {source!r}")
    kv = families.parse_kv(source[len("dags:") :], "exhaustive,random,n")
    exhaustive, budget = int(kv.get("exhaustive", "4")), int(kv.get("random", "0"))
    max_n = int(kv.get("n", "9"))
    _check_acyclic_sizes("dags", exhaustive, budget, max_n)
    yield f"dags:exhaustive={exhaustive},random={budget},n={max_n}", exhaustive, budget, max_n


@_checker(CLAIM_ACYCLIC)
def _fold_acyclic(exhaustive: int, budget: int, max_n: int, seed: int, *, timeout_ms) -> dict:
    """The acyclic search folded into one summary record carrying the first
    failure's witnesses; with no failure, any DAG past its deadline makes it
    a ``timeout`` record, since the equality was not checked there.  A search
    of no DAG checked nothing, so its record is ``hypothesis_not_met``.
    Each DAG is solved once and builds no record; the first whose rho
    differs from gamma gives the witnesses, as its ``_check_dag`` record
    would carry them.  The ``dags:`` source has checked the sizes."""
    holds = total = 0
    bad = None
    for d, _ in _acyclic_instances(max_n, budget, seed, exhaustive):
        total += 1
        try:
            gamma, dom, rho, pack = _solve_packing_vs_domination(d, True, timeout_ms)
        except SolveTimeout:
            continue
        if rho == gamma:
            holds += 1
        elif bad is None:
            bad = _packing_witnesses(pack, dom)
            bad["arcs"] = [list(a) for a in d.arcs()]
    if bad is None and holds < total:
        return dict(hypotheses_met=None, lhs=holds, rhs=total, verdict=TIMEOUT, seed=seed)
    return _verdict(total > 0, holds, total, bad is None, bad, seed=seed)


def _run_acyclic(config: SuiteConfig, label: str, *args) -> VerificationRecord:
    """The suite's run of the acyclic fold, the one claim given the suite's seed."""
    return _fold_acyclic(*args, config.seed, instance=label, timeout_ms=config.timeout_ms)


def _run_checker(name: str):
    """The suite's run of the public checker ``name``, looked up when the
    task runs, where a tracer may have wrapped it: the source's label names
    the record and the suite's deadline bounds it."""

    def run(config: SuiteConfig, label: str, *args) -> VerificationRecord:
        return globals()[name](*args, instance=label, timeout_ms=config.timeout_ms)

    return run


# claim -> (instance source, run).  A source yields one tuple per instance,
# its label first; each task calls run(config, label, *args).  Sources draw
# from the rng in a fixed order, which keeps suites reproducible from their
# seed.
_CLAIM_TABLE = {
    CLAIM_MEIR_MOON: (_digraph_instances, _run_checker("check_meir_moon")),
    CLAIM_DITREE_PACKING: (_digraph_instances, _run_checker("check_packing_equals_domination")),
    CLAIM_DITREE_OPEN_PACKING: (
        _digraph_instances,
        _run_checker("check_open_packing_equals_total_domination"),
    ),
    CLAIM_DIRECT_TOTAL: (_pair_instances, _run_checker("check_total_domination_direct_product")),
    CLAIM_PACKING_LOWER: (_pair_instances, _run_checker("check_packing_lower_bound")),
    CLAIM_VIZING: (_pair_instances, _run_checker("check_vizing_inequality")),
    CLAIM_HALF_VIZING: (_pair_instances, _run_checker("check_half_vizing_bound")),
    CLAIM_GM_FAILURE: (_m_source, _run_checker("check_Gm_vizing_failure")),
    CLAIM_C4_EQUALITY: (_digraph_instances, _run_checker("check_C4_equality")),
    CLAIM_STRONG_SUPPORT: (_pair_instances, _run_checker("check_strong_support_condition")),
    CLAIM_ISOLATED_LEAF: (_attach_source, _run_checker("check_isolated_leaf_extension")),
    CLAIM_MAX_PACKING: (_pair_instances, _run_checker("check_max_packing_dominates")),
    CLAIM_ACYCLIC: (_dags_source, _run_acyclic),
    CLAIM_CLOSED_HELLY: (_digraph_instances, _run_checker("check_closed_helly_lemma")),
    CLAIM_OPEN_HELLY: (_digraph_instances, _run_checker("check_open_helly_lemma")),
}

ALL_CLAIMS = tuple(_CLAIM_TABLE)


def build_tasks(config: SuiteConfig) -> list[SuiteTask]:
    """Expand configured checks into runnable suite tasks (deterministic
    given the config seed).  A source that cannot be expanded raises
    SuiteConfigError, naming its config line."""
    tasks: list[SuiteTask] = []
    for index, (claim, source, line) in enumerate(config.checks):
        # string seeding hashes via sha512: stable across platforms and runs
        rng = random.Random(f"{config.seed}:{index}:{claim}:{source}")
        instances, run = _CLAIM_TABLE[claim]
        try:
            for args in instances(source, rng):
                tasks.append(SuiteTask(claim, partial(run, config, *args), source))
        except ValueError as exc:  # SuiteConfigError included
            raise SuiteConfigError(f"line {line}: {exc}") from None
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
