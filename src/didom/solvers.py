"""Exact invariant solvers with witnesses.

Three solvers are the package's only route to the kernels:
``domination_number`` and ``total_domination_number`` reduce to minimum set
cover over out-neighborhoods, and ``packing_against`` is the one caller of
the independent-set kernel.  Every packing-type number, the target of
``all_maximum_packings`` included, is solved by ``packing_against``: a greedy
packing that meets an upper bound (gamma, the sorted in-neighborhood sizes,
or a clique cover of the auxiliary in-neighborhood graph read off the
in-neighborhoods without building that graph) is returned as it is, and
only otherwise is the packing a maximum independent set of that graph.
Every answer is ``(size, witness mask)``, and every kernel answer passes
one check, ``_checked``, which re-validates the witness through
:mod:`didom.validate` and its size before any caller sees it (a certified
greedy packing is validated before it is returned); `brute_force_invariant`
provides a solver-independent oracle for small instances.  Every solver
takes an optional ``errors.Deadline`` (None: no bound), which bounds all
its searches together and counts their nodes.  An undirected graph is a
symmetric digraph, so it goes through the digraph solvers as its
bidirected digraph.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from time import perf_counter
from typing import Optional

from didom import bitset, kernels, validate
from didom._bnb_py import _ordered_packing
from didom.auxgraph import closed_in_neighborhood_graph, open_in_neighborhood_graph
from didom.core import Digraph, UndirectedGraph
from didom.errors import CliqueLimitExceeded, Deadline, SolveTimeout
from didom.records import TIMEOUT, digraph_descriptor

DEFAULT_TIMEOUT_MS = 60_000
BRUTE_FORCE_LIMIT = 24
PACKING_CAP = 100_000  # all_maximum_packings raises past this many

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"


def parse_timeout_ms(text: str) -> float:
    """A deadline in ms, >= 0 (inf: none); nan or a negative value raises ValueError."""
    value = float(text)
    if not value >= 0:  # false for nan too
        raise ValueError(f"timeout_ms must be a number >= 0 or inf, got {text!r}")
    return value


def _checked(answer: tuple[int, int], valid, d: Digraph, what: str) -> tuple[int, int]:
    """A kernel's ``(size, witness mask)`` for d, once ``valid(d, witness)``
    holds and the witness has ``size`` members; otherwise AssertionError,
    raised explicitly so that it also fires under ``python -O``."""
    size, witness = answer
    if not valid(d, witness) or witness.bit_count() != size:
        raise AssertionError(f"{what} witness failed re-validation")
    return answer


def domination_number(d: Digraph, *, deadline: Optional[Deadline] = None) -> tuple[int, int]:
    """Minimum vertices whose closed out-neighborhoods cover V, plus witness."""
    sets = [m | 1 << v for v, m in enumerate(d.out_adj)]  # closed ones always cover
    answer = kernels.min_set_cover(sets, bitset.full(d.n), deadline)
    return _checked(answer, validate.is_dominating_set, d, "dominating")


def total_domination_number(
    d: Digraph, *, deadline: Optional[Deadline] = None
) -> Optional[tuple[int, int]]:
    """Minimum vertices whose open out-neighborhoods cover V.

    None when the minimum in-degree is 0 (no total dominating set exists).
    """
    if d.n == 0 or d.min_in_degree == 0:
        return None
    answer = kernels.min_set_cover(d.out_adj, bitset.full(d.n), deadline)
    return _checked(answer, validate.is_total_dominating_set, d, "total dominating")


def packing_number(d: Digraph, *, deadline: Optional[Deadline] = None) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint closed in-neighborhoods."""
    return packing_against(d, None, deadline=deadline)


def open_packing_number(d: Digraph, *, deadline: Optional[Deadline] = None) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint open in-neighborhoods."""
    return packing_against(d, None, closed=False, deadline=deadline)


def _hood_clique_cover(hoods: list[int], outs: list[int], most: int) -> int:
    """The number of cliques in the greedy clique cover of the
    in-neighborhood graph that the independent-set kernel's root computes:
    the lowest vertex v left, then each vertex left, in index order, whose
    hood meets the hoods of every member so far.  The graph is never built.
    The vertices whose hood meets u's are the out-neighbors (``outs``) of
    u's hood, so each new member narrows the candidates to those, reading
    its hood's ``outs`` only until they hold every candidate.  The count
    stops once it passes ``most``."""
    left = (1 << len(hoods)) - 1
    count = 0
    while left and count <= most:
        low = left & -left
        cand = left ^ low
        clique = low
        while cand:
            rem = hoods[low.bit_length() - 1]
            row = 0
            while rem and row != cand:
                bit = rem & -rem
                rem ^= bit
                row |= outs[bit.bit_length() - 1] & cand
            cand = row
            low = cand & -cand
            cand ^= low
            clique |= low
        left &= ~clique
        count += 1
    return count


def packing_against(
    d: Digraph, gamma: Optional[int], *, closed: bool = True, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    """A maximum packing (open packing unless ``closed``) of d, given its
    solved domination (total domination) number, or None when that is
    undefined or unsolved; every packing solve runs here.

    The packing number is alpha of the in-neighborhood graph, in which two
    vertices are adjacent when their closed (open) in-neighborhoods, their
    hoods, meet.  The greedy packing is the cover kernel's root packing,
    ``_bnb_py._ordered_packing``, of the hoods.  It is maximum when it meets
    an upper bound on the packing number, tried cheapest first:

    - gamma itself.  Weak duality: a dominating set meets every closed
      in-neighborhood and a packing's are disjoint, so rho <= gamma (and
      rho_o <= gamma_t, read openly).  A valid greedy packing above gamma
      raises AssertionError.
    - Sorted sizes: a packing's hoods are disjoint inside the union of all
      hoods (n in the closed case), so k is maximum when k = n or the
      k + 1 smallest in-neighborhoods overflow their union.
    - The greedy clique cover of the in-neighborhood graph
      (``_hood_clique_cover``), read off the hoods and the out-neighborhoods
      without building the graph: each clique holds at most one packed
      vertex.

    A greedy packing that meets a bound and validates is returned without
    building an auxiliary graph.  Otherwise the independent-set kernel
    solves the in-neighborhood graph, and a value above gamma raises."""
    n = d.n
    hoods = [m | 1 << v for v, m in enumerate(d.in_adj)] if closed else d.in_adj
    sizes = list(map(int.bit_count, hoods))
    pack = _ordered_packing(hoods, sizes, n)
    k = pack.bit_count()
    valid = validate.is_packing if closed else validate.is_open_packing
    certified = (
        gamma is not None and k >= gamma
        or k >= n
        or sum(sorted(sizes)[: k + 1]) > (n if closed else reduce(or_, hoods, 0).bit_count())
        or k >= _hood_clique_cover(
            hoods, [m | 1 << w for w, m in enumerate(d.out_adj)] if closed else d.out_adj, k
        )
    )
    if certified and valid(d, pack):
        rho = k
    else:
        aux = (closed_in_neighborhood_graph if closed else open_in_neighborhood_graph)(d)
        answer = kernels.max_independent_set(aux.adj, aux.n, deadline)
        what = "packing" if closed else "open packing"
        rho, pack = _checked(answer, valid, d, what)
    # an explicit test, not an assert, so that it also runs under -O
    if gamma is not None and rho > gamma:
        raise AssertionError(f"packing number {rho} exceeds its domination bound {gamma}")
    return rho, pack


# An undirected graph is its bidirected digraph (see UndirectedGraph).


def undirected_domination_number(
    g: UndirectedGraph, *, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    return domination_number(g, deadline=deadline)


def two_packing_number(
    g: UndirectedGraph, *, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    """Largest set with pairwise disjoint closed neighborhoods."""
    return packing_number(g, deadline=deadline)


def undirected_open_packing_number(
    g: UndirectedGraph, *, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    """Largest set of vertices no two of which share a common neighbor."""
    return open_packing_number(g, deadline=deadline)


# ---------------------------------------------------------------------------
# Brute-force oracle: subset enumeration straight from the definitions.
# ---------------------------------------------------------------------------

_BRUTE_PREDICATES = {
    "gamma": validate.is_dominating_set,
    "gamma_t": validate.is_total_dominating_set,
    "rho": validate.is_packing,
    "rho_open": validate.is_open_packing,
}


def brute_force_invariant(d: Digraph, which: str) -> Optional[int]:
    """Exact invariant by subset enumeration (n <= 24); no auxiliary graphs.

    Minimization invariants scan subset sizes upward, maximization downward;
    gamma_t returns None when no total dominating set exists.
    """
    if which not in _BRUTE_PREDICATES:
        raise ValueError(f"unknown invariant {which!r}")
    if d.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"n={d.n} exceeds brute-force bound {BRUTE_FORCE_LIMIT}")
    predicate = _BRUTE_PREDICATES[which]
    if which == "gamma_t" and (d.n == 0 or d.min_in_degree == 0):
        return None
    minimize = which in ("gamma", "gamma_t")
    sizes = range(0, d.n + 1) if minimize else range(d.n, -1, -1)
    for size in sizes:
        for combo in combinations(range(d.n), size):
            if predicate(d, bitset.from_iter(combo)):
                return size
    raise AssertionError("unreachable: the full vertex set always qualifies")


# ---------------------------------------------------------------------------
# Partition into two dominating sets (Lemma-7.1-style instances).
# ---------------------------------------------------------------------------


def partition_two_dominating_sets(
    d: Digraph, *, deadline: Optional[Deadline] = None
) -> Optional[tuple[int, int]]:
    """Partition V into two dominating sets, or None when impossible.

    Backtracking two-coloring in vertex order, first side first, vertex 0
    fixed on the first side: every closed in-neighborhood must meet both
    sides.  Each side has at least gamma vertices, so when n = 2*gamma every
    such partition is a partition into two minimum dominating sets.  Each
    node of the search polls ``deadline`` (None: no bound).
    """
    n = d.n
    in_closed = [d.in_closed(v) for v in range(n)]
    if any(m.bit_count() < 2 for m in in_closed):
        return None
    poll = Deadline().poll if deadline is None else deadline.poll
    full = bitset.full(n)

    def feasible(side_a: int, side_b: int, assigned: int) -> bool:
        unassigned = full & ~assigned
        for m in in_closed:
            if not m & (side_a | unassigned):
                return False
            if not m & (side_b | unassigned):
                return False
        return True

    # vertices below v are placed; try v on ``side`` (0: first, 1: second)
    side_a = side_b = 0
    v, side = 0, 0
    while v < n:
        poll()
        bit = 1 << v
        a, b = (side_a | bit, side_b) if side == 0 else (side_a, side_b | bit)
        if feasible(a, b, bitset.full(v + 1)):
            side_a, side_b, v, side = a, b, v + 1, 0
            continue
        while side == 1:  # back up past the vertices on the second side
            v -= 1
            side = side_b >> v & 1
        if v == 0:  # vertex 0 stays on the first side
            return None
        side_a &= bitset.full(v)
        side_b &= bitset.full(v)
        side = 1
    if not (validate.is_dominating_set(d, side_a) and validate.is_dominating_set(d, side_b)):
        raise AssertionError("partition side failed re-validation")
    return side_a, side_b


# ---------------------------------------------------------------------------
# Enumeration of all maximum packings (for the pairs-of-ditrees theorem).
# ---------------------------------------------------------------------------


def all_maximum_packings(d: Digraph, *, deadline: Optional[Deadline] = None) -> list[int]:
    """Every maximum packing of d, as bitmasks in ascending mask order; more
    than ``PACKING_CAP`` of them raise CliqueLimitExceeded.  The packing
    number comes from ``packing_against``, which gets the same ``deadline``
    (None: no bound), so it bounds the solve and the enumeration together
    and counts the nodes of both."""
    deadline = Deadline() if deadline is None else deadline
    target, _ = packing_against(d, None, deadline=deadline)
    deadline.poll()  # the root, a leaf only when d has no vertices
    if not target:
        return [0]
    adj = closed_in_neighborhood_graph(d).adj
    # the search path by depth k, the size of node k's packing: masks[k] is
    # that packing and avails[k] the vertices node k may still add.  Lists,
    # not the call stack, so no recursion limit bounds the depth.
    avails, masks = [bitset.full(d.n)] + [0] * target, [0] * (target + 1)
    out: list[int] = []
    k = 0
    while k >= 0:
        avail = avails[k]
        if k + avail.bit_count() < target:  # an empty avail included
            k -= 1
            continue
        low = avail & -avail
        avails[k] = avail ^ low
        deadline.poll()  # entering the child that adds low
        if k + 1 == target:
            out.append(masks[k] | low)
            if len(out) > PACKING_CAP:
                raise CliqueLimitExceeded(f"more than {PACKING_CAP} maximum packings")
            continue
        avails[k + 1] = avail & ~low & ~adj[low.bit_length() - 1]
        masks[k + 1] = masks[k] | low
        k += 1
    for p in out:
        if not validate.is_packing(d, p):
            raise AssertionError("enumerated packing failed re-validation")
    return sorted(out)


# ---------------------------------------------------------------------------
# Invariant reports.
# ---------------------------------------------------------------------------


def compute_invariants(
    d: Digraph,
    *,
    digraph_id: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
    include_timings: bool = True,
) -> dict:
    """The JSON object ``didom invariants`` prints: gamma, gamma_t, rho and
    open rho of d, each an entry ``{"status", "value", "witness"}`` (plus
    its ``elapsed_ms`` with ``include_timings``) whose status is ``ok``,
    ``timeout`` or ``undefined`` (no total dominating set).  Each entry is
    solved under its own ``Deadline`` of ``timeout_ms``."""

    def entry(solve, *args, **kwargs) -> dict:
        start = perf_counter()
        try:
            answer = solve(d, *args, deadline=Deadline(timeout_ms), **kwargs)
            status = STATUS_OK if answer else STATUS_UNDEFINED
        except SolveTimeout:
            answer, status = None, TIMEOUT
        elapsed_ms = round((perf_counter() - start) * 1e3, 3)
        value, witness = answer or (None, None)
        out = {"status": status, "value": value}
        out["witness"] = None if witness is None else bitset.to_list(witness)
        if include_timings:
            out["elapsed_ms"] = elapsed_ms
        return out

    report = {"digraph": digraph_id or digraph_descriptor(d), "n": d.n}
    report["gamma"] = entry(domination_number)
    report["gamma_t"] = entry(total_domination_number)
    report["rho"] = entry(packing_against, report["gamma"]["value"])
    report["rho_open"] = entry(packing_against, report["gamma_t"]["value"], closed=False)
    return report
