"""Exact invariant solvers with witnesses.

Domination-type numbers reduce to minimum set cover over out-neighborhoods;
packing-type numbers reduce to maximum independent sets of the auxiliary
in-neighborhood graphs.  Every answer is ``(size, witness mask)``, and
every kernel answer passes one check, ``_checked``, which re-validates the
witness through :mod:`didom.validate` and its size before any caller sees
it; `brute_force_invariant` provides a solver-independent oracle for small
instances.  An undirected graph is a symmetric digraph, so it goes through
the digraph solvers as its bidirected digraph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from time import perf_counter
from typing import Optional

from didom import bitset, kernels, validate
from didom.auxgraph import closed_in_neighborhood_graph, open_in_neighborhood_graph
from didom.core import Digraph, UndirectedGraph
from didom.errors import CliqueLimitExceeded, Deadline, SolveTimeout
from didom.records import digraph_descriptor

DEFAULT_TIMEOUT_MS = 60_000
BRUTE_FORCE_LIMIT = 24
PACKING_CAP = 100_000  # all_maximum_packings raises past this many

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_UNDEFINED = "undefined"


def parse_timeout_ms(text: str) -> float:
    """A deadline in ms, >= 0 (inf: none); nan or a negative value raises ValueError."""
    value = float(text)
    if not value >= 0:  # false for nan too
        raise ValueError(f"timeout_ms must be a number >= 0 or inf, got {text!r}")
    return value


def _checked(answer, valid, what: str):
    """A kernel's ``(size, witness mask)``, once ``valid(witness)`` holds and
    the witness has ``size`` members; otherwise AssertionError, raised
    explicitly so that it also fires under ``python -O``.  None, a cover
    that does not exist, passes through."""
    if answer is not None:
        size, witness = answer
        if not valid(witness) or witness.bit_count() != size:
            raise AssertionError(f"{what} witness failed re-validation")
    return answer


def min_set_cover(
    universe_size: int,
    sets: list[int],
    *,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> Optional[tuple[int, int]]:
    """Exact minimum set cover; None when the sets cannot cover the universe.

    Returns ``(size, chosen)``, bit i of ``chosen`` standing for ``sets[i]``.
    A timeout raises SolveTimeout, which is a distinct outcome from
    infeasibility.
    """
    universe = bitset.full(universe_size)
    answer = kernels.min_set_cover(sets, universe, Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_set_cover, sets, universe=universe), "cover")


def max_independent_set(
    g: UndirectedGraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    answer = kernels.max_independent_set(g.adj, g.n, Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_independent_set, g), "independent-set")


def domination_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Minimum vertices whose closed out-neighborhoods cover V, plus witness."""
    sets = [d.out_closed(v) for v in range(d.n)]  # closed neighborhoods always cover
    answer = kernels.min_set_cover(sets, bitset.full(d.n), Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_dominating_set, d), "dominating")


def total_domination_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> Optional[tuple[int, int]]:
    """Minimum vertices whose open out-neighborhoods cover V.

    None when the minimum in-degree is 0 (no total dominating set exists).
    """
    if d.n == 0 or d.min_in_degree == 0:
        return None
    answer = kernels.min_set_cover(d.out_adj, bitset.full(d.n), Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_total_dominating_set, d), "total dominating")


def packing_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint closed in-neighborhoods."""
    aux = closed_in_neighborhood_graph(d)
    answer = kernels.max_independent_set(aux.adj, aux.n, Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_packing, d), "packing")


def open_packing_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint open in-neighborhoods."""
    aux = open_in_neighborhood_graph(d)
    answer = kernels.max_independent_set(aux.adj, aux.n, Deadline(timeout_ms))
    return _checked(answer, partial(validate.is_open_packing, d), "open packing")


def _greedy_packing(d: Digraph, *, closed: bool = True) -> int:
    """A packing (an open packing unless ``closed``) as a bitmask, not
    necessarily maximum and not re-validated: the vertices in increasing
    order of (in-neighborhood size, index), each kept when its closed (open)
    in-neighborhood misses those of the vertices kept before it.  The cover
    kernels' root bound takes the elements in the same order."""
    hoods = [m | (1 << v) if closed else m for v, m in enumerate(d.in_adj)]
    kept = used = 0
    # the sort is stable, so ties stay in index order
    for v in sorted(range(d.n), key=lambda v: hoods[v].bit_count()):
        if not hoods[v] & used:
            used |= hoods[v]
            kept |= 1 << v
    return kept


def packing_against(
    d: Digraph, gamma: Optional[int], *, closed: bool = True, timeout_ms=DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """A maximum packing (open packing unless ``closed``) of d, given its
    solved domination (total domination) number, or None when that is
    undefined or unsolved.

    Weak duality: a dominating set meets every closed in-neighborhood and a
    packing's are disjoint, so rho <= gamma (and rho_o <= gamma_t, read
    openly).  A greedy packing that validates and has gamma vertices is
    therefore maximum; otherwise the exact solver runs, and a value above
    gamma raises AssertionError."""
    if gamma is not None:
        pack = _greedy_packing(d, closed=closed)
        valid = validate.is_packing if closed else validate.is_open_packing
        # explicit tests, not asserts, so they also run under -O
        if pack.bit_count() == gamma and valid(d, pack):
            return gamma, pack
    rho, pack = (packing_number if closed else open_packing_number)(d, timeout_ms=timeout_ms)
    if gamma is not None and rho > gamma:
        raise AssertionError(f"packing number {rho} exceeds its domination bound {gamma}")
    return rho, pack


# An undirected graph is its bidirected digraph (see UndirectedGraph).


def undirected_domination_number(
    g: UndirectedGraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    return domination_number(g, timeout_ms=timeout_ms)


def two_packing_number(
    g: UndirectedGraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set with pairwise disjoint closed neighborhoods."""
    return packing_number(g, timeout_ms=timeout_ms)


def undirected_open_packing_number(
    g: UndirectedGraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set of vertices no two of which share a common neighbor."""
    return open_packing_number(g, timeout_ms=timeout_ms)


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
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> Optional[tuple[int, int]]:
    """Partition V into two dominating sets, or None when impossible.

    Backtracking two-coloring in vertex order, first side first, vertex 0
    fixed on the first side: every closed in-neighborhood must meet both
    sides.  Each side has at least gamma vertices, so when n = 2*gamma every
    such partition is a partition into two minimum dominating sets.
    """
    n = d.n
    in_closed = [d.in_closed(v) for v in range(n)]
    if any(m.bit_count() < 2 for m in in_closed):
        return None
    deadline = Deadline(timeout_ms)
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
        deadline.poll()
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


def all_maximum_packings(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> list[int]:
    """Every maximum packing of d, as bitmasks in ascending mask order; more
    than ``PACKING_CAP`` of them raise CliqueLimitExceeded.  One deadline
    bounds the solve of the packing number and the enumeration after it."""
    deadline = Deadline(timeout_ms)
    aux = closed_in_neighborhood_graph(d)
    answer = kernels.max_independent_set(aux.adj, aux.n, deadline)
    target, _ = _checked(answer, partial(validate.is_packing, d), "packing")
    out: list[int] = []

    def rec(avail: int, size: int, mask: int) -> None:
        deadline.poll()
        if size == target:
            out.append(mask)
            if len(out) > PACKING_CAP:
                raise CliqueLimitExceeded(f"more than {PACKING_CAP} maximum packings")
            return
        while avail:
            if size + avail.bit_count() < target:
                return
            low = avail & -avail
            avail ^= low
            v = low.bit_length() - 1
            rec(avail & ~aux.adj[v], size + 1, mask | low)

    rec(bitset.full(d.n), 0, 0)
    for p in out:
        if not validate.is_packing(d, p):
            raise AssertionError("enumerated packing failed re-validation")
    return sorted(out)


# ---------------------------------------------------------------------------
# Invariant reports.
# ---------------------------------------------------------------------------


@dataclass
class InvariantEntry:
    status: str  # ok | timeout | undefined
    value: Optional[int] = None
    witness: Optional[int] = None  # bitmask
    elapsed_ms: float = 0.0

    def as_dict(self, include_timings: bool = True) -> dict:
        out: dict = {"status": self.status, "value": self.value}
        out["witness"] = None if self.witness is None else bitset.to_list(self.witness)
        if include_timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


@dataclass
class InvariantReport:
    """All computed invariants and witnesses for one digraph."""

    digraph_id: str
    n: int
    gamma: InvariantEntry = field(default_factory=lambda: InvariantEntry(STATUS_OK))
    gamma_t: InvariantEntry = field(default_factory=lambda: InvariantEntry(STATUS_OK))
    rho: InvariantEntry = field(default_factory=lambda: InvariantEntry(STATUS_OK))
    rho_open: InvariantEntry = field(default_factory=lambda: InvariantEntry(STATUS_OK))

    def as_dict(self, include_timings: bool = True) -> dict:
        return {
            "digraph": self.digraph_id,
            "n": self.n,
            "gamma": self.gamma.as_dict(include_timings),
            "gamma_t": self.gamma_t.as_dict(include_timings),
            "rho": self.rho.as_dict(include_timings),
            "rho_open": self.rho_open.as_dict(include_timings),
        }

    def to_json(self, include_timings: bool = True) -> str:
        return json.dumps(self.as_dict(include_timings), sort_keys=True)


def _timed_entry(solve, d, timeout_ms, *args, **kwargs) -> InvariantEntry:
    start = perf_counter()
    try:
        result = solve(d, *args, timeout_ms=timeout_ms, **kwargs)
    except SolveTimeout:
        return InvariantEntry(STATUS_TIMEOUT, elapsed_ms=(perf_counter() - start) * 1e3)
    elapsed = (perf_counter() - start) * 1e3
    if result is None:
        return InvariantEntry(STATUS_UNDEFINED, elapsed_ms=elapsed)
    value, witness = result
    return InvariantEntry(STATUS_OK, value, witness, elapsed)


def compute_invariants(
    d: Digraph,
    *,
    digraph_id: Optional[str] = None,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> InvariantReport:
    """Gamma, gamma_t, rho, and open rho with witnesses and per-solve timing."""
    report = InvariantReport(digraph_id or digraph_descriptor(d), d.n)
    report.gamma = _timed_entry(domination_number, d, timeout_ms)
    report.gamma_t = _timed_entry(total_domination_number, d, timeout_ms)
    report.rho = _timed_entry(packing_against, d, timeout_ms, report.gamma.value)
    report.rho_open = _timed_entry(
        packing_against, d, timeout_ms, report.gamma_t.value, closed=False
    )
    return report
