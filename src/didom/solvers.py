"""Exact invariant solvers with witnesses.

Domination-type numbers reduce to minimum set cover over out-neighborhoods;
packing-type numbers reduce to maximum independent sets of the auxiliary
in-neighborhood graphs.  Every public function re-validates its witness
through :mod:`didom.validate`, and checks its size, before returning, and
`brute_force_invariant` provides a solver-independent oracle for small
instances.  Undirected graphs go through the digraph solvers as their
bidirected digraphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from time import monotonic, perf_counter
from typing import Optional

from didom import bitset, kernels, validate
from didom.auxgraph import closed_in_neighborhood_graph, open_in_neighborhood_graph
from didom.core import Digraph, UndirectedGraph
from didom.errors import CliqueLimitExceeded, SolveTimeout
from didom.records import digraph_descriptor

DEFAULT_TIMEOUT_MS = 60_000
BRUTE_FORCE_LIMIT = 24

STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_UNDEFINED = "undefined"


def _deadline(timeout_ms: Optional[float]) -> Optional[float]:
    return None if timeout_ms is None else monotonic() + timeout_ms / 1000.0


def min_set_cover(
    universe_size: int,
    sets: list[int],
    *,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Exact minimum set cover; None when the sets cannot cover the universe.

    Returns ``(size, chosen set indices)``.  A timeout raises SolveTimeout,
    which is a distinct outcome from infeasibility.
    """
    universe = bitset.full(universe_size)
    result = kernels.min_set_cover(sets, universe, _deadline(timeout_ms))
    if result is None:
        return None
    size, chosen = result
    if not validate.is_set_cover(sets, chosen, universe) or len(chosen) != size:
        raise AssertionError("cover witness failed re-validation")
    return size, chosen


def _cover(d, sets, timeout_ms, valid, what: str) -> tuple[int, int]:
    """Fewest vertices whose ``sets`` cover V(d), re-validated by ``valid``."""
    size, chosen = kernels.min_set_cover(sets, bitset.full(d.n), _deadline(timeout_ms))
    witness = bitset.from_iter(chosen)
    if not valid(d, witness) or witness.bit_count() != size:
        raise AssertionError(f"{what} witness failed re-validation")
    return size, witness


def _pack(g, aux: UndirectedGraph, timeout_ms, valid, what: str) -> tuple[int, int]:
    """A maximum independent set of ``aux``, re-validated by ``valid`` on g."""
    size, witness = kernels.max_independent_set(aux.adj, aux.n, _deadline(timeout_ms))
    if not valid(g, witness) or witness.bit_count() != size:
        raise AssertionError(f"{what} witness failed re-validation")
    return size, witness


def max_independent_set(
    g: UndirectedGraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    return _pack(g, g, timeout_ms, validate.is_independent_set, "independent-set")


def domination_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Minimum vertices whose closed out-neighborhoods cover V, plus witness."""
    sets = [d.out_closed(v) for v in range(d.n)]  # closed neighborhoods always cover
    return _cover(d, sets, timeout_ms, validate.is_dominating_set, "dominating")


def total_domination_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> Optional[tuple[int, int]]:
    """Minimum vertices whose open out-neighborhoods cover V.

    None when the minimum in-degree is 0 (no total dominating set exists).
    """
    if d.n == 0 or d.min_in_degree == 0:
        return None
    sets = [d.out_adj[v] for v in range(d.n)]
    return _cover(d, sets, timeout_ms, validate.is_total_dominating_set, "total dominating")


def packing_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint closed in-neighborhoods."""
    aux = closed_in_neighborhood_graph(d)
    return _pack(d, aux, timeout_ms, validate.is_packing, "packing")


def open_packing_number(
    d: Digraph, *, timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS
) -> tuple[int, int]:
    """Largest set of vertices with pairwise disjoint open in-neighborhoods."""
    aux = open_in_neighborhood_graph(d)
    return _pack(d, aux, timeout_ms, validate.is_open_packing, "open packing")


# An undirected graph reads as its bidirected digraph (see UndirectedGraph).


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
    d: Digraph,
    require_minimum: bool = False,
    *,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> Optional[tuple[int, int]]:
    """Partition V into two dominating sets, or None when impossible.

    Backtracking two-coloring: every closed in-neighborhood must meet both
    sides.  With ``require_minimum`` both sides must be minimum dominating
    sets, which forces n = 2*gamma.
    """
    n = d.n
    if n == 0:
        return 0, 0
    in_closed = [d.in_closed(v) for v in range(n)]
    if any(m.bit_count() < 2 for m in in_closed):
        return None
    cap = None
    if require_minimum:
        gamma, _ = domination_number(d, timeout_ms=timeout_ms)
        if n != 2 * gamma:
            return None
        cap = gamma
    deadline = _deadline(timeout_ms)
    full = bitset.full(n)
    ticks = [0]

    def feasible(side_a: int, side_b: int, assigned: int) -> bool:
        unassigned = full & ~assigned
        for m in in_closed:
            if not m & (side_a | unassigned):
                return False
            if not m & (side_b | unassigned):
                return False
        return True

    def search(v: int, side_a: int, side_b: int) -> Optional[tuple[int, int]]:
        ticks[0] += 1
        if deadline is not None and ticks[0] % 256 == 0 and monotonic() > deadline:
            raise SolveTimeout("partition search exceeded its deadline")
        if v == n:
            return side_a, side_b
        assigned = bitset.full(v + 1)
        for side in (0, 1):
            if v == 0 and side == 1:
                continue  # symmetry: vertex 0 goes to the first side
            a = side_a | (1 << v) if side == 0 else side_a
            b = side_b | (1 << v) if side == 1 else side_b
            if cap is not None and (a.bit_count() > cap or b.bit_count() > cap):
                continue
            if feasible(a, b, assigned):
                found = search(v + 1, a, b)
                if found is not None:
                    return found
        return None

    found = search(0, 0, 0)
    if found is None:
        return None
    side_a, side_b = found
    if not (validate.is_dominating_set(d, side_a) and validate.is_dominating_set(d, side_b)):
        raise AssertionError("partition side failed re-validation")
    return side_a, side_b


# ---------------------------------------------------------------------------
# Enumeration of all maximum packings (for the pairs-of-ditrees theorem).
# ---------------------------------------------------------------------------


def all_maximum_packings(
    d: Digraph,
    *,
    cap: int = 100_000,
    timeout_ms: Optional[float] = DEFAULT_TIMEOUT_MS,
) -> list[int]:
    """Every maximum packing of d, as bitmasks in ascending mask order."""
    aux = closed_in_neighborhood_graph(d)
    target, _ = max_independent_set(aux, timeout_ms=timeout_ms)
    out: list[int] = []

    def rec(avail: int, size: int, mask: int) -> None:
        if size == target:
            out.append(mask)
            if len(out) > cap:
                raise CliqueLimitExceeded(f"more than {cap} maximum packings")
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


def _timed_entry(solve) -> InvariantEntry:
    start = perf_counter()
    try:
        result = solve()
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
    report.gamma = _timed_entry(lambda: domination_number(d, timeout_ms=timeout_ms))
    report.gamma_t = _timed_entry(
        lambda: total_domination_number(d, timeout_ms=timeout_ms)
    )
    report.rho = _timed_entry(lambda: packing_number(d, timeout_ms=timeout_ms))
    report.rho_open = _timed_entry(
        lambda: open_packing_number(d, timeout_ms=timeout_ms)
    )
    if report.rho.status == STATUS_OK and report.gamma.status == STATUS_OK:
        if report.rho.value > report.gamma.value:
            raise AssertionError("packing number exceeds domination number")
    if report.rho_open.status == STATUS_OK and report.gamma_t.status == STATUS_OK:
        if report.rho_open.value > report.gamma_t.value:
            raise AssertionError("open packing number exceeds total domination number")
    return report
