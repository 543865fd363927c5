"""Pure-Python exact branch-and-bound kernels.

This is the reference backend.  ``_bnb.c``, built as ``didom._kernels``,
ports it line for line to C: both accept bitsets of any width and follow
the same branching, tie-breaking, reductions and bounds, so they return
identical optima and witnesses after identical numbers of search nodes.
A change to the search here must be made there too.

Both kernels first check their greedy answer against a root bound.  An
answer that meets it is optimal and is returned without a search, after 0
search nodes; the deadline is read only by search nodes, so such a solve
never times out.
"""

from __future__ import annotations

from time import monotonic
from typing import Optional, Sequence

from didom import bitset
from didom.errors import SolveTimeout


class _Deadline:
    """Checked once per search node; a set deadline reads the clock every
    time, so a timeout stops within one node of it."""

    __slots__ = ("at",)

    def __init__(self, at: Optional[float]):
        self.at = at

    def poll(self) -> None:
        if self.at is not None and monotonic() > self.at:
            raise SolveTimeout("solve exceeded its deadline")


def _greedy_cover(masks: Sequence[int], universe: int) -> list[int]:
    chosen = []
    uncovered = universe
    while uncovered:
        best_i = -1
        best_c = 0
        for i, m in enumerate(masks):
            c = (m & uncovered).bit_count()
            if c > best_c:
                best_c = c
                best_i = i
        chosen.append(best_i)
        uncovered &= ~masks[best_i]
    return chosen


def _conflict_bound(uncovered: int, conflict: Sequence[int]) -> int:
    """Elements no single set co-covers each need their own set: a greedy
    packing of ``uncovered`` under the static ``conflict`` masks."""
    lb = 0
    while uncovered:
        low = uncovered & -uncovered
        lb += 1
        uncovered &= ~conflict[low.bit_length() - 1]
    return lb


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[float] = None
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Exact minimum cover of ``universe`` by the given bitmask sets.

    Returns ``(size, sorted set indices)``, or None when even the union of
    all sets misses an element.  Branching: take the uncovered element with
    the fewest live covering sets, try those sets in decreasing-coverage
    order, and exclude each tried set from later branches.

    A set is live when it is still available and covers some uncovered
    element.  Every available set that contains an uncovered element e is
    therefore live, so e's live count is the popcount of
    ``covers[e] & avail`` and the live sets are the union of those masks
    over the uncovered elements.  The search works on these set-index
    masks rather than testing set by set.

    Subsumption is incremental.  Along a branch the uncovered elements and
    the available sets only shrink, so every coverage only shrinks.  After
    a pass, no live set is subsumed.  A live set k whose coverage c_k has
    lost no element since then still is not: a subsuming c_j' ⊆ c_j would
    have let that pass drop k already.  So a pass checks only the live
    sets that contain an element covered since the previous pass (all of
    them at the root).  A pass whose drops cover no element enables no
    further drops, so after it the search re-scans for forced sets and
    runs another pass only if a forced pick covered something.

    Lower bounds, in order of cost: the static ``conflict`` masks (elements
    no single set co-covers), ⌈|uncovered| / max_cov⌉, and, only when both
    fail to prune, a packing of the residual instance.  The packing takes
    the uncovered elements in increasing order of (live count, index) and
    keeps each one whose live sets miss those of every element kept so far.
    Kept elements need pairwise distinct sets, so ``count + kept`` bounds
    every cover below the node; this is the paper's γ ≥ ρ.  Every bound is
    valid, so it prunes only subtrees holding no cover smaller than the
    incumbent: the incumbents found, and with them the witness, are those
    of a search without it.  Only the node count falls.

    Root certificate: before any search, the greedy cover is compared with
    the larger of two root bounds, the conflict packing of the universe
    (γ ≥ ρ) and ⌈|universe| / largest set⌉.  A greedy cover that meets it is
    optimal and is returned after 0 search nodes.  The search would have
    kept it too, since it replaces the incumbent only by a smaller cover.
    """
    if universe == 0:
        return 0, ()
    masks = [m & universe for m in masks]
    union = 0
    for m in masks:
        union |= m
    if universe & ~union:
        return None

    n_sets = len(masks)
    width = universe.bit_length()
    covers = [0] * width  # element -> bitmask over the sets containing it
    conflict = [0] * width  # element -> union of all sets containing it
    max_size = 0
    for i, m in enumerate(masks):
        bit = 1 << i
        rem = m
        while rem:
            low = rem & -rem
            rem ^= low
            e = low.bit_length() - 1
            covers[e] |= bit
            conflict[e] |= m
        if m.bit_count() > max_size:
            max_size = m.bit_count()

    greedy = _greedy_cover(masks, universe)
    best = [len(greedy), tuple(sorted(greedy))]
    # Root certificate: a greedy cover that meets a lower bound is optimal.
    simple = -(-universe.bit_count() // max_size)
    if max(_conflict_bound(universe, conflict), simple) >= best[0]:
        return best[0], best[1]
    dl = _Deadline(deadline)

    def dfs(uncovered: int, avail: int, chosen: int, count: int, gone: int) -> None:
        # gone: the elements covered since the last subsumption pass; -1
        # (every element) at the root, which has had no pass.
        dl.poll()
        while True:
            if not uncovered:
                if count < best[0]:
                    best[0] = count
                    best[1] = tuple(bitset.to_list(chosen))
                return
            # Scan elements in increasing order: one with no live set ends
            # the branch, the first with a single live set forces it, and
            # otherwise the first with the fewest is the branch element.
            forced = 0
            branch_cnt = n_sets + 1
            branch_e = -1
            live = 0
            rem = uncovered
            while rem:
                low = rem & -rem
                rem ^= low
                e = low.bit_length() - 1
                cand = covers[e] & avail
                cnt = cand.bit_count()
                if cnt < branch_cnt:
                    if cnt <= 1:
                        if not cnt:
                            return
                        forced = cand
                        break
                    branch_cnt = cnt
                    branch_e = e
                live |= cand
            if forced:
                picked = masks[forced.bit_length() - 1] & uncovered
                chosen |= forced
                count += 1
                gone |= picked
                uncovered &= ~picked
                avail &= ~forced
                if count >= best[0]:
                    return
                continue
            if not gone:
                # Only drops since the last pass: it stands, cov_of and
                # max_cov included, and no further set can be dropped.
                break
            # Subsumption: a live set whose coverage lies inside another live
            # set's coverage can be dropped (ties keep the lower index).  The
            # sets whose coverage contains c_i are those covering each
            # element of c_i: the AND of their covers masks.  Only sets that
            # lost an element since the last pass are checked.  Every
            # dropped set lies inside a kept one, so max_cov may include it.
            cov_of = {}
            max_cov = 0
            a = live
            while a:
                low = a & -a
                a ^= low
                i = low.bit_length() - 1
                ci = masks[i] & uncovered
                cov_of[i] = ci
                if ci.bit_count() > max_cov:
                    max_cov = ci.bit_count()
            if gone < 0:
                check = live
            else:
                check = 0
                while gone:
                    low = gone & -gone
                    gone ^= low
                    check |= covers[low.bit_length() - 1]
                check &= live
            gone = 0
            dropped = 0
            while check:
                bit = check & -check
                check ^= bit
                ci = cov_of[bit.bit_length() - 1]
                sup = live
                c = ci
                while c and sup != bit:
                    low = c & -c
                    c ^= low
                    sup &= covers[low.bit_length() - 1]
                sup ^= bit
                while sup:
                    low = sup & -sup
                    sup ^= low
                    if low < bit or cov_of[low.bit_length() - 1] != ci:
                        dropped |= bit
                        break
            if dropped:
                avail &= ~dropped
                continue
            break
        # Lower bound: the conflict packing, or count/max-size.
        lb = _conflict_bound(uncovered, conflict)
        simple = -(-uncovered.bit_count() // max_cov)
        if simple > lb:
            lb = simple
        if count + lb >= best[0]:
            return
        # Packing bound (see the docstring): only where the cheap bounds
        # fail, since the many tiny covers would pay for the sort.
        order = []
        rem = uncovered
        while rem:
            low = rem & -rem
            rem ^= low
            e = low.bit_length() - 1
            cand = covers[e] & avail
            order.append((cand.bit_count(), e, cand))
        order.sort()
        used = 0
        kept = count
        for _, _, cand in order:
            if not cand & used:
                used |= cand
                kept += 1
                if kept >= best[0]:
                    return
        cands = bitset.to_list(live & covers[branch_e])
        cands.sort(key=lambda i: (-cov_of[i].bit_count(), i))
        excl = 0
        for i in cands:
            excl |= 1 << i
            if count + 1 < best[0]:
                picked = masks[i] & uncovered
                dfs(
                    uncovered & ~picked, avail & ~excl, chosen | (1 << i),
                    count + 1, picked,
                )

    dfs(universe, (1 << n_sets) - 1, 0, 0, -1)
    return best[0], best[1]


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[float] = None
) -> tuple[int, int]:
    """Exact maximum independent set; returns ``(size, witness bitmask)``.

    Branching on the maximum-degree vertex (take first), with greedy
    clique-cover upper bounds and degree<=1 reductions.  A greedy set as
    large as the clique cover of the whole graph (α ≤ the clique-cover
    number) is maximum and is returned after 0 search nodes.
    """
    if n == 0:
        return 0, 0
    closed = [adj[v] | (1 << v) for v in range(n)]
    dl = _Deadline(deadline)

    # Greedy incumbent: repeatedly take a minimum-degree vertex.
    avail = (1 << n) - 1
    g_mask = 0
    g_size = 0
    while avail:
        best_v = -1
        best_d = n + 1
        rem = avail
        while rem:
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            d = (adj[v] & avail).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        g_mask |= 1 << best_v
        g_size += 1
        avail &= ~closed[best_v]
    best = [g_size, g_mask]

    def clique_cover_bound(avail: int) -> int:
        cnt = 0
        rem = avail
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            clique = low
            cand = rem & adj[v]
            while cand:
                lu = cand & -cand
                clique |= lu
                cand &= adj[lu.bit_length() - 1]
            rem &= ~clique
            cnt += 1
        return cnt

    def dfs(avail: int, size: int, mask: int) -> None:
        dl.poll()
        while True:
            changed = False
            rem = avail
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                if (adj[v] & avail).bit_count() <= 1:
                    avail &= ~closed[v]
                    size += 1
                    mask |= low
                    changed = True
                    break
            if not changed:
                break
        if not avail:
            if size > best[0]:
                best[0] = size
                best[1] = mask
            return
        if size + clique_cover_bound(avail) <= best[0]:
            return
        best_v = -1
        best_d = -1
        rem = avail
        while rem:
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            d = (adj[v] & avail).bit_count()
            if d > best_d:
                best_d = d
                best_v = v
        dfs(avail & ~closed[best_v], size + 1, mask | (1 << best_v))
        dfs(avail & ~(1 << best_v), size, mask)

    # Root certificate: a greedy set that meets the clique cover is maximum.
    if clique_cover_bound((1 << n) - 1) > best[0]:
        dfs((1 << n) - 1, 0, 0)
    return best[0], best[1]
