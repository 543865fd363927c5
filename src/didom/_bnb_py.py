"""Pure-Python exact branch-and-bound kernels.

This is the reference backend: it accepts bitsets of any width.  The
compiled backend in ``didom._kernels`` mirrors the branching and
tie-breaking rules below exactly, so both return identical optima and
identical witnesses on the instances they share.
"""

from __future__ import annotations

from time import monotonic
from typing import Optional, Sequence

from didom import bitset
from didom.errors import SolveTimeout

POLL_INTERVAL = 4096


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, at: Optional[float]):
        self.at = at
        self.ticks = 0

    def poll(self) -> None:
        self.ticks += 1
        if self.ticks >= POLL_INTERVAL:
            self.ticks = 0
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


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[float] = None
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Exact minimum cover of ``universe`` by the given bitmask sets.

    Returns ``(size, sorted set indices)``, or None when even the union of
    all sets misses an element.  Branching: take the uncovered element with
    the fewest live covering sets, try those sets in decreasing-coverage
    order, and exclude each tried set from later branches.
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
    covers = {}  # element -> bitmask over set indices
    conflict = {}  # element -> union of all sets containing it
    rem = universe
    while rem:
        low = rem & -rem
        rem ^= low
        e = low.bit_length() - 1
        cov = 0
        conf = 0
        for i in range(n_sets):
            if masks[i] >> e & 1:
                cov |= 1 << i
                conf |= masks[i]
        covers[e] = cov
        conflict[e] = conf

    greedy = _greedy_cover(masks, universe)
    best = [len(greedy), tuple(sorted(greedy))]
    dl = _Deadline(deadline)

    def dfs(uncovered: int, avail: int, chosen: int, count: int) -> None:
        dl.poll()
        while True:
            if not uncovered:
                if count < best[0]:
                    best[0] = count
                    best[1] = tuple(bitset.to_list(chosen))
                return
            # Scan elements: dead branch, forced set, or min-coverage branch
            # element.  Counting stops early once a count cannot win.
            forced = -1
            branch_cnt = n_sets + 1
            branch_e = -1
            rem2 = uncovered
            while rem2:
                low2 = rem2 & -rem2
                rem2 ^= low2
                e = low2.bit_length() - 1
                cand = covers[e] & avail
                cnt = 0
                last = -1
                while cand:
                    lc = cand & -cand
                    cand ^= lc
                    i = lc.bit_length() - 1
                    if masks[i] & uncovered:
                        cnt += 1
                        last = i
                        if cnt >= 2 and cnt >= branch_cnt:
                            break
                if cnt == 0:
                    return
                if cnt == 1:
                    forced = last
                    break
                if cnt < branch_cnt:
                    branch_cnt = cnt
                    branch_e = e
            if forced >= 0:
                chosen |= 1 << forced
                count += 1
                uncovered &= ~masks[forced]
                avail &= ~(1 << forced)
                if count >= best[0]:
                    return
                continue
            # Subsumption: a live set whose coverage lies inside another live
            # set's coverage can be dropped (ties keep the lower index).
            live = []
            cov_of = {}
            a = avail
            while a:
                la = a & -a
                a ^= la
                i = la.bit_length() - 1
                c = masks[i] & uncovered
                if c:
                    live.append(i)
                    cov_of[i] = c
            dropped = 0
            max_cov = 0
            for i in live:
                ci = cov_of[i]
                for j in live:
                    if j == i:
                        continue
                    cj = cov_of[j]
                    if ci & ~cj == 0 and (ci != cj or j < i):
                        dropped |= 1 << i
                        break
                else:
                    if ci.bit_count() > max_cov:
                        max_cov = ci.bit_count()
            if dropped:
                avail &= ~dropped
                continue
            break
        # Lower bound: elements no single set co-covers each need their own
        # set (conflict masks are a static relaxation), or count/max-size.
        lb = 0
        rem2 = uncovered
        while rem2:
            low2 = rem2 & -rem2
            e = low2.bit_length() - 1
            lb += 1
            rem2 &= ~conflict[e]
        simple = -(-uncovered.bit_count() // max_cov)
        if simple > lb:
            lb = simple
        if count + lb >= best[0]:
            return
        cands = [i for i in live if not dropped >> i & 1 and cov_of[i] >> branch_e & 1]
        cands.sort(key=lambda i: (-cov_of[i].bit_count(), i))
        excl = 0
        for i in cands:
            excl |= 1 << i
            if count + 1 < best[0]:
                dfs(uncovered & ~masks[i], avail & ~excl, chosen | (1 << i), count + 1)

    dfs(universe, (1 << n_sets) - 1, 0, 0)
    return best[0], best[1]


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[float] = None
) -> tuple[int, int]:
    """Exact maximum independent set; returns ``(size, witness bitmask)``.

    Branching on the maximum-degree vertex (take first), with greedy
    clique-cover upper bounds and degree<=1 reductions.
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

    dfs((1 << n) - 1, 0, 0)
    return best[0], best[1]
