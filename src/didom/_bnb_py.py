"""Pure-Python exact branch-and-bound kernels.

This is the reference backend.  ``_bnb.c``, built as ``didom._kernels``,
runs the same search in C: both accept bitsets of any width and follow
the same branching, tie-breaking, reductions and bounds, so they return
identical optima and witnesses after identical numbers of search nodes.
Every witness is a mask: bit i of a cover stands for set i, bit v of an
independent set for vertex v.
A change to the search here must be made there too.  The two are not
line-for-line twins: the pure cover search keeps per-node tables of live
counts and coverage sizes, which the C kernel recomputes at every node
from its word arrays.  Each kernel takes an ``errors.Deadline`` (None: no
bound) and polls it once per search node, so the caller reads the search's
node count off the deadline it passed, as it does for the C kernels.

Both kernels first check their greedy answer against a root bound.  An
answer that meets it is optimal and is returned without a search, after 0
search nodes; the deadline is read only by search nodes, so such a solve
never times out.
"""

from __future__ import annotations

from typing import Optional, Sequence

from didom import bitset
from didom.errors import Deadline


def _greedy_cover(masks: Sequence[int], universe: int) -> int:
    """The mask of the sets greedy picks: each time, the first set that
    covers the most uncovered elements."""
    chosen = 0
    uncovered = universe
    while uncovered:
        best_i = -1
        best_c = 0
        for i, m in enumerate(masks):
            c = (m & uncovered).bit_count()
            if c > best_c:
                best_c = c
                best_i = i
        chosen |= 1 << best_i
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


def _ordered_packing(covers: Sequence[int], cnt: Sequence[int], left: int) -> int:
    """The root's packing bound: the ``left`` elements with a count, in
    increasing order of (``cnt``, index), each kept when its sets miss
    those of every element kept before it.  Kept elements need pairwise
    distinct sets (γ ≥ ρ)."""
    used = kept = 0
    for e in sorted(range(len(cnt)), key=cnt.__getitem__)[:left]:
        if not covers[e] & used:
            used |= covers[e]
            kept += 1
    return kept


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[Deadline] = None
) -> Optional[tuple[int, int]]:
    """Exact minimum cover of ``universe`` by the given bitmask sets.

    Returns ``(size, chosen)``, where bit i of the mask ``chosen`` stands
    for set i, or None when even the union of all sets misses an element.
    Branching: take the uncovered element with the fewest live covering
    sets, try those sets in decreasing-coverage order, and exclude each
    tried set from later branches.

    A set is available until it is picked, dropped or excluded, and live
    while it is available and covers some uncovered element.  The
    available sets that contain an uncovered element e are live, so the
    search reads e's live sets off ``covers[e] & avail`` and never needs
    the dead ones out of ``avail``.  Each search node keeps three tables
    instead of recounting them: ``avail``; ``cnt[e]``, the number of live
    sets that contain the uncovered element e (``done`` for an element that
    is covered or outside the universe); and ``size[i]``, the coverage
    |c_i| of set i, 0 once i is not live.  A pick, a subsumption drop or a
    sibling's exclusion updates the entries it changes, and every child
    starts from copies.  A pick only marks the sets that lost an element:
    the subsumption pass that follows every pick recounts their sizes
    before anything reads them.

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
    no single set co-covers) and, only when they fail to prune, a packing of
    the residual instance.  The packing takes the uncovered elements in
    increasing order of (live count, index) and keeps each one whose live
    sets miss those of every element kept so far.  Kept elements need
    pairwise distinct sets, so ``count + kept`` bounds every cover below the
    node; this is the paper's γ ≥ ρ.  When the packing ends without a prune,
    its remainder is tested: a cover takes a distinct set for each kept
    element e, and those sets cover at most ``reach``, the sum over kept e
    of the largest |c_i| among e's live sets; every other set covers at most
    max_cov of the rest.  So ``count + kept + ⌈(|uncovered| − reach) /
    max_cov⌉`` bounds every cover below the node too.  As reach ≤
    kept·max_cov, this is at least ``count + ⌈|uncovered| / max_cov⌉``, so
    that size bound would prune nothing more and is not tested.  Every bound
    is valid, so it prunes only subtrees holding no cover smaller than the
    incumbent: the incumbents found, and with them the witness, are those of
    a search without it.  Only the node count falls.

    Root certificate: before any search, the greedy cover is compared with
    three root bounds, cheapest first: the conflict packing of the universe
    (γ ≥ ρ), ⌈|universe| / largest set⌉, and, only when both fall short,
    the ordered packing: the elements in increasing order of (number of
    sets holding them, index), each kept when its sets miss those of the
    elements kept before it.  That is the search's packing bound over the
    whole instance, and on closed out-neighbourhoods it is the packing that
    ``solvers._greedy_packing`` builds.  A greedy cover that meets a bound is
    optimal and is returned after 0 search nodes.  The search would have
    kept it too, since it replaces the incumbent only by a smaller cover.
    """
    if universe == 0:
        return 0, 0
    masks = [m & universe for m in masks]
    union = 0
    for m in masks:
        union |= m
    if universe & ~union:
        return None

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
    best = [greedy.bit_count(), greedy]
    # Root certificate: a greedy cover that meets a lower bound is optimal.
    left = universe.bit_count()
    if max(_conflict_bound(universe, conflict), -(-left // max_size)) >= best[0]:
        return best[0], best[1]
    done = len(masks) + 1  # cnt of an element with nothing left to cover
    cnt = [c.bit_count() or done for c in covers]
    if _ordered_packing(covers, cnt, left) >= best[0]:
        return best[0], best[1]
    members = [None] * width  # element -> its sets, listed on first use
    poll = Deadline().poll if deadline is None else deadline.poll

    def take(i: int, uncovered: int, cnt: list) -> tuple[int, int]:
        """Cover set i's uncovered elements, which leave ``cnt``.  Returns
        them and the sets that held one of them."""
        picked = masks[i] & uncovered
        touched = 0
        rem = picked
        while rem:
            low = rem & -rem
            rem ^= low
            e = low.bit_length() - 1
            cnt[e] = done
            touched |= covers[e]
        return picked, touched

    def dfs(
        uncovered: int, avail: int, chosen: int, count: int, stale: int,
        cnt: list, size: list,
    ) -> None:
        # stale: the sets that lost an element since the last subsumption
        # pass, whose size that pass has yet to recount; every set at the
        # root, which has had no pass.
        poll()
        # An element with no live set ends the branch, the first with a
        # single live set forces it, and otherwise the first with the fewest
        # is the branch element.  ``fewest`` is the least count.  A pick
        # covers elements, which may hold it, so it is recounted; a drop
        # only lowers the counts of the dropped sets' elements.
        fewest = min(cnt)
        while True:
            if not uncovered:
                if count < best[0]:
                    best[0] = count
                    best[1] = chosen
                return
            if fewest <= 1:
                if not fewest:
                    return
                forced = covers[cnt.index(1)] & avail
                picked, touched = take(forced.bit_length() - 1, uncovered, cnt)
                uncovered ^= picked
                chosen |= forced
                count += 1
                stale |= touched
                if count >= best[0]:
                    return
                fewest = min(cnt)
                continue
            if not stale:
                # Only drops since the last pass: it stands, and no further
                # set can be dropped.
                break
            # Subsumption: a live set whose coverage lies inside another live
            # set's coverage can be dropped (ties keep the lower index).  The
            # sets whose coverage contains c_i are those covering each
            # element of c_i: the AND of their covers masks; such a set
            # equals c_i exactly when its size does.  Only the stale sets
            # are checked, from the highest index down, so each one's size
            # is recounted before a lower-index set compares with it.
            check = stale & avail
            stale = 0
            dropped = 0
            lost = 0  # the elements of the dropped sets
            while check:
                i = check.bit_length() - 1
                bit = 1 << i
                check ^= bit
                ci = masks[i] & uncovered
                s = ci.bit_count()
                size[i] = s
                if not s:
                    continue
                sup = avail
                c = ci
                while c and sup != bit:
                    low = c & -c
                    c ^= low
                    sup &= covers[low.bit_length() - 1]
                sup ^= bit
                while sup:
                    low = sup & -sup
                    sup ^= low
                    if low < bit or size[low.bit_length() - 1] != s:
                        dropped |= bit
                        lost |= ci
                        break
            if dropped:
                avail ^= dropped
                while dropped:
                    low = dropped & -dropped
                    dropped ^= low
                    size[low.bit_length() - 1] = 0
                while lost:
                    low = lost & -lost
                    lost ^= low
                    e = low.bit_length() - 1
                    c = (covers[e] & avail).bit_count()
                    cnt[e] = c
                    if c < fewest:
                        fewest = c
                continue
            break
        # Lower bounds: the conflict packing, then the residual packing
        # and its remainder.
        if count + _conflict_bound(uncovered, conflict) >= best[0]:
            return
        left = uncovered.bit_count()
        # Packing bound (see the docstring): only where the conflict bound
        # fails, since the many tiny covers would pay for the sort.  The
        # sort is stable, and covered elements (``done``) sort last.
        used = 0
        kept = count
        reach = 0
        for e in sorted(range(width), key=cnt.__getitem__)[:left]:
            cand = covers[e] & avail
            if not cand & used:
                used |= cand
                kept += 1
                if kept >= best[0]:
                    return
                # a set that is not live has size 0, so the largest size
                # among e's sets is that of its largest live set
                top = 0
                sets = members[e]
                if sets is None:
                    sets = members[e] = bitset.to_list(covers[e])
                for i in sets:
                    if size[i] > top:
                        top = size[i]
                reach += top
        # Remainder: the kept elements' sets cover at most ``reach``
        # elements, and each further set at most max_cov.
        max_cov = max(size)
        if kept - (reach - left) // max_cov >= best[0]:
            return
        cands = bitset.to_list(avail & covers[cnt.index(fewest)])
        # decreasing coverage; the stable sort keeps ties in index order
        cands.sort(key=size.__getitem__, reverse=True)
        for i in cands:
            if count + 1 >= best[0]:
                break
            child_cnt = cnt[:]
            picked, touched = take(i, uncovered, child_cnt)
            dfs(
                uncovered ^ picked, avail, chosen | (1 << i), count + 1,
                touched, child_cnt, size[:],
            )
            # later siblings exclude set i
            avail ^= 1 << i
            size[i] = 0
            rem = masks[i] & uncovered
            while rem:
                low = rem & -rem
                rem ^= low
                cnt[low.bit_length() - 1] -= 1

    all_sets = (1 << len(masks)) - 1
    dfs(universe, all_sets, 0, 0, all_sets, cnt, [0] * len(masks))
    return best[0], best[1]


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[Deadline] = None
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
    poll = Deadline().poll if deadline is None else deadline.poll

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
        # Each pass of the outer loop is one search node.  The take branch
        # recurses; the exclude branch, the last thing a node does, runs as
        # the next pass in this frame, so the depth grows only with the
        # vertices taken, not with those excluded.
        while True:
            poll()
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
            avail &= ~(1 << best_v)

    # Root certificate: a greedy set that meets the clique cover is maximum.
    if clique_cover_bound((1 << n) - 1) > best[0]:
        dfs((1 << n) - 1, 0, 0)
    return best[0], best[1]
