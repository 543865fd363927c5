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
from its word arrays; the independent-set search names its branching
vertex in its last reduction scan, where the C kernel scans once more; and
both keep their search path in a list where the C kernels recurse, so no
recursion limit bounds their depth.  Each kernel takes an
``errors.Deadline`` (None: no bound) and polls it once per search node, so
the caller reads the search's node count off the deadline it passed, as it
does for the C kernels.

Both kernels first check their greedy answer against a root bound.  An
answer that meets it is optimal and is returned without a search, after 0
search nodes; the deadline is read only by search nodes, so such a solve
never times out.
"""

from __future__ import annotations

from typing import Optional, Sequence

from didom import bitset
from didom.errors import Deadline


def _greedy_cover(masks: Sequence[int], universe: int) -> Optional[tuple[int, int]]:
    """The mask of the sets greedy picks, each time the first set covering
    the most uncovered elements, and the size of its first pick, a largest
    set; None when no set covers an element left uncovered."""
    chosen = largest = 0
    uncovered = universe
    while uncovered:
        best_i = -1
        best_c = 0
        for i, m in enumerate(masks):
            c = (m & uncovered).bit_count()
            if c > best_c:
                best_c = c
                best_i = i
        if best_i < 0:
            return None
        largest = largest or best_c
        chosen |= 1 << best_i
        uncovered &= ~masks[best_i]
    return chosen, largest


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
    """The root's packing bound, as the mask of the kept elements: the
    ``left`` elements with the least counts, in increasing order of
    (``cnt``, index), each kept when its sets miss those of every element
    kept before it.  Kept elements need pairwise distinct sets (γ ≥ ρ).
    ``solvers.packing_against`` takes its greedy packing from it too."""
    used = kept = 0
    for e in sorted(range(len(cnt)), key=cnt.__getitem__)[:left]:
        if not covers[e] & used:
            used |= covers[e]
            kept |= 1 << e
    return kept


def min_set_cover(
    masks: Sequence[int], universe: int, deadline: Optional[Deadline] = None
) -> Optional[tuple[int, int]]:
    """Exact minimum cover of ``universe`` by the given bitmask sets.

    Returns ``(size, chosen)``, where bit i of the mask ``chosen`` stands
    for set i, or None when even the union of all sets misses an element.
    Branching: take an uncovered element with the fewest live covering
    sets, among those the one whose largest live set covers the most
    uncovered elements, then the lowest index; try its sets in
    decreasing-coverage order, and exclude each tried set from later
    branches.  Favouring large sets is the usual lever for exact dominating
    set (van Rooij & Bodlaender, Discrete Appl. Math. 2011).

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
    three root bounds, cheapest first: ⌈|universe| / largest set⌉, read off
    greedy's first pick before ``covers`` and ``conflict`` are built, then
    the conflict packing of the universe (γ ≥ ρ), and, only when both fall
    short, the ordered packing: the elements in increasing order of (number
    of sets holding them, index), each kept when its sets miss those of the
    elements kept before it.  That is the search's packing bound over the
    whole instance.  On closed out-neighbourhoods an element's sets are its
    closed in-neighbourhood, so this is the greedy packing that
    ``solvers.packing_against`` tries first.  A greedy cover that meets a
    bound is optimal and is returned after 0 search nodes.  The search would
    have kept it too, since it replaces the incumbent only by a smaller cover.
    """
    if universe == 0:
        return 0, 0
    masks = [m & universe for m in masks]
    greedy = _greedy_cover(masks, universe)
    if greedy is None:
        return None
    chosen, max_size = greedy
    best = [chosen.bit_count(), chosen]
    # Root certificate: a greedy cover that meets a lower bound is optimal.
    left = universe.bit_count()
    if -(-left // max_size) >= best[0]:
        return best[0], best[1]
    width = universe.bit_length()
    covers = [0] * width  # element -> bitmask over the sets containing it
    conflict = [0] * width  # element -> union of all sets containing it
    for i, m in enumerate(masks):
        bit = 1 << i
        rem = m
        while rem:
            low = rem & -rem
            rem ^= low
            e = low.bit_length() - 1
            covers[e] |= bit
            conflict[e] |= m
    if _conflict_bound(universe, conflict) >= best[0]:
        return best[0], best[1]
    done = len(masks) + 1  # cnt of an element with nothing left to cover
    cnt = [c.bit_count() or done for c in covers]
    if _ordered_packing(covers, cnt, left).bit_count() >= best[0]:
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

    def enter(
        uncovered: int, avail: int, chosen: int, count: int, stale: int,
        cnt: list, size: list,
    ) -> Optional[list]:
        """One search node: its forced picks, subsumption drops and bounds.
        Returns the node's frame, ``[uncovered, avail, chosen, count, cnt,
        size, cands]`` with the branch sets ``cands`` in reverse trial
        order, or None when the node is a leaf or pruned."""
        # stale: the sets that lost an element since the last subsumption
        # pass, whose size that pass has yet to recount; every set at the
        # root, which has had no pass.
        poll()
        # An element with no live set ends the branch, the first with a
        # single live set forces it, and otherwise the branch element is
        # one with the fewest, named after the bounds.  ``fewest`` is the
        # least count.  A pick covers elements, which may hold it, so it is
        # recounted; a drop only lowers the counts of the dropped sets'
        # elements.
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
        order = sorted(range(width), key=cnt.__getitem__)
        for e in order[:left]:
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
        # The branch element: of the elements with the fewest live sets,
        # the order's prefix in index order, the first whose largest live
        # set is largest.  None is larger than max_cov.
        branch = order[0]
        if left > 1 and cnt[order[1]] == fewest:
            top = 0
            for e in order:
                if cnt[e] != fewest or top == max_cov:
                    break
                s = 0
                for i in members[e] or bitset.to_list(covers[e]):
                    if size[i] > s:
                        s = size[i]
                if s > top:
                    top = s
                    branch = e
        cands = bitset.to_list(avail & covers[branch])
        # decreasing coverage; the stable sort keeps ties in index order
        cands.sort(key=size.__getitem__, reverse=True)
        cands.reverse()
        return [uncovered, avail, chosen, count, cnt, size, cands]

    # The search path, one frame per node whose branch sets are still being
    # tried: lists, not the call stack, so no recursion limit bounds the
    # depth.  A child starts from copies of its parent's tables, so the
    # parent excludes the child's set for the later siblings at once.
    all_sets = (1 << len(masks)) - 1
    root = enter(universe, all_sets, 0, 0, all_sets, cnt, [0] * len(masks))
    path = [] if root is None else [root]
    while path:
        frame = path[-1]
        uncovered, avail, chosen, count, cnt, size, cands = frame
        if not cands or count + 1 >= best[0]:
            path.pop()
            continue
        i = cands.pop()
        child_cnt = cnt[:]
        picked, touched = take(i, uncovered, child_cnt)
        child = enter(
            uncovered ^ picked, avail, chosen | (1 << i), count + 1,
            touched, child_cnt, size[:],
        )
        # later siblings exclude set i
        frame[1] = avail ^ (1 << i)
        size[i] = 0
        rem = masks[i] & uncovered
        while rem:
            low = rem & -rem
            rem ^= low
            cnt[low.bit_length() - 1] -= 1
        if child is not None:
            path.append(child)
    return best[0], best[1]


def max_independent_set(
    adj: Sequence[int], n: int, deadline: Optional[Deadline] = None
) -> tuple[int, int]:
    """Exact maximum independent set; returns ``(size, witness bitmask)``.

    Branching on the maximum-degree vertex (take first), with greedy
    clique-cover upper bounds and degree<=1 reductions.  A greedy set as
    large as the clique cover of the whole graph (α ≤ the clique-cover
    number) is maximum and is returned after 0 search nodes.  Each
    reduction pass scans the available vertices once: the first vertex of
    degree <= 1 is taken, and a pass that finds none names the branching
    vertex, the first of maximum degree.
    """
    if n == 0:
        return 0, 0
    closed = [adj[v] | (1 << v) for v in range(n)]
    poll = Deadline().poll if deadline is None else deadline.poll

    # Greedy incumbent: repeatedly take a minimum-degree vertex.
    every = (1 << n) - 1
    avail = every
    best_mask = 0
    best_size = 0
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
        best_mask |= 1 << best_v
        best_size += 1
        avail &= ~closed[best_v]

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

    # The nodes still to enter, as (avail, size, mask): each node pushes its
    # exclude child under its take child, so they are entered in the C
    # kernel's preorder.  Root certificate: a greedy set that meets the
    # clique cover is maximum, and the list starts empty.
    pending = [(every, 0, 0)] if clique_cover_bound(every) > best_size else []
    while pending:
        avail, size, mask = pending.pop()
        poll()
        # the pass that finds no vertex of degree <= 1 leaves best_v set
        while True:
            best_v = -1
            best_d = -1
            rem = avail
            while rem:
                low = rem & -rem
                rem ^= low
                v = low.bit_length() - 1
                d = (adj[v] & avail).bit_count()
                if d <= 1:
                    avail &= ~closed[v]
                    size += 1
                    mask |= low
                    break
                if d > best_d:
                    best_d = d
                    best_v = v
            else:
                break
        if not avail:
            if size > best_size:
                best_size = size
                best_mask = mask
            continue
        if size + clique_cover_bound(avail) <= best_size:
            continue
        pending.append((avail & ~(1 << best_v), size, mask))
        pending.append((avail & ~closed[best_v], size + 1, mask | (1 << best_v)))
    return best_size, best_mask
