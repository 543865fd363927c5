/* Exact branch-and-bound kernels: a port of didom/_bnb_py.py to C99, bound
 * as didom._kernels by _kernels_build.py.  A set is an array of 64-bit words
 * sized per call, so any width works; Python passes sets as little-endian
 * bytes.  Branching, tie rules, reductions, bounds and incumbents are those
 * of the pure kernels, so both give the same optima and witnesses after the
 * same search nodes.  The cover search prunes with the conflict packing, a
 * packing of the residual instance (gamma >= rho) and that packing's
 * remainder term, which implies the size bound count + ceil(left / max_cov).
 * A greedy answer that meets a root bound (for covers the size bound, tested
 * before any element table is built, the conflict packing or the ordered
 * packing; for independent sets the clique cover) is optimal and is returned
 * without a search, after 0 nodes.  Under a deadline every node reads
 * CLOCK_MONOTONIC, the clock of Python's time.monotonic().  A call returns
 * the optimum size, INFEASIBLE, TIMED_OUT or NO_MEMORY, stores its node
 * count in *nodes and its witness in out, as little-endian bytes: the
 * chosen sets of a cover, the vertices of an independent set. */

/* clock_gettime and CLOCK_MONOTONIC are POSIX, outside strict C99 */
#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 199309L
#endif

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define INFEASIBLE (-1)
#define TIMED_OUT (-2)
#define NO_MEMORY (-3)

typedef uint64_t word;

#define BIT(i) ((word)1 << ((i) & 63))
#define HAS(a, i) (((a)[(i) >> 6] >> ((i) & 63)) & 1)
#define BYTES(n) ((size_t)(n) * sizeof(word))
#define FOR_W(n) for (int w = 0; w < (n); w++)
/* i runs over the members of a in increasing order; a may lose members
 * at or below i during the loop */
#define EACH(i, a, nw) for (int i = next_bit(a, nw, 0); i >= 0; i = next_bit(a, nw, i + 1))

typedef struct { double deadline; int64_t nodes; int timed_out; } Search;

/* Counts one search node; true once the deadline has passed. */
static int poll_deadline(Search *s) {
    struct timespec t;
    s->nodes++;
    if (s->deadline == INFINITY) return 0; /* no deadline */
    clock_gettime(CLOCK_MONOTONIC, &t);
    return s->timed_out = (double)t.tv_sec + (double)t.tv_nsec * 1e-9 > s->deadline;
}

/* The lowest member of a at or above from, or -1. */
static int next_bit(const word *a, int nw, int from) {
    int w = from >> 6;
    word x;
    if (w >= nw) return -1;
    for (x = a[w] & (~(word)0 << (from & 63)); !x; x = a[w])
        if (++w == nw) return -1;
    return (w << 6) | __builtin_ctzll(x);
}

static int any(const word *a, int nw) {
    FOR_W(nw) if (a[w]) return 1;
    return 0;
}

static int popcount_and(const word *a, const word *b, int nw) {
    int c = 0;
    FOR_W(nw) c += __builtin_popcountll(a[w] & b[w]);
    return c;
}

static void load(word *dst, const unsigned char *src, size_t nw) {
    for (size_t i = 0; i < nw; i++) {
        dst[i] = 0;
        for (int k = 7; k >= 0; k--) dst[i] = dst[i] << 8 | src[8 * i + k];
    }
}

/* The inverse of load: nw words as 8 * nw little-endian bytes. */
static void store(unsigned char *dst, const word *src, size_t nw) {
    for (size_t i = 0; i < 8 * nw; i++) dst[i] = (unsigned char)(src[i >> 3] >> (8 * (i & 7)));
}

/* ---- minimum set cover ------------------------------------------------- */

typedef struct {
    Search s;
    int ne, ns, n_sets, best; /* ne, ns: words per element set, per set-index set */
    word *masks;        /* set -> its elements */
    word *covers;       /* element -> the sets containing it */
    word *conflict;     /* element -> union of the sets containing it */
    word *frames;       /* per depth: uncovered, gone, avail, chosen, excl */
    int *cands;         /* branch candidates per depth */
    int *size;          /* set -> its coverage at the last subsumption pass */
    int *order, *order_cnt; /* packing bound: uncovered elements by live count */
    word *live, *check, *sup, *ci, *rem, *used, *best_chosen;
} Cover;

#define MASK(c, i) ((c)->masks + (size_t)(i) * (c)->ne)
#define COVERS(c, e) ((c)->covers + (size_t)(e) * (c)->ns)
#define FRAME(c, d) ((c)->frames + (size_t)(d) * (2 * (c)->ne + 3 * (c)->ns))

/* Elements no single set co-covers each need their own set: a greedy
 * packing of unc under the static conflict masks. */
static int conflict_bound(Cover *c, const word *unc) {
    const int ne = c->ne;
    int lb = 0;
    memcpy(c->rem, unc, BYTES(ne));
    EACH(e, c->rem, ne) {
        lb++;
        FOR_W(ne) c->rem[w] &= ~c->conflict[(size_t)e * ne + w];
    }
    return lb;
}

/* Sorts the elements of unc into c->order by increasing live count, the
 * number of their sets in avail (all of them when avail is NULL), ties in
 * element order as the pure kernel's stable sort keeps them; returns how
 * many there are. */
static int order_by_live_count(Cover *c, const word *unc, const word *avail) {
    int n_order = 0;
    EACH(e, unc, c->ne) {
        const word *cv = COVERS(c, e);
        int cnt = popcount_and(cv, avail ? avail : cv, c->ns), pos = n_order++;
        for (; pos > 0 && c->order_cnt[pos - 1] > cnt; pos--) {
            c->order[pos] = c->order[pos - 1];
            c->order_cnt[pos] = c->order_cnt[pos - 1];
        }
        c->order[pos] = e;
        c->order_cnt[pos] = cnt;
    }
    return n_order;
}

/* The root's packing bound: the elements of uni in order_by_live_count
 * order, each kept when its sets miss those of every element kept before
 * it.  Kept elements need pairwise distinct sets (gamma >= rho). */
static int ordered_packing(Cover *c, const word *uni) {
    const int ns = c->ns, n_order = order_by_live_count(c, uni, NULL);
    int kept = 0;
    memset(c->used, 0, BYTES(ns));
    for (int t = 0; t < n_order; t++) {
        const word *cv = COVERS(c, c->order[t]);
        int disjoint = 1;
        FOR_W(ns) disjoint &= !(cv[w] & c->used[w]);
        if (!disjoint) continue;
        FOR_W(ns) c->used[w] |= cv[w];
        kept++;
    }
    return kept;
}

/* The largest coverage among e's sets in avail, as of the last subsumption
 * pass. */
static int largest_live(const Cover *c, int e, const word *avail) {
    int top = 0;
    EACH(i, COVERS(c, e), c->ns) if (HAS(avail, i) && c->size[i] > top) top = c->size[i];
    return top;
}

/* gone: the elements covered since the last subsumption pass; gone_all
 * (every element) at the root, which has had no pass. */
static void cover_dfs(Cover *c, int d, int count, int gone_all) {
    const int ne = c->ne, ns = c->ns;
    word *unc = FRAME(c, d), *gone = unc + ne, *avail = gone + ne;
    word *chosen = avail + ns, *excl = chosen + ns, *child = FRAME(c, d + 1);
    int *cand = c->cands + (size_t)d * c->n_sets;
    int branch_e, max_cov = 0, left, n_order, kept, reach = 0, k = 0;

    if (poll_deadline(&c->s)) return;
    for (;;) {
        int forced = -1, dropped = 0;
        if (!any(unc, ne)) {
            if (count < c->best) {
                c->best = count;
                memcpy(c->best_chosen, chosen, BYTES(ns));
            }
            return;
        }
        /* Scan elements in increasing order: one with no live set ends the
         * branch, and the first with a single live set forces it. */
        memset(c->live, 0, BYTES(ns));
        EACH(e, unc, ne) {
            int cnt = popcount_and(COVERS(c, e), avail, ns);
            if (cnt == 0) return;
            if (cnt == 1) {
                FOR_W(ns) if (COVERS(c, e)[w] & avail[w])
                    forced = w << 6 | __builtin_ctzll(COVERS(c, e)[w] & avail[w]);
                break;
            }
            FOR_W(ns) c->live[w] |= COVERS(c, e)[w] & avail[w];
        }
        if (forced >= 0) {
            FOR_W(ne) {
                gone[w] |= MASK(c, forced)[w] & unc[w];
                unc[w] &= ~MASK(c, forced)[w];
            }
            chosen[forced >> 6] |= BIT(forced);
            avail[forced >> 6] &= ~BIT(forced);
            if (++count >= c->best) return;
            continue;
        }
        if (!gone_all && !any(gone, ne)) break; /* only drops since the last pass */
        /* Subsumption: a live set whose coverage lies inside another live
         * set's coverage is dropped (ties keep the lower index).  Only the
         * live sets that lost an element since the last pass are checked.
         * Every dropped set lies inside a kept one, so max_cov may count it. */
        max_cov = 0;
        EACH(i, c->live, ns) {
            c->size[i] = popcount_and(MASK(c, i), unc, ne);
            if (c->size[i] > max_cov) max_cov = c->size[i];
        }
        memcpy(c->check, c->live, BYTES(ns));
        if (!gone_all) {
            memset(c->check, 0, BYTES(ns));
            EACH(e, gone, ne) FOR_W(ns) c->check[w] |= COVERS(c, e)[w];
            FOR_W(ns) c->check[w] &= c->live[w];
        }
        memset(gone, 0, BYTES(ne));
        gone_all = 0;
        EACH(i, c->check, ns) {
            /* the live sets whose coverage contains c_i: the AND of the
             * covers of its elements, stopped once only i is left */
            FOR_W(ne) c->ci[w] = MASK(c, i)[w] & unc[w];
            memcpy(c->sup, c->live, BYTES(ns));
            EACH(e, c->ci, ne) {
                word others = 0;
                FOR_W(ns) {
                    c->sup[w] &= COVERS(c, e)[w];
                    others |= w == i >> 6 ? c->sup[w] & ~BIT(i) : c->sup[w];
                }
                if (!others) break;
            }
            c->sup[i >> 6] &= ~BIT(i);
            EACH(j, c->sup, ns) {
                int equal = 1;
                FOR_W(ne) equal &= (MASK(c, j)[w] & unc[w]) == c->ci[w];
                if (j < i || !equal) {
                    avail[i >> 6] &= ~BIT(i); /* i stays in live for this pass */
                    dropped = 1;
                    break;
                }
            }
        }
        if (!dropped) break;
    }
    /* Lower bounds, cheapest first: the conflict packing, then the residual
     * packing and its remainder. */
    if (count + conflict_bound(c, unc) >= c->best) return;
    left = popcount_and(unc, unc, ne);
    /* Packing bound, gamma >= rho on the residual instance: uncovered
     * elements whose live sets are pairwise disjoint each need their own
     * set.  Greedy over the elements insertion-sorted by live count, ties in
     * element order as in the pure kernel's levels; run only when the
     * conflict bound fails.  Each kept element adds the largest coverage
     * among its live sets to reach, for the remainder test below.  A valid
     * bound prunes no subtree holding a cover smaller than the incumbent,
     * so incumbents and witness are unchanged. */
    memset(c->used, 0, BYTES(ns));
    n_order = order_by_live_count(c, unc, avail);
    kept = count;
    for (int t = 0; t < n_order; t++) {
        const word *cv = COVERS(c, c->order[t]);
        int disjoint = 1;
        FOR_W(ns) disjoint &= !(cv[w] & avail[w] & c->used[w]);
        if (!disjoint) continue;
        FOR_W(ns) c->used[w] |= cv[w] & avail[w];
        if (++kept >= c->best) return;
        reach += largest_live(c, c->order[t], avail);
    }
    /* Remainder: the kept elements' sets cover at most reach elements, and
     * each further set at most max_cov.  As reach <= (kept - count) *
     * max_cov, it prunes wherever count + ceil(left / max_cov) would.  At
     * reach >= left the quotient is at most 0, so the test prunes exactly
     * where Python's ceiling does. */
    if (kept + (left - reach + max_cov - 1) / max_cov >= c->best) return;
    /* The branch element: of the elements with the fewest live sets, the
     * prefix of c->order in element order, the first whose largest live set
     * is largest. */
    branch_e = c->order[0];
    for (int t = 1, top = largest_live(c, branch_e, avail);
         t < n_order && c->order_cnt[t] == c->order_cnt[0]; t++) {
        int s = largest_live(c, c->order[t], avail);
        if (s > top) {
            top = s;
            branch_e = c->order[t];
        }
    }
    /* candidates in decreasing-coverage order, ties by index */
    EACH(i, COVERS(c, branch_e), ns) {
        int pos = k;
        if (!HAS(c->live, i)) continue;
        k++;
        for (; pos > 0 && c->size[cand[pos - 1]] < c->size[i]; pos--) cand[pos] = cand[pos - 1];
        cand[pos] = i;
    }
    memset(excl, 0, BYTES(ns));
    for (int t = 0; t < k && count + 1 < c->best; t++) {
        int i = cand[t];
        excl[i >> 6] |= BIT(i);
        FOR_W(ne) {
            child[ne + w] = MASK(c, i)[w] & unc[w]; /* the child's gone */
            child[w] = unc[w] & ~child[ne + w];
        }
        FOR_W(ns) {
            child[2 * ne + w] = avail[w] & ~excl[w];
            child[2 * ne + ns + w] = chosen[w];
        }
        child[2 * ne + ns + (i >> 6)] |= BIT(i);
        cover_dfs(c, d + 1, count + 1, 0);
        if (c->s.timed_out) return;
    }
}

/* out: the n_sets / 64 + 1 words of the chosen-set mask, as bytes */
int didom_min_set_cover(const unsigned char *universe, const unsigned char *masks,
                        int n_sets, int ne, double deadline, unsigned char *out, int64_t *nodes) {
    Cover c = {.s = {deadline, 0, 0}, .ne = ne, .ns = n_sets / 64 + 1, .n_sets = n_sets};
    const int ns = c.ns, n_el = 64 * ne;
    int max_size = 0;
    word *block = calloc((size_t)n_sets * ne + (size_t)n_el * (ns + ne) + 5 * ns + 3 * ne, sizeof(word));
    word *uni = block;
    int result = INFEASIBLE;

    if (!block) return NO_MEMORY;
    c.masks = uni + ne;
    c.covers = c.masks + (size_t)n_sets * ne;
    c.conflict = c.covers + (size_t)n_el * ns;
    c.live = c.conflict + (size_t)n_el * ne;
    c.check = c.live + ns;
    c.sup = c.check + ns;
    c.used = c.sup + ns;
    c.best_chosen = c.used + ns;
    c.ci = c.best_chosen + ns;
    c.rem = c.ci + ne;
    load(uni, universe, ne);
    load(c.masks, masks, (size_t)n_sets * ne);
    /* greedy incumbent: the set covering most uncovered elements, first on
     * ties; its first pick is a largest set; no pick: INFEASIBLE */
    for (memcpy(c.rem, uni, BYTES(ne)); any(c.rem, ne); c.best++) {
        int best_i = -1, best_cnt = 0;
        for (int i = 0; i < n_sets; i++)
            if (popcount_and(MASK(&c, i), c.rem, ne) > best_cnt) {
                best_cnt = popcount_and(MASK(&c, i), c.rem, ne);
                best_i = i;
            }
        if (best_i < 0) goto done;
        if (!max_size) max_size = best_cnt;
        c.best_chosen[best_i >> 6] |= BIT(best_i);
        FOR_W(ne) c.rem[w] &= ~MASK(&c, best_i)[w];
    }
    /* root certificate: a greedy cover that meets a lower bound is optimal,
     * so the search runs only when all three bounds fall below it; they are
     * tested cheapest first, and the size bound reads no table */
    if ((popcount_and(uni, uni, ne) + max_size - 1) / max_size >= c.best) goto answered;
    for (int i = 0; i < n_sets; i++)
        EACH(e, MASK(&c, i), ne) {
            COVERS(&c, e)[i >> 6] |= BIT(i);
            FOR_W(ne) c.conflict[(size_t)e * ne + w] |= MASK(&c, i)[w];
        }
    if (conflict_bound(&c, uni) >= c.best) goto answered;
    result = NO_MEMORY;
    /* a child is entered only below the incumbent size: depth < best */
    c.cands = malloc(((size_t)(c.best + 2) * n_sets + 2 * (size_t)n_el) * sizeof(int));
    if (!c.cands) goto done;
    c.size = c.cands + (size_t)(c.best + 1) * n_sets;
    c.order = c.size + n_sets;
    c.order_cnt = c.order + n_el;
    if (ordered_packing(&c, uni) < c.best) {
        c.frames = calloc((size_t)(c.best + 1) * (2 * ne + 3 * ns), sizeof(word));
        if (!c.frames) goto done;
        memcpy(c.frames, uni, BYTES(ne));
        for (int i = 0; i < n_sets; i++) c.frames[2 * ne + (i >> 6)] |= BIT(i);
        cover_dfs(&c, 0, 0, 1);
    }
answered:
    *nodes = c.s.nodes;
    result = c.s.timed_out ? TIMED_OUT : c.best;
    store(out, c.best_chosen, ns);
done:
    free(block);
    free(c.frames);
    free(c.cands);
    return result;
}

/* ---- maximum independent set ------------------------------------------- */

typedef struct {
    Search s;
    int nw, best;
    word *adj, *closed, *frames, *rem, *cand, *best_mask; /* frames: avail, mask */
} Mis;

#define ADJ(m, v) ((m)->adj + (size_t)(v) * (m)->nw)
#define CLOSED(m, v) ((m)->closed + (size_t)(v) * (m)->nw)

/* Greedy clique cover of avail: each clique grows from the lowest vertex
 * left by adding the lowest common neighbour. */
static int clique_cover_bound(Mis *m, const word *avail) {
    const int nw = m->nw;
    int cnt = 0;
    memcpy(m->rem, avail, BYTES(nw));
    EACH(v, m->rem, nw) {
        m->rem[v >> 6] &= ~BIT(v);
        FOR_W(nw) m->cand[w] = m->rem[w] & ADJ(m, v)[w];
        EACH(u, m->cand, nw) {
            m->rem[u >> 6] &= ~BIT(u);
            FOR_W(nw) m->cand[w] &= ADJ(m, u)[w];
        }
        cnt++;
    }
    return cnt;
}

/* Branching on the maximum-degree vertex (take first), with degree <= 1
 * reductions. */
static void mis_dfs(Mis *m, int d, int size) {
    const int nw = m->nw;
    word *avail = m->frames + (size_t)d * 2 * nw, *mask = avail + nw, *child = mask + nw;
    int best_v = -1, best_d = -1, v;

    if (poll_deadline(&m->s)) return;
    for (;;) {
        for (v = next_bit(avail, nw, 0); v >= 0; v = next_bit(avail, nw, v + 1))
            if (popcount_and(ADJ(m, v), avail, nw) <= 1) break;
        if (v < 0) break;
        FOR_W(nw) avail[w] &= ~CLOSED(m, v)[w];
        mask[v >> 6] |= BIT(v);
        size++;
    }
    if (!any(avail, nw)) {
        if (size > m->best) {
            m->best = size;
            memcpy(m->best_mask, mask, BYTES(nw));
        }
        return;
    }
    if (size + clique_cover_bound(m, avail) <= m->best) return;
    EACH(u, avail, nw) {
        int deg = popcount_and(ADJ(m, u), avail, nw);
        if (deg > best_d) {
            best_d = deg;
            best_v = u;
        }
    }
    FOR_W(nw) {
        child[w] = avail[w] & ~CLOSED(m, best_v)[w];
        child[nw + w] = mask[w];
    }
    child[nw + (best_v >> 6)] |= BIT(best_v);
    mis_dfs(m, d + 1, size + 1);
    if (m->s.timed_out) return;
    memcpy(child, avail, BYTES(2 * nw));
    child[best_v >> 6] &= ~BIT(best_v);
    mis_dfs(m, d + 1, size);
}

int didom_max_independent_set(const unsigned char *adj, int n, double deadline,
                              unsigned char *out, int64_t *nodes) {
    Mis m = {.s = {deadline, 0, 0}, .nw = (n + 63) / 64};
    const int nw = m.nw;
    /* each child has fewer available vertices: depth <= n */
    word *block = calloc((size_t)nw * (2 * n + 2 * (n + 1) + 3), sizeof(word));

    if (!block) return NO_MEMORY;
    m.adj = block;
    m.closed = m.adj + (size_t)n * nw;
    m.frames = m.closed + (size_t)n * nw;
    m.rem = m.frames + (size_t)(n + 1) * 2 * nw;
    m.cand = m.rem + nw;
    m.best_mask = m.cand + nw;
    load(m.adj, adj, (size_t)n * nw);
    memcpy(m.closed, m.adj, BYTES((size_t)n * nw));
    for (int v = 0; v < n; v++) {
        CLOSED(&m, v)[v >> 6] |= BIT(v);
        m.rem[v >> 6] |= BIT(v);
        m.frames[v >> 6] |= BIT(v);
    }
    /* greedy incumbent: repeatedly take a minimum-degree vertex */
    for (; any(m.rem, nw); m.best++) {
        int best_v = -1, best_d = n + 1;
        EACH(v, m.rem, nw)
            if (popcount_and(ADJ(&m, v), m.rem, nw) < best_d) {
                best_d = popcount_and(ADJ(&m, v), m.rem, nw);
                best_v = v;
            }
        m.best_mask[best_v >> 6] |= BIT(best_v);
        FOR_W(nw) m.rem[w] &= ~CLOSED(&m, best_v)[w];
    }
    /* root certificate: a greedy set that meets the clique cover is maximum */
    if (clique_cover_bound(&m, m.frames) > m.best) mis_dfs(&m, 0, 0);
    *nodes = m.s.nodes;
    store(out, m.best_mask, nw);
    free(block);
    return m.s.timed_out ? TIMED_OUT : m.best;
}
