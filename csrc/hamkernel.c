/* Hamilton-cycle search of a graph through prescribed paths, in C99.
 *
 * A port of GraphEnum in src/bipham/hamkernel/_pure.py, which documents the
 * search instance and the incremental starvation prune.  Both kernels try
 * candidates in the same order, yield the same cycles, count the same
 * nodes, candidates and rejections and trip a node cap at the same node;
 * tests/test_kernel.py holds them to that.  bipham.hamkernel builds this
 * file on first import and calls it through ctypes: hk_new_graph,
 * hk_next_cycle and hk_free are the whole interface.
 *
 * A search runs over a graph whose vertices are covered by items, free
 * vertices and prescribed paths.  hk_new_graph builds the items' port masks
 * from the allowed edges, as _ports in _pure.py does; hk_next enumerates
 * the item cycles the masks admit, and hk_next_cycle decodes each one into
 * a vertex cycle by _decode's orientation DP, dropping the candidates that
 * no orientation closes.
 *
 * A set of items is an array of w = ceil(n / 64) 64-bit words, bit x of
 * word x / 64 standing for item x, so any n >= 3 is supported.  The search
 * is a resumable state machine: hk_next returns after each cycle, at a
 * spent node cap or at the end of the search, and the next call resumes it.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t word;

#define HAS(set, x) ((int)((set)[(x) >> 6] >> ((x) & 63) & 1))
#define FLIP(set, x) ((set)[(x) >> 6] ^= (word)1 << ((x) & 63))
#define SET(set, x) ((set)[(x) >> 6] |= (word)1 << ((x) & 63))

/* "starving" below: the vertices that a step out of a node would starve,
 * as NOBODY, one vertex id, or MANY for two or more */
#define NOBODY (-1)
#define MANY (-2)

static int popcount(word x)
{
#ifdef __GNUC__
    return __builtin_popcountll(x);
#else
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
#endif
}

static int lowest(word x) /* x != 0 */
{
#ifdef __GNUC__
    return __builtin_ctzll(x);
#else
    int c = 0;
    for (; !(x & 1); x >>= 1)
        c++;
    return c;
#endif
}

struct hk {
    int n, w, start, break_mirror; /* n: the number of items */
    const int *ranks; /* NULL: no waypoints */
    unsigned char *dirv;
    word *pa, *pb, *umask;
    word *cands, *visited; /* cands: w words per depth */
    int *path, *need_stack, *starving_stack;
    /* the search's registers between two calls */
    int depth, need, starving, close_a, close_b, yielded;
    int64_t nodes;
    /* item i is the vertex sequence seq[off[i]] .. seq[off[i + 1] - 1];
     * adj holds the allowed graph's nv rows of wv words; icycle and dp are
     * the decoder's scratch */
    int nv, wv;
    word *adj;
    int *seq, *off, *icycle;
    unsigned char *dp;
    int64_t candidates, rejected;
};

#define FIRST(h, i) ((h)->seq[(h)->off[i]])
#define LAST(h, i) ((h)->seq[(h)->off[(i) + 1] - 1])

/* Item i's end x is joined to an end of item j: port A of i offers j when
 * x is i's first vertex, port B when it is i's last (both for a free
 * vertex). */
static void join(struct hk *h, int i, int x, int j)
{
    if (x == FIRST(h, i))
        SET(h->pa + (size_t)i * h->w, j);
    if (x == LAST(h, i))
        SET(h->pb + (size_t)i * h->w, j);
}

/* A search for the Hamilton cycles of a graph on nv vertices through k >= 3
 * items, copying its inputs: m edges as 2 * m vertex ids, the items' vertex
 * sequences one after another in seq, with item i at seq[off[i]] ..
 * seq[off[i + 1] - 1], k directed flags and k waypoint ranks or NULL.  The
 * caller checks that every id lies in 0..nv-1, that no vertex is on two
 * items or twice on one, and that 0 <= start < k.  A port of an item offers
 * the items that an allowed edge joins end to end with the port's end, the
 * item itself left out; a path interior is no item's end.  NULL if out of
 * memory. */
struct hk *hk_new_graph(int nv, int m, const int *edges, int k, const int *seq,
                        const int *off, const unsigned char *dirv,
                        const int *ranks, int start, int break_mirror)
{
    const int w = (k + 63) / 64, wv = (nv + 63) / 64, len = off[k];
    const size_t kw = (size_t)k * w;
    struct hk *h;
    word *pa, *pb, *umask;
    int *owner, e, i, v, starved = NOBODY;

    /* one block: the word arrays pa, pb, umask, cands, visited and adj, the
     * int arrays path, need_stack, starving_stack, seq, off, icycle, owner
     * and ranks, the byte arrays dirv and dp */
    h = calloc(1, sizeof *h + (4 * kw + w + (size_t)nv * wv) * sizeof(word) +
                      (6 * (size_t)k + len + 1 + nv) * sizeof(int) +
                      6 * (size_t)k);
    if (h == NULL)
        return NULL;
    h->n = k;
    h->w = w;
    h->nv = nv;
    h->wv = wv;
    h->pa = pa = (word *)(h + 1);
    h->pb = pb = pa + kw;
    h->umask = umask = pb + kw;
    h->cands = umask + kw;
    h->visited = h->cands + kw;
    h->adj = h->visited + w;
    h->path = (int *)(h->adj + (size_t)nv * wv);
    h->need_stack = h->path + k;
    h->starving_stack = h->need_stack + k;
    h->seq = h->starving_stack + k;
    h->off = h->seq + len;
    h->icycle = h->off + k + 1;
    owner = h->icycle + k;
    h->dirv = (unsigned char *)(owner + nv + k);
    h->dp = h->dirv + k;
    memcpy(h->seq, seq, (size_t)len * sizeof(int));
    memcpy(h->off, off, ((size_t)k + 1) * sizeof(int));
    memcpy(h->dirv, dirv, (size_t)k);
    if (ranks != NULL) {
        int *ranks_ = owner + nv;
        memcpy(ranks_, ranks, (size_t)k * sizeof(int));
        h->ranks = ranks_;
    }
    h->start = start;
    h->break_mirror = break_mirror;

    /* owner[x]: the item that x is an end of, or -1 */
    for (i = 0; i < nv; i++)
        owner[i] = -1;
    for (i = 0; i < k; i++)
        owner[FIRST(h, i)] = owner[LAST(h, i)] = i;
    for (e = 0; e < m; e++) {
        const int u = edges[2 * e], x = edges[2 * e + 1];
        SET(h->adj + (size_t)u * wv, x);
        SET(h->adj + (size_t)x * wv, u);
        if (owner[u] >= 0 && owner[x] >= 0 && owner[u] != owner[x]) {
            join(h, owner[u], u, owner[x]);
            join(h, owner[x], x, owner[u]);
        }
    }

    /* every edge joins an item to another at both ends, so the union masks
     * are symmetric: x is in umask[v] exactly when v is in umask[x] */
    for (v = 0; v < k; v++) {
        int bits = 0;
        for (i = 0; i < w; i++)
            bits += popcount(umask[v * w + i] = pa[v * w + i] | pb[v * w + i]);
        if (bits < 2 && v != start) /* never has two neighbours */
            starved = starved == NOBODY ? v : MANY;
    }

    FLIP(h->visited, start);
    h->path[0] = start;
    for (i = 0; i < w; i++)
        h->cands[i] = (dirv[start] ? pb : umask)[start * w + i] & ~h->visited[i];
    /* the closing step enters start by port A when start is directed;
     * otherwise by the port the first step did not leave from */
    h->close_a = dirv[start];
    h->need = h->need_stack[0] = ranks != NULL && ranks[start] == 0;
    h->starving = h->starving_stack[0] = starved;
    h->yielded = -1;
    return h;
}

/* What a step out of v would starve: NOBODY, the one vertex left with
 * fewer than two neighbours among the available ones, or MANY.  Only a
 * vertex whose union mask holds v can have lost a neighbour, and as the
 * masks are symmetric these are the vertices of v's own union mask. */
static int starve_after(const struct hk *h, int v)
{
    const int w = h->w, start = h->start;
    const word *visited = h->visited;
    int found = NOBODY, i, j;

    for (i = 0; i < w; i++) {
        word rem = h->umask[v * w + i] & ~visited[i];
        for (; rem; rem &= rem - 1) {
            const int x = 64 * i + lowest(rem);
            const word *m = h->umask + (size_t)x * w;
            int bits = 0;
            for (j = 0; j < w && bits < 2; j++) {
                word avail = ~visited[j];
                if (j == start >> 6)
                    avail |= (word)1 << (start & 63);
                bits += popcount(m[j] & avail);
            }
            if (bits < 2) {
                if (found != NOBODY)
                    return MANY;
                found = x;
            }
        }
    }
    return found;
}

/* Go on with the search under a cap of `cap` nodes in all.  Returns 1 with
 * the next item cycle's n item ids, from start, in `cycle`; 0 at the end of
 * the search; -1 when the cap is spent. */
static int hk_next(struct hk *h, int64_t cap, int *cycle)
{
    const int n = h->n, w = h->w, start = h->start;
    const word *pa_s = h->pa + start * w, *pb_s = h->pb + start * w;
    word *visited = h->visited;
    int *path = h->path;
    int depth = h->depth, need = h->need, starving = h->starving;
    int64_t nodes = h->nodes;
    int status = 0, i;

    if (h->yielded >= 0) {
        FLIP(visited, h->yielded);
        h->yielded = -1;
    }
    for (;;) {
        word *cand = h->cands + (size_t)depth * w, *exits = cand + w;
        const word *a_v, *b_v;
        int v, new_need, prev, from_a, from_b, child, any, k;

        for (i = 0; i < w && cand[i] == 0; i++)
            ;
        if (i == w) { /* backtrack */
            if (depth == 0)
                break;
            FLIP(visited, path[depth]);
            depth--;
            need = h->need_stack[depth];
            starving = h->starving_stack[depth];
            continue;
        }
        v = 64 * i + lowest(cand[i]);
        cand[i] &= cand[i] - 1;

        if (nodes >= cap) {
            status = -1;
            break;
        }
        nodes++;

        new_need = need;
        if (h->ranks != NULL && h->ranks[v] >= 0) {
            if (h->ranks[v] != need)
                continue;
            new_need = need + 1;
        }

        /* the ports v can leave by, entered from prev: B when entered
         * through A, and A when entered through B unless v is directed */
        prev = path[depth];
        a_v = h->pa + v * w;
        b_v = h->pb + v * w;
        from_a = HAS(a_v, prev);
        from_b = !h->dirv[v] && HAS(b_v, prev);
        if (depth == 0 && !h->dirv[start]) {
            h->close_a = HAS(pb_s, v);
            h->close_b = HAS(pa_s, v);
        }

        FLIP(visited, v);
        if (depth + 2 == n) {
            if (((from_a && HAS(b_v, start)) || (from_b && HAS(a_v, start))) &&
                ((h->close_a && HAS(pa_s, v)) || (h->close_b && HAS(pb_s, v))) &&
                !(h->break_mirror && path[1] > v)) {
                memcpy(cycle, path, (size_t)(depth + 1) * sizeof(int));
                cycle[depth + 1] = v;
                h->yielded = v;
                status = 1;
                break;
            }
            FLIP(visited, v);
            continue;
        }

        /* exits, the next depth's candidates if v is pushed */
        any = 0;
        for (i = 0; i < w; i++) {
            exits[i] = ((from_a ? b_v[i] : 0) | (from_b ? a_v[i] : 0)) & ~visited[i];
            any |= exits[i] != 0;
        }
        if (!any || starving == MANY || (starving != NOBODY && starving != v)) {
            FLIP(visited, v);
            continue;
        }

        child = starve_after(h, v);
        if (child != MANY) {
            depth++;
            path[depth] = v;
            need = h->need_stack[depth] = new_need;
            starving = h->starving_stack[depth] = child;
            continue;
        }
        /* two vertices starve: every child of v fails the prune */
        for (k = 0, i = 0; i < w; i++)
            k += popcount(exits[i]);
        if (nodes + k > cap) {
            nodes = cap;
            status = -1;
            break;
        }
        nodes += k;
        FLIP(visited, v);
    }
    h->depth = depth;
    h->need = need;
    h->starving = starving;
    h->nodes = nodes;
    return status;
}

/* Item i's two vertices in state s, entered by `entry` and left by the
 * other: state 0 enters at its first vertex, state 1 at its last.  A free
 * vertex and a directed path have state 0 only. */
static int states(const struct hk *h, int i)
{
    return h->off[i + 1] - h->off[i] > 1 && !h->dirv[i] ? 2 : 1;
}

static int entry(const struct hk *h, int i, int s)
{
    return s ? LAST(h, i) : FIRST(h, i);
}

static int leave(const struct hk *h, int i, int s)
{
    return s ? FIRST(h, i) : LAST(h, i);
}

static int joined(const struct hk *h, int x, int y)
{
    return HAS(h->adj + (size_t)x * h->wv, y);
}

/* The vertex cycle of the item cycle in icycle, written to `cycle`; 0 when
 * no orientation of its items closes it in the allowed graph.  A two-state
 * chain DP: each state of a position takes as parent the lowest reachable
 * state before it that an allowed edge joins to it, the first item's
 * states are tried in turn, and the cycle closes on the lowest reachable
 * state of the last item that joins the first.  These are the choices of
 * _decode in _pure.py, so both kernels yield the same cycles. */
static int decode(const struct hk *h, int *cycle)
{
    const int k = h->n, *ic = h->icycle;
    unsigned char *reach = h->dp, *par = reach + 2 * k, *orient = par + 2 * k;
    int f, pos, s, t, o;

    for (f = 0; f < states(h, ic[0]); f++) {
        reach[0] = f == 0;
        reach[1] = f == 1;
        for (pos = 1; pos < k; pos++) {
            const int it = ic[pos], prev = ic[pos - 1];
            int any = 0;
            for (s = 0; s < 2; s++) {
                reach[2 * pos + s] = 0;
                for (t = 0; s < states(h, it) && t < 2; t++) {
                    if (reach[2 * (pos - 1) + t] &&
                        joined(h, leave(h, prev, t), entry(h, it, s))) {
                        reach[2 * pos + s] = 1;
                        par[2 * pos + s] = (unsigned char)t;
                        any = 1;
                        break;
                    }
                }
            }
            if (!any)
                break;
        }
        if (pos < k)
            continue;
        for (o = 0; o < 2; o++)
            if (reach[2 * (k - 1) + o] &&
                joined(h, leave(h, ic[k - 1], o), entry(h, ic[0], f)))
                break;
        if (o == 2)
            continue;
        for (pos = k - 1; pos > 0; pos--) {
            orient[pos] = (unsigned char)o;
            o = par[2 * pos + o];
        }
        orient[0] = (unsigned char)o;
        for (pos = 0; pos < k; pos++) {
            const int a = h->off[ic[pos]], b = h->off[ic[pos] + 1];
            for (t = 0; t < b - a; t++)
                *cycle++ = h->seq[orient[pos] ? b - 1 - t : a + t];
        }
        return 1;
    }
    return 0;
}

/* Go on with the search: returns 1 with the next decoded cycle's
 * vertices, one per item vertex, in `cycle`, and 0 or -1 as hk_next does.
 * Writes the nodes, candidates and rejected candidates so far to
 * counts[0..2].  After 0 or -1 only hk_free may be called. */
int hk_next_cycle(struct hk *h, int64_t cap, int *cycle, int64_t *counts)
{
    int status;

    while ((status = hk_next(h, cap, h->icycle)) > 0) {
        h->candidates++;
        if (decode(h, cycle))
            break;
        h->rejected++;
    }
    counts[0] = h->nodes;
    counts[1] = h->candidates;
    counts[2] = h->rejected;
    return status;
}

void hk_free(struct hk *h)
{
    free(h);
}
