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
 * vertices and prescribed paths, which a cycle may traverse either way.
 * hk_new_graph builds the items' port masks from the allowed edges, as
 * _ports in _pure.py does; hk_next enumerates the item cycles the masks
 * admit, each once, from item 0, and hk_next_cycle decodes each one into a
 * vertex cycle by _decode's orientation DP, dropping the candidates that
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
    int n, w; /* n: the number of items */
    word *pa, *pb, *umask;
    word *cands, *visited; /* cands: w words per depth */
    int *path, *starving_stack;
    /* the search's registers between two calls */
    int depth, starving, close_a, close_b, yielded;
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
 * items, copying its inputs: m edges as 2 * m vertex ids, and the items'
 * vertex sequences one after another in seq, with item i at seq[off[i]] ..
 * seq[off[i + 1] - 1].  The caller checks that every id lies in 0..nv-1
 * and that no vertex is on two items or twice on one.  The search starts
 * at item 0 and yields each item cycle once.  A port of an item offers
 * the items that an allowed edge joins end to end with the port's end, the
 * item itself left out; a path interior is no item's end.  NULL if out of
 * memory. */
struct hk *hk_new_graph(int nv, int m, const int *edges, int k, const int *seq,
                        const int *off)
{
    const int w = (k + 63) / 64, wv = (nv + 63) / 64, len = off[k];
    const size_t kw = (size_t)k * w;
    struct hk *h;
    word *pa, *pb, *umask;
    int *owner, e, i, v, starved = NOBODY;

    /* one block: the word arrays pa, pb, umask, cands, visited and adj, the
     * int arrays path, starving_stack, seq, off, icycle and owner, the byte
     * array dp */
    h = calloc(1, sizeof *h + (4 * kw + w + (size_t)nv * wv) * sizeof(word) +
                      (4 * (size_t)k + len + 1 + nv) * sizeof(int) +
                      5 * (size_t)k);
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
    h->starving_stack = h->path + k;
    h->seq = h->starving_stack + k;
    h->off = h->seq + len;
    h->icycle = h->off + k + 1;
    owner = h->icycle + k;
    h->dp = (unsigned char *)(owner + nv);
    memcpy(h->seq, seq, (size_t)len * sizeof(int));
    memcpy(h->off, off, ((size_t)k + 1) * sizeof(int));

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
        if (bits < 2 && v != 0) /* never has two neighbours */
            starved = starved == NOBODY ? v : MANY;
    }

    FLIP(h->visited, 0); /* path[0] = 0, as calloc left it */
    for (i = 0; i < w; i++)
        h->cands[i] = umask[i] & ~h->visited[i];
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
    const int w = h->w;
    const word *visited = h->visited;
    int found = NOBODY, i, j;

    for (i = 0; i < w; i++) {
        word rem = h->umask[v * w + i] & ~visited[i];
        for (; rem; rem &= rem - 1) {
            const int x = 64 * i + lowest(rem);
            const word *m = h->umask + (size_t)x * w;
            int bits = 0;
            /* available: the unvisited items and item 0 */
            for (j = 0; j < w && bits < 2; j++)
                bits += popcount(m[j] & (~visited[j] | (word)(j == 0)));
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
 * the next item cycle's n item ids, from item 0, in `cycle`; 0 at the end of
 * the search; -1 when the cap is spent. */
static int hk_next(struct hk *h, int64_t cap, int *cycle)
{
    const int n = h->n, w = h->w;
    const word *pa_s = h->pa, *pb_s = h->pb; /* item 0's ports */
    word *visited = h->visited;
    int *path = h->path;
    int depth = h->depth, starving = h->starving;
    int64_t nodes = h->nodes;
    int status = 0, i;

    if (h->yielded >= 0) {
        FLIP(visited, h->yielded);
        h->yielded = -1;
    }
    for (;;) {
        word *cand = h->cands + (size_t)depth * w, *exits = cand + w;
        const word *a_v, *b_v;
        int v, prev, from_a, from_b, child, any, k;

        for (i = 0; i < w && cand[i] == 0; i++)
            ;
        if (i == w) { /* backtrack */
            if (depth == 0)
                break;
            FLIP(visited, path[depth]);
            depth--;
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

        /* the ports v can leave by, entered from prev: B when entered
         * through A, and A when entered through B */
        prev = path[depth];
        a_v = h->pa + v * w;
        b_v = h->pb + v * w;
        from_a = HAS(a_v, prev);
        from_b = HAS(b_v, prev);
        if (depth == 0) {
            /* the closing step enters item 0 by the port the first step
             * did not leave from */
            h->close_a = HAS(pb_s, v);
            h->close_b = HAS(pa_s, v);
        }

        FLIP(visited, v);
        if (depth + 2 == n) {
            if (((from_a && HAS(b_v, 0)) || (from_b && HAS(a_v, 0))) &&
                ((h->close_a && HAS(pa_s, v)) || (h->close_b && HAS(pb_s, v))) &&
                path[1] < v) { /* each cycle once, not also reversed */
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
    h->starving = starving;
    h->nodes = nodes;
    return status;
}

/* Item i's two vertices in state s, entered by `entry` and left by the
 * other: state 0 enters at its first vertex, state 1 at its last.  A free
 * vertex has state 0 only. */
static int states(const struct hk *h, int i)
{
    return h->off[i + 1] - h->off[i] > 1 ? 2 : 1;
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
