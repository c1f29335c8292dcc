/* Hamilton-cycle search over port-constrained vertices, in C99.
 *
 * A port of _search in src/bipham/hamkernel/_pure.py, which documents the
 * search instance and the incremental starvation prune.  Both kernels try
 * candidates in the same order, yield the same cycles, count the same nodes
 * and trip a node cap at the same node; tests/test_kernel.py holds them to
 * that.  bipham.hamkernel builds this file on first import and calls it
 * through ctypes.
 *
 * A vertex set is an array of w = ceil(n / 64) 64-bit words, bit x of word
 * x / 64 standing for vertex x, so any n >= 3 is supported.  The search is a
 * resumable state machine: hk_next returns after each cycle, at a spent
 * node cap or at the end of the search, and the next call resumes it.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t word;

#define HAS(set, x) ((int)((set)[(x) >> 6] >> ((x) & 63) & 1))
#define FLIP(set, x) ((set)[(x) >> 6] ^= (word)1 << ((x) & 63))

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
    int n, w, start, break_mirror;
    const int *ranks; /* NULL: no waypoints */
    const unsigned char *dirv;
    const word *pa, *pb, *umask, *rev;
    word *cands, *visited; /* cands: w words per depth */
    int *path, *need_stack, *starving_stack;
    /* the search's registers between two calls */
    int depth, need, starving, close_a, close_b, yielded;
    int64_t nodes;
};

/* A search over n >= 3 vertices, copying its inputs: n * w words of port A
 * and port B masks, n directed flags, n waypoint ranks or NULL.  Masks hold
 * no bit at or past n and 0 <= start < n; the caller checks both.  NULL if
 * out of memory. */
struct hk *hk_new(int n, const word *pa, const word *pb,
                  const unsigned char *dirv, const int *ranks, int start,
                  int break_mirror)
{
    const int w = (n + 63) / 64;
    const size_t nw = (size_t)n * w;
    struct hk *h;
    word *pa_, *pb_, *umask, *rev;
    int *ranks_;
    unsigned char *dirv_;
    int v, i, starved = NOBODY;

    h = calloc(1, sizeof *h + (5 * nw + w) * sizeof(word) +
                      4 * (size_t)n * sizeof(int) + (size_t)n);
    if (h == NULL)
        return NULL;
    h->pa = pa_ = (word *)(h + 1);
    h->pb = pb_ = pa_ + nw;
    h->umask = umask = pb_ + nw;
    h->rev = rev = umask + nw;
    h->cands = rev + nw;
    h->visited = h->cands + nw;
    h->path = (int *)(h->visited + w);
    h->need_stack = h->path + n;
    h->starving_stack = h->need_stack + n;
    ranks_ = h->starving_stack + n;
    h->dirv = dirv_ = (unsigned char *)(ranks_ + n);
    memcpy(pa_, pa, nw * sizeof(word));
    memcpy(pb_, pb, nw * sizeof(word));
    memcpy(dirv_, dirv, (size_t)n);
    if (ranks != NULL) {
        memcpy(ranks_, ranks, (size_t)n * sizeof(int));
        h->ranks = ranks_;
    }
    h->n = n;
    h->w = w;
    h->start = start;
    h->break_mirror = break_mirror;

    /* rev[x]: the vertices whose union mask contains x */
    for (v = 0; v < n; v++) {
        int bits = 0;
        for (i = 0; i < w; i++) {
            word m = umask[v * w + i] = pa[v * w + i] | pb[v * w + i];
            bits += popcount(m);
            for (; m; m &= m - 1)
                FLIP(rev + (size_t)(64 * i + lowest(m)) * w, v);
        }
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
 * fewer than two neighbours among the available ones, or MANY. */
static int starve_after(const struct hk *h, int v)
{
    const int w = h->w, start = h->start;
    const word *visited = h->visited;
    int found = NOBODY, i, j;

    for (i = 0; i < w; i++) {
        word rem = h->rev[v * w + i] & ~visited[i];
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
 * the next cycle's n vertex ids, from start, in `cycle`; 0 at the end of
 * the search; -1 when the cap is spent.  After 0 or -1 only hk_nodes and
 * hk_free may be called. */
int hk_next(struct hk *h, int64_t cap, int *cycle)
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

int64_t hk_nodes(const struct hk *h)
{
    return h->nodes;
}

void hk_free(struct hk *h)
{
    free(h);
}
