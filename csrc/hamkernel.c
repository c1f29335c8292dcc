/* Hamilton-cycle search of a graph through prescribed paths, in C99.
 *
 * A port of GraphEnum in src/bipham/hamkernel/_pure.py, which documents the
 * vertex instance, the search and the incremental starvation prune.  Both
 * kernels try candidates in the same order, yield the same cycles, count
 * the same nodes and trip a node cap at the same node; tests/test_kernel.py
 * holds them to that.  bipham.hamkernel builds this file on first import
 * and calls it through ctypes: hk_new_graph, hk_next_cycle and hk_free are
 * the whole interface.
 *
 * A search runs over a graph whose vertices are covered by items, free
 * vertices and prescribed paths, which a cycle may traverse either way.
 * hk_new_graph builds the vertex instance: a free vertex is an instance
 * vertex, and a path becomes its two ends, joined by a required edge, with
 * its interior left out.  hk_next_cycle searches the instance from vertex 0
 * and writes each cycle out with the interiors put back.
 *
 * A set of instance vertices is an array of w = ceil(n / 64) 64-bit words,
 * bit x of word x / 64 standing for vertex x, so any n >= 3 is supported.
 * The search is a resumable state machine: hk_next_cycle returns after
 * each cycle, at a spent node cap or at the end of the search, and the
 * next call resumes it.
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
    int w; /* words per set of the instance's vertices */
    word *adj, *cands, *visited; /* adj: a row per vertex; cands: per depth */
    /* mate[x]: the other end of x's path, x itself for a free vertex;
     * path[d]: the vertex the step of depth d entered */
    int *mate, *path, *starving_stack;
    /* the search's registers between two calls */
    int depth, starving, left, yielded;
    int64_t nodes;
    /* instance vertex x is graph vertex seq[at[x]], and a cycle walks seq
     * from at[x] to at[mate[x]] */
    int *seq, *at;
};

/* Visit, or leave, v and the other end u of its path: what a step into v
 * visits.  Returns how many vertices that is. */
static int flip(word *visited, int v, int u)
{
    FLIP(visited, v);
    if (u == v)
        return 1;
    FLIP(visited, u);
    return 2;
}

/* Whether x has fewer neighbours than it needs (two for a free vertex, one
 * for a path end) among the unvisited vertices, vertex 0 and `also`, a
 * visited vertex or -1. */
static int short_of(const struct hk *h, int x, int also)
{
    const word *m = h->adj + (size_t)x * h->w;
    const int need = h->mate[x] == x ? 2 : 1;
    int bits = 0, j;

    for (j = 0; j < h->w && bits < need; j++)
        bits += popcount(m[j] & (~h->visited[j] | (word)(j == 0)));
    if (also >= 0)
        bits += HAS(m, also);
    return bits < need;
}

/* What a step out of a node would starve, given the node's unvisited
 * neighbours `rem`: NOBODY, the one vertex of rem left short of
 * neighbours, or MANY. */
static int starve_after(const struct hk *h, const word *rem)
{
    int found = NOBODY, i;

    for (i = 0; i < h->w; i++) {
        word r = rem[i];
        for (; r; r &= r - 1) {
            const int x = 64 * i + lowest(r);
            if (short_of(h, x, -1)) {
                if (found != NOBODY)
                    return MANY;
                found = x;
            }
        }
    }
    return found;
}

/* Whether a step into the path end v, which leaves the search at the other
 * end u, takes the last available neighbour a vertex needs from one of v's
 * unvisited neighbours. */
static int end_starves(const struct hk *h, int v, int u)
{
    const word *m = h->adj + (size_t)v * h->w;
    int i;

    for (i = 0; i < h->w; i++) {
        word r = m[i] & ~h->visited[i];
        for (; r; r &= r - 1)
            if (short_of(h, 64 * i + lowest(r), u))
                return 1;
    }
    return 0;
}

/* A search for the Hamilton cycles of a graph on nv vertices through k
 * items, copying its inputs: m edges as 2 * m vertex ids, and the items'
 * vertex sequences one after another in seq, with item i at seq[off[i]] ..
 * seq[off[i + 1] - 1].  The caller checks that every id lies in 0..nv-1,
 * that no vertex is on two items or twice on one, and that the instance
 * has at least three vertices.  Instance vertices take ids in item order,
 * a path's first end before its last; an allowed edge joins two of them
 * unless it meets a path interior or joins the two ends of one path.  NULL
 * if out of memory. */
struct hk *hk_new_graph(int nv, int m, const int *edges, int k, const int *seq,
                        const int *off)
{
    const int len = off[k];
    int n = 0, w, e, i, x;
    size_t nw;
    struct hk *h;
    int *ids;

    for (i = 0; i < k; i++)
        n += off[i + 1] - off[i] > 1 ? 2 : 1;
    w = (n + 63) / 64;
    nw = (size_t)n * w;
    /* one block: the word arrays adj, cands and visited, the int arrays
     * mate, path, starving_stack, at, seq and ids */
    h = calloc(1, sizeof *h + (2 * nw + w) * sizeof(word) +
                      (4 * (size_t)n + len + nv) * sizeof(int));
    if (h == NULL)
        return NULL;
    h->w = w;
    h->adj = (word *)(h + 1);
    h->cands = h->adj + nw;
    h->visited = h->cands + nw;
    h->mate = (int *)(h->visited + w);
    h->path = h->mate + n;
    h->starving_stack = h->path + n;
    h->at = h->starving_stack + n;
    h->seq = h->at + n;
    ids = h->seq + len; /* graph vertex -> instance vertex, -1 */
    memcpy(h->seq, seq, (size_t)len * sizeof(int));

    for (i = 0; i < nv; i++)
        ids[i] = -1;
    for (x = i = 0; i < k; i++) {
        const int a = off[i], b = off[i + 1] - 1;
        ids[seq[a]] = x;
        h->at[x] = a;
        h->mate[x] = x;
        if (b > a) {
            ids[seq[b]] = x + 1;
            h->at[x + 1] = b;
            h->mate[x] = x + 1;
            h->mate[x + 1] = x;
        }
        x = h->mate[x] + 1;
    }
    for (e = 0; e < m; e++) {
        const int u = ids[edges[2 * e]], v = ids[edges[2 * e + 1]];
        if (u >= 0 && v >= 0 && v != u && v != h->mate[u]) {
            SET(h->adj + (size_t)u * w, v);
            SET(h->adj + (size_t)v * w, u);
        }
    }

    /* the root: vertex 0 and, across its required edge, the other end of
     * its path; path[0] = 0, as calloc left it */
    h->left = n - flip(h->visited, 0, h->mate[0]);
    for (i = 0; i < w; i++)
        h->cands[i] = h->adj[(size_t)h->mate[0] * w + i] & ~h->visited[i];
    h->starving = NOBODY;
    for (x = 1; x < n; x++)
        if (!HAS(h->visited, x) && short_of(h, x, -1))
            h->starving = h->starving == NOBODY ? x : MANY;
    h->starving_stack[0] = h->starving;
    h->yielded = -1;
    return h;
}

/* Go on with the search under a cap of `cap` nodes in all.  Returns 1 with
 * the next cycle's vertices, one per item vertex, in `cycle`; 0 at the end
 * of the search; -1 when the cap is spent.  Writes the nodes so far to
 * *nodes_out.  After 0 or -1 only hk_free may be called. */
int hk_next_cycle(struct hk *h, int64_t cap, int *cycle, int64_t *nodes_out)
{
    const int w = h->w, *mate = h->mate;
    word *visited = h->visited;
    int *path = h->path;
    int depth = h->depth, starving = h->starving, left = h->left;
    int64_t nodes = h->nodes;
    int status = 0, i;

    if (h->yielded >= 0) {
        left += flip(visited, h->yielded, mate[h->yielded]);
        h->yielded = -1;
    }
    for (;;) {
        word *cand = h->cands + (size_t)depth * w, *exits = cand + w;
        const word *row;
        int v, last, child, any, k;

        for (i = 0; i < w && cand[i] == 0; i++)
            ;
        if (i == w) { /* backtrack */
            if (depth == 0)
                break;
            left += flip(visited, path[depth], mate[path[depth]]);
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

        last = mate[v];
        path[depth + 1] = v;
        left -= flip(visited, v, last);
        row = h->adj + (size_t)last * w;
        if (left == 0) {
            /* each cycle once: from vertex 0 across its required edge, or
             * entering a lower vertex first than the one it closes from */
            if (HAS(row, 0) && (mate[0] != 0 || path[1] < last)) {
                for (k = 0; k <= depth + 1; k++) {
                    const int a = h->at[path[k]], b = h->at[mate[path[k]]];
                    for (i = a; i != b; i += a < b ? 1 : -1)
                        *cycle++ = h->seq[i];
                    *cycle++ = h->seq[b];
                }
                h->yielded = v;
                status = 1;
                break;
            }
            left += flip(visited, v, last);
            continue;
        }

        /* exits, the next depth's candidates if v is pushed */
        any = 0;
        for (i = 0; i < w; i++) {
            exits[i] = row[i] & ~visited[i];
            any |= exits[i] != 0;
        }
        if (!any || starving == MANY ||
            (starving != NOBODY && starving != v && starving != last) ||
            (last != v && end_starves(h, v, last))) {
            left += flip(visited, v, last);
            continue;
        }

        child = starve_after(h, exits);
        if (child != MANY) {
            depth++;
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
        left += flip(visited, v, last);
    }
    h->depth = depth;
    h->starving = starving;
    h->left = left;
    h->nodes = *nodes_out = nodes;
    return status;
}

void hk_free(struct hk *h)
{
    free(h);
}
