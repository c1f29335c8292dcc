/* Hamilton-cycle search of a graph through prescribed paths, in C99, and
 * two passes over a graph's edge array.
 *
 * A port of GraphEnum in src/bipham/hamkernel/_pure.py, which documents the
 * vertex instance, the search and the incremental starvation prune.  Both
 * kernels try candidates in the same order, yield the same cycles, count
 * the same nodes and trip a node cap at the same node; tests/test_kernel.py
 * holds them to that.  bipham.hamkernel builds this file on first import
 * and calls it through ctypes: hk_new_graph, hk_next_cycle and hk_free are
 * the search, and hk_minus and hk_class_degrees serve bipham.graphs.
 *
 * A search runs over a graph whose vertices are covered by items, free
 * vertices and prescribed paths, which a cycle may traverse either way.
 * Its allowed edges are given as three things: a host's edge array, which
 * the caller keeps and hk_new_graph only reads; optional side labels, which
 * keep only the host edges between side 0 and side 1; and the excluded
 * edges, which are taken out.  hk_new_graph builds the vertex instance: a
 * free vertex is an instance vertex, and a path becomes its two ends,
 * joined by a required edge, with its interior left out.  hk_next_cycle
 * searches the instance from vertex 0 and writes each cycle out with the
 * interiors put back.
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
#define CLEAR(set, x) ((set)[(x) >> 6] &= ~((word)1 << ((x) & 63)))

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

/* Whether a and b are both vertex ids of 0..nv-1. */
static int in_range(int a, int b, int nv)
{
    return (unsigned)a < (unsigned)nv && (unsigned)b < (unsigned)nv;
}

/* A search for the Hamilton cycles of a graph on nv vertices through k
 * items, in *out.  The allowed edges are those of the m edges of the host
 * array `edges` (2 * m vertex ids) that, when `sides` (nv labels) is not
 * NULL, join a vertex of side 0 to one of side 1, less the x edges of
 * `excluded` (2 * x vertex ids).  The items' vertex sequences lie one after
 * another in seq, item i at seq[off[i]] .. seq[off[i + 1] - 1].  The search
 * copies what it keeps; it holds no pointer to `edges`, `sides` or
 * `excluded`.  The caller checks that every item vertex lies in 0..nv-1,
 * that no vertex is on two items or twice on one, and that the instance
 * has at least three vertices; the edge ids are checked here, as they are
 * read.  Instance vertices take ids in item order, a path's first end
 * before its last; an allowed edge joins two of them unless it meets a path
 * interior or joins the two ends of one path.  Returns 0, 1 when a host
 * edge has an end outside 0..nv-1, 2 when an excluded edge has, and -1 when
 * out of memory; *out is set only on 0. */
int hk_new_graph(int nv, int m, const int *edges, const int *sides, int x,
                 const int *excluded, int k, const int *seq, const int *off,
                 struct hk **out)
{
    const int len = off[k];
    int n = 0, w, e, i, v;
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
        return -1;
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
    for (v = i = 0; i < k; i++) {
        const int a = off[i], b = off[i + 1] - 1;
        ids[seq[a]] = v;
        h->at[v] = a;
        h->mate[v] = v;
        if (b > a) {
            ids[seq[b]] = v + 1;
            h->at[v + 1] = b;
            h->mate[v] = v + 1;
            h->mate[v + 1] = v;
        }
        v = h->mate[v] + 1;
    }
    for (e = 0; e < m; e++) {
        const int a = edges[2 * e], b = edges[2 * e + 1];
        int s, t;
        if (!in_range(a, b, nv)) {
            free(h);
            return 1;
        }
        if (sides != NULL &&
            (sides[a] < 0 || sides[b] < 0 || sides[a] == sides[b]))
            continue;
        s = ids[a];
        t = ids[b];
        if (s >= 0 && t >= 0 && t != s && t != h->mate[s]) {
            SET(h->adj + (size_t)s * w, t);
            SET(h->adj + (size_t)t * w, s);
        }
    }
    for (e = 0; e < x; e++) {
        const int a = excluded[2 * e], b = excluded[2 * e + 1];
        int s, t;
        if (!in_range(a, b, nv)) {
            free(h);
            return 2;
        }
        s = ids[a];
        t = ids[b];
        if (s >= 0 && t >= 0) {
            CLEAR(h->adj + (size_t)s * w, t);
            CLEAR(h->adj + (size_t)t * w, s);
        }
    }

    /* the root: vertex 0 and, across its required edge, the other end of
     * its path; path[0] = 0, as calloc left it */
    h->left = n - flip(h->visited, 0, h->mate[0]);
    for (i = 0; i < w; i++)
        h->cands[i] = h->adj[(size_t)h->mate[0] * w + i] & ~h->visited[i];
    h->starving = NOBODY;
    for (v = 1; v < n; v++)
        if (!HAS(h->visited, v) && short_of(h, v, -1))
            h->starving = h->starving == NOBODY ? v : MANY;
    h->starving_stack[0] = h->starving;
    h->yielded = -1;
    *out = h;
    return 0;
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

/* The key of the edge {a, b} of a graph on nv vertices, for hk_minus. */
static uint64_t edge_key(int a, int b, int nv)
{
    return a < b ? (uint64_t)a * nv + b : (uint64_t)b * nv + a;
}

/* Remove from the m edges of `edges` (2 * m vertex ids of 0..nv-1), in
 * place and keeping their order, every edge that is among the r edges of
 * `gone` (2 * r vertex ids, either end first).  A gone edge with an end
 * outside 0..nv-1 matches no edge.  Returns the number of edges kept, or
 * -1 if out of memory. */
int hk_minus(int nv, int m, int *edges, int r, const int *gone)
{
    /* an open-addressing set of the gone edges' keys plus one, 0 empty */
    size_t size = 2, mask, at;
    uint64_t *table, key;
    int e, kept = 0;

    while (size < 2 * (size_t)r)
        size *= 2;
    mask = size - 1;
    table = calloc(size, sizeof *table);
    if (table == NULL)
        return -1;
    for (e = 0; e < r; e++) {
        const int a = gone[2 * e], b = gone[2 * e + 1];
        if (!in_range(a, b, nv))
            continue;
        key = edge_key(a, b, nv) + 1;
        for (at = key * 0x9E3779B97F4A7C15u >> 32 & mask; table[at] != 0 &&
             table[at] != key; at = (at + 1) & mask)
            ;
        table[at] = key;
    }
    for (e = 0; e < m; e++) {
        const int a = edges[2 * e], b = edges[2 * e + 1];
        key = edge_key(a, b, nv) + 1;
        for (at = key * 0x9E3779B97F4A7C15u >> 32 & mask; table[at] != 0 &&
             table[at] != key; at = (at + 1) & mask)
            ;
        if (table[at] == 0) {
            edges[2 * kept] = a;
            edges[2 * kept + 1] = b;
            kept++;
        }
    }
    free(table);
    return kept;
}

/* Add to rows[v * k + c] the neighbours of each vertex v in class c, over
 * the m edges of `edges` (2 * m vertex ids of 0..nv-1): label[v] is the
 * class 0..k-1 of v, or negative for none. */
void hk_class_degrees(int m, const int *edges, const int *label, int k,
                      int *rows)
{
    int e;

    for (e = 0; e < m; e++) {
        const int a = edges[2 * e], b = edges[2 * e + 1];
        if (label[b] >= 0)
            rows[(size_t)a * k + label[b]]++;
        if (label[a] >= 0)
            rows[(size_t)b * k + label[a]]++;
    }
}
