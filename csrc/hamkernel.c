/* Hamilton-cycle search of a graph through prescribed paths, in C99, two
 * passes over a graph's edge array, and the split-and-switch engine.
 *
 * A port of GraphEnum in src/bipham/hamkernel/_pure.py, which documents the
 * vertex instance, the search and the incremental starvation prune.  Both
 * kernels try candidates in the same order, yield the same cycles, count
 * the same nodes and trip a node cap at the same node; tests/test_kernel.py
 * holds them to that.  bipham.hamkernel builds this file on first import
 * and calls it through ctypes: hk_new_graph, hk_next_cycle and hk_free are
 * the search, hk_minus and hk_class_degrees serve bipham.graphs, and
 * hk_split_and_switch (below the search) is the engine of bipham.switches.
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
#define _POSIX_C_SOURCE 199309L /* clock_gettime */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

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

/* ---- Split and switch ----------------------------------------------------
 *
 * A port of the engine of src/bipham/switches.py (pure_split_and_switch),
 * which documents what it builds: each path system's 2-factor, split level
 * by level from the pool and repaired by switches, attempt k under seed
 * seed + k.  The port reproduces it exactly, so the two engines return the
 * same cycles, attempts and switches and fail with the same details;
 * tests/test_walks.py holds them to that.  That takes Python's own random
 * stream (MT19937 seeded as random.seed seeds it from an int, the rejection
 * sampling of Random._randbelow and the Fisher-Yates of Random.shuffle), the
 * stable sorts of each level's candidates, the insertion order of
 * matchings.degree_split's chosen and holders dicts, and the systems' edges
 * in the order the caller lists them.  Memory is linear in the pool and the
 * systems: no table has n * n entries.
 */

#define MT_N 624
#define MT_M 397

struct mt {
    uint32_t s[MT_N];
    int i;
};

/* random.seed(x) for an int x: init_by_array over the `len` 32-bit words of
 * |x|, least significant first (one word 0 for x = 0). */
static void mt_seed(struct mt *r, const uint32_t *key, int len)
{
    uint32_t *s = r->s;
    int i = 1, j = 0, k;

    s[0] = 19650218u;
    for (k = 1; k < MT_N; k++)
        s[k] = 1812433253u * (s[k - 1] ^ (s[k - 1] >> 30)) + (uint32_t)k;
    for (k = MT_N > len ? MT_N : len; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1664525u)) + key[j] +
               (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        s[i] = (s[i] ^ ((s[i - 1] ^ (s[i - 1] >> 30)) * 1566083941u)) -
               (uint32_t)i;
        i++;
        if (i >= MT_N) {
            s[0] = s[MT_N - 1];
            i = 1;
        }
    }
    s[0] = 0x80000000u;
    r->i = MT_N;
}

static uint32_t mt_next(struct mt *r)
{
    uint32_t *s = r->s, y;
    int k;

    if (r->i >= MT_N) {
        for (k = 0; k < MT_N; k++) {
            y = (s[k] & 0x80000000u) | (s[(k + 1) % MT_N] & 0x7fffffffu);
            s[k] = s[(k + MT_M) % MT_N] ^ (y >> 1) ^ (y & 1 ? 0x9908b0dfu : 0);
        }
        r->i = 0;
    }
    y = s[r->i++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    return y ^ (y >> 18);
}

/* Random._randbelow(n) for n >= 1: getrandbits(n.bit_length()) until it
 * falls below n. */
static int below(struct mt *r, int n)
{
    int k = 0;
    uint32_t x;

    while (k < 32 && (uint32_t)n >> k)
        k++;
    do
        x = mt_next(r) >> (32 - k);
    while (x >= (uint32_t)n);
    return (int)x;
}

/* Random.shuffle(x) over len items; y, when not NULL, is permuted along. */
static void shuffle(struct mt *r, int *x, int *y, int len)
{
    int i, j, t;

    for (i = len - 1; i > 0; i--) {
        j = below(r, i + 1);
        t = x[i];
        x[i] = x[j];
        x[j] = t;
        if (y != NULL) {
            t = y[i];
            y[i] = y[j];
            y[j] = t;
        }
    }
}

/* The 0..len-1 in the order random.Random(x).shuffle leaves them, x an int
 * given as hk_split_and_switch takes its seed (without the spare word). */
void hk_shuffle(const uint32_t *key, int nkey, int len, int *out)
{
    struct mt r;
    int i;

    mt_seed(&r, key, nkey);
    for (i = 0; i < len; i++)
        out[i] = i;
    shuffle(&r, out, NULL, len);
}

/* x + 1 for x = (neg ? -1 : 1) * key[0 .. *len - 1]; key has room for one
 * more word. */
static void step_seed(uint32_t *key, int *len, int *neg)
{
    int j;

    if (*neg) {
        for (j = 0; key[j] == 0; j++)
            key[j] = 0xffffffffu;
        key[j]--;
        while (*len > 1 && key[*len - 1] == 0)
            (*len)--;
        if (*len == 1 && key[0] == 0)
            *neg = 0;
    } else {
        for (j = 0; j < *len && ++key[j] == 0; j++)
            ;
        if (j == *len)
            key[(*len)++] = 1;
    }
}

/* time.monotonic() */
static double monotonic(void)
{
    struct timespec t;

    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)((int64_t)t.tv_sec * 1000000000 + t.tv_nsec) / 1e9;
}

/* Insertion-ordered sets of at most SET_CAP vertices: degree_split's
 * chosen[u] and holders[v] dicts, which never hold more than three. */
#define SET_CAP 4

static int set_has(const int *set, int cnt, int x)
{
    int i;

    for (i = 0; i < cnt; i++)
        if (set[i] == x)
            return 1;
    return 0;
}

static void set_add(int *set, int *cnt, int x)
{
    if (!set_has(set, *cnt, x) && *cnt < SET_CAP)
        set[(*cnt)++] = x;
}

static void set_del(int *set, int *cnt, int x)
{
    int i = 0;

    while (i < *cnt && set[i] != x)
        i++;
    if (i == *cnt)
        return;
    for ((*cnt)--; i < *cnt; i++)
        set[i] = set[i + 1];
}

/* the engine's state, allocated once per call */
struct ss {
    int n, na, s, w; /* vertices, |A|, levels, words per set of levels */
    const int *A, *sys, *sys_off;
    struct mt rng;
    /* fixed for the call: A's membership, each vertex's pool degree, the
     * pool neighbours of each vertex of A in the order of the sorted pool
     * (base, at row[a] .. row[a] + pool_deg[a]), each level's system
     * degrees (deg[i * n + v]), the levels at which each vertex takes pool
     * edges (takes[v * w ..], a bit per level) and how many */
    unsigned char *in_a;
    int *pool_deg, *row, *base, *deg, *ntakes;
    uint64_t *takes;
    /* one split: A in shuffled order, what is left of each row (avail,
     * avail_len), a level's candidate rows (cands, at the same offsets),
     * the later levels each vertex takes (rest), and degree_split's room,
     * chosen and holders sets, its search stack and seen marks */
    int *left, *avail, *avail_len, *cands, *rest, *room, *chosen, *nchosen,
        *holders, *nholders, *fw, *fpos, *ftook, *fhold, *keys, *counts;
    unsigned *seen, stamp;
    /* the factors: nb[(i * n + v) * 2 + j], the j-th neighbour of v in
     * factor i, and pf, whether that edge is a pool edge; each factor's
     * cycles (which, pos, lengths, ncyc); the pool edges at each vertex
     * (pn at pn_off[v] ..) with the factor holding each (po); the vertex
     * order of the switch search */
    int *nb, *which, *pos, *lengths, *ncyc, *pn, *po, *pn_off, *order;
    unsigned char *pf;
    int *fill; /* scratch: a count per vertex */
};

static int need(const struct ss *e, int level, int v)
{
    return e->pool_deg[v] ? 2 - e->deg[(size_t)level * e->n + v] : 0;
}

static int popcount_later(const struct ss *e, const uint64_t *a,
                          const uint64_t *b, int level)
{
    const int first = (level + 1) >> 6;
    int c = 0, j;

    for (j = first; j < e->w; j++) {
        uint64_t x = a[j] & b[j];
        if (j == first)
            x &= ~(uint64_t)0 << ((level + 1) & 63);
        c += popcount(x);
    }
    return c;
}

/* The candidate row of a at a level that is not the last: what is left of
 * a's row, stably sorted by how few later levels could take each edge
 * (_split_levels' sort keys), by counting. */
static void sort_row(struct ss *e, int a, int level)
{
    const int later = e->s - 1 - level, len = e->avail_len[a];
    const int *row = e->avail + e->row[a];
    int *out = e->cands + e->row[a];
    int j, k, at, lo = 0, hi = 0;

    if (e->rest[a] == 0 || len < 2) {
        memcpy(out, row, (size_t)len * sizeof *out);
        return;
    }
    for (j = 0; j < len; j++) {
        const int b = row[j];
        const int key = e->rest[a] == later ? e->rest[b] : popcount_later(
            e, e->takes + (size_t)a * e->w, e->takes + (size_t)b * e->w, level);
        e->keys[j] = key;
        if (j == 0 || key < lo)
            lo = key;
        if (j == 0 || key > hi)
            hi = key;
    }
    if (lo == hi) {
        memcpy(out, row, (size_t)len * sizeof *out);
        return;
    }
    memset(e->counts, 0, (size_t)(hi - lo + 1) * sizeof *e->counts);
    for (j = 0; j < len; j++)
        e->counts[e->keys[j] - lo]++;
    for (k = at = 0; k <= hi - lo; k++) {
        const int c = e->counts[k];
        e->counts[k] = at;
        at += c;
    }
    for (j = 0; j < len; j++)
        out[e->counts[e->keys[j] - lo]++] = row[j];
}

#define CHOSEN(e, u) ((e)->chosen + (size_t)(u) * SET_CAP)
#define HOLDERS(e, v) ((e)->holders + (size_t)(v) * SET_CAP)

/* matchings._augment_capacitated from left vertex u over the candidate
 * rows: one more edge at u along an augmenting path, found depth first,
 * each frame of the stack a left vertex (fw), its next candidate (fpos),
 * the right vertex it tries (ftook) and that vertex's next holder (fhold,
 * -1 before it tries one).  Returns whether it found one. */
static int augment(struct ss *e, int u)
{
    int depth = 1, d;

    if (++e->stamp == 0) {
        memset(e->seen, 0, (size_t)e->n * sizeof *e->seen);
        e->stamp = 1;
    }
    e->fw[0] = u;
    e->fpos[0] = 0;
    e->fhold[0] = -1;
    while (depth) {
        const int f = depth - 1, w = e->fw[f];
        const int *row = e->cands + e->row[w];
        int v = -1;

        if (e->fhold[f] >= 0 && e->fhold[f] < e->nholders[e->ftook[f]]) {
            e->fw[depth] = HOLDERS(e, e->ftook[f])[e->fhold[f]++];
            e->fpos[depth] = 0;
            e->fhold[depth] = -1;
            depth++;
            continue;
        }
        while (e->fpos[f] < e->avail_len[w]) {
            const int c = row[e->fpos[f]++];
            if (e->seen[c] != e->stamp &&
                !set_has(CHOSEN(e, w), e->nchosen[w], c)) {
                v = c;
                break;
            }
        }
        if (v < 0) {
            depth--;
            continue;
        }
        e->seen[v] = e->stamp;
        e->ftook[f] = v;
        e->fhold[f] = 0;
        if (e->room[v]) {
            /* each left vertex on the path takes its right vertex and
             * gives up the one the frame below it tried */
            e->room[v]--;
            for (d = f; d >= 0; d--) {
                const int x = e->fw[d], t = e->ftook[d];
                set_add(CHOSEN(e, x), &e->nchosen[x], t);
                set_add(HOLDERS(e, t), &e->nholders[t], x);
                if (d) {
                    const int g = e->ftook[d - 1];
                    set_del(CHOSEN(e, x), &e->nchosen[x], g);
                    set_del(HOLDERS(e, g), &e->nholders[g], x);
                }
            }
            return 1;
        }
    }
    return 0;
}

/* matchings.degree_split(left, the candidate rows, level's needs): 1 with
 * chosen[u] the right vertices of each left vertex u, or 0 where it raises
 * MatchingFailure. */
static int degree_split(struct ss *e, int level)
{
    int64_t lsum = 0, rsum = 0;
    int k, j, v;

    for (k = 0; k < e->na; k++) {
        lsum += need(e, level, e->left[k]);
        e->nchosen[e->left[k]] = 0;
    }
    for (v = 0; v < e->n; v++)
        if (e->pool_deg[v] && !e->in_a[v]) {
            rsum += e->room[v] = need(e, level, v);
            e->nholders[v] = 0;
        }
    if (lsum != rsum)
        return 0;
    for (k = 0; k < e->na; k++) {
        const int u = e->left[k], want = need(e, level, u);
        const int *row = e->cands + e->row[u];
        for (j = 0; j < e->avail_len[u] && e->nchosen[u] != want; j++) {
            const int b = row[j];
            if (e->room[b]) {
                e->room[b]--;
                set_add(CHOSEN(e, u), &e->nchosen[u], b);
                set_add(HOLDERS(e, b), &e->nholders[b], u);
            }
        }
    }
    for (k = 0; k < e->na; k++) {
        const int u = e->left[k];
        while (e->nchosen[u] < need(e, level, u))
            if (!augment(e, u))
                return 0;
    }
    return 1;
}

/* Put the edge {x, y} into factor i at x and at y.  Returns 0, or -2 when
 * a vertex would get a third neighbour. */
static int factor_add(struct ss *e, int i, int x, int y, int pool)
{
    const int ends[2] = {x, y};
    int k;

    for (k = 0; k < 2; k++) {
        const int a = ends[k];
        size_t at;
        if (e->fill[a] == 2)
            return -2;
        at = ((size_t)i * e->n + a) * 2 + e->fill[a]++;
        e->nb[at] = ends[1 - k];
        e->pf[at] = (unsigned char)pool;
    }
    return 0;
}

/* _split_levels: the 2-factors into nb and pf.  Returns 0, 1 when some
 * level has no split, 2 with *late the level at which the wall clock had
 * passed deadline, -2 when a factor is not 2-regular (which a pool and
 * systems that passed the checks never give). */
static int split_levels(struct ss *e, double deadline, int *late)
{
    const int n = e->n, s = e->s;
    int i, k, j, v, status;

    memcpy(e->left, e->A, (size_t)e->na * sizeof *e->left);
    shuffle(&e->rng, e->left, NULL, e->na);
    for (v = 0; v < n; v++) {
        e->avail_len[v] = e->in_a[v] ? e->pool_deg[v] : 0;
        e->rest[v] = e->ntakes[v];
    }
    memcpy(e->avail, e->base, (size_t)e->row[n] * sizeof *e->avail);
    for (k = 0; k < e->na; k++) {
        const int a = e->left[k];
        shuffle(&e->rng, e->avail + e->row[a], NULL, e->avail_len[a]);
    }
    for (i = 0; i < s; i++) {
        if (monotonic() > deadline) {
            *late = i;
            return 2;
        }
        if (i + 1 < s) {
            for (v = 0; v < n; v++)
                e->rest[v] -= (int)(e->takes[(size_t)v * e->w + (i >> 6)] >>
                                    (i & 63) & 1);
            for (k = 0; k < e->na; k++)
                sort_row(e, e->left[k], i);
            if (!degree_split(e, i))
                return 1;
            for (k = 0; k < e->na; k++) {
                const int a = e->left[k];
                int *row = e->avail + e->row[a], kept = 0;
                for (j = 0; j < e->avail_len[a]; j++)
                    if (!set_has(CHOSEN(e, a), e->nchosen[a], row[j]))
                        row[kept++] = row[j];
                e->avail_len[a] = kept;
            }
        }
        memset(e->fill, 0, (size_t)n * sizeof *e->fill);
        for (j = e->sys_off[i]; j < e->sys_off[i + 1]; j++)
            if ((status = factor_add(e, i, e->sys[2 * j],
                                     e->sys[2 * j + 1], 0)) != 0)
                return status;
        for (k = 0; k < e->na; k++) {
            const int a = e->left[k];
            const int *set = i + 1 < s ? CHOSEN(e, a) : e->avail + e->row[a];
            const int cnt = i + 1 < s ? e->nchosen[a] : e->avail_len[a];
            for (j = 0; j < cnt; j++)
                if ((status = factor_add(e, i, a, set[j], 1)) != 0)
                    return status;
        }
        for (v = 0; v < n; v++)
            if (e->fill[v] != 2)
                return -2;
    }
    return 0;
}

#define NB(e, i, v) ((e)->nb + ((size_t)(i) * (e)->n + (v)) * 2)
#define PF(e, i, v) ((e)->pf + ((size_t)(i) * (e)->n + (v)) * 2)

/* _cycles_of factor i: each vertex's cycle (which) and place along it
 * (pos), the cycle lengths and their number. */
static void cycles_of(struct ss *e, int i)
{
    const int n = e->n;
    int *which = e->which + (size_t)i * n, *pos = e->pos + (size_t)i * n;
    int *lengths = e->lengths + (size_t)i * n, start, count = 0;

    for (start = 0; start < n; start++)
        which[start] = -1;
    for (start = 0; start < n; start++) {
        int steps = 0, prev = NB(e, i, start)[1], cur = start;
        if (which[start] >= 0)
            continue;
        do {
            const int *ab = NB(e, i, cur);
            const int next = ab[1] == prev ? ab[0] : ab[1];
            which[cur] = count;
            pos[cur] = steps++;
            prev = cur;
            cur = next;
        } while (cur != start);
        lengths[count++] = steps;
    }
    e->ncyc[i] = count;
}

/* Whether {c, d} is a pool edge of factor f. */
static int pool_edge_of(const struct ss *e, int f, int c, int d)
{
    const int *nb = NB(e, f, c);
    const unsigned char *pf = PF(e, f, c);

    return (nb[0] == d && pf[0]) || (nb[1] == d && pf[1]);
}

/* Python's (a - b) % size == 1 for size >= 1. */
static int one_step(int a, int b, int size)
{
    int r = (a - b) % size;

    return (r < 0 ? r + size : r) == 1;
}

/* _find_swap on factor fx: 1 with the switch in move[0..4] = x, y, c, d,
 * fy, or 0 when there is none. */
static int find_swap(const struct ss *e, int fx, int *move)
{
    const int n = e->n;
    const int *wx = e->which + (size_t)fx * n;
    const int *lx = e->lengths + (size_t)fx * n;
    int longest = 0, t, j, k, jj;

    for (k = 1; k < e->ncyc[fx]; k++)
        if (lx[k] > lx[longest])
            longest = k;
    for (t = 0; t < n; t++) {
        const int y = e->order[t], cy = wx[y];
        if (cy == longest)
            continue;
        for (j = 0; j < 2; j++) {
            const int c = NB(e, fx, y)[j];
            if (!PF(e, fx, y)[j])
                continue;
            for (k = e->pn_off[y]; k < e->pn_off[y + 1]; k++) {
                const int x = e->pn[k], fy = e->po[k];
                const int *wy = e->which + (size_t)fy * n;
                const int *py = e->pos + (size_t)fy * n;
                if (wx[x] == cy)
                    continue;
                for (jj = 0; jj < 2; jj++) {
                    const int d = NB(e, fx, x)[jj];
                    int size;
                    if (!pool_edge_of(e, fy, c, d) || !PF(e, fx, x)[jj])
                        continue;
                    size = e->lengths[(size_t)fy * n + wy[x]];
                    if (wy[x] != wy[c] || one_step(py[y], py[x], size) !=
                                              one_step(py[d], py[c], size)) {
                        move[0] = x;
                        move[1] = y;
                        move[2] = c;
                        move[3] = d;
                        move[4] = fy;
                        return 1;
                    }
                }
            }
        }
    }
    return 0;
}

/* Hand the pool edge {a, b} to factor f in the pool lists. */
static void set_owner(struct ss *e, int a, int b, int f)
{
    int k, end;

    for (k = 0; k < 2; k++) {
        const int x = k ? b : a, y = k ? a : b;
        int i;
        for (i = e->pn_off[x], end = e->pn_off[x + 1]; i < end; i++)
            if (e->pn[i] == y)
                e->po[i] = f;
    }
}

/* Replace old by new among v's neighbours in factor f (the first slot
 * holding old, as list.index finds it). */
static void replace(struct ss *e, int f, int v, int old, int new)
{
    int *nb = NB(e, f, v);

    nb[nb[0] == old ? 0 : 1] = new;
}

/* _switch: xy and cd go to fx, yc and dx to fy. */
static void make_switch(struct ss *e, int fx, const int *move)
{
    const int x = move[0], y = move[1], c = move[2], d = move[3], fy = move[4];

    replace(e, fx, y, c, x);
    replace(e, fx, c, y, d);
    replace(e, fx, x, d, y);
    replace(e, fx, d, x, c);
    replace(e, fy, x, y, d);
    replace(e, fy, y, x, c);
    replace(e, fy, c, d, y);
    replace(e, fy, d, c, x);
    set_owner(e, x, y, fx);
    set_owner(e, c, d, fx);
    set_owner(e, y, c, fy);
    set_owner(e, d, x, fy);
    cycles_of(e, fx);
    cycles_of(e, fy);
}

/* _repair: switch until every factor is one Hamilton cycle, adding the
 * switches made to *swaps.  Returns 1 with the cycles written to `cycles`
 * (n vertices per factor), 0 when no broken factor has a switch left, or
 * -2 when the pool lists overflow (which split_levels' factors never
 * make). */
static int repair(struct ss *e, int *cycles, int64_t *swaps)
{
    const int n = e->n, s = e->s;
    int i, v, j, k, move[5];

    int *next = e->fill; /* the next free entry of each vertex's list */

    memcpy(next, e->pn_off, (size_t)n * sizeof *next);
    for (i = 0; i < s; i++)
        for (v = 0; v < n; v++)
            for (j = 0; j < 2; j++)
                if (PF(e, i, v)[j]) {
                    if (next[v] == e->pn_off[v + 1])
                        return -2;
                    e->pn[next[v]] = NB(e, i, v)[j];
                    e->po[next[v]++] = i;
                }
    for (v = 0; v < n; v++)
        e->order[v] = v;
    shuffle(&e->rng, e->order, NULL, n);
    for (v = 0; v < n; v++)
        shuffle(&e->rng, e->pn + e->pn_off[v], e->po + e->pn_off[v],
                e->pn_off[v + 1] - e->pn_off[v]);
    for (i = 0; i < s; i++)
        cycles_of(e, i);
    for (;;) {
        int broken = 0, found = 0;
        for (i = 0; i < s && !found; i++)
            if (e->ncyc[i] > 1) {
                broken = 1;
                found = find_swap(e, i, move);
            }
        if (!broken)
            break;
        if (!found)
            return 0;
        make_switch(e, i - 1, move);
        ++*swaps;
    }
    for (i = 0; i < s; i++) {
        int *walk = cycles + (size_t)i * n, prev = 0, cur = NB(e, i, 0)[0];
        walk[0] = 0;
        for (k = 1; cur != 0 && k < n; k++) {
            const int *ab = NB(e, i, cur);
            walk[k] = cur;
            v = ab[1] == prev ? ab[0] : ab[1];
            prev = cur;
            cur = v;
        }
    }
    return 1;
}

/* Whether {p, q} is a pool edge, by a binary search of the sorted row of
 * its end in A. */
static int in_pool(const struct ss *e, int p, int q)
{
    const int a = e->in_a[p] ? p : q, b = a == p ? q : p;
    int lo = e->row[a], hi = e->row[a] + e->pool_deg[a];

    if (p == q || e->in_a[p] == e->in_a[q])
        return 0;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (e->base[mid] < b)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < e->row[a] + e->pool_deg[a] && e->base[lo] == b;
}

/* an array of count items of size bytes, zeroed, freed by hk_split_and_switch */
static void *grab(void **blocks, int *nblocks, size_t count, size_t size)
{
    void *p = calloc(count + 1, size);

    if (p != NULL)
        blocks[(*nblocks)++] = p;
    return p;
}

#define MAX_BLOCKS 48

/* switches.split_and_switch on a graph of n >= 1 vertices: s >= 1 path
 * systems, system i's edges at sys[2 * j], sys[2 * j + 1] for j from
 * sys_off[i] to sys_off[i + 1] - 1 in the caller's order, the m pool edges
 * in pool (2 * m vertex ids), the vertex list A (na ids) and the seed as
 * random.seed takes it: the nkey 32-bit words of |seed|, least significant
 * first, with room for one more, which the engine steps in place from one
 * attempt to the next, and neg for a negative seed.  At most `attempts`
 * attempts run, and the split stops once the wall clock (time.monotonic())
 * has passed deadline.  Returns, with info[0] and info[1]:
 *  0  the cycles in `cycles`, n vertices each; the attempts, the switches;
 *  1  a vertex short of edges or with a system of the wrong degree: the
 *     vertex, its edges in the pool and the systems;
 *  2  every attempt stuck: the attempts, the switches;
 *  3  the wall clock passed: the split level;
 *  4  n < 1;
 *  5  a vertex of A outside 0..n-1 or repeated: its index in A;
 *  6  a pool edge that is not (u, v), u < v, from A to its complement
 *     inside 0..n-1: its index in pool;
 *  7  a system edge with an end outside 0..n-1, or a pool edge: the
 *     system, the edge's index in it;
 * -1  out of memory;
 * -2  a factor that is not 2-regular (no input that passed the checks
 *     gives one). */
int hk_split_and_switch(int n, int na, const int *A, int m, const int *pool,
                        int s, const int *sys_off, const int *sys,
                        uint32_t *key, int nkey, int neg, int attempts,
                        double deadline, int *cycles, int64_t *info)
{
    void *blocks[MAX_BLOCKS];
    int nblocks = 0, status = 0, att, i, j, k, v, *by_b, *at;
    int64_t swaps = 0;
    struct ss e;

#define GRAB(p, count)                                                      \
    if (((p) = grab(blocks, &nblocks, (count), sizeof *(p))) == NULL) {     \
        status = -1;                                                        \
        goto done;                                                          \
    }

    memset(&e, 0, sizeof e);
    info[0] = info[1] = 0;
    if (n < 1)
        return 4;
    e.n = n;
    e.na = na;
    e.s = s;
    e.w = (s + 63) / 64;
    e.A = A;
    e.sys = sys;
    e.sys_off = sys_off;
    GRAB(e.in_a, n);
    for (k = 0; k < na; k++) {
        if ((unsigned)A[k] >= (unsigned)n || e.in_a[A[k]]) {
            info[0] = k;
            status = 5;
            goto done;
        }
        e.in_a[A[k]] = 1;
    }
    GRAB(e.pool_deg, n);
    for (k = 0; k < m; k++) {
        const int u = pool[2 * k], w = pool[2 * k + 1];
        if (u < 0 || u >= w || w >= n || e.in_a[u] == e.in_a[w]) {
            info[0] = k;
            status = 6;
            goto done;
        }
        e.pool_deg[u]++;
        e.pool_deg[w]++;
    }

    /* the rows: the pool edges by their end outside A, then each at its
     * end in A, so every row is ascending, the order of the sorted pool */
    GRAB(e.row, n + 1);
    GRAB(e.base, m);
    GRAB(by_b, m);
    GRAB(at, n + 1);
    for (v = 0; v < n; v++) {
        e.row[v + 1] = e.row[v] + (e.in_a[v] ? e.pool_deg[v] : 0);
        at[v + 1] = at[v] + (e.in_a[v] ? 0 : e.pool_deg[v]);
    }
    for (k = 0; k < m; k++)
        by_b[at[pool[2 * k + !e.in_a[pool[2 * k + 1]]]]++] = k;
    memcpy(at, e.row, (size_t)n * sizeof *at);
    for (k = 0; k < m; k++) {
        const int u = pool[2 * by_b[k]], w = pool[2 * by_b[k] + 1];
        if (e.in_a[u])
            e.base[at[u]++] = w;
        else
            e.base[at[w]++] = u;
    }

    GRAB(e.deg, (size_t)s * n);
    for (i = 0; i < s; i++)
        for (j = sys_off[i]; j < sys_off[i + 1]; j++) {
            const int u = sys[2 * j], w = sys[2 * j + 1];
            if (!in_range(u, w, n) || in_pool(&e, u, w)) {
                info[0] = i;
                info[1] = j - sys_off[i];
                status = 7;
                goto done;
            }
            e.deg[(size_t)i * n + u]++;
            e.deg[(size_t)i * n + w]++;
        }
    /* _level_needs */
    for (v = 0; v < n; v++) {
        int64_t have = e.pool_deg[v];
        int wrong = 0;
        for (i = 0; i < s; i++) {
            const int d = e.deg[(size_t)i * n + v];
            have += d;
            wrong |= d > 2 || (!e.pool_deg[v] && d != 2);
        }
        if (have != 2 * (int64_t)s || wrong) {
            info[0] = v;
            info[1] = have;
            status = 1;
            goto done;
        }
    }

    GRAB(e.takes, (size_t)n * e.w);
    GRAB(e.ntakes, n);
    for (v = 0; v < n; v++)
        for (i = 0; i < s; i++)
            if (need(&e, i, v)) {
                e.takes[(size_t)v * e.w + (i >> 6)] |= (uint64_t)1 << (i & 63);
                e.ntakes[v]++;
            }
    GRAB(e.left, na);
    GRAB(e.avail, m);
    GRAB(e.avail_len, n);
    GRAB(e.cands, m);
    GRAB(e.rest, n);
    GRAB(e.room, n);
    GRAB(e.chosen, (size_t)n * SET_CAP);
    GRAB(e.nchosen, n);
    GRAB(e.holders, (size_t)n * SET_CAP);
    GRAB(e.nholders, n);
    GRAB(e.fw, n + 1);
    GRAB(e.fpos, n + 1);
    GRAB(e.ftook, n + 1);
    GRAB(e.fhold, n + 1);
    GRAB(e.keys, n);
    GRAB(e.counts, s + 1);
    GRAB(e.seen, n);
    GRAB(e.nb, (size_t)s * n * 2);
    GRAB(e.pf, (size_t)s * n * 2);
    GRAB(e.which, (size_t)s * n);
    GRAB(e.pos, (size_t)s * n);
    GRAB(e.lengths, (size_t)s * n);
    GRAB(e.ncyc, s);
    GRAB(e.pn, 2 * (size_t)m);
    GRAB(e.po, 2 * (size_t)m);
    GRAB(e.pn_off, n + 1);
    GRAB(e.order, n);
    GRAB(e.fill, n);
    for (v = 0; v < n; v++)
        e.pn_off[v + 1] = e.pn_off[v] + e.pool_deg[v];

    status = 2;
    for (att = 0; att < attempts; att++) {
        int late = 0, got;
        if (att)
            step_seed(key, &nkey, &neg);
        mt_seed(&e.rng, key, nkey);
        got = split_levels(&e, deadline, &late);
        if (got == 1)
            continue;
        if (got == 2) {
            info[0] = late;
            status = 3;
            goto done;
        }
        if (got == 0)
            got = repair(&e, cycles, &swaps);
        if (got < 0) {
            status = -2;
            goto done;
        }
        if (got == 1) {
            info[0] = att + 1;
            status = 0;
            break;
        }
    }
    if (status == 2)
        info[0] = attempts;
    info[1] = swaps;
done:
#undef GRAB
    while (nblocks)
        free(blocks[--nblocks]);
    return status;
}
