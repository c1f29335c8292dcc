import random

import pytest

from bipham.graphs import Graph


@pytest.fixture
def rng():
    return random.Random(12345)


def random_graph(rng, n, p):
    return Graph(
        n,
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ],
    )


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def level_cycles(n, pool, fixed, stats):
    """The referee of both kernels and of the closure, sharing no code
    with them.  Every Hamilton cycle on 0..n-1 that contains the edges
    ``fixed`` and otherwise only edges of ``pool``, once each, as a vertex
    list from 0 whose second vertex is below its last.  A depth-first search over
    vertices: a vertex is left by its fixed edge not yet walked when it has
    one, and otherwise by a pool edge to a vertex with at most one fixed
    edge.  A node is pruned when a vertex off the path has fewer than two
    edges to the vertices it can still join: those off the path, the
    current one and 0.  Each step counts one node in ``stats.nodes``; with
    ``stats.max_nodes`` spent the search sets ``stats.budget_exceeded`` and
    ends."""
    fixed_nb = [set() for _ in range(n)]
    pool_nb = [set() for _ in range(n)]
    for nb, edges in ((fixed_nb, fixed), (pool_nb, pool)):
        for u, v in edges:
            nb[u].add(v)
            nb[v].add(u)
    path, off = [0], set(range(1, n))

    def by_pool(v):
        return {w for w in pool_nb[v] if len(fixed_nb[w]) < 2}

    def exits(v, prev):
        rest = fixed_nb[v] - {prev}
        if rest:
            return rest if len(rest) == 1 else set()
        return by_pool(v)

    def stuck(v):
        open_ = off | {v, 0}
        return any(len((fixed_nb[w] | pool_nb[w]) & open_) < 2 for w in off)

    def extend(v, prev):
        if prev is None:  # 0 is left by either of its two cycle edges
            options = fixed_nb[0] | (by_pool(0) if len(fixed_nb[0]) < 2
                                     else set())
        else:
            options = exits(v, prev)
        for w in sorted(options & off):
            if stats.nodes >= stats.max_nodes:
                stats.budget_exceeded = True
                return
            stats.nodes += 1
            path.append(w)
            off.discard(w)
            if not off:
                if (0 in exits(w, v) and fixed_nb[0] <= {path[1], w}
                        and path[1] < w):
                    yield list(path)
            elif not stuck(w):
                yield from extend(w, v)
            off.add(w)
            path.pop()
            if stats.budget_exceeded:
                return

    return extend(0, None)
