"""Instance generators with certified family properties.

Each generator returns (graph, partition hint, properties dict); the
properties are recomputed from the output, not assumed from the recipe.

networkx is imported inside ``degree_factor``, its only caller here: the
drivers use only ``near_bipartition`` and ``bipartite_degree_factor`` from
this module, so they start without it.  The bipartite degree factor runs
on ``matchings.degree_split`` instead.
"""

from __future__ import annotations

import random
from itertools import chain

from .balance import frac
from .errors import BadParams, MatchingFailure
from .graphs import Graph, LabelledPartition, norm_edge
from .matchings import degree_split


def generate(kind: str, params: dict, seed: int = 0):
    if kind == "complete_bipartite":
        return complete_bipartite_instance(int(params.get("m", 5)))
    if kind == "babai":
        return babai_instance(int(params.get("k", 1)))
    if kind == "two_cliques":
        return two_cliques_instance(int(params.get("n", 10)))
    if kind == "eps_bipartite":
        return eps_bipartite_instance(
            n=int(params.get("n", 20)),
            D=int(params.get("D", 8)),
            eps=frac(params.get("eps", "1/20")),
            hubs=int(params.get("hubs", 1)),
            hub_degree=int(params.get("hub_degree", 0)),
            extra_internal=int(params.get("extra_internal", 0)),
            seed=seed,
        )
    raise BadParams(f"unknown instance kind {kind!r}")


def complete_bipartite_instance(m: int):
    if m < 1:
        raise BadParams("side size must be positive")
    g = Graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
    part = LabelledPartition(2 * m, [], range(m), [], range(m, 2 * m))
    props = {"kind": "complete_bipartite", "m": m, "regular_degree": m}
    return g, part, props


def babai_instance(k: int):
    """One side of size 4k+2 carrying a perfect matching and nothing else,
    an independent side of size 4k, and all cross edges."""
    if k < 1:
        raise BadParams("k must be positive")
    n = 8 * k + 2
    a_side = list(range(4 * k + 2))
    b_side = list(range(4 * k + 2, n))
    edges = [(a, b) for a in a_side for b in b_side]
    matching = [(2 * i, 2 * i + 1) for i in range(2 * k + 1)]
    g = Graph(n, edges + matching)
    part = LabelledPartition(n, [], a_side, [], b_side)
    degs = g.degrees()
    props = {
        "kind": "babai",
        "k": k,
        "n": n,
        "min_degree": min(degs),
        "min_degree_is_half_n": min(degs) == n // 2,
        "side_matching_edges": len(matching),
    }
    if not props["min_degree_is_half_n"]:
        raise AssertionError("construction lost its degree property")
    return g, part, props


def two_cliques_instance(n: int):
    """Two disjoint odd cliques (n = 2 mod 4), or cliques of orders n/2-1
    and n/2+1 with a Hamilton cycle removed from the larger (n = 0 mod 4)."""
    if n % 2:
        raise BadParams("order must be even")
    if n % 4 == 2:
        half = n // 2
        edges = [(i, j) for i in range(half) for j in range(i + 1, half)]
        edges += [
            (half + i, half + j) for i in range(half) for j in range(i + 1, half)
        ]
        g = Graph(n, edges)
    else:
        small = n // 2 - 1
        big = n // 2 + 1
        edges = [(i, j) for i in range(small) for j in range(i + 1, small)]
        bigs = list(range(small, n))
        edges += [
            (bigs[i], bigs[j]) for i in range(big) for j in range(i + 1, big)
        ]
        g = Graph(n, edges)
        ham = [
            norm_edge(bigs[i], bigs[(i + 1) % big]) for i in range(big)
        ]
        g = g.minus_edges(ham)
    degs = set(g.degrees())
    props = {"kind": "two_cliques", "n": n, "regular_degree": degs.pop()}
    if degs:
        raise AssertionError("two-cliques instance is not regular")
    part = LabelledPartition(
        n, [], range(n // 2), [], range(n // 2, n)
    )
    return g, part, props


def eps_bipartite_instance(
    n: int,
    D: int,
    eps,
    hubs: int = 1,
    hub_degree: int = 0,
    extra_internal: int = 0,
    seed: int = 0,
):
    """A dense nearly-bipartite host: all cross edges, a few planted
    internal edges (hub vertices of high internal degree on both sides plus
    scattered extras), together with a D-regular spanning subgraph that
    contains one hub-to-hub cross edge per hub pair and no hub internal
    edges.

    Internal edge budget is verified against eps * n^2 per side.
    """
    eps = frac(eps)
    if n % 2:
        raise BadParams("order must be even")
    half = n // 2
    s1 = list(range(half))
    s2 = list(range(half, n))
    rng = random.Random(seed)
    cross = [(a, b) for a in s1 for b in s2]
    internal = set()
    forced = set()
    forbidden = set()
    for j in range(hubs):
        u, w = s1[j], s2[j]
        others1 = [v for v in s1 if v != u]
        others2 = [v for v in s2 if v != w]
        for v in others1[:hub_degree]:
            internal.add(norm_edge(u, v))
            forbidden.add(norm_edge(u, v))
        for v in others2[:hub_degree]:
            internal.add(norm_edge(w, v))
            forbidden.add(norm_edge(w, v))
        forced.add(norm_edge(u, w))
    pool1 = [
        norm_edge(a, b)
        for i, a in enumerate(s1[hubs:], start=hubs)
        for b in s1[i + 1 :]
    ]
    pool2 = [
        norm_edge(a, b)
        for i, a in enumerate(s2[hubs:], start=hubs)
        for b in s2[i + 1 :]
    ]
    rng.shuffle(pool1)
    rng.shuffle(pool2)
    internal |= set(pool1[: extra_internal - extra_internal // 2])
    internal |= set(pool2[: extra_internal // 2])
    f = Graph(n, cross + sorted(internal))
    e1, e2 = f.e_within(s1), f.e_within(s2)
    if e1 > eps * n * n or e2 > eps * n * n:
        raise BadParams(
            f"internal budget blown: e(S1)={e1}, e(S2)={e2}, eps*n^2={eps * n * n}"
        )
    # the subgraph stays internal-edge-free: its exceptional structure comes
    # from the forced hub-to-hub cut edges, and the weak-framework degree
    # conditions then hold by construction
    g = regular_spanning_subgraph(
        f, D, seed=seed, forced=forced, forbidden=internal, split=(s1, s2)
    )
    part = LabelledPartition(n, [], s1, [], s2)
    props = {
        "kind": "eps_bipartite",
        "n": n,
        "D": D,
        "eps": f"{eps}",
        "internal_edges": [e1, e2],
        "internal_budget": f"{eps * n * n}",
        "forced_cut_edges": sorted(forced),
    }
    return f, part, props, g


def regular_spanning_subgraph(
    f: Graph,
    D: int,
    seed: int = 0,
    forced: set | None = None,
    forbidden: set | None = None,
    split: tuple | None = None,
) -> Graph:
    """A D-regular spanning subgraph of f containing the forced edges and
    avoiding the forbidden ones.  The seed permutes vertex labels to vary
    the outcome.

    When the remaining host is bipartite (``split`` given, and no host edge
    inside a side), the extraction runs as an exact-degree bipartite split;
    otherwise the degree-gadget matching reduction handles the general
    case.
    """
    forced = set(norm_edge(*e) for e in (forced or ()))
    forbidden = set(norm_edge(*e) for e in (forbidden or ()))
    host = f.minus_edges(forbidden | forced)
    targets = {v: D for v in range(f.n)}
    for u, v in forced:
        targets[u] -= 1
        targets[v] -= 1
    if min(targets.values()) < 0:
        raise BadParams("forced edges exceed the target degree")
    perm = list(range(f.n))
    random.Random(seed).shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    host_p = Graph(f.n, [(perm[u], perm[v]) for u, v in host.edges])
    targets_p = {perm[v]: t for v, t in targets.items()}
    if split is not None and not host.e_within(split[0]) and not host.e_within(split[1]):
        split_p = ([perm[v] for v in split[0]], [perm[v] for v in split[1]])
        sub_p = bipartite_degree_factor(host_p, targets_p, split_p)
    else:
        sub_p = degree_factor(host_p, targets_p)
    edges = {norm_edge(inv[u], inv[v]) for u, v in sub_p.edges} | forced
    out = Graph(f.n, edges)
    if set(out.degrees()) != {D}:
        raise AssertionError("extracted subgraph is not regular")
    return out


def bipartite_degree_factor(g: Graph, targets: dict, split: tuple) -> Graph:
    """Exact-degree subgraph of a bipartite host, by ``degree_split`` with
    each side in order and each candidate list sorted."""
    left, right = list(split[0]), list(split[1])
    need = {v: targets.get(v, 0) for v in chain(left, right)}
    rset = set(right)
    cands = {u: sorted(g.adj[u] & rset) for u in left}
    return Graph(g.n, degree_split(left, cands, need))


def degree_factor(g: Graph, targets: dict[int, int]) -> Graph:
    """Spanning subgraph with exact prescribed degrees, or MatchingFailure.

    Classic reduction: each vertex becomes a gadget with one external node
    per incident edge and deg - target internal nodes joined to all of them;
    a perfect matching of the gadget graph selects the subgraph.
    """
    import networkx as nx

    gx = nx.Graph()
    edge_nodes = {}
    for u, v in sorted(g.edges):
        eu, ev = ("e", u, v, u), ("e", u, v, v)
        edge_nodes[(u, v)] = (eu, ev)
        gx.add_edge(eu, ev)
    for v in range(g.n):
        spare = g.degree(v) - targets.get(v, 0)
        if spare < 0:
            raise MatchingFailure(f"vertex {v} has degree {g.degree(v)} < target")
        inc = sorted(e for e in g.edges if v in e)
        for j in range(spare):
            node = ("i", v, j)
            for u, w in inc:
                gx.add_edge(node, ("e", u, w, v))
    if gx.number_of_nodes() == 0:
        return Graph(g.n, [])
    matching = nx.max_weight_matching(gx, maxcardinality=True)
    if 2 * len(matching) != gx.number_of_nodes():
        raise MatchingFailure("no spanning subgraph with the prescribed degrees")
    matched = {frozenset(p) for p in matching}
    chosen = [
        e for e, (eu, ev) in edge_nodes.items() if frozenset((eu, ev)) in matched
    ]
    return Graph(g.n, chosen)


def verify_eps_bipartite(f: Graph, eps) -> tuple[bool, tuple]:
    """Certify near-bipartiteness: find a balanced split with both internal
    edge counts at most eps*n^2 (greedy balanced local search)."""
    eps = frac(eps)
    n = f.n
    s1, s2 = near_bipartition(f)
    ok = f.e_within(s1) <= eps * n * n and f.e_within(s2) <= eps * n * n
    ok = ok and abs(len(s1) - len(s2)) <= 1
    return ok, (sorted(s1), sorted(s2))


def near_bipartition(f: Graph) -> tuple[set, set]:
    """Deterministic local search for a near-balanced split minimizing
    internal edges: start from an alternating assignment by degree order,
    then first-improvement single swaps."""
    order = sorted(range(f.n), key=lambda v: (-f.degree(v), v))
    s1 = set(order[0::2])
    s2 = set(order[1::2])

    def internal():
        return f.e_within(s1) + f.e_within(s2)

    best = internal()
    improved = True
    while improved:
        improved = False
        for u in sorted(s1):
            for v in sorted(s2):
                s1.discard(u); s2.discard(v)
                s1.add(v); s2.add(u)
                cand = internal()
                if cand < best:
                    best = cand
                    improved = True
                    break
                s1.discard(v); s2.discard(u)
                s1.add(u); s2.add(v)
            if improved:
                break
    return s1, s2
