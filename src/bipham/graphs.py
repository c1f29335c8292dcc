"""Core graph types: simple graphs, labelled partitions and path systems.

Vertices are dense integer ids 0..n-1 everywhere; partitions refer to ids.
All types are immutable values after construction, so they can be shared
freely between threads and hashed into reports.

A ``Graph`` stores its edge frozenset.  Its edges are process-wide
shared tuples: the first graph to store a vertex pair (u, v), u < v, with
``int`` ids puts its tuple into a module table, and every later graph
stores that same object, so a host, its subgraphs and other hosts on the
same vertices hold one tuple per pair between them.  The table keeps one
entry per pair ever stored and frees none.  Three things are derived from
the edges on first use and cached: the degree tuple, counted in one pass
over the edges, which every degree question reads; the neighbour index
``adj``, a frozenset per vertex, built only when a neighbourhood itself is
asked for; and the edge array ``edge_ids()``, the edges as one flat
``array("i")`` of vertex ids, which the Hamilton kernel searches and in
which it counts class degrees.  The neighbour index of a dense host is
larger than its edge set, so degree questions never build it.  A graph
made by ``minus_edges`` or ``minus`` from a parent that holds an edge
array gets its own from the parent's, derived in the compiled kernel, so a
host's edges are flattened in Python once for all its subgraphs.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from . import hamkernel
from .errors import BadParams, PartitionMismatch
from .report import format_json

Edge = tuple[int, int]

# the one shared tuple of each (min, max) pair of plain ``int`` ids that a
# Graph has stored, keyed by itself (see Graph); entries are made by
# setdefault, so two threads entering one pair at once leave at worst an
# equal tuple unshared
_EDGES: dict[Edge, Edge] = {}


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an undirected edge to (min, max) order; loops are invalid."""
    if u == v:
        raise BadParams(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


def norm_edges(pairs: Iterable[Sequence[int]]) -> frozenset[Edge]:
    return frozenset(norm_edge(u, v) for u, v in pairs)


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Stores ``edges``, a frozenset of (min, max) pairs, each the shared
    tuple of its pair: the frozenset receives each edge as the table's
    tuple when there is one, else as the tuple normalised from the input,
    and only once the edges pass the checks are their new pairs of plain
    ``int`` ids entered, so a loop, a negative id, or a ``True``, float or
    numpy id never becomes another graph's edge.  A shared tuple is equal
    to the one it stands for, and the frozenset receives the edges in
    input order as before, so its iteration order, which searches and
    generators follow, is unchanged.  Caches, each built on first use:
    the degree tuple, which ``degree``, ``degrees``, ``max_degree``,
    ``min_degree`` and ``is_regular`` read and which is counted from the
    edges without building neighbourhoods; ``adj``, the frozenset of each
    vertex's neighbours; and ``edge_ids()``, the kernel's edge array, which
    ``minus_edges`` and ``minus`` also derive from a parent's."""

    __slots__ = ("n", "edges", "_adj", "_deg", "_ids")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        self.n = n = int(n)
        shared = _EDGES.get
        es = frozenset(shared(e, e) for u, v in edges
                       for e in [(u, v) if u < v else (v, u)])
        bad = next((e for e in es if e[0] == e[1] or e[0] < 0 or e[1] >= n), None)
        if bad is not None:
            u, v = bad
            if u == v:
                raise BadParams(f"loop edge ({u},{v}) not allowed")
            raise BadParams(f"edge ({u},{v}) out of range for n={n}")
        for e in es.difference(_EDGES):
            if type(e[0]) is type(e[1]) is int:
                _EDGES.setdefault(e, e)
        self.edges = es
        self._adj = None
        self._deg = None
        self._ids = None

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        """A graph on edges known to be normalised and in range, such as a
        subset of a validated graph's edges; skips the checks of __init__.
        The set is still rebuilt by iteration, so that its iteration order,
        which searches and generators follow, is the one __init__ gives."""
        g = object.__new__(cls)
        g.n = n
        g.edges = frozenset(iter(edges))
        g._adj = None
        g._deg = None
        g._ids = None
        return g

    # -- basic accessors -------------------------------------------------
    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        if self._adj is None:
            nbrs = [set() for _ in range(self.n)]
            for u, v in self.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = tuple(frozenset(s) for s in nbrs)
        return self._adj

    def edge_ids(self) -> array:
        """The edges as one flat ``array("i")`` of 2m vertex ids, edge i at
        2i and 2i + 1, in no particular order: the host array the Hamilton
        kernel reads.  Built on first use from the edges, which
        construction checked, or derived from a parent's (``minus_edges``),
        and kept; callers must not change it."""
        if self._ids is None:
            self._ids = array("i", chain.from_iterable(self.edges))
        return self._ids

    def _degree_tuple(self) -> tuple[int, ...]:
        if self._deg is None:
            count = Counter(chain.from_iterable(self.edges))
            self._deg = tuple(count[v] for v in range(self.n))
        return self._deg

    def degree(self, v: int) -> int:
        return self._degree_tuple()[v]

    def degrees(self) -> list[int]:
        return list(self._degree_tuple())

    def max_degree(self) -> int:
        return max(self._degree_tuple(), default=0)

    def min_degree(self) -> int:
        return min(self._degree_tuple(), default=0)

    def common_degree(self) -> int | None:
        """The degree of every vertex; None without vertices or regularity."""
        degs = set(self._degree_tuple())
        return degs.pop() if len(degs) == 1 else None

    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    # -- set-style counting (E(S), E(S,T), d(v,S)) -----------------------
    def d(self, v: int, S: Iterable[int]) -> int:
        return len(self.adj[v].intersection(S))

    def edges_within(self, S: Iterable[int]) -> frozenset[Edge]:
        S = S if isinstance(S, (set, frozenset)) else set(S)
        return frozenset(e for e in self.edges if e[0] in S and e[1] in S)

    def edges_between(self, S: Iterable[int], T: Iterable[int]) -> frozenset[Edge]:
        S = S if isinstance(S, (set, frozenset)) else set(S)
        T = T if isinstance(T, (set, frozenset)) else set(T)
        if S & T:
            raise BadParams("edges_between requires disjoint sets")
        return frozenset(
            e
            for e in self.edges
            if (e[0] in S and e[1] in T) or (e[0] in T and e[1] in S)
        )

    def e_within(self, S: Iterable[int]) -> int:
        return len(self.edges_within(S))

    def e_between(self, S: Iterable[int], T: Iterable[int]) -> int:
        return len(self.edges_between(S, T))

    # -- one-pass counts over labelled vertex classes ----------------------
    def class_degrees(self, label: Sequence[int], k: int) -> list[list[int]]:
        """``rows[v][c]`` = d(v, class c) for every vertex v, where
        ``label[w]`` is the class 0..k-1 of w or -1 for none (see
        ``class_labels``); one pass over the edges, in the compiled kernel
        over ``edge_ids()`` when it runs."""
        if hamkernel.KERNEL == "c":
            rows = hamkernel.class_degree_rows(self.n, self.edge_ids(), label, k)
            if rows is not None:
                return rows
        rows = [[0] * k for _ in range(self.n)]
        for u, v in self.edges:
            c = label[v]
            if c >= 0:
                rows[u][c] += 1
            c = label[u]
            if c >= 0:
                rows[v][c] += 1
        return rows

    def class_edge_counts(self, label: Sequence[int], k: int) -> list[list[int]]:
        """The k x k matrix with e(class c) at ``[c][c]`` and e(class c,
        class c2) at ``[c][c2]`` and ``[c2][c]``; one pass over the edges."""
        m = [[0] * k for _ in range(k)]
        for u, v in self.edges:
            a, b = label[u], label[v]
            if a >= 0 and b >= 0:
                m[a][b] += 1
                if a != b:
                    m[b][a] += 1
        return m

    # -- algebra ----------------------------------------------------------
    def minus_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        return self._less(norm_edges(edges))

    def minus(self, other: "Graph") -> "Graph":
        return self._less(other.edges)

    def _less(self, gone: frozenset) -> "Graph":
        """The graph without the edges ``gone``; its edge array, when this
        graph holds one, is derived from this graph's in the compiled
        kernel."""
        g = Graph._trusted(self.n, self.edges - gone)
        if self._ids is not None:
            g._ids = hamkernel.minus_ids(self.n, self._ids, gone)
        return g

    def is_regular(self) -> bool:
        return len(set(self._degree_tuple())) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


def class_labels(n: int, classes: Iterable[Iterable[int]]) -> list[int]:
    """The index of the class holding each vertex 0..n-1, or -1 for a vertex
    in none: the ``label`` of ``Graph.class_degrees``/``class_edge_counts``.
    Raises BadParams when two classes share a vertex."""
    label = [-1] * n
    for c, members in enumerate(classes):
        for v in members:
            if label[v] != -1 and label[v] != c:
                raise BadParams(f"vertex {v} lies in classes {label[v]} and {c}")
            label[v] = c
    return label


class LabelledPartition:
    """The (A0, A, B0, B) split of 0..n-1, optionally with clusters.

    ``clusters_A``/``clusters_B`` split A and B into K parts of equal size m.
    """

    __slots__ = (
        "n",
        "A0",
        "A",
        "B0",
        "B",
        "clusters_A",
        "clusters_B",
        "_labels",
        "_A_prime",
        "_B_prime",
    )

    def __init__(
        self,
        n: int,
        A0: Iterable[int],
        A: Iterable[int],
        B0: Iterable[int],
        B: Iterable[int],
        clusters_A: Sequence[Iterable[int]] | None = None,
        clusters_B: Sequence[Iterable[int]] | None = None,
    ):
        self.n = int(n)
        self.A0 = tuple(sorted(A0))
        self.A = tuple(sorted(A))
        self.B0 = tuple(sorted(B0))
        self.B = tuple(sorted(B))
        parts = [self.A0, self.A, self.B0, self.B]
        all_ids = [v for p in parts for v in p]
        if len(set(all_ids)) != len(all_ids):
            raise PartitionMismatch("partition classes overlap")
        if set(all_ids) != set(range(self.n)):
            raise PartitionMismatch("partition does not cover 0..n-1")
        self.clusters_A = _check_clusters(clusters_A, self.A, "A")
        self.clusters_B = _check_clusters(clusters_B, self.B, "B")
        if (self.clusters_A is None) != (self.clusters_B is None):
            raise PartitionMismatch("clusters must be given for both sides")
        if self.clusters_A is not None:
            if len(self.clusters_A) != len(self.clusters_B):
                raise PartitionMismatch("cluster counts differ between sides")
            sizes = {len(c) for c in self.clusters_A} | {
                len(c) for c in self.clusters_B
            }
            if len(sizes) > 1:
                raise PartitionMismatch(f"cluster sizes differ: {sorted(sizes)}")
        self._labels = None
        self._A_prime = None
        self._B_prime = None

    # -- derived quantities ----------------------------------------------
    @property
    def a(self) -> int:
        return len(self.A0)

    @property
    def b(self) -> int:
        return len(self.B0)

    @property
    def K(self) -> int | None:
        return None if self.clusters_A is None else len(self.clusters_A)

    @property
    def m(self) -> int | None:
        if self.clusters_A is None or not self.clusters_A:
            return None
        return len(self.clusters_A[0])

    def A_prime(self) -> frozenset[int]:
        if self._A_prime is None:
            self._A_prime = frozenset(self.A0) | frozenset(self.A)
        return self._A_prime

    def B_prime(self) -> frozenset[int]:
        if self._B_prime is None:
            self._B_prime = frozenset(self.B0) | frozenset(self.B)
        return self._B_prime

    def V0(self) -> frozenset[int]:
        return frozenset(self.A0) | frozenset(self.B0)

    def side_labels(self) -> tuple[int, ...]:
        """The class of every vertex: 0 for A0, 1 for A, 2 for B0, 3 for B."""
        if self._labels is None:
            self._labels = tuple(
                class_labels(self.n, (self.A0, self.A, self.B0, self.B))
            )
        return self._labels

    def swapped(self) -> "LabelledPartition":
        """The partition with the roles of the two sides exchanged."""
        return LabelledPartition(
            self.n,
            self.B0,
            self.B,
            self.A0,
            self.A,
            self.clusters_B,
            self.clusters_A,
        )

    def with_clusters(self, clusters_A, clusters_B) -> "LabelledPartition":
        return LabelledPartition(
            self.n, self.A0, self.A, self.B0, self.B, clusters_A, clusters_B
        )

    def __repr__(self):
        k = f", K={self.K}" if self.K else ""
        return (
            f"LabelledPartition(n={self.n}, |A0|={self.a}, |A|={len(self.A)}, "
            f"|B0|={self.b}, |B|={len(self.B)}{k})"
        )


def _check_clusters(clusters, side, name):
    if clusters is None:
        return None
    cl = tuple(tuple(sorted(c)) for c in clusters)
    flat = [v for c in cl for v in c]
    if sorted(flat) != list(side):
        raise PartitionMismatch(f"clusters of {name} do not partition {name}")
    return cl


class PathSystem:
    """A graph whose components are vertex-disjoint paths.

    Trivial (single-vertex) paths are implicit: any vertex not touched by an
    edge counts as a trivial path.  Only the edge set is stored.
    """

    __slots__ = ("n", "edges", "_paths")

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        self.n = int(n)
        self.edges = norm_edges(edges)
        deg = Counter()
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        bad = [v for v, d in deg.items() if d > 2]
        if bad:
            raise BadParams(f"vertex {min(bad)} has degree > 2, not a path system")
        outside = [v for v in deg if not 0 <= v < self.n]
        if outside:
            raise BadParams(f"vertex {min(outside)} out of range for n={self.n}")
        self._paths = None
        if self._find_cycle(deg):
            raise BadParams("path system contains a cycle")

    def _find_cycle(self, deg) -> bool:
        # union-find over edge additions detects any cycle
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
        return False

    @property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial paths as vertex sequences, each starting from its
        smaller endpoint, ordered by first vertex."""
        if self._paths is None:
            adj: dict[int, list[int]] = {}
            for u, v in self.edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            ends = sorted(v for v, ns in adj.items() if len(ns) == 1)
            seen = set()
            out = []
            for s in ends:
                if s in seen:
                    continue
                seq = [s]
                seen.add(s)
                prev, cur = None, s
                while True:
                    nxt = [w for w in adj[cur] if w != prev]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    seq.append(cur)
                    seen.add(cur)
                out.append(tuple(seq))
            self._paths = tuple(out)
        return self._paths

    def covered(self) -> frozenset[int]:
        """Vertices incident to at least one edge."""
        return frozenset(v for e in self.edges for v in e)

    def endpoints(self) -> frozenset[int]:
        return frozenset(p[0] for p in self.paths) | frozenset(
            p[-1] for p in self.paths
        )

    def internal(self) -> frozenset[int]:
        out = set()
        for p in self.paths:
            out.update(p[1:-1])
        return frozenset(out)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def num_edges(self) -> int:
        return len(self.edges)

    def num_nontrivial(self) -> int:
        return len(self.paths)

    def as_graph(self) -> Graph:
        # the edges are normalised and in range (see __init__)
        return Graph._trusted(self.n, self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, PathSystem)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"PathSystem(n={self.n}, m={len(self.edges)}, paths={len(self.paths)})"


# -- serialization ---------------------------------------------------------

def sorted_edge_list(edges: Iterable[Edge]) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def graph_to_json(g: Graph, partition: LabelledPartition | None = None) -> dict:
    doc = {"n": g.n, "edges": sorted_edge_list(g.edges)}
    if partition is not None:
        p = {
            "A0": list(partition.A0),
            "A": list(partition.A),
            "B0": list(partition.B0),
            "B": list(partition.B),
        }
        if partition.clusters_A is not None:
            p["clusters_A"] = [list(c) for c in partition.clusters_A]
            p["clusters_B"] = [list(c) for c in partition.clusters_B]
        doc["partition"] = p
    return doc


def graph_from_json(doc: dict) -> tuple[Graph, LabelledPartition | None]:
    """The graph and partition of a graph file's document; ValueError
    unless ``n`` and every vertex id are JSON integers and ``n`` >= 0."""
    n = doc["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"n = {n!r} is not a vertex count")
    g = Graph(n, [_vertex_ids(e, "an edge") for e in doc["edges"]])
    p = doc.get("partition")
    if p is None:
        return g, None
    if not isinstance(p, dict):
        raise ValueError("the partition is not an object")
    classes = [_vertex_ids(p.get(k, []), k) for k in ("A0", "A", "B0", "B")]
    clusters = [None if p.get(k) is None else [_vertex_ids(c, k) for c in p[k]]
                for k in ("clusters_A", "clusters_B")]
    return g, LabelledPartition(n, *classes, *clusters)


def _vertex_ids(values, where: str) -> list:
    """``values`` as a list of JSON integers, else ValueError: a float or a
    boolean would pass for one in comparisons and set lookups."""
    ids = list(values)
    bad = next((v for v in ids if type(v) is not int), None)
    if bad is not None:
        raise ValueError(f"{where} holds {bad!r}, not a vertex id")
    return ids


def dump_graph(path: str, g: Graph, partition: LabelledPartition | None = None):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_json(graph_to_json(g, partition)) + "\n")


def load_graph(path: str) -> tuple[Graph, LabelledPartition | None]:
    with open(path, encoding="utf-8") as f:
        return graph_from_json(json.load(f))


def parse_edge_list(text: str) -> Graph:
    """Text format: one 'u v' pair per line, '#' starts a comment."""
    edges = []
    max_v = -1
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BadParams(f"bad edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_v = max(max_v, u, v)
    return Graph(max_v + 1, edges)


def complete_bipartite(sizes: tuple[int, int]) -> Graph:
    p, q = sizes
    return Graph(p + q, [(i, p + j) for i in range(p) for j in range(q)])
