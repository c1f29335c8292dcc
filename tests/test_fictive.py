"""Fictive matchings: construction."""

from bipham.fictive import build_fictive
from bipham.graphs import LabelledPartition, PathSystem


def test_single_cross_path():
    part = LabelledPartition(3, [0], [1], [], [2])
    j = PathSystem(3, [(0, 1), (0, 2)])
    fict = build_fictive(j, part)
    assert fict.s == 0
    assert [(e.x, e.y) for e in fict.edges] == [(1, 2)]


def test_two_sided_pairing():
    # one path with both endpoints in A, one with both in B:
    # the endpoints are re-paired crosswise
    part = LabelledPartition(8, [6], [0, 1, 2], [7], [3, 4, 5])
    j = PathSystem(8, [(0, 6), (6, 1), (3, 7), (7, 4)])
    fict = build_fictive(j, part)
    assert fict.s == 1
    assert [(e.x, e.y) for e in fict.edges] == [(0, 3), (1, 4)]


def test_fictive_size_never_exceeds_system(rng):
    for _ in range(200):
        n = 10
        part = LabelledPartition(n, [8], [0, 1, 2, 3], [9], [4, 5, 6, 7])
        # random valid system: exceptional vertices internal on distinct ends
        a_ends = rng.sample([0, 1, 2, 3], 2)
        b_ends = rng.sample([4, 5, 6, 7], 2)
        style = rng.random()
        if style < 0.4:
            edges = [(8, a_ends[0]), (8, b_ends[0]), (9, a_ends[1]), (9, b_ends[1])]
        elif style < 0.7:
            edges = [(8, a_ends[0]), (8, a_ends[1]), (9, b_ends[0]), (9, b_ends[1])]
        else:
            edges = [(8, b_ends[0]), (8, b_ends[1]), (9, a_ends[0]), (9, a_ends[1])]
        j = PathSystem(n, edges)
        fict = build_fictive(j, part)
        assert fict.s_prime <= j.num_edges()
        assert all(e.x in set(part.A) and e.y in set(part.B) for e in fict.edges)
