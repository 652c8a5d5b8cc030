"""The dense brute-force oracle's own fixtures and property checks."""

import math

import pytest

import dense_reference
from conftest import sixteen_cell_graphs
from localhom import oracle
from localhom.complexes import (
    WeightedGraph,
    build_flag_complex,
    star_of_vertices,
)
from localhom.errors import ContractError
from localhom.golden import c4, k3, octahedron


def closed_subset(filt, simplices):
    return frozenset(filt.id_of(s) for s in simplices)


# ---------------------------------------------------------------------------
# betti_dense / relative_betti_dense
# ---------------------------------------------------------------------------


def test_betti_dense_examples(c4_filt, oct_filt):
    assert oracle.betti_dense(c4_filt, 1.0, 1) == 1
    assert oracle.betti_dense(oct_filt, 1.0, 2) == 1
    point = build_flag_complex(WeightedGraph(1, ()), 0)
    assert oracle.betti_dense(point, 0.0, 0) == 1


def test_relative_betti_k3_opposite_edge(k3_filt):
    sub = closed_subset(k3_filt, [(1,), (2,), (1, 2)])
    for k in range(3):
        assert dense_reference.relative_betti_dense(k3_filt, 1.0, sub, k) == 0


def test_relative_betti_path_rel_endpoints():
    path = build_flag_complex(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))), 2)
    sub = closed_subset(path, [(0,), (2,)])
    assert dense_reference.relative_betti_dense(path, 1.0, sub, 1) == 1
    assert dense_reference.relative_betti_dense(path, 1.0, sub, 0) == 0


def test_relative_betti_empty_subset_is_absolute(c4_filt):
    empty = frozenset()
    for k in range(2):
        assert dense_reference.relative_betti_dense(c4_filt, 1.0, empty, k) == (
            oracle.betti_dense(c4_filt, 1.0, k)
        )


def test_relative_betti_rejects_non_closed(c4_filt):
    sub = frozenset({c4_filt.id_of((0, 1))})
    with pytest.raises(ContractError):
        dense_reference.relative_betti_dense(c4_filt, 1.0, sub, 0)


# ---------------------------------------------------------------------------
# relative cohomology of an open set
# ---------------------------------------------------------------------------


def test_open_cohomology_matches_relative_homology(corpus):
    """dim H^k(S_t, S_t \\ U) from the open set's cochains, len(columns) -
    rank δ - rank B, equals dim H_k of the pair with the closed complement,
    over Q, for vertex stars and the whole complex at every threshold."""
    for graph in corpus[:25]:
        filt = build_flag_complex(graph, 3)
        everything = frozenset(range(len(filt)))
        opens = [star_of_vertices(filt, [v]) for v in range(min(3, graph.vertex_count))]
        for u in opens + [everything]:
            complement = everything - u
            for t in filt.threshold_values():
                present = oracle.ids_at(filt, t)
                for k in range(3):
                    cob, delta, cols = oracle._open_cochains(filt, present, set(u), k)
                    dim = len(cols) - oracle.rank_int_rows(delta) - oracle.rank_int_rows(cob)
                    assert dim == dense_reference.relative_betti_dense(filt, t, complement, k), (
                        graph, sorted(u), t, k
                    )


# ---------------------------------------------------------------------------
# Mayer-Vietoris
# ---------------------------------------------------------------------------


def test_mv_same_open_set_degenerates(c4_filt):
    a = star_of_vertices(c4_filt, [0])
    report = oracle.check_mayer_vietoris(c4_filt, a, a, 1)
    assert report.exact


def test_mv_disjoint_stars(c4_filt):
    a = star_of_vertices(c4_filt, [0])
    b = star_of_vertices(c4_filt, [2])
    assert a & b == frozenset()
    report = oracle.check_mayer_vietoris(c4_filt, a, b, 1)
    assert report.exact


def test_mv_octahedron_adjacent_stars(oct_filt):
    a = star_of_vertices(oct_filt, [0])
    b = star_of_vertices(oct_filt, [1])
    for k in (1, 2):
        report = oracle.check_mayer_vietoris(oct_filt, a, b, k)
        assert report.exact, report.positions


def test_mv_rejects_non_open(c4_filt):
    bad = frozenset({c4_filt.id_of((0,))})
    with pytest.raises(ContractError):
        oracle.check_mayer_vietoris(c4_filt, bad, bad, 1)


def test_mv_on_corpus(corpus):
    """The first adjacent pair of the first 20 corpus graphs at k = 0-2, and
    every adjacent pair of weighted 16-cell graphs at k = 0-3."""
    for graph in corpus[:20]:
        filt = build_flag_complex(graph, 3)
        edges = filt.ids_of_dim(1)
        if not edges:
            continue
        u, v = filt.simplices[edges[0]]
        a = star_of_vertices(filt, [u])
        b = star_of_vertices(filt, [v])
        for k in (0, 1, 2):
            report = oracle.check_mayer_vietoris(filt, a, b, k)
            assert report.exact, (graph, k, report.positions)
    for gi, graph in enumerate(sixteen_cell_graphs(12, seed=16)):
        filt = build_flag_complex(graph, 4)
        for eid in filt.ids_of_dim(1):
            u, v = filt.simplices[eid]
            a = star_of_vertices(filt, [u])
            b = star_of_vertices(filt, [v])
            for k in range(4):
                report = oracle.check_mayer_vietoris(filt, a, b, k)
                assert report.exact, (gi, u, v, k, report.positions)


def test_mv_union_of_stars_opens(corpus):
    for graph in corpus[:8]:
        if graph.vertex_count < 4:
            continue
        filt = build_flag_complex(graph, 3)
        a = star_of_vertices(filt, [0, 1])
        b = star_of_vertices(filt, [2, 3])
        for k in (0, 1):
            report = oracle.check_mayer_vietoris(filt, a, b, k)
            assert report.exact, (graph, k, report.positions)


# ---------------------------------------------------------------------------
# excision
# ---------------------------------------------------------------------------


def excision_holds(filt, v, k):
    """At every threshold, H_k(S_t, S_t \\ st v) from `local_betti` equals
    H_k(cl st v, frontier) on the closed-star truncation, whose frontier
    `relative_betti_dense` checks to be closed."""
    trunc, _, open_img = dense_reference.truncate_neighborhood(filt, [v], 1)
    frontier = frozenset(range(len(trunc))) - open_img
    return all(
        oracle.local_betti(filt, v, t, k)
        == dense_reference.relative_betti_dense(trunc, t, frontier, k)
        for t in filt.threshold_values()
    )


def test_excision_octahedron(oct_filt):
    for v in range(6):
        assert excision_holds(oct_filt, v, 2)


def test_excision_k3_all_orders(k3_filt):
    for v in range(3):
        for k in range(3):
            assert excision_holds(k3_filt, v, k)


def test_excision_isolated_vertex():
    graph = WeightedGraph(3, ((0, 1, 1.0),))  # vertex 2 isolated
    filt = build_flag_complex(graph, 2)
    assert excision_holds(filt, 2, 0)
    # the isolated vertex is its own relative class
    assert oracle.local_betti(filt, 2, 1.0, 0) == 1
    with pytest.raises(ContractError):
        oracle.local_betti(filt, 3, 1.0, 0)


def test_excision_on_corpus(corpus):
    for gi, graph in enumerate(corpus[:20]):
        filt = build_flag_complex(graph, 2)
        v = gi % graph.vertex_count
        for k in (0, 1):
            assert excision_holds(filt, v, k), (gi, v, k)
