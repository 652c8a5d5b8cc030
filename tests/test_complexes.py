"""Flag complex construction and combinatorial topology operations."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_square_graph
import dense_reference
from localhom.complexes import (
    Filtration,
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    is_open_set,
    star_of_vertices,
)
from localhom.errors import BudgetExceededError, ContractError, UnknownSimplexError
from localhom.formats import dumps, filtration_from_obj, filtration_to_obj
from localhom.golden import c4, k3, k4, octahedron
from localhom import oracle
from dense_reference import subfiltration, truncate_neighborhood


# ---------------------------------------------------------------------------
# independent test oracles (brute force over simplex sets)
# ---------------------------------------------------------------------------


def adjacency(graph: WeightedGraph) -> list[set[int]]:
    adj = [set() for _ in range(graph.vertex_count)]
    for u, v, _ in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def weight_map(graph: WeightedGraph) -> dict[tuple[int, int], float]:
    return {(u, v): w for u, v, w in graph.edges}


def naive_cliques(graph: WeightedGraph, max_dim: int):
    """All-subsets clique scan; exponential, only for tiny graphs."""
    adj = adjacency(graph)
    out = set()
    for r in range(1, max_dim + 2):
        for combo in itertools.combinations(range(graph.vertex_count), r):
            if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
                out.add(combo)
    return out


def naive_value(graph: WeightedGraph, simplex):
    if len(simplex) == 1:
        return 0.0
    wm = weight_map(graph)
    return max(wm[(a, b)] for a, b in itertools.combinations(simplex, 2))


def closed_star_ids(filt, v):
    """cl st v: the ids the one-ring truncation around v keeps."""
    return set(truncate_neighborhood(filt, [v], 1)[1])


def closure_fixpoint(filt, ids):
    """Keep adding faces until nothing changes."""
    current = set(ids)
    changed = True
    while changed:
        changed = False
        for i in list(current):
            s = filt.simplices[i]
            for r in range(1, len(s)):
                for face in itertools.combinations(s, r):
                    fid = filt.id_of(face)
                    if fid not in current:
                        current.add(fid)
                        changed = True
    return frozenset(current)


def star_scan(filt, sid):
    return dense_reference.star_ids_scan(filt, {sid})


# ---------------------------------------------------------------------------
# build_flag_complex
# ---------------------------------------------------------------------------


def test_flag_k3():
    filt = build_flag_complex(k3(), 2)
    by_dim = {d: [filt.simplices[i] for i in filt.ids_of_dim(d)] for d in range(3)}
    assert len(by_dim[0]) == 3 and len(by_dim[1]) == 3 and len(by_dim[2]) == 1
    for i in filt.ids_of_dim(0):
        assert filt.values[i] == 0.0
    for i in filt.ids_of_dim(1) + filt.ids_of_dim(2):
        assert filt.values[i] == 1.0


def test_flag_c4_has_no_triangles(c4_filt):
    assert len(c4_filt.ids_of_dim(0)) == 4
    assert len(c4_filt.ids_of_dim(1)) == 4
    assert c4_filt.ids_of_dim(2) == []


def test_flag_unit_square_against_naive_scanner(square_filt):
    graph = unit_square_graph()
    expected = naive_cliques(graph, 3)
    assert set(square_filt.simplices) == expected
    for i, s in enumerate(square_filt.simplices):
        assert square_filt.values[i] == naive_value(graph, s)
    root2 = math.sqrt(2.0)
    triangles = [square_filt.values[i] for i in square_filt.ids_of_dim(2)]
    assert triangles == [root2] * 4
    diagonals = [
        i for i in square_filt.ids_of_dim(1) if square_filt.values[i] == root2
    ]
    assert len(diagonals) == 2


def test_flag_rejects_negative_dim():
    with pytest.raises(ContractError):
        build_flag_complex(c4(), -1)


def test_flag_budget_guard():
    with pytest.raises(BudgetExceededError):
        build_flag_complex(k4(), 3, budget=5)


def test_flag_budget_checks_vertex_count_first():
    """Every vertex is a simplex, so a vertex count past the budget is
    rejected before anything per vertex is allocated."""
    with pytest.raises(BudgetExceededError):
        build_flag_complex(WeightedGraph(10**12, ((0, 1, 1.0),)), 1)


def test_graph_invariants():
    with pytest.raises(ContractError):
        WeightedGraph(2, ((0, 0, 1.0),))
    with pytest.raises(ContractError):
        WeightedGraph(2, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ContractError):
        WeightedGraph(2, ((0, 1, -1.0),))
    with pytest.raises(ContractError):
        WeightedGraph(2, ((0, 1, math.inf),))


def test_filtration_deterministic_under_edge_order():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    a = build_flag_complex(WeightedGraph(4, tuple(edges)), 2)
    b = build_flag_complex(WeightedGraph(4, tuple(reversed(edges))), 2)
    assert dumps(filtration_to_obj(a)) == dumps(filtration_to_obj(b))


# ---------------------------------------------------------------------------
# stars and closed stars
# ---------------------------------------------------------------------------


def simplices_of(filt, ids):
    return {filt.simplices[i] for i in ids}


def test_star_vertex_k3(k3_filt):
    got = simplices_of(k3_filt, star_of_vertices(k3_filt, [0]))
    assert got == {(0,), (0, 1), (0, 2), (0, 1, 2)}


def test_star_vertex_c4(c4_filt):
    got = simplices_of(c4_filt, star_of_vertices(c4_filt, [0]))
    assert got == {(0,), (0, 1), (0, 3)}


def test_star_edge_k3(k3_filt):
    got = simplices_of(k3_filt, star_scan(k3_filt, k3_filt.id_of((0, 1))))
    assert got == {(0, 1), (0, 1, 2)}


def test_star_unknown_simplex(c4_filt):
    with pytest.raises(UnknownSimplexError):
        star_of_vertices(c4_filt, [0, 7])


def test_closure_star_k3_is_whole_complex(k3_filt):
    assert closed_star_ids(k3_filt, 0) == set(range(len(k3_filt)))


def test_closure_idempotent(c4_filt):
    once = closed_star_ids(c4_filt, 0)
    assert closure_fixpoint(c4_filt, once) == once


def test_closure_star_c4_matches_fixpoint_oracle(c4_filt):
    got = closed_star_ids(c4_filt, 0)
    assert got == closure_fixpoint(c4_filt, star_of_vertices(c4_filt, [0]))
    assert simplices_of(c4_filt, got) == {(0,), (1,), (3,), (0, 1), (0, 3)}


def test_frontier_c4(c4_filt):
    fr = closed_star_ids(c4_filt, 0) - star_of_vertices(c4_filt, [0])
    assert simplices_of(c4_filt, fr) == {(1,), (3,)}


def test_frontier_k3(k3_filt):
    fr = closed_star_ids(k3_filt, 0) - star_of_vertices(k3_filt, [0])
    assert simplices_of(k3_filt, fr) == {(1,), (2,), (1, 2)}


def _star_index_cases(corpus):
    """Corpus flag complexes, a directly built filtration and truncations.

    The direct filtration's subfiltration drops vertex 0, and each corpus
    truncation drops the vertices outside one closed star, so their vertex
    ids have gaps.
    """
    cases = [build_flag_complex(g, 3) for g in corpus[:60]]
    direct = Filtration(
        simplices=[(0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 2), (2, 3), (0, 1, 2)],
        values=[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 3.0],
        vertex_count=4,
        max_dim=2,
    )
    without_0 = {i for i, s in enumerate(direct.simplices) if 0 not in s}
    cases += [direct, subfiltration(direct, without_0)[0]]
    cases += [truncate_neighborhood(f, [f.vertex_count - 1], 1)[0] for f in cases[:60:6]]
    return cases


def test_star_lookups_match_scan_oracle(corpus):
    for filt in _star_index_cases(corpus):
        vertices = sorted({v for s in filt.simplices for v in s})
        for u, v in [(v, v) for v in vertices] + [
            filt.simplices[i] for i in filt.ids_of_dim(1)
        ]:
            seeds = {filt.id_of((u,)), filt.id_of((v,))}
            assert star_of_vertices(filt, {u, v}) == dense_reference.star_ids_scan(filt, seeds)


def test_is_open_set_matches_star_per_member(corpus, k3_filt):
    edge = frozenset({k3_filt.id_of((0, 1))})
    assert not is_open_set(k3_filt, closure_fixpoint(k3_filt, edge))
    for filt in _star_index_cases(corpus):
        candidates = [frozenset(), frozenset(range(len(filt)))]
        for sid in range(len(filt)):
            st_ids = star_scan(filt, sid)
            candidates += [
                st_ids,
                closure_fixpoint(filt, st_ids),
                closure_fixpoint(filt, {sid}),
                st_ids - {sid},
            ]
        for ids in candidates:
            by_stars = all(dense_reference.star_ids_scan(filt, {i}) <= ids for i in ids)
            assert is_open_set(filt, ids) == by_stars


# ---------------------------------------------------------------------------
# truncate_neighborhood
# ---------------------------------------------------------------------------


def test_truncate_c4_one_ring(c4_filt):
    trunc, _, open_img = truncate_neighborhood(c4_filt, [0], 1)
    assert len(trunc.ids_of_dim(0)) == 3
    assert len(trunc.ids_of_dim(1)) == 2
    assert {trunc.simplices[i] for i in open_img} == {(0,), (0, 1), (0, 3)}


def test_truncate_k4_is_whole_complex(k4_filt):
    trunc, _, _ = truncate_neighborhood(k4_filt, [0], 1)
    assert len(trunc) == len(k4_filt)


def test_truncate_octahedron_closed_star(oct_filt):
    trunc, _, open_img = truncate_neighborhood(oct_filt, [0], 1)
    assert len(trunc.ids_of_dim(0)) == 5
    assert len(trunc.ids_of_dim(1)) == 8
    assert len(trunc.ids_of_dim(2)) == 4
    # relative Betti of (S, S \ st v0) identical on truncation and full complex
    star_full = star_of_vertices(oct_filt, [0])
    for t in oct_filt.threshold_values():
        full_present = oracle.ids_at(oct_filt, t)
        trunc_present = oracle.ids_at(trunc, t)
        for k in range(3):
            full = oracle._relative_betti(oct_filt, full_present & star_full, k)
            small = oracle._relative_betti(trunc, trunc_present & open_img, k)
            assert full == small


def test_truncate_rejects_zero_rings(c4_filt):
    with pytest.raises(ContractError):
        truncate_neighborhood(c4_filt, [0], 0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_graphs = st.builds(
    lambda n, picks, ws: WeightedGraph(
        n,
        tuple(
            (u, v, w)
            for (u, v), w in zip(
                [p for p in itertools.combinations(range(n), 2)], ws
            )
            if (u, v) in set(picks)
        ),
    ),
    st.integers(min_value=2, max_value=6),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
            lambda p: (min(p), max(p))
        ),
        max_size=12,
    ),
    st.lists(st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0]), min_size=15, max_size=15),
).filter(lambda g: all(u < v <= g.vertex_count - 1 for u, v, _ in g.edges))


@settings(max_examples=40, deadline=None)
@given(small_graphs)
def test_faces_present_with_smaller_value(graph):
    filt = build_flag_complex(graph, 3)
    for i, s in enumerate(filt.simplices):
        for r in range(1, len(s)):
            for face in itertools.combinations(s, r):
                j = filt.id_of(face)
                assert filt.values[j] <= filt.values[i]
                assert j < i or filt.values[j] < filt.values[i] or len(face) < len(s)


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.integers(min_value=0, max_value=3))
def test_filtration_dump_round_trip(graph, max_dim):
    filt = build_flag_complex(graph, max_dim)
    text = dumps(filtration_to_obj(filt))
    assert filtration_from_obj(json.loads(text), max_dim=max_dim) == filt


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.integers(min_value=0, max_value=5))
def test_subset_operator_laws(graph, seed_vertex):
    filt = build_flag_complex(graph, 3)
    v = seed_vertex % filt.vertex_count
    a = star_of_vertices(filt, [v])
    assert is_open_set(filt, a)
    cl = closed_star_ids(filt, v)
    assert closure_fixpoint(filt, a) == cl
    assert a <= cl
    # the closed star minus the open star is closed: the excision frontier
    fr = cl - a
    assert closure_fixpoint(filt, fr) == fr
    # open iff union of member stars
    union_of_stars = frozenset().union(*[star_scan(filt, i) for i in a])
    assert union_of_stars == a


# ---------------------------------------------------------------------------
# point-cloud ingestion
# ---------------------------------------------------------------------------


def test_points_euclidean_square():
    graph = graph_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    wm = weight_map(graph)
    assert wm[(0, 1)] == pytest.approx(1.0)
    assert wm[(0, 2)] == pytest.approx(math.sqrt(2.0))
    assert len(graph.edges) == 6


def test_points_manhattan():
    graph = graph_from_points([(0, 0), (1, 1)], metric="manhattan")
    assert weight_map(graph)[(0, 1)] == pytest.approx(2.0)


def test_points_knn_union_rule():
    # collinear points 0,1,2 at x = 0, 1, 10: with k=1 the long pair (0,2) drops
    graph = graph_from_points([(0.0,), (1.0,), (10.0,)], knn=1)
    assert set(weight_map(graph)) == {(0, 1), (1, 2)}


def test_points_knn_tie_after_sqrt_goes_to_lower_id():
    # |0a|^2 is one ulp above |0b|^2, yet both round to the same distance:
    # the exact tie goes to the lower id a, so a ranking by squared
    # distances alone would pick b
    a = (0.622901694889702, 0.7417869892607294)
    b = (0.6229016948897019, 0.7417869892607294)
    assert a[0] ** 2 + a[1] ** 2 > b[0] ** 2 + b[1] ** 2
    pts = [(0.0, 0.0), a, b]
    graph = graph_from_points(pts, knn=1)
    assert set(weight_map(graph)) == {(0, 1), (1, 2)}
    assert graph.edges == dense_reference.knn_graph_scan(pts, knn=1)


def test_points_bad_metric():
    with pytest.raises(ContractError):
        graph_from_points([(0, 0)], metric="chebyshev")


@pytest.mark.parametrize("knn", [None, 1])
def test_points_overflow_names_pair(knn):
    with pytest.raises(ContractError, match="points 0 and 1 overflows"):
        graph_from_points([(0, 0), (1e200, 0), (2e200, 1)], knn=knn)
    with pytest.raises(ContractError, match="points 0 and 1 overflows"):
        graph_from_points([(-1e308,), (1e308,)], metric="manhattan", knn=knn)


@pytest.mark.parametrize("knn", [None, 2])
@pytest.mark.parametrize("row", [0, 2, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_points_non_finite_coordinate_names_point(bad, row, knn):
    pts = [(float(i), 0.5 * i) for i in range(5)]
    pts[row] = (pts[row][0], bad)
    with pytest.raises(ContractError, match=f"point {row} has a non-finite"):
        graph_from_points(pts, knn=knn)


@st.composite
def point_clouds(draw):
    """Up to 40 points in 1-4 dimensions: floats (subnormals included) or a
    small integer lattice (many exact distance ties), plus repeated points."""
    d = draw(st.integers(min_value=1, max_value=4))
    coord = draw(
        st.sampled_from(
            [
                st.floats(min_value=-10, max_value=10),
                st.integers(min_value=-2, max_value=2).map(float),
            ]
        )
    )
    pts = draw(st.lists(st.tuples(*[coord] * d), max_size=40))
    repeats = draw(st.lists(st.integers(min_value=0, max_value=39), max_size=10))
    if pts:
        pts += [pts[i % len(pts)] for i in repeats]
    return pts[:40]


@settings(max_examples=200, deadline=None)
@given(
    point_clouds(),
    st.sampled_from(["euclidean", "manhattan"]),
    st.integers(min_value=1, max_value=41),
    st.booleans(),
)
def test_points_edges_match_scan_oracle(pts, metric, k, dense):
    knn = None if dense else min(k, len(pts) + 1)
    got = graph_from_points(pts, metric, knn).edges
    assert got == dense_reference.knn_graph_scan(pts, metric, knn)


@pytest.mark.parametrize("n,d,metric", [(400, 2, "euclidean"), (600, 3, "manhattan")])
def test_points_knn_several_row_blocks_match_scan_oracle(n, d, metric):
    rng = random.Random(n)
    pts = [tuple(rng.random() for _ in range(d)) for _ in range(n)]
    got = graph_from_points(pts, metric, 6).edges
    assert got == dense_reference.knn_graph_scan(pts, metric, 6)
