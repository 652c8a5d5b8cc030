"""Persistent (relative) cohomology diagrams against the dense oracle."""

import math
import random
from itertools import combinations

import pytest

from conftest import load_corpus, reduce_columns
import dense_reference
from localhom import oracle
from localhom.complexes import (
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    star_of_vertices,
)
from localhom.errors import ContractError
from localhom.linalg import Field
from localhom.persistence import (
    PersistentCocycle,
    betti_at,
    persistent_cohomology,
    star_diagram,
)

INF = math.inf


def pairs(diagram, k=None):
    return sorted(
        (c.order, c.birth, c.death) for c in diagram.classes if k is None or c.order == k
    )


# ---------------------------------------------------------------------------
# absolute cohomology
# ---------------------------------------------------------------------------


def test_c4_diagram(c4_filt):
    d = persistent_cohomology(c4_filt, 1)
    assert pairs(d, 0) == [(0, 0.0, 1.0)] * 3 + [(0, 0.0, INF)]
    assert pairs(d, 1) == [(1, 1.0, INF)]


def test_unit_square_diagram(square_filt):
    d = persistent_cohomology(square_filt, 2)
    root2 = math.sqrt(2.0)
    assert pairs(d, 1) == [(1, 1.0, root2)]
    assert pairs(d, 2) == []
    # oracle cross-check of the ranks at the critical thresholds
    assert oracle.betti_dense(square_filt, 1.0, 1) == 1
    assert oracle.betti_dense(square_filt, math.nextafter(1.0, 0.0), 1) == 0
    assert oracle.betti_dense(square_filt, root2, 1) == 0


def test_single_vertex_diagram():
    filt = build_flag_complex(WeightedGraph(1, ()), 1)
    d = persistent_cohomology(filt, 0)
    assert pairs(d) == [(0, 0.0, INF)]


def test_betti_at_examples(c4_filt):
    d = persistent_cohomology(c4_filt, 1)
    assert betti_at(d, 0.5, 0) == 4
    assert betti_at(d, 2.0, 1) == 1
    assert betti_at(d, -0.1, 0) == 0


def test_max_order_requires_construction_depth(c4_filt):
    with pytest.raises(ContractError):
        persistent_cohomology(c4_filt, 2)  # built with max_dim=2


# ---------------------------------------------------------------------------
# relative cohomology
# ---------------------------------------------------------------------------


def test_c4_star_relative(c4_filt):
    d = star_diagram(c4_filt, (0,), 1)[0]
    assert pairs(d, 1) == [(1, 1.0, INF)]
    # transient degree-0 class: v0's component relative to the collapsed rest
    assert pairs(d, 0) == [(0, 0.0, 1.0)]
    # oracle: relative Betti of (C4, C4 \ st v0) at the end is (0, 1)
    complement = frozenset(range(len(c4_filt))) - star_of_vertices(c4_filt, [0])
    assert dense_reference.relative_betti_dense(c4_filt, 1.0, complement, 0) == 0
    assert dense_reference.relative_betti_dense(c4_filt, 1.0, complement, 1) == 1


def test_octahedron_star_relative(oct_filt):
    d = star_diagram(oct_filt, (0,), 2)[0]
    assert pairs(d, 2) == [(2, 1.0, INF)]
    assert pairs(d, 1) == []


def test_k3_star_relative_empty_above_degree_zero(k3_filt):
    d = star_diagram(k3_filt, (0,), 2)[0]
    assert pairs(d, 1) == [] and pairs(d, 2) == []


def test_relative_with_whole_complex_equals_absolute(c4_filt, square_filt):
    """The walk relative to the whole id set gives the pairs of the star of
    the empty simplex, which is the absolute diagram."""
    for filt, k in ((c4_filt, 1), (square_filt, 2)):
        rel = matrix_reductions(filt, frozenset(range(len(filt))), k)[0]
        absd = persistent_cohomology(filt, k)
        assert sorted((c.order, c.birth, c.death) for c in rel) == pairs(absd)


# ---------------------------------------------------------------------------
# invariants on the random corpus
# ---------------------------------------------------------------------------


def test_betti_duality_against_oracle(corpus):
    """Cleared absolute diagrams, both carriers, against dense Betti numbers."""
    for graph in corpus[:30]:
        filt = build_flag_complex(graph, 3)
        for fld in (Field(), Field(kind="float")):
            d = persistent_cohomology(filt, 2, fld)
            for t in filt.threshold_values():
                for k in range(3):
                    assert betti_at(d, t, k) == oracle.betti_dense(filt, t, k)


def test_relative_betti_against_oracle(corpus):
    """Cleared diagrams relative to a vertex star against dense relative
    Betti numbers."""
    for gi, graph in enumerate(corpus[:25]):
        filt = build_flag_complex(graph, 3)
        open_star = star_of_vertices(filt, [gi % graph.vertex_count])
        rest = frozenset(range(len(filt))) - open_star
        d = star_diagram(filt, (gi % graph.vertex_count,), 2)[0]
        for t in filt.threshold_values():
            for k in range(3):
                dense = dense_reference.relative_betti_dense(filt, t, rest, k)
                assert betti_at(d, t, k) == dense, (gi, t, k)


def test_representative_validity(corpus):
    """delta(rep restricted to S_t) = 0 for every t in [birth, death), exactly."""
    for graph in corpus[:15]:
        filt = build_flag_complex(graph, 2)
        d = persistent_cohomology(filt, 1)
        for c in d.classes:
            for t in filt.threshold_values():
                if not (c.birth <= t and (c.essential or t < c.death)):
                    continue
                acc = {}
                for sid, coeff in c.representative:
                    if filt.values[sid] > t:
                        continue
                    for cof, sign in filt.cofacets(sid):
                        if filt.values[cof] <= t:
                            acc[cof] = acc.get(cof, 0) + sign * coeff
                assert all(v == 0 for v in acc.values()), (graph, c)


def test_field_parity_on_corpus_sample(corpus):
    for graph in corpus[:40]:
        filt = build_flag_complex(graph, 3)
        exact = persistent_cohomology(filt, 2, Field())
        floaty = persistent_cohomology(filt, 2, Field(kind="float"))
        assert pairs(exact) == pairs(floaty)


def test_single_simplex_step_changes_one_class(corpus):
    """A new k-simplex creates a k-cycle or destroys a (k-1)-cycle."""
    for graph in corpus[:10]:
        filt = build_flag_complex(graph, 2)
        for m in range(1, len(filt)):
            k = len(filt.simplices[m]) - 1
            before = set(range(m))
            after = set(range(m + 1))
            delta_k = oracle._relative_betti(filt, after, k) - (
                oracle._relative_betti(filt, before, k)
            )
            if k == 0:
                assert delta_k == 1
                continue
            delta_km1 = oracle._relative_betti(filt, after, k - 1) - (
                oracle._relative_betti(filt, before, k - 1)
            )
            assert (delta_k, delta_km1) in {(1, 0), (0, -1)}, (graph, m)


def test_diagram_deterministic(c4_filt, corpus):
    for filt in [c4_filt] + [build_flag_complex(g, 2) for g in corpus[:5]]:
        a = persistent_cohomology(filt, 1)
        b = persistent_cohomology(filt, 1)
        assert pairs(a) == pairs(b)
        assert [c.representative for c in a.classes] == [
            c.representative for c in b.classes
        ]


def test_zero_persistence_pair_yields_no_class(k3_filt):
    d = persistent_cohomology(k3_filt, 1)
    assert pairs(d, 1) == []  # the K3 one-cycle has zero persistence


def test_representative_lowest_value_is_birth(corpus):
    for graph in corpus[:15]:
        filt = build_flag_complex(graph, 2)
        d = persistent_cohomology(filt, 1)
        for c in d.classes:
            lowest = min(filt.values[sid] for sid, _ in c.representative)
            assert lowest == c.birth
            assert filt.values[c.birth_index] == c.birth
            if not c.essential:
                pivot_value = filt.values[c.death_index]
                assert pivot_value == c.death
                assert c.birth < c.death


def test_coboundary_of_representative_is_zero_or_dies_at_death_index(corpus):
    """delta of each representative, read from `Filtration.cofacets` (a
    star is open, so every cofacet stays in it): zero for an essential
    class, and otherwise nonzero with its lowest id at `death_index`. Whole
    complex, vertex stars and edge stars, orders up to 2."""
    for gi, graph in enumerate(corpus[:15]):
        filt = build_flag_complex(graph, 3)
        sigmas = [()] + [filt.simplices[sid] for sid in filt.ids_of_dim(0) + filt.ids_of_dim(1)]
        for sigma in sigmas:
            for c in star_diagram(filt, sigma, 2)[0].classes:
                delta = {}
                for sid, x in c.representative:
                    for cof, sign in filt.cofacets(sid):
                        delta[cof] = delta.get(cof, 0) + sign * x
                support = [cof for cof, x in delta.items() if x != 0]
                if c.essential:
                    assert not support, (gi, sigma, c)
                else:
                    assert support and min(support) == c.death_index, (gi, sigma, c)


# ---------------------------------------------------------------------------
# the column kernel against explicit matrices
# ---------------------------------------------------------------------------


def matrix_reductions(filt, keep, max_order):
    """The diagram and reduced coboundary columns from explicit matrices:
    each order's coboundary block (columns by decreasing id, rows by simplex
    id) reduced by `conftest.reduce_columns`. V is indexed by column
    position, so reading it backwards lists the representative by decreasing
    id. A cleared column was zeroed without work and never owns a pivot, so
    it is left out of the block."""
    classes, coboundaries, destroyers = [], {}, set()
    for k in range(max_order + 1):
        col_ids = [
            sid for sid in reversed(filt.ids_of_dim(k))
            if (keep is None or sid in keep) and sid not in destroyers
        ]
        cols = [filt.cofacets(sid)[::-1] for sid in col_ids]
        rcols, vcols, _ = reduce_columns(cols)
        if k < max_order:
            coboundaries[k + 1] = [col for col in rcols if col]
        destroyers = set()
        for j, sid in enumerate(col_ids):
            r = rcols[j]
            death_id = r[-1][0] if r else None
            death = INF if death_id is None else filt.values[death_id]
            if death_id is not None:
                destroyers.add(death_id)
            if filt.values[sid] < death:
                classes.append(PersistentCocycle(
                    order=k,
                    birth=filt.values[sid],
                    death=death,
                    birth_index=sid,
                    death_index=death_id,
                    representative=[(col_ids[i], c) for i, c in reversed(vcols[j])],
                ))
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return classes, coboundaries


def stars_with_ids(filt):
    """(σ, id set of st σ) for the whole complex, every vertex and every edge."""
    stars = [star_of_vertices(filt, [v]) for v in range(filt.vertex_count)]
    edges = [filt.simplices[e] for e in filt.ids_of_dim(1)]
    return (
        [((), frozenset(range(len(filt))))]
        + [((v,), ids) for v, ids in enumerate(stars)]
        + [((u, v), stars[u] & stars[v]) for u, v in edges]
    )


def assert_star_matches_matrices(filt, sigma, ids, max_order, where):
    """`star_diagram` equals `matrix_reductions` on st σ to the repr (dict
    key order and coefficient types included): the diagram always, the
    columns of a vertex star."""
    diagram, coboundaries = star_diagram(filt, sigma, max_order)
    classes, reference = matrix_reductions(filt, ids, max_order)
    assert repr(diagram.classes) == repr(classes), where
    if len(sigma) == 1:
        assert repr(coboundaries) == repr(reference), where
    else:
        assert coboundaries == {}, where


def test_column_kernel_equals_matrix_reduction(corpus, tie_free_corpus):
    """Diagrams match the explicit-matrix reduction to the repr for the
    whole complex, every vertex star and every edge star, and reduced
    coboundary columns for every vertex star, at max orders 1 and 2."""
    rng = random.Random(60)
    cloud = graph_from_points([(rng.random(), rng.random()) for _ in range(60)], knn=6)
    for gi, graph in enumerate(corpus[:40] + tie_free_corpus[:20] + [cloud]):
        filt = build_flag_complex(graph, 3)
        for max_order in (1, 2):
            for sigma, ids in stars_with_ids(filt):
                where = (gi, max_order, sigma)
                assert_star_matches_matrices(filt, sigma, ids, max_order, where)


def deep_filtrations():
    """Flag filtrations built with max_dim 4, so order 3 is reduced: K5-K8 at
    80% edge density with weights drawn from four values (ties at every
    order), and the first 30 random-corpus graphs."""
    rng = random.Random(4)
    graphs = []
    for n in (5, 6, 7, 8):
        for _ in range(3):
            edges = tuple(
                (u, v, rng.choice((0.5, 1.0, 1.5, 2.0)))
                for u, v in combinations(range(n), 2)
                if rng.random() < 0.8
            )
            graphs.append(WeightedGraph(n, edges))
    return [build_flag_complex(g, 4) for g in graphs + load_corpus()[:30]]


def test_star_diagram_equals_matrix_reduction(closed_form_filtrations, rp2_cone_filt):
    """The closed forms of `star_diagram`, σ's bar and the elder rule on the
    link, match the explicit-matrix reduction to the repr: the whole complex
    at max orders 0, 1 and 2, every vertex and edge star at max orders 1
    and 2, and every star at max order 3 on filtrations built with max_dim 4,
    where the walk takes over above the link's degree; the RP² cone, whose
    columns hold coefficient 2, at max orders 1 to 3."""
    cases = [(filt, (0, 1, 2)) for filt in closed_form_filtrations]
    cases += [(filt, (3,)) for filt in deep_filtrations()]
    cases.append((rp2_cone_filt, (1, 2, 3)))
    for fi, (filt, orders) in enumerate(cases):
        for sigma, ids in stars_with_ids(filt):
            for max_order in orders:
                if not sigma or max_order:
                    where = (fi, sigma, max_order)
                    assert_star_matches_matrices(filt, sigma, ids, max_order, where)
