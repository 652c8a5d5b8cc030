"""Persistent (relative) cohomology diagrams against the dense oracle."""

import math

import pytest

from localhom import oracle
from localhom.complexes import (
    SimplexSubset,
    WeightedGraph,
    build_flag_complex,
    star_of_vertices,
)
from localhom.errors import ContractError
from localhom.linalg import Field
from localhom.persistence import (
    betti_at,
    persistent_cohomology,
    persistent_relative_cohomology,
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
    d = persistent_relative_cohomology(c4_filt, star_of_vertices(c4_filt, [0]), 1)
    assert pairs(d, 1) == [(1, 1.0, INF)]
    # transient degree-0 class: v0's component relative to the collapsed rest
    assert pairs(d, 0) == [(0, 0.0, 1.0)]
    # oracle: relative Betti of (C4, C4 \ st v0) at the end is (0, 1)
    complement = SimplexSubset(
        c4_filt,
        frozenset(range(len(c4_filt))) - star_of_vertices(c4_filt, [0]).ids,
        is_open=False,
    )
    assert oracle.relative_betti_dense(c4_filt, 1.0, complement, 0) == 0
    assert oracle.relative_betti_dense(c4_filt, 1.0, complement, 1) == 1


def test_octahedron_star_relative(oct_filt):
    d = persistent_relative_cohomology(oct_filt, star_of_vertices(oct_filt, [0]), 2)
    assert pairs(d, 2) == [(2, 1.0, INF)]
    assert pairs(d, 1) == []


def test_k3_star_relative_empty_above_degree_zero(k3_filt):
    d = persistent_relative_cohomology(k3_filt, star_of_vertices(k3_filt, [0]), 2)
    assert pairs(d, 1) == [] and pairs(d, 2) == []


def test_relative_rejects_non_open(c4_filt):
    bad = SimplexSubset(c4_filt, frozenset({c4_filt.id_of((0,))}), is_open=True)
    with pytest.raises(ContractError):
        persistent_relative_cohomology(c4_filt, bad, 1)


def test_relative_with_whole_complex_equals_absolute(c4_filt, square_filt):
    for filt, k in ((c4_filt, 1), (square_filt, 2)):
        whole = SimplexSubset(filt, frozenset(range(len(filt))), is_open=True)
        rel = persistent_relative_cohomology(filt, whole, k)
        absd = persistent_cohomology(filt, k)
        assert pairs(rel) == pairs(absd)


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
    """Cleared diagrams relative to a vertex star, both carriers, against
    dense relative Betti numbers."""
    for gi, graph in enumerate(corpus[:25]):
        filt = build_flag_complex(graph, 3)
        open_star = star_of_vertices(filt, [gi % graph.vertex_count])
        rest = SimplexSubset(
            filt, frozenset(range(len(filt))) - open_star.ids, is_open=False
        )
        for fld in (Field(), Field(kind="float")):
            d = persistent_relative_cohomology(filt, open_star, 2, fld)
            for t in filt.threshold_values():
                for k in range(3):
                    dense = oracle.relative_betti_dense(filt, t, rest, k)
                    assert betti_at(d, t, k) == dense, (gi, fld.kind, t, k)


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
                for sid, coeff in c.representative.items():
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
            delta_k = oracle._relative_betti(filt, after, set(), k) - (
                oracle._relative_betti(filt, before, set(), k)
            )
            if k == 0:
                assert delta_k == 1
                continue
            delta_km1 = oracle._relative_betti(filt, after, set(), k - 1) - (
                oracle._relative_betti(filt, before, set(), k - 1)
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
            lowest = min(filt.values[sid] for sid in c.representative)
            assert lowest == c.birth
            assert filt.values[c.birth_index] == c.birth
            if not c.essential:
                pivot_value = filt.values[c.death_index]
                assert pivot_value == c.death
                assert c.birth < c.death
