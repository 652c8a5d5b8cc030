"""Stalks, Laplacian blocks from the edge star, atoms and assembly."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import reduce_columns, sixteen_cell_graphs
import dense_reference
from localhom import nn, oracle, persistence, sheaf
from localhom.complexes import (
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    star_of_vertices,
)
from localhom.errors import ContractError, IllConditionedError
from localhom.linalg import Field
from localhom.persistence import star_diagram
from localhom.sheaf import assemble_laplacian, compute_stalk, sheaf_laplacian_block

INF = math.inf


def stalk_pairs(stalk):
    return sorted((c.order, c.birth, c.death) for c in stalk.cocycles)


def edge_block_at(filt, stalks, u, v, k, t):
    """The (u, v) off-diagonal block of the slice Laplacian at t: it gets
    only the atoms of the (u, v) edge block, under the one entry rule."""
    lap = assemble_laplacian(filt, stalks, k, ("slice", t))
    rows = slice(lap.offsets[u], lap.offsets[u] + lap.dims[u])
    cols = slice(lap.offsets[v], lap.offsets[v] + lap.dims[v])
    return lap.dense[rows, cols]


def alive(span, t):
    return span[0] <= t < span[1]


def live_kernel(lap, t):
    """dim ker of the slice operator at t on the cocycles alive at t."""
    dead = sum(not alive(span, t) for spans in lap.lifespans.values() for span in spans)
    return replace(lap, mode=("slice", t)).kernel_dim_exact() - dead


def live_atom_rank(lap, u, v, t):
    """Exact rank of the (u, v) atoms alive at t, on the cocycles alive at t."""
    atoms = lap.blocks[u, v].atoms if (u, v) in lap.blocks else []
    cols = []
    for atom in atoms:
        if atom.start <= t < atom.end:
            col = [(a, x) for a, x in atom.v_a.items() if alive(lap.lifespans[u][a], t)]
            col += [
                (lap.dims[u] + b, x)
                for b, x in atom.v_b.items()
                if alive(lap.lifespans[v][b], t)
            ]
            cols.append(sorted(col, reverse=True))
    return len(reduce_columns(cols, Field())[2])


def edge_image_rank(filt, t, k, u, v):
    """Dense rank of the image of H^k(S_t, S_t - st e), e = uv, in
    H^k(S_t, S_t - st u) ⊕ H^k(S_t, S_t - st v), by extension by zero: a
    basis of the edge star's cocycles, the null space of its coboundary
    map, is mapped into the two stars and ranked modulo their coboundaries."""
    present = oracle.ids_at(filt, t)
    star = lambda *ends: {i for i in present if set(ends) <= set(filt.simplices[i])}
    b_u, _, cols_u = oracle._open_cochains(filt, present, star(u), k)
    b_v, _, cols_v = oracle._open_cochains(filt, present, star(v), k)
    _, delta_e, cols_e = oracle._open_cochains(filt, present, star(u, v), k)
    constraints: dict[int, dict[int, int]] = {}
    for c, row in enumerate(delta_e):
        for j, x in row.items():
            constraints.setdefault(j, {})[c] = x
    n_e = dense_reference.kernel_basis(list(constraints.values()), len(cols_e))
    pos_u = {sid: i for i, sid in enumerate(cols_u)}
    pos_v = {sid: len(cols_u) + i for i, sid in enumerate(cols_v)}
    b = b_u + [{len(cols_u) + c: x for c, x in row.items()} for row in b_v]
    rows = []
    for x in n_e:
        row = {pos_u[cols_e[c]]: y for c, y in x.items()}
        row.update({pos_v[cols_e[c]]: -y for c, y in x.items()})
        rows.append(row)
    return oracle.rank_int_rows(rows + b) - oracle.rank_int_rows(b)


def disjoint_lifespan_graph():
    """u's relative 1-cycles die (triangles fill) before v's class is born
    (a late heavy edge): vertices a=0, u=1, b=2, v=3, c=4."""
    return WeightedGraph(
        5,
        (
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.5),
            (1, 3, 0.5),
            (0, 3, 1.6),
            (3, 4, 3.0),
        ),
    )


# ---------------------------------------------------------------------------
# compute_stalk
# ---------------------------------------------------------------------------


def test_stalk_octahedron_single_top_class(oct_filt):
    for v in range(6):
        stalk = compute_stalk(oct_filt, v, 2)
        assert stalk_pairs(stalk) == [(2, 1.0, INF)]


def test_stalk_c4_single_one_class(c4_filt):
    for v in range(4):
        stalk = compute_stalk(c4_filt, v, 1)
        assert stalk_pairs(stalk) == [(1, 1.0, INF)]


def test_stalk_k3_empty(k3_filt):
    for v in range(3):
        assert compute_stalk(k3_filt, v, 2).cocycles == []


def test_stalk_unknown_vertex(c4_filt):
    with pytest.raises(ContractError):
        compute_stalk(c4_filt, 7, 1)
    with pytest.raises(ContractError):
        compute_stalk(c4_filt, 0, 1, rings=0)


def test_stalk_order_zero_is_contract_error(c4_filt):
    """A stalk holds orders >= 1 only, so an order-0 stalk would hold nothing."""
    with pytest.raises(ContractError):
        compute_stalk(c4_filt, 0, 0)


def truncated_stalk(filt, v, rings, fld):
    """Stalk cocycles the old way: relative cohomology on an excision
    truncation, ids mapped back to `filt`."""
    trunc, idmap, _ = dense_reference.truncate_neighborhood(filt, [v], rings)
    old = {new: old for old, new in idmap.items()}
    diagram = star_diagram(trunc, (v,), 2, fld)[0]
    cocycles = [
        replace(
            c,
            birth_index=old[c.birth_index],
            death_index=None if c.death_index is None else old[c.death_index],
            representative=sorted(((old[i], x) for i, x in c.representative), reverse=True),
        )
        for c in diagram.classes
        if c.order >= 1
    ]
    return sorted(cocycles, key=lambda c: (c.order, c.birth, c.birth_index))


def test_stalk_equals_truncated_reference(oct_filt, corpus):
    """The stalk on the full filtration equals the one on 1- and 2-ring
    truncations (excision): every field of every cocycle, both carriers."""
    rng = random.Random(60)
    cloud = graph_from_points([(rng.random(), rng.random()) for _ in range(60)], knn=6)
    filts = [oct_filt] + [build_flag_complex(g, 3) for g in corpus[:25] + [cloud]]
    for fld in (Field(), Field(kind="float")):
        for fi, filt in enumerate(filts):
            for v in range(filt.vertex_count):
                stalk = compute_stalk(filt, v, 2, fld=fld)
                for rings in (1, 2):
                    reference = truncated_stalk(filt, v, rings, fld)
                    assert stalk.cocycles == reference, (
                        fld.kind, fi, v, rings,
                    )


def test_stalk_alive_counts_match_relative_betti_oracle(corpus):
    """At every threshold, a stalk's alive order-k classes count
    H^k(S_t, S_t minus st v): the dense relative Betti number against the
    closed complement of the open star, and the dense local Betti number on
    the star's chains."""
    for gi, graph in enumerate(corpus[:25]):
        filt = build_flag_complex(graph, 3)
        v = gi % graph.vertex_count
        stalk = compute_stalk(filt, v, 2)
        rest = frozenset(i for i, s in enumerate(filt.simplices) if v not in s)
        for t in filt.threshold_values():
            for k in (1, 2):
                alive = sum(1 for c in stalk.cocycles if c.order == k and c.alive_at(t))
                dense = dense_reference.relative_betti_dense(filt, t, rest, k)
                local = oracle.local_betti(filt, v, t, k)
                assert alive == dense == local, (gi, v, t, k)


# ---------------------------------------------------------------------------
# blocks from the edge star
# ---------------------------------------------------------------------------


def test_stalks_from_another_filtration_rejected(c4_filt, k4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError):
        assemble_laplacian(k4_filt, stalks, 1, ("weighted",))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_representative_keys_run_by_decreasing_id(corpus, tie_free_corpus, kind):
    """Every representative's simplex ids strictly decrease down to its
    birth simplex: in the whole-complex diagram, in every stalk and in every
    edge star's order-1 and order-2 bars, so it is a column as `linalg`
    orders one, with `birth_index` its pivot. So are every vertex stalk's
    coboundary columns: ids strictly decrease, and each order-k column's
    pivot, its last id, is a distinct k-simplex."""
    fld = Field(kind=kind)
    for gi, graph in enumerate(corpus + tie_free_corpus):
        filt = build_flag_complex(graph, 3)
        cocycles = list(persistence.persistent_cohomology(filt, 2, fld).classes)
        for v in range(filt.vertex_count):
            stalk = compute_stalk(filt, v, 2, fld=fld)
            cocycles += stalk.cocycles
            for k, cols in stalk.coboundaries.items():
                pivots = [col[-1][0] for col in cols]
                assert len(set(pivots)) == len(pivots), (gi, v, k)
                for col in cols:
                    ids = [sid for sid, _ in col]
                    assert all(a > b for a, b in zip(ids, ids[1:])), (gi, v, k, col)
                    assert len(filt.simplices[ids[-1]]) == k + 1, (gi, v, k, col)
        for e in filt.ids_of_dim(1):
            cocycles += star_diagram(filt, filt.simplices[e], 2, fld)[0].classes
        for c in cocycles:
            ids = [sid for sid, _ in c.representative]
            assert ids and all(a > b for a, b in zip(ids, ids[1:])), (gi, c)
            assert ids[-1] == c.birth_index, (gi, c)


def test_float_owner_table_holds_the_representatives(corpus):
    """On the float carrier each class's owner-table entry is its own
    position and its representative itself, not a copy."""
    fld = Field(kind="float")
    for gi, graph in enumerate(corpus[:20]):
        filt = build_flag_complex(graph, 3)
        for v in range(filt.vertex_count):
            stalk = compute_stalk(filt, v, 2, fld=fld)
            for k in (1, 2):
                owners = stalk._owners[k]
                for pos, c in enumerate(stalk.order_cocycles(k)):
                    owner_pos, col = owners[c.birth_index]
                    assert owner_pos == pos and col is c.representative, (gi, v, k, pos)


def test_extended_matrix_rejects_non_adjacent(two_c4_filt):
    """A block couples the two ends of an edge only."""
    s0 = compute_stalk(two_c4_filt, 0, 1)
    s4 = compute_stalk(two_c4_filt, 4, 1)
    with pytest.raises(ContractError, match="not adjacent"):
        sheaf_laplacian_block(s0, s4, two_c4_filt, 1)


# ---------------------------------------------------------------------------
# sheaf_laplacian_block
# ---------------------------------------------------------------------------


def test_block_c4_single_essential_atom(c4_filt):
    s0 = compute_stalk(c4_filt, 0, 1)
    s1 = compute_stalk(c4_filt, 1, 1)
    blk = sheaf_laplacian_block(s0, s1, c4_filt, 1)
    assert len(blk.atoms) == 1
    atom = blk.atoms[0]
    assert (atom.start, atom.end) == (1.0, INF)
    assert abs(atom.v_a[0]) == 1 and abs(atom.v_b[0]) == 1
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    assert abs(edge_block_at(c4_filt, stalks, 0, 1, 1, 1.0)[0, 0]) == 1.0


def test_block_disjoint_lifespans_zero_atoms():
    """u's classes die before v's is born, so no atom couples a live u class
    with a live v class; the one-sided atoms still are relations, and the
    block and the kernel agree with the dense oracle at every threshold."""
    filt = build_flag_complex(disjoint_lifespan_graph(), 2)
    stalks = {v: compute_stalk(filt, v, 1) for v in range(filt.vertex_count)}
    assert stalk_pairs(stalks[1]) == [(1, 1.0, 1.5), (1, 1.0, 1.6)]
    assert stalk_pairs(stalks[3]) == [(1, 3.0, INF)]
    lap = assemble_laplacian(filt, stalks, 1, ("slice", filt.t_plus))
    for t in filt.threshold_values():
        assert live_atom_rank(lap, 1, 3, t) == edge_image_rank(filt, t, 1, 1, 3), t
        assert live_kernel(lap, t) == oracle.global_sections_dim(filt, t, 1), t
        assert not edge_block_at(filt, stalks, 1, 3, 1, t).any(), t


def test_block_finite_interval_on_unit_square(square_filt):
    """Both corner classes live on [1, sqrt2); their identification too."""
    root2 = math.sqrt(2.0)
    s0 = compute_stalk(square_filt, 0, 1)
    s1 = compute_stalk(square_filt, 1, 1)
    assert stalk_pairs(s0) == [(1, 1.0, root2)]
    blk = sheaf_laplacian_block(s0, s1, square_filt, 1)
    assert [(a.start, a.end) for a in blk.atoms] == [(1.0, root2)]
    # oracle: the shared relative class on C' = st(edge 01) lives on [1, sqrt2)
    inter = star_of_vertices(square_filt, [0]) & star_of_vertices(square_filt, [1])
    comp = frozenset(range(len(square_filt))) - inter
    assert dense_reference.relative_betti_dense(square_filt, 1.0, comp, 1) == 1
    assert dense_reference.relative_betti_dense(square_filt, root2, comp, 1) == 0
    # the sheaf Laplacian exists only inside the intersection interval
    stalks = {v: compute_stalk(square_filt, v, 1) for v in range(4)}
    assert edge_block_at(square_filt, stalks, 0, 1, 1, 0.5)[0, 0] == 0.0
    assert abs(edge_block_at(square_filt, stalks, 0, 1, 1, 1.2)[0, 0]) == 1.0
    assert edge_block_at(square_filt, stalks, 0, 1, 1, root2)[0, 0] == 0.0


def test_laplacian_at_time_before_births_is_zero(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    assert np.all(edge_block_at(c4_filt, stalks, 0, 1, 1, 0.0) == 0.0)


def empty_interval_graph():
    """An 8-vertex graph whose order-2 blocks (2, 4) and (2, 7) each reduce a
    column valid on the empty interval [w, w), w the weight of edge (4, 7)."""
    edges = (
        (0, 1, 0.7076761524222557), (0, 2, 0.35535135729996914), (0, 3, 0.6964198076411567),
        (0, 4, 0.47253834981224785), (0, 5, 0.25618183594271204), (1, 2, 0.4042940811668897),
        (1, 3, 0.4188272384269869), (1, 4, 0.8412340954622506), (1, 5, 0.7077582566508612),
        (1, 6, 0.954394476089788), (1, 7, 0.24608679063361372), (2, 4, 0.5124960121124476),
        (2, 6, 0.46284975937048245), (2, 7, 0.7809871494563421), (3, 4, 0.29586380747431196),
        (3, 5, 0.9783414907096316), (3, 6, 0.5128800541969205), (3, 7, 0.14819563433497784),
        (4, 5, 0.702606734224737), (4, 6, 0.6859658309578894), (4, 7, 0.7987736171349602),
        (5, 6, 0.7211350402919544), (5, 7, 0.4837937739605416),
    )
    return WeightedGraph(8, edges)


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_block_skips_empty_interval_columns(kind):
    """Every atom's interval is nonempty, also where a reduction meets a
    zero-length pair."""
    fld = Field(kind=kind)
    filt = build_flag_complex(empty_interval_graph(), 3)
    stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in (2, 4, 7)}
    for u, v in ((2, 4), (2, 7)):
        blk = sheaf_laplacian_block(stalks[u], stalks[v], filt, 2, fld)
        assert all(a.start < a.end for a in blk.atoms), (kind, u, v)


def test_atom_end_never_exceeds_involved_deaths(corpus):
    """Every atom's validity ends no later than any involved cocycle's death."""
    for gi, graph in enumerate(corpus[:20]):
        filt = build_flag_complex(graph, 3)
        stalks = {v: compute_stalk(filt, v, 2) for v in range(graph.vertex_count)}
        for eid in filt.ids_of_dim(1):
            u, v = filt.simplices[eid]
            for k in (1, 2):
                blk = sheaf_laplacian_block(stalks[u], stalks[v], filt, k)
                cocycles_u, cocycles_v = stalks[u].order_cocycles(k), stalks[v].order_cocycles(k)
                for atom in blk.atoms:
                    deaths = [cocycles_u[a].death_or(INF) for a in atom.v_a]
                    deaths += [cocycles_v[b].death_or(INF) for b in atom.v_b]
                    assert atom.end <= min(deaths), (gi, u, v, k)


def test_atom_start_is_support_minimum(corpus, tie_free_corpus):
    """An atom starts at its edge class's birth, the lowest value in the
    support of its representative, so no class it reaches is born earlier
    (both carriers, corpora and kNN-6 clouds, orders 1 and 2). On the exact
    carrier the atoms alive at t span the image of the edge star's
    cohomology in the two stalks, by the dense oracle, at every threshold."""
    clouds = []
    for n in (60, 200):
        rng = random.Random(n)
        clouds.append(graph_from_points([(rng.random(), rng.random()) for _ in range(n)], knn=6))
    for fld in (Field(), Field(kind="float")):
        for gi, graph in enumerate(corpus[:40] + tie_free_corpus[:20] + clouds):
            filt = build_flag_complex(graph, 3)
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            for k in (1, 2):
                lap = assemble_laplacian(filt, stalks, k, ("slice", filt.t_plus), fld)
                for (u, v), blk in lap.blocks.items():
                    for atom in blk.atoms:
                        births = [lap.lifespans[u][a][0] for a in atom.v_a]
                        births += [lap.lifespans[v][b][0] for b in atom.v_b]
                        assert atom.start <= min(births), (fld.kind, gi, u, v, k)
                    if fld.kind == "exact" and gi < 60:
                        for t in filt.threshold_values():
                            assert live_atom_rank(lap, u, v, t) == edge_image_rank(
                                filt, t, k, u, v
                            ), (gi, u, v, k, t)


def test_oracle_edge_image_rank_matches_kernel_basis(corpus, tie_free_corpus):
    """The oracle's kernel-free rank of the image of H^k(st e) in
    H^k(st u) ⊕ H^k(st v), the `im_rank` of `check_mayer_vietoris` on the
    prefix S_t, equals the basis-based `edge_image_rank` on every edge at
    every threshold: orders 1 and 2 on the first 20 graphs of each corpus,
    order 3 on weighted 16-cell graphs."""
    inputs = [(g, (1, 2)) for g in corpus[:20] + tie_free_corpus[:20]]
    inputs += [(g, (3,)) for g in sixteen_cell_graphs(12, seed=16)]
    for gi, (graph, orders) in enumerate(inputs):
        filt = build_flag_complex(graph, max(orders) + 1)
        for t in filt.threshold_values():
            prefix, _ = dense_reference.subfiltration(filt, oracle.ids_at(filt, t))
            for eid in filt.ids_of_dim(1):
                u, v = filt.simplices[eid]
                a, b = star_of_vertices(prefix, [u]), star_of_vertices(prefix, [v])
                for k in orders:
                    report = oracle.check_mayer_vietoris(prefix, a, b, k)
                    assert report.positions[0]["im_rank"] == edge_image_rank(
                        filt, t, k, u, v
                    ), (gi, u, v, k, t)


def bowtie_graph():
    """Two unit triangles sharing vertex 0."""
    edges = ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))
    return WeightedGraph(5, tuple((u, v, 1.0) for u, v in edges))


def test_slice_kernel_counts_global_sections(corpus, tie_free_corpus):
    """On the cocycles alive at t, the slice kernel is the dense count of
    global sections of σ ↦ H^k_c(st σ), at every threshold: orders 1 and 2
    on both corpora and the bowtie, and orders 1 to 3 on weighted 16-cell
    graphs, whose stalks are walked at order 3."""
    checked = {1: 0, 2: 0, 3: 0}
    inputs = [(g, 2) for g in corpus + tie_free_corpus + [bowtie_graph()]]
    inputs += [(g, 3) for g in sixteen_cell_graphs(12, seed=16)]
    for gi, (graph, max_order) in enumerate(inputs):
        filt = build_flag_complex(graph, max_order + 1)
        stalks = {v: compute_stalk(filt, v, max_order) for v in range(filt.vertex_count)}
        for k in range(1, max_order + 1):
            lap = assemble_laplacian(filt, stalks, k, ("slice", filt.t_plus))
            for t in filt.threshold_values():
                assert live_kernel(lap, t) == oracle.global_sections_dim(filt, t, k), (gi, k, t)
                checked[k] += 1
    assert checked[1] + checked[2] > 4000 and checked[3] > 200


def test_bowtie_kernel_is_a_global_section_not_a_cycle():
    """The pinch vertex's local 1-class is a global section but not a
    cycle: the kernel is 1 while beta_1 is 0."""
    filt = build_flag_complex(bowtie_graph(), 2)
    stalks = {v: compute_stalk(filt, v, 1) for v in range(5)}
    lap = assemble_laplacian(filt, stalks, 1, ("slice", 1.0))
    assert live_kernel(lap, 1.0) == lap.kernel_dim_exact() == 1
    assert oracle.global_sections_dim(filt, 1.0, 1) == 1
    assert oracle.betti_dense(filt, 1.0, 1) == 0


def test_carriers_give_the_same_atoms(corpus, tie_free_corpus):
    """Exact and float stalks give every block the same atoms' intervals and
    supports, orders 1 and 2, on both corpora."""
    for gi, graph in enumerate(corpus + tie_free_corpus):
        filt = build_flag_complex(graph, 3)
        shapes = []
        for fld in (Field(), Field(kind="float")):
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            laps = [assemble_laplacian(filt, stalks, k, ("weighted",), fld) for k in (1, 2)]
            shapes.append([
                (k, edge, [(a.start, a.end, sorted(a.v_a), sorted(a.v_b)) for a in blk.atoms])
                for k, lap in zip((1, 2), laps)
                for edge, blk in lap.blocks.items()
            ])
        assert shapes[0] == shapes[1], gi


def test_block_sign_flip_equivariance(square_filt):
    """Negating a stalk basis cocycle negates that row of every block."""
    stalks = {v: compute_stalk(square_filt, v, 1) for v in range(4)}
    base = edge_block_at(square_filt, stalks, 0, 1, 1, 1.2)
    s0 = stalks[0]
    flipped_c = replace(
        s0.cocycles[0],
        representative=[(i, -v) for i, v in s0.cocycles[0].representative],
    )
    stalks[0] = replace(s0, cocycles=[flipped_c])
    flipped = edge_block_at(square_filt, stalks, 0, 1, 1, 1.2)
    assert np.allclose(flipped, -base)


# ---------------------------------------------------------------------------
# assembled Laplacian
# ---------------------------------------------------------------------------


def test_assembled_c4_kernel_dimension(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    lap = assemble_laplacian(c4_filt, stalks, 1, ("slice", 1.0))
    assert lap.dimension == 4
    assert lap.kernel_dim_exact() == 1 == oracle.betti_dense(c4_filt, 1.0, 1)
    # balanced signed structure: kernel vector has all entries of equal size
    w, vecs = np.linalg.eigh(lap.dense)
    kernel_vec = vecs[:, 0]
    assert abs(w[0]) < 1e-12
    assert np.allclose(np.abs(kernel_vec), np.abs(kernel_vec[0]))


def test_assembled_octahedron_kernel(oct_filt):
    stalks = {v: compute_stalk(oct_filt, v, 2) for v in range(6)}
    lap = assemble_laplacian(oct_filt, stalks, 2, ("slice", 1.0))
    assert lap.kernel_dim_exact() == 1 == oracle.betti_dense(oct_filt, 1.0, 2)


def test_assembled_two_cycles_kernel(two_c4_filt):
    stalks = {v: compute_stalk(two_c4_filt, v, 1) for v in range(8)}
    lap = assemble_laplacian(two_c4_filt, stalks, 1, ("slice", 1.0))
    assert lap.kernel_dim_exact() == 2 == oracle.betti_dense(two_c4_filt, 1.0, 1)


def test_assembled_k3_zero_dimensional(k3_filt):
    stalks = {v: compute_stalk(k3_filt, v, 2) for v in range(3)}
    lap = assemble_laplacian(k3_filt, stalks, 1, ("slice", 1.0))
    assert lap.dimension == 0
    assert lap.blocks == {}
    assert lap.kernel_dim_exact() == 0


def test_assembled_missing_stalk(c4_filt):
    with pytest.raises(ContractError):
        assemble_laplacian(c4_filt, {0: compute_stalk(c4_filt, 0, 1)}, 1, ("slice", 1.0))


def test_assembled_symmetric_psd_at_all_thresholds(corpus):
    rng = np.random.default_rng(5)
    for graph in corpus[:10]:
        filt = build_flag_complex(graph, 2)
        stalks = {v: compute_stalk(filt, v, 1) for v in range(graph.vertex_count)}
        for t in filt.threshold_values():
            lap = assemble_laplacian(filt, stalks, 1, ("slice", t))
            assert np.array_equal(lap.dense, lap.dense.T)
            scale = max(np.abs(lap.dense).max(), 1.0)
            for _ in range(10):
                x = rng.standard_normal(lap.dimension)
                if lap.dimension:
                    assert x @ lap.dense @ x >= -1e-8 * scale * (x @ x)


def test_assembled_weighted_mode_square(square_filt):
    """Entry weight = overlap / output lifespan; full overlap here -> 1."""
    stalks = {v: compute_stalk(square_filt, v, 1) for v in range(4)}
    root2 = math.sqrt(2.0)
    weighted = assemble_laplacian(square_filt, stalks, 1, ("weighted",))
    sliced = assemble_laplacian(square_filt, stalks, 1, ("slice", 1.0))
    # every class and every atom spans exactly [1, sqrt2): ratios are all 1
    assert np.allclose(weighted.dense, sliced.dense)


def test_kernel_dim_exact_matches_oracle_kernel_basis(corpus):
    """The exact kernel rank agrees with the reference RREF null space of the
    same nonzero entries, and `dense` is their float image."""
    for gi, graph in enumerate(corpus[:40]):
        filt = build_flag_complex(graph, 3)
        stalks = {v: compute_stalk(filt, v, 2) for v in range(graph.vertex_count)}
        thresholds = filt.threshold_values()
        modes = [("weighted",), ("slice", filt.t_plus), ("slice", thresholds[len(thresholds) // 2])]
        for k in (1, 2):
            for mode in modes:
                lap = assemble_laplacian(filt, stalks, k, mode)
                dense = lap.dense
                rows: dict[int, dict] = {}
                for i, j, x in zip(*(a.tolist() for a in lap.entries)):
                    rows.setdefault(i, {})[j] = x
                    assert dense[i, j] == float(x)
                assert np.count_nonzero(dense) <= len(lap.entries[0])
                basis = dense_reference.kernel_basis(list(rows.values()), lap.dimension)
                assert lap.kernel_dim_exact() == len(basis), (gi, k, mode)


def test_assembled_mode_validation(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError):
        assemble_laplacian(c4_filt, stalks, 1, "sliced")


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "abc", "1.0", None, 10**400, 1j])
def test_slice_time_must_be_finite_real(c4_filt, t):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError, match="slice time"):
        assemble_laplacian(c4_filt, stalks, 1, ("slice", t))


@pytest.fixture
def block_calls(monkeypatch):
    """Counts `sheaf_laplacian_block` calls by (u, v) while the test runs."""
    calls = {}

    def counted(stalk_u, stalk_v, *args):
        key = (stalk_u.vertex, stalk_v.vertex)
        calls[key] = calls.get(key, 0) + 1
        return sheaf_laplacian_block(stalk_u, stalk_v, *args)

    monkeypatch.setattr(sheaf, "sheaf_laplacian_block", counted)
    return calls


def test_every_mode_reads_one_reduction(corpus, tie_free_corpus, block_calls):
    """`replace(lap, mode=m)` reduces no block, and its entries equal a fresh
    assembly in mode m: element for element on the exact carrier, bit for
    bit on the float one, at every threshold and in weighted mode."""
    checked = 0
    for graph in corpus[:30] + tie_free_corpus[:30]:
        filt = build_flag_complex(graph, 3)
        modes = [("slice", t) for t in filt.threshold_values()] + [("weighted",)]
        for fld in (Field(), Field(kind="float")):
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            for k in (1, 2):
                block_calls.clear()
                lap = assemble_laplacian(filt, stalks, k, modes[0], fld)
                read = [replace(lap, mode=m).entries for m in modes]
                assert block_calls == dict.fromkeys(lap.blocks, 1)
                for m, (rows, cols, vals) in zip(modes, read):
                    want = assemble_laplacian(filt, stalks, k, m, fld).entries
                    assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
                    assert vals.dtype == want[2].dtype
                    if fld.kind == "exact":
                        assert vals.tolist() == want[2].tolist(), (m, k)
                    else:
                        assert vals.tobytes() == want[2].tobytes(), (m, k)
                    checked += bool(len(rows))
    assert checked > 100


def test_slice_entries_pair_only_live_components(corpus, monkeypatch):
    """A slice weighs only the pairs of an unended atom's components alive
    at t, so `_entry_weight` never returns 0 there, and every cell is the
    sum of `_entry_weight` over all pairs of all atoms (exact carrier,
    orders 1 and 2, every threshold)."""
    rule, weights = sheaf._entry_weight, []
    monkeypatch.setattr(sheaf, "_entry_weight", lambda *a: weights.append(rule(*a)) or weights[-1])
    for graph in corpus[:20]:
        filt = build_flag_complex(graph, 3)
        stalks = {v: compute_stalk(filt, v, 2) for v in range(filt.vertex_count)}
        for k in (1, 2):
            first = assemble_laplacian(filt, stalks, k, ("slice", filt.t_plus))
            for t in filt.threshold_values():
                lap = replace(first, mode=("slice", t))
                want = {}
                for (u, v), blk in lap.blocks.items():
                    for atom in blk.atoms:
                        comps = [(lap.offsets[u] + a, c, lap.lifespans[u][a])
                                 for a, c in atom.v_a.items()]
                        comps += [(lap.offsets[v] + b, c, lap.lifespans[v][b])
                                  for b, c in atom.v_b.items()]
                        for i, ci, out_iv in comps:
                            for j, cj, in_iv in comps:
                                w = rule(lap.mode, atom, out_iv, in_iv, lap.horizon)
                                if w:
                                    want[i, j] = want.get((i, j), 0) + ci * cj * w
                rows, cols, vals = lap.entries
                assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == want
    assert weights and all(w == 1 for w in weights)


@pytest.mark.parametrize(
    "mode",
    ["weighted", ["weighted"], ["slice", 1.0], ("weighted", 1.0), ("slice",), ("sliced", 1.0),
     ("slice", math.nan), ("slice", True), ("slice", False)],
    ids=["bare_str", "list", "slice_list", "weighted_with_t", "slice_without_t", "sliced",
         "slice_nan", "slice_true", "slice_false"],
)
def test_bad_mode_raises_before_any_reduction(c4_filt, block_calls, mode):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError, match=r"\('slice', t\) or \('weighted',\)|slice time"):
        assemble_laplacian(c4_filt, stalks, 1, mode)
    assert block_calls == {}


def test_replace_checks_the_mode_and_reduces_nothing(c4_filt, block_calls):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    lap = assemble_laplacian(c4_filt, stalks, 1, ("slice", 1.0))
    assert sum(block_calls.values()) == len(lap.blocks) == 4
    block_calls.clear()
    with pytest.raises(ContractError, match="slice time"):
        replace(lap, mode=("slice", math.nan))
    with pytest.raises(ContractError, match=r"or \('weighted',\)"):
        replace(lap, mode="weighted")
    copy = replace(lap, mode=("slice", 1))
    assert copy.mode == ("slice", 1.0) and type(copy.mode[1]) is float
    assert copy.blocks is lap.blocks and copy.lifespans is lap.lifespans
    assert np.array_equal(copy.dense, lap.dense)
    assert block_calls == {}


def order1_operators(graph, fld):
    """The order-1 stalks of `graph` (max_dim 2) and its operator at every
    threshold and in weighted mode, all from one assembly."""
    filt = build_flag_complex(graph, 2)
    stalks = {v: compute_stalk(filt, v, 1, fld=fld) for v in range(filt.vertex_count)}
    modes = [("slice", t) for t in filt.threshold_values()] + [("weighted",)]
    first = assemble_laplacian(filt, stalks, 1, modes[0], fld)
    return stalks, [replace(first, mode=m) for m in modes]


def coordinate_keys(lap, name):
    """(vertex name, birth, death) -> global coordinate, or None if a key repeats."""
    keys = {
        (name[v], *span): lap.offsets[v] + a
        for v, spans in lap.lifespans.items()
        for a, span in enumerate(spans)
    }
    return keys if len(keys) == lap.dimension else None


def operator_matrix(lap):
    """The operator as a dense array: Fractions from `entries` on the exact
    carrier, `dense` on the float one."""
    if lap.field_kind == "float":
        return lap.dense
    rows, cols, vals = lap.entries
    out = np.full(lap.shape, Fraction(0), dtype=object)
    out[rows, cols] = vals
    return out


def psi_commutes_with_matching(stalk, image, match, psi, rng):
    """Whether the stalk's sign-equivariant layer and its image's commute
    with the coordinate matching P, x_a -> (P x)_match[a]: psi'(P x) equals
    P psi(x) to 1e-12, for one random x."""
    x = rng.standard_normal(len(match))
    px = np.empty_like(x)
    px[match] = x
    want = nn.sign_equivariant_layer(x, nn.node_gain_network(stalk, psi))
    got = nn.sign_equivariant_layer(px, nn.node_gain_network(image, psi))
    return bool(np.all(np.abs(got[match] - want) <= 1e-12))


def equal_up_to_signs(pairs, tol):
    """Whether one diagonal sign matrix S gives B == S A S for every (A, B):
    the signs follow the cells with |A| > tol from each coordinate, then
    every cell is compared, within `tol` (0 compares exactly)."""
    n = len(pairs[0][0])
    s = [0] * n
    for root in range(n):
        if s[root]:
            continue
        s[root], stack = 1, [root]
        while stack:
            i = stack.pop()
            for a, b in pairs:
                for j in range(n):
                    if not s[j] and abs(a[i, j]) > tol:
                        s[j] = s[i] if (a[i, j] > 0) == (b[i, j] > 0) else -s[i]
                        stack.append(j)
    signs = np.array(s)
    return all(
        np.all(np.abs(b - signs[:, None] * a * signs[None, :]) <= tol) for a, b in pairs
    )


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_order1_operator_is_label_free(corpus, tie_free_corpus, kind):
    """The paper's claim (i) at order 1: persistence fixes the stalk bases up
    to sign, so relabelling the vertices gives the same operator up to a
    signed permutation. Coordinates are matched by (image vertex, birth,
    death); a graph whose keys repeat is skipped. Every slice threshold and
    the weighted mode, exactly on the exact carrier and to 1e-12 on float.
    At every vertex, the hypernetwork's sign-equivariant layer under one
    seeded Psi commutes with that matching too; its tests already cover
    diagonal signs.

    One graph is label-dependent, and its spectra differ too: at one vertex
    three triangles share their longest edge, so they enter at one value in
    an order set by vertex ids. The elder rule's representative of the older
    of two stalk classes dying there then holds the younger one's link
    vertices in one labelling and not in the other."""
    fld = Field(kind=kind)
    rng = random.Random(26)
    x_rng = np.random.default_rng(26)
    psi = nn.MLPParams.init([6, 8, 1], seed=26)
    tol = 1e-12 if kind == "float" else 0
    skipped = compared = 0
    differ, psi_differ = [], []
    for gi, graph in enumerate(corpus + tie_free_corpus):
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        edges = tuple((perm[u], perm[v], w) for u, v, w in graph.edges)
        stalks, before = order1_operators(graph, fld)
        images, after = order1_operators(WeightedGraph(graph.vertex_count, edges), fld)
        keys = coordinate_keys(before[0], perm)
        image = coordinate_keys(after[0], range(graph.vertex_count))
        if keys is None:
            skipped += 1
            continue
        assert keys.keys() == image.keys()
        order = sorted(keys, key=keys.get)
        match = np.array([image[key] for key in order], dtype=np.intp)
        pairs = [
            (operator_matrix(a), operator_matrix(b)[np.ix_(match, match)])
            for a, b in zip(before, after)
        ]
        if not equal_up_to_signs(pairs, tol):
            differ.append(gi)
        compared += len(pairs)
        for v, stalk in stalks.items():
            lo = before[0].offsets[v]
            local = match[lo:lo + before[0].dims[v]] - after[0].offsets[perm[v]]
            if not psi_commutes_with_matching(stalk, images[perm[v]], local, psi, x_rng):
                psi_differ.append((gi, v))
    assert (skipped, differ, psi_differ, compared) == (0, [60], [], 2617)


def merge_forest_coordinates(filt, stalk, fld):
    """Order-1 block coordinates of u = `stalk.vertex`, read off the merge
    forest of u's link: edge τ at u -> its class's coordinates in u's stalk,
    keyed by stalk position, by increasing root id.

    u's cofacets τ, by increasing id, are the link's vertices; s(τ) is u's
    sign in τ and o the first. The elder rule on the link, replayed as
    `star_diagram` runs it, gives p(c), the root each killed root c merged
    into. τ's edge bar ends at f(τ), the value of τ's first cofacet. For
    τ != o the coordinates are 1 at τ's class and -s(c) s(τ) at each c with
    p(c) = τ and value(c) < f(τ); for o they are -s(o) s(r) at each r with
    value(r) < f(o) that is killed into o or the root of a final component
    other than o's.
    """
    values, one, signs = filt.values, fld.one, fld.signs
    sign = dict(filt.cofacets(filt.id_of((stalk.vertex,))))
    if not sign:
        return {}
    o = min(sign)
    first, second = {}, {}
    for tau in sign:
        for rho, _ in filt.cofacets(tau):
            if rho in first:
                second[rho] = tau
            else:
                first[rho] = tau
    root = {tau: tau for tau in sign}
    members = {tau: [tau] for tau in sign}
    parent = {}
    for rho in sorted(second):
        elder, young = sorted((root[first[rho]], root[second[rho]]))
        if elder != young:
            parent[young] = elder
            for tau in members[young]:
                root[tau] = elder
            members[elder] += members.pop(young)
    position = {c.birth_index: i for i, c in enumerate(stalk.order_cocycles(1))}
    coords = {}
    for tau in sign:
        up = filt.cofacets(tau)
        f = values[up[0][0]] if up else INF
        if not values[tau] < f:
            continue  # τ's edge bar has zero length
        if tau != o:
            kids = sorted(c for c, p in parent.items() if p == tau and values[c] < f)
            keys = [(tau, one)] + [(c, signs[-sign[c] * sign[tau]]) for c in kids]
        else:
            tops = [c for c, p in parent.items() if p == o] + [r for r in members if r != o]
            keys = [(r, signs[-sign[o] * sign[r]]) for r in sorted(tops) if values[r] < f]
        coords[tau] = {position[r]: x for r, x in keys}
    return coords


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_order1_block_coordinates_follow_the_merge_forest(closed_form_filtrations, kind):
    """At k = 1 every block equals, to the repr, the atom read off the merge
    forests of its two ends (`merge_forest_coordinates`): for the edge e =
    uv whose bar [value(e), f(e)) has positive length, `v_a` is u's
    coordinates of e and `v_b` minus v's, and e has an atom if and only if
    either one is nonempty."""
    fld = Field(kind=kind)
    for fi, filt in enumerate(closed_form_filtrations):
        stalks = {v: compute_stalk(filt, v, 1, fld=fld) for v in range(filt.vertex_count)}
        forests = {v: merge_forest_coordinates(filt, s, fld) for v, s in stalks.items()}
        for e in filt.ids_of_dim(1):
            u, v = filt.simplices[e]
            want = []
            if e in forests[u]:
                up = filt.cofacets(e)
                v_a = forests[u][e]
                v_b = {b: -x for b, x in forests[v][e].items()}
                if v_a or v_b:
                    end = filt.values[up[0][0]] if up else INF
                    want.append(sheaf.LaplacianAtom(filt.values[e], end, v_a, v_b))
            got = sheaf_laplacian_block(stalks[u], stalks[v], filt, 1, fld).atoms
            assert repr(got) == repr(want), (fi, e)


# ---------------------------------------------------------------------------
# carriers, conditioning and caches
# ---------------------------------------------------------------------------


def pipeline_reprs(filt, fld):
    """repr of the diagram, the stalks and every operator built on `filt`."""
    stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
    laps = [
        assemble_laplacian(filt, stalks, k, mode, fld)
        for k in (1, 2)
        for mode in (("slice", filt.t_plus), ("weighted",))
    ]
    return (
        repr(persistence.persistent_cohomology(filt, 2, fld)),
        repr(stalks),
        repr(laps),
        [[a.tolist() for a in lap.entries] for lap in laps],
    )


def test_cached_columns_match_fresh_filtration(corpus):
    """PH, stalks and assembly on one filtration, carriers float -> exact
    -> float and two eps values, equal the results on a fresh filtration:
    no cached column is edited or served to another carrier."""
    rng = random.Random(62)
    cloud = graph_from_points([(rng.random(), rng.random()) for _ in range(40)], knn=6)
    for graph in corpus[:12] + [cloud]:
        shared = build_flag_complex(graph, 3)
        for fld in (Field(kind="float"), Field(), Field(kind="float"), Field(kind="float", eps=0.3)):
            assert pipeline_reprs(shared, fld) == pipeline_reprs(build_flag_complex(graph, 3), fld)


def test_ill_conditioned_column_raises_every_time(square_filt):
    """A coboundary column past 1/eps raises on each block that solves
    against it: no failed solve is kept as if it had been pruned."""
    fld = Field(kind="float", eps=1e-9)
    stalks = {v: compute_stalk(square_filt, v, 1, fld=fld) for v in range(4)}
    scaled = lambda col, s: [(r, s * x) for r, x in col[:-1]] + col[-1:]
    col = stalks[0].coboundaries[1][0]
    stalks[0] = replace(stalks[0], coboundaries={1: [scaled(col, 1e12)]})
    for _ in range(2):
        with pytest.raises(IllConditionedError):
            sheaf_laplacian_block(stalks[0], stalks[1], square_filt, 1, fld)
        with pytest.raises(IllConditionedError):
            assemble_laplacian(square_filt, stalks, 1, ("slice", 1.2), fld)
    # the same column is fine on the exact carrier, and the partner still builds
    e0, e1 = (compute_stalk(square_filt, v, 1) for v in (0, 1))
    huge = {1: [scaled(e0.coboundaries[1][0], 10**12)]}
    sheaf_laplacian_block(replace(e0, coboundaries=huge), e1, square_filt, 1, Field())
    sheaf_laplacian_block(stalks[1], stalks[2], square_filt, 1, fld)


def test_unowned_row_raises(c4_filt):
    """A solve that reaches a row no class or coboundary of the stalk owns
    is an error, not a wrong atom: here vertex 0 lost the coboundary that
    owns its first edge."""
    for fld in (Field(), Field(kind="float")):
        s0, s1 = (compute_stalk(c4_filt, v, 1, fld=fld) for v in (0, 1))
        with pytest.raises(IllConditionedError, match="no owner"):
            sheaf_laplacian_block(replace(s0, coboundaries={1: []}), s1, c4_filt, 1, fld)


def test_mixed_carriers_rejected(square_filt):
    """Stalks reduce on the carrier they were computed on: float stalks on
    the exact carrier would label float-rounded data exact, and the other
    way round would mix Fractions into float reductions."""
    for stalk_fld, fld in ((Field(kind="float"), Field()), (Field(), Field(kind="float"))):
        stalks = {v: compute_stalk(square_filt, v, 1, fld=stalk_fld) for v in range(4)}
        with pytest.raises(ContractError, match="carrier"):
            sheaf_laplacian_block(stalks[0], stalks[1], square_filt, 1, fld)
        with pytest.raises(ContractError, match="carrier"):
            assemble_laplacian(square_filt, stalks, 1, ("slice", 1.2), fld)


def test_orders_outside_the_stalk_rejected(oct_filt):
    """A stalk holds orders 1..max_order; any other order is an error, not
    an empty list. At order 2 the octahedron's operator has dimension 6."""
    low = {v: compute_stalk(oct_filt, v, 1) for v in range(6)}
    for k in (-1, 0, 2):
        with pytest.raises(ContractError, match="holds orders 1..1"):
            low[0].order_cocycles(k)
        with pytest.raises(ContractError, match="holds orders"):
            assemble_laplacian(oct_filt, low, k, ("slice", 1.0))
    full = {v: compute_stalk(oct_filt, v, 2) for v in range(6)}
    assert assemble_laplacian(oct_filt, full, 2, ("slice", 1.0)).dimension == 6
    assert full[0].order_cocycles(1) == []
    # the grouping follows the cocycles through dataclasses.replace
    assert replace(full[0], cocycles=[]).order_cocycles(2) == []
    assert replace(low[0], cocycles=full[0].cocycles, max_order=2).order_cocycles(2) == (
        full[0].cocycles
    )
