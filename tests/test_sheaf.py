"""Stalks, extended coboundary matrices, Laplacian atoms and assembly."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from localhom import oracle, persistence
from localhom.complexes import (
    SimplexSubset,
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    star_of_vertices,
)
from localhom.errors import ContractError
from localhom.linalg import Field, SparseColumnMatrix
from localhom.persistence import coboundary_block, persistent_relative_cohomology
from localhom.sheaf import (
    assemble_laplacian,
    build_extended_matrix,
    compute_stalk,
    sheaf_laplacian_block,
)

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


def rows_in_group(ext, group):
    return sum(1 for g, _ in ext.row_meta if g == group)


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


def filtered_coboundary_block(filtration, k, keep, fld):
    """The relative block as stalks once built it: the whole coboundary
    block, rows and columns outside `keep` dropped in order."""
    matrix, col_ids, row_ids = coboundary_block(filtration, k, None, fld)
    cols = [j for j, sid in enumerate(col_ids) if sid in keep]
    rows = [r for r, sid in enumerate(row_ids) if sid in keep]
    row_pos = {r: i for i, r in enumerate(rows)}
    entries = [
        (row_pos[r], jj, x) for jj, j in enumerate(cols) for r, x in matrix.cols[j] if r in row_pos
    ]
    return (
        SparseColumnMatrix.from_entries(len(rows), len(cols), entries, fld),
        [col_ids[j] for j in cols],
        [row_ids[r] for r in rows],
    )


def truncated_stalk(filt, v, rings, fld, monkeypatch):
    """Stalk cocycles the old way: relative cohomology on an excision
    truncation with filtered blocks, ids mapped back to `filt`."""
    trunc, idmap, open_img = oracle.truncate_neighborhood(filt, [v], rings)
    old = {new: old for old, new in idmap.items()}
    with monkeypatch.context() as m:
        m.setattr(persistence, "coboundary_block", filtered_coboundary_block)
        diagram = persistent_relative_cohomology(trunc, open_img, 2, fld)
    cocycles = [
        replace(
            c,
            birth_index=old[c.birth_index],
            death_index=None if c.death_index is None else old[c.death_index],
            representative={old[i]: x for i, x in c.representative.items()},
            coboundary={old[i]: x for i, x in c.coboundary.items()},
        )
        for c in diagram.classes
        if c.order >= 1
    ]
    return sorted(cocycles, key=lambda c: (c.order, c.birth, c.birth_index))


def test_stalk_equals_truncated_reference(oct_filt, corpus, monkeypatch):
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
                    reference = truncated_stalk(filt, v, rings, fld, monkeypatch)
                    assert stalk.cocycles == reference, (
                        fld.kind, fi, v, rings,
                    )


def test_stalk_alive_counts_match_relative_betti_oracle(corpus):
    """At every threshold, a stalk's alive order-k classes count
    H^k(S_t, S_t minus st v), the dense relative Betti number against the
    closed complement of the open star."""
    for gi, graph in enumerate(corpus[:25]):
        filt = build_flag_complex(graph, 3)
        v = gi % graph.vertex_count
        stalk = compute_stalk(filt, v, 2)
        rest = SimplexSubset(
            filt, frozenset(i for i, s in enumerate(filt.simplices) if v not in s)
        )
        for t in filt.threshold_values():
            for k in (1, 2):
                alive = sum(1 for c in stalk.cocycles if c.order == k and c.alive_at(t))
                dense = oracle.relative_betti_dense(filt, t, rest, k)
                assert alive == dense, (gi, v, t, k)


# ---------------------------------------------------------------------------
# extended coboundary matrix
# ---------------------------------------------------------------------------


def test_stalks_from_another_filtration_rejected(c4_filt, k4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError):
        assemble_laplacian(k4_filt, stalks, 1, "weighted")


def test_extended_matrix_c4_shape(c4_filt):
    s0 = compute_stalk(c4_filt, 0, 1)
    s1 = compute_stalk(c4_filt, 1, 1)
    ext = build_extended_matrix(s0, s1, c4_filt, 1)
    # D' = st0 + st1 has 3 edges and no triangles; one B_D column per vertex of D'
    assert rows_in_group(ext, "k") == 3
    assert rows_in_group(ext, "A") == 0 and rows_in_group(ext, "B") == 0
    assert ext.n_d_cols == 2
    assert ext.matrix.col_count - ext.n_d_cols == 2  # one per stalk cocycle


def test_extended_matrix_shared_simplices_appear_in_both_groups(k4_filt):
    s0 = compute_stalk(k4_filt, 0, 2)
    s1 = compute_stalk(k4_filt, 1, 2)
    ext = build_extended_matrix(s0, s1, k4_filt, 1)
    tri_a = {s for s in k4_filt.simplices if 0 in s and len(s) == 3}
    tri_b = {s for s in k4_filt.simplices if 1 in s and len(s) == 3}
    assert rows_in_group(ext, "A") == len(tri_a)
    assert rows_in_group(ext, "B") == len(tri_b)
    shared = tri_a & tri_b
    both = [
        sid
        for g, sid in ext.row_meta
        if g in ("A", "B") and k4_filt.simplices[sid] in shared
    ]
    assert len(both) == 2 * len(shared)


def test_extended_matrix_rejects_non_adjacent(two_c4_filt):
    s0 = compute_stalk(two_c4_filt, 0, 1)
    s4 = compute_stalk(two_c4_filt, 4, 1)
    with pytest.raises(ContractError):
        build_extended_matrix(s0, s4, two_c4_filt, 1)


def test_extended_matrix_empty_stalks_no_ab_columns(k3_filt):
    s0 = compute_stalk(k3_filt, 0, 2)
    s1 = compute_stalk(k3_filt, 1, 2)
    ext = build_extended_matrix(s0, s1, k3_filt, 1)
    assert ext.matrix.col_count == ext.n_d_cols


def test_extended_matrix_octahedron_top_order(oct_filt):
    s0 = compute_stalk(oct_filt, 0, 2)
    s1 = compute_stalk(oct_filt, 1, 2)
    ext = build_extended_matrix(s0, s1, oct_filt, 2)
    assert ext.matrix.col_count - ext.n_d_cols == 2
    blk = sheaf_laplacian_block(s0, s1, oct_filt, 2)
    assert len(blk.atoms) == 1  # reduction pairs the two columns
    # oracle: the pair's intersection carries one relative 2-class
    inter = star_of_vertices(oct_filt, [0]).ids & star_of_vertices(oct_filt, [1]).ids
    comp = SimplexSubset(oct_filt, frozenset(range(len(oct_filt))) - inter)
    assert oracle.relative_betti_dense(oct_filt, 1.0, comp, 2) == 1


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
    filt = build_flag_complex(disjoint_lifespan_graph(), 2)
    su = compute_stalk(filt, 1, 1)
    sv = compute_stalk(filt, 3, 1)
    assert stalk_pairs(su) == [(1, 1.0, 1.5), (1, 1.0, 1.6)]
    assert stalk_pairs(sv) == [(1, 3.0, INF)]
    blk = sheaf_laplacian_block(su, sv, filt, 1)
    assert blk.atoms == []


def test_block_finite_interval_on_unit_square(square_filt):
    """Both corner classes live on [1, sqrt2); their identification too."""
    root2 = math.sqrt(2.0)
    s0 = compute_stalk(square_filt, 0, 1)
    s1 = compute_stalk(square_filt, 1, 1)
    assert stalk_pairs(s0) == [(1, 1.0, root2)]
    blk = sheaf_laplacian_block(s0, s1, square_filt, 1)
    assert [(a.start, a.end) for a in blk.atoms] == [(1.0, root2)]
    # oracle: the shared relative class on C' = st(edge 01) lives on [1, sqrt2)
    inter = star_of_vertices(square_filt, [0]).ids & star_of_vertices(
        square_filt, [1]
    ).ids
    comp = SimplexSubset(square_filt, frozenset(range(len(square_filt))) - inter)
    assert oracle.relative_betti_dense(square_filt, 1.0, comp, 1) == 1
    assert oracle.relative_betti_dense(square_filt, root2, comp, 1) == 0
    # the sheaf Laplacian exists only inside the intersection interval
    stalks = {v: compute_stalk(square_filt, v, 1) for v in range(4)}
    assert edge_block_at(square_filt, stalks, 0, 1, 1, 0.5)[0, 0] == 0.0
    assert abs(edge_block_at(square_filt, stalks, 0, 1, 1, 1.2)[0, 0]) == 1.0
    assert edge_block_at(square_filt, stalks, 0, 1, 1, root2)[0, 0] == 0.0


def test_laplacian_at_time_before_births_is_zero(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    assert np.all(edge_block_at(c4_filt, stalks, 0, 1, 1, 0.0) == 0.0)


def test_atom_end_never_exceeds_involved_deaths(corpus):
    """Every atom's validity ends no later than any involved cocycle's death."""
    for gi, graph in enumerate(corpus[:20]):
        filt = build_flag_complex(graph, 3)
        stalks = {v: compute_stalk(filt, v, 2) for v in range(graph.vertex_count)}
        for eid in filt.ids_of_dim(1):
            u, v = filt.simplices[eid]
            for k in (1, 2):
                blk = sheaf_laplacian_block(stalks[u], stalks[v], filt, k)
                for atom in blk.atoms:
                    deaths = [blk.intervals_u[a][1] for a in atom.v_a]
                    deaths += [blk.intervals_v[b][1] for b in atom.v_b]
                    assert atom.end <= min(deaths), (gi, u, v, k)


def test_block_sign_flip_equivariance(square_filt):
    """Negating a stalk basis cocycle negates that row of every block."""
    stalks = {v: compute_stalk(square_filt, v, 1) for v in range(4)}
    base = edge_block_at(square_filt, stalks, 0, 1, 1, 1.2)
    s0 = stalks[0]
    flipped_c = replace(
        s0.cocycles[0],
        representative={i: -v for i, v in s0.cocycles[0].representative.items()},
        coboundary={i: -v for i, v in s0.cocycles[0].coboundary.items()},
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
    weighted = assemble_laplacian(square_filt, stalks, 1, "weighted")
    sliced = assemble_laplacian(square_filt, stalks, 1, ("slice", 1.0))
    # every class and every atom spans exactly [1, sqrt2): ratios are all 1
    assert np.allclose(weighted.dense, sliced.dense)


def test_kernel_dim_exact_matches_oracle_kernel_basis(corpus):
    """The exact kernel rank agrees with the oracle's RREF null space of the
    same nonzero entries, and `dense` is their float image."""
    for gi, graph in enumerate(corpus[:40]):
        filt = build_flag_complex(graph, 3)
        stalks = {v: compute_stalk(filt, v, 2) for v in range(graph.vertex_count)}
        thresholds = filt.threshold_values()
        modes = ["weighted", ("slice", filt.t_plus), ("slice", thresholds[len(thresholds) // 2])]
        for k in (1, 2):
            for mode in modes:
                lap = assemble_laplacian(filt, stalks, k, mode)
                rows: dict[int, dict] = {}
                for (i, j), x in lap.entries.items():
                    rows.setdefault(i, {})[j] = x
                    assert lap.dense[i, j] == float(x)
                assert np.count_nonzero(lap.dense) <= len(lap.entries)
                basis = oracle.kernel_basis(list(rows.values()), lap.dimension)
                assert lap.kernel_dim_exact() == len(basis), (gi, k, mode)


def test_assembled_mode_validation(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError):
        assemble_laplacian(c4_filt, stalks, 1, "sliced")
