"""Stalks, extended coboundary matrices, Laplacian atoms and assembly."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from localhom import oracle, persistence, sheaf
from localhom.complexes import (
    SimplexSubset,
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    star_of_vertices,
)
from localhom.errors import ContractError, IllConditionedError
from localhom.linalg import Field, SparseColumnMatrix, reduce
from localhom.persistence import (
    coboundary_block,
    persistent_relative_cohomology,
    row_of,
    sid_of,
)
from localhom.sheaf import (
    ExtendedCoboundaryMatrix,
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


def rows_of_dim(ext, filt, d):
    """Rows of the extended matrix holding an entry on a d-simplex."""
    return {
        r for col in ext.matrix.cols for r, _ in col
        if len(filt.simplices[sid_of(filt, r)]) == d + 1
    }


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


def filtered_coboundary_block(filtration, k, keep, fld):
    """The relative block as stalks once built it: the whole coboundary
    block, columns and rows outside `keep` dropped in order."""
    matrix, col_ids = coboundary_block(filtration, k, None, fld)
    kept = [j for j, sid in enumerate(col_ids) if sid in keep]
    cols = [[(r, x) for r, x in matrix.cols[j] if sid_of(filtration, r) in keep] for j in kept]
    return SparseColumnMatrix(matrix.row_count, len(cols), cols, fld), [col_ids[j] for j in kept]


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
    H^k(S_t, S_t minus st v): the dense relative Betti number against the
    closed complement of the open star, and the dense local Betti number on
    the star's chains."""
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
                local = oracle.local_betti(filt, v, t, k)
                assert alive == dense == local, (gi, v, t, k)


# ---------------------------------------------------------------------------
# extended coboundary matrix
# ---------------------------------------------------------------------------


def test_stalks_from_another_filtration_rejected(c4_filt, k4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    with pytest.raises(ContractError):
        assemble_laplacian(k4_filt, stalks, 1, ("weighted",))


def test_extended_matrix_c4_shape(c4_filt):
    s0 = compute_stalk(c4_filt, 0, 1)
    s1 = compute_stalk(c4_filt, 1, 1)
    ext = build_extended_matrix(s0, s1, c4_filt, 1)
    # D' = st0 + st1 has 3 edges, each on the even row of its id, and no
    # triangles; one B_D column per vertex of D'
    edges = [c4_filt.id_of(e) for e in ((0, 1), (1, 2), (0, 3))]
    assert rows_of_dim(ext, c4_filt, 1) == {row_of(c4_filt, sid) for sid in edges}
    assert rows_of_dim(ext, c4_filt, 2) == set()
    assert ext.n_d_cols == 2
    assert ext.matrix.col_count - ext.n_d_cols == 2  # one per stalk cocycle


def test_extended_matrix_shared_simplices_appear_in_both_groups():
    """A coboundaries land on the even row of their simplex and B
    coboundaries on the odd row after it, so a triangle of both stars
    takes two rows. On the 4-cycle 0-2-1-3 whose diagonal 01 enters late,
    the 1-classes of vertices 0 and 1 both have coboundary on the shared
    triangle (0, 1, 3)."""
    cycle = ((0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (0, 3, 1.0), (0, 1, 2.0))
    filt = build_flag_complex(WeightedGraph(4, cycle), 2)
    stalks = {"A": compute_stalk(filt, 0, 1), "B": compute_stalk(filt, 1, 1)}
    ext = build_extended_matrix(stalks["A"], stalks["B"], filt, 1)
    assert [side for side, _ in ext.col_meta] == ["A", "B"]
    for (side, pos), col in zip(ext.col_meta, ext.matrix.cols[ext.n_d_cols:]):
        c = stalks[side].order_cocycles(1)[pos]
        shift = 1 if side == "B" else 0
        expected = {row_of(filt, sid) for sid in c.representative}
        expected |= {row_of(filt, sid) + shift for sid in c.coboundary}
        assert [r for r, _ in col] == sorted(expected)
    tri = row_of(filt, filt.id_of((0, 1, 3)))
    assert rows_of_dim(ext, filt, 2) == {tri, tri + 1}


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


class TaggedRows:
    """The builders as first written: every block keeps an explicit row
    list sorted by decreasing filtration index (A before B), maps rows
    through a position dict and sends its entries through `from_entries`.
    `sid_of` reads the row list of the block built last, which is the one
    the reduction that follows reads."""

    def __init__(self):
        self.row_sids = []

    def sid_of(self, filtration, row):
        return self.row_sids[row]

    def coboundary_block(self, filtration, k, keep, fld):
        def ids_desc(d):
            if keep is None:
                return filtration.ids_of_dim(d)[::-1]
            return sorted((i for i in keep if len(filtration.simplices[i]) == d + 1), reverse=True)

        col_ids, row_ids = ids_desc(k), ids_desc(k + 1)
        row_pos = {sid: r for r, sid in enumerate(row_ids)}
        entries = [
            (row_pos[coface], j, sign)
            for j, sid in enumerate(col_ids)
            for coface, sign in filtration.cofacets(sid)
            if coface in row_pos
        ]
        self.row_sids = row_ids
        return SparseColumnMatrix.from_entries(len(row_ids), len(col_ids), entries, fld), col_ids

    def build_extended_matrix(self, stalk_u, stalk_v, filtration, k, fld=Field()):
        u, v = stalk_u.vertex, stalk_v.vertex
        a_ids, b_ids = stalk_u.star.ids, stalk_v.star.ids
        d_ids = a_ids | b_ids
        dim = lambda sid: len(filtration.simplices[sid]) - 1
        rows = [("k", sid) for sid in d_ids if dim(sid) == k]
        rows += [("A", sid) for sid in a_ids if dim(sid) == k + 1]
        rows += [("B", sid) for sid in b_ids if dim(sid) == k + 1]
        rows.sort(key=lambda gr: (-gr[1], "kAB".index(gr[0])))
        row_pos = {gr: i for i, gr in enumerate(rows)}
        d_cols = sorted((sid for sid in d_ids if dim(sid) == k - 1), reverse=True)
        ab_cols = [("A", u, pos, c) for pos, c in enumerate(stalk_u.order_cocycles(k))]
        ab_cols += [("B", v, pos, c) for pos, c in enumerate(stalk_v.order_cocycles(k))]
        ab_cols.sort(key=lambda item: (-item[3].birth, item[1], item[2]))
        entries = [
            (row_pos[("k", coface)], j, sign)
            for j, sid in enumerate(d_cols)
            for coface, sign in filtration.cofacets(sid)
            if ("k", coface) in row_pos
        ]
        for jj, (side, _, _, c) in enumerate(ab_cols):
            j = len(d_cols) + jj
            entries += [(row_pos[("k", sid)], j, x) for sid, x in c.representative.items()]
            entries += [(row_pos[(side, sid)], j, x) for sid, x in c.coboundary.items()]
        self.row_sids = [sid for _, sid in rows]
        matrix = SparseColumnMatrix.from_entries(
            len(rows), len(d_cols) + len(ab_cols), entries, fld
        )
        return ExtendedCoboundaryMatrix(
            matrix=matrix,
            col_meta=[(side, pos) for side, _, pos, _ in ab_cols],
            n_d_cols=len(d_cols),
        )


def test_row_order_matches_tagged_row_builders(corpus, monkeypatch):
    """Stalk cocycles and Laplacian atoms from the `row_of` layout equal
    those of the tagged-row builders, every field in every dict order,
    on both carriers at orders 1 and 2."""
    rng = random.Random(61)
    cloud = graph_from_points([(rng.random(), rng.random()) for _ in range(60)], knn=6)
    tagged = TaggedRows()
    for fld in (Field(), Field(kind="float")):
        for gi, graph in enumerate(corpus[:40] + [cloud]):
            filt = build_flag_complex(graph, 3)
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            blocks = {}
            for eid in filt.ids_of_dim(1):
                u, v = filt.simplices[eid]
                for k in (1, 2):
                    blocks[u, v, k] = sheaf_laplacian_block(stalks[u], stalks[v], filt, k, fld)
            with monkeypatch.context() as m:
                m.setattr(persistence, "coboundary_block", tagged.coboundary_block)
                m.setattr(persistence, "sid_of", tagged.sid_of)
                m.setattr(sheaf, "build_extended_matrix", tagged.build_extended_matrix)
                m.setattr(sheaf, "sid_of", tagged.sid_of)
                for v, stalk in stalks.items():
                    # repr shows every field, dict item order included
                    assert repr(compute_stalk(filt, v, 2, fld=fld).cocycles) == repr(
                        stalk.cocycles
                    ), (fld.kind, gi, v)
                for (u, v, k), blk in blocks.items():
                    ref = sheaf_laplacian_block(stalks[u], stalks[v], filt, k, fld)
                    assert repr(ref.atoms) == repr(blk.atoms), (fld.kind, gi, u, v, k)


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
    """A reduced column whose start is not before its end yields no atom."""
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


def combined_support_min(stalk, k, coeffs, filt, fld):
    """The start rule as first written: the lowest filtration value in the
    pruned support of the combined cochain, None if it cancels."""
    acc = {}
    cocycles = stalk.order_cocycles(k)
    for pos, c in coeffs.items():
        for sid, val in cocycles[pos].representative.items():
            acc[sid] = acc.get(sid, 0) + c * val
    support = fld.prune(sorted(acc.items()))
    if not support:
        return None
    return min(filt.values[sid] for sid, _ in support)


def support_min_atoms(stalk_u, stalk_v, filt, k, fld):
    """`sheaf_laplacian_block`'s atoms under the support-minimum start rule."""
    ext = build_extended_matrix(stalk_u, stalk_v, filt, k, fld)
    red = reduce(ext.matrix)
    atoms = []
    for j in range(ext.n_d_cols, ext.matrix.col_count):
        parts = {"A": {}, "B": {}}
        for col_idx, coeff in red.V.cols[j]:
            if col_idx >= ext.n_d_cols:
                side, pos = ext.col_meta[col_idx - ext.n_d_cols]
                parts[side][pos] = coeff
        if not parts["A"] or not parts["B"]:
            continue
        rcol = red.R.cols[j]
        end = filt.values[sid_of(filt, rcol[-1][0])] if rcol else INF
        s_a = combined_support_min(stalk_u, k, parts["A"], filt, fld)
        s_b = combined_support_min(stalk_v, k, parts["B"], filt, fld)
        if s_a is None or s_b is None or max(s_a, s_b) >= end:
            continue
        atoms.append(sheaf.LaplacianAtom(max(s_a, s_b), end, parts["A"], parts["B"]))
    return atoms


def test_atom_start_is_support_minimum(corpus, tie_free_corpus):
    """An atom starts at the later of the two earliest births it combines;
    that equals the lowest value in the pruned support of each combined
    cochain, so the atoms are those of the support-minimum rule, every
    field, on the corpora and kNN-6 clouds, both carriers, orders 1 and 2."""
    clouds = []
    for n in (60, 200):
        rng = random.Random(n)
        clouds.append(graph_from_points([(rng.random(), rng.random()) for _ in range(n)], knn=6))
    for fld in (Field(), Field(kind="float")):
        for gi, graph in enumerate(corpus[:40] + tie_free_corpus[:20] + clouds):
            filt = build_flag_complex(graph, 3)
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            for eid in filt.ids_of_dim(1):
                u, v = filt.simplices[eid]
                for k in (1, 2):
                    got = sheaf_laplacian_block(stalks[u], stalks[v], filt, k, fld).atoms
                    ref = support_min_atoms(stalks[u], stalks[v], filt, k, fld)
                    assert repr(got) == repr(ref), (fld.kind, gi, u, v, k)


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
    weighted = assemble_laplacian(square_filt, stalks, 1, ("weighted",))
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
                basis = oracle.kernel_basis(list(rows.values()), lap.dimension)
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


# ---------------------------------------------------------------------------
# column caches
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


def test_stalk_columns_are_cached_per_eps(square_filt):
    """One stalk pruned into blocks at two eps values gives, at each, the
    block a fresh stalk gives: the B_AB columns are keyed by the field."""
    stalks = {v: compute_stalk(square_filt, v, 1, fld=Field(kind="float")) for v in range(4)}
    c = stalks[0].cocycles[0]
    first = min(c.representative)
    # one entry at a quarter of the others: eps=0.3 prunes it, 1e-9 keeps it
    rep = {i: x / 4 if i == first else x for i, x in c.representative.items()}
    scaled = lambda: replace(stalks[0], cocycles=[replace(c, representative=rep)])
    shared = scaled()
    mats = {}
    for eps in (1e-9, 0.3, 1e-9):
        fld = Field(kind="float", eps=eps)
        got = build_extended_matrix(shared, stalks[1], square_filt, 1, fld).matrix.cols
        assert got == build_extended_matrix(scaled(), stalks[1], square_filt, 1, fld).matrix.cols
        mats[eps] = got
    assert mats[1e-9] != mats[0.3]


def test_ill_conditioned_column_raises_every_time(square_filt):
    """A B_AB column past 1/eps raises on each build: a failed column is
    never cached as if it had been pruned."""
    fld = Field(kind="float", eps=1e-9)
    stalks = {v: compute_stalk(square_filt, v, 1, fld=fld) for v in range(4)}
    s0 = stalks[0]
    huge = replace(
        s0.cocycles[0], representative={i: 1e12 * x for i, x in s0.cocycles[0].representative.items()}
    )
    stalks[0] = replace(s0, cocycles=[huge])
    for _ in range(2):
        with pytest.raises(IllConditionedError):
            build_extended_matrix(stalks[0], stalks[1], square_filt, 1, fld)
        with pytest.raises(IllConditionedError):
            assemble_laplacian(square_filt, stalks, 1, ("slice", 1.2), fld)
    # the same stalk is fine on the exact carrier, and its partner still builds
    e0, e1 = (compute_stalk(square_filt, v, 1) for v in (0, 1))
    exact_huge = replace(
        e0.cocycles[0],
        representative={i: 10**12 * x for i, x in e0.cocycles[0].representative.items()},
    )
    build_extended_matrix(replace(e0, cocycles=[exact_huge]), e1, square_filt, 1, Field())
    build_extended_matrix(stalks[1], stalks[2], square_filt, 1, fld)


def test_mixed_carriers_rejected(square_filt):
    """Stalks reduce on the carrier they were computed on: float stalks on
    the exact carrier would label float-rounded data exact, and the other
    way round would mix Fractions into float reductions."""
    for stalk_fld, fld in ((Field(kind="float"), Field()), (Field(), Field(kind="float"))):
        stalks = {v: compute_stalk(square_filt, v, 1, fld=stalk_fld) for v in range(4)}
        with pytest.raises(ContractError, match="carrier"):
            build_extended_matrix(stalks[0], stalks[1], square_filt, 1, fld)
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
