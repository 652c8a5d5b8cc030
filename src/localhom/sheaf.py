"""Per-node stalks of persistent local homology and sheaf Laplacian blocks.

A vertex's stalk is the persistent relative cohomology of (S_t, S_t \\ st v),
computed on the full filtration: the open star is closed under coboundary,
so its relative coboundary never leaves the star and the work per node is
the size of its star (excision, used directly). For an adjacent pair (u, v)
an extended coboundary matrix is reduced to find pairs of stalk cocycles
whose sum vanishes on st u ∪ st v modulo coboundaries of the union's
lower simplices; each surviving reduced column is a rank-1 Laplacian atom
v_A v_B^T tagged with the interval on which the identification persists.

One rule, `_entry_weight`, weights every Laplacian entry: an atom adds
coefficient products scaled by 1/0 (alive at the slice time t or not) in
slice mode, or by the lifespan overlap share in weighted mode. The slice
operator is delta^T delta of the restriction maps alive at t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import Filtration, SimplexSubset, star_of_vertices
from .errors import ContractError
from .linalg import Field, SparseColumnMatrix, dense_rank_exact, reduce as column_reduce
from .persistence import (
    INF,
    PersistentCocycle,
    persistent_relative_cohomology,
)


@dataclass
class LocalStalk:
    """Persistent relative cocycles of one vertex's open star.

    Representatives and indices are simplex ids of the full filtration, so
    stalks from different vertices can meet inside one extended matrix;
    `star` is the open set the cohomology is relative to. Degree-0 classes
    only flag isolated components and carry no sheaf structure at the
    orders the Laplacian couples, so stalks keep orders 1..max_order.
    """

    vertex: int
    cocycles: list[PersistentCocycle]
    star: SimplexSubset
    horizon: float
    field_kind: str

    @property
    def truncation(self) -> SimplexSubset:
        """Alias of `star`, kept only for the benchmark's
        `sheaf.truncation_size_mean` counter; it goes in the benchmark-only
        change that renames that counter.
        """
        return self.star

    def order_cocycles(self, k: int) -> list[PersistentCocycle]:
        return [c for c in self.cocycles if c.order == k]

    def descriptors(self) -> list[tuple[int, float, float]]:
        """(order, birth, death_or_horizon) per cocycle, in stalk order."""
        return [(c.order, c.birth, c.death_or(self.horizon)) for c in self.cocycles]


def compute_stalk(
    filtration: Filtration,
    vertex: int,
    max_order: int,
    rings: int = 1,
    fld: Field = Field(),
) -> LocalStalk:
    """Stalk of `vertex`: relative persistence of its open star.

    Computed on `filtration` itself; no neighborhood is cut out, so the
    cost is that of the star. `rings` is accepted for compatibility and
    must be >= 1; it has no effect.
    """
    if not (0 <= vertex < filtration.vertex_count):
        raise ContractError(f"vertex {vertex} does not exist")
    if rings < 1:
        raise ContractError("rings must be >= 1")
    open_star = star_of_vertices(filtration, [vertex])
    diagram = persistent_relative_cohomology(filtration, open_star, max_order, fld)
    return LocalStalk(
        vertex=vertex,
        cocycles=[c for c in diagram.classes if c.order >= 1],
        star=open_star,
        horizon=filtration.t_plus,
        field_kind=fld.kind,
    )


@dataclass
class ExtendedCoboundaryMatrix:
    """Block matrix [B_D | B_AB] whose reduction couples two stalks.

    Row groups: "k" rows are k-simplices of D' = st u ∪ st v (carrying
    representatives and coboundary corrections), "A"/"B" rows are
    (k+1)-simplices of st u / st v (carrying each cocycle's coboundary; a
    (k+1)-simplex of the intersection appears once in each group).
    Rows sort by decreasing filtration index, columns by decreasing weight
    (B_D) / decreasing birth with ties broken by (owner, position) (B_AB).
    """

    matrix: SparseColumnMatrix
    row_meta: list[tuple[str, int]]
    col_meta: list[tuple]
    n_d_cols: int
    order: int

    def rows_in_group(self, group: str) -> int:
        return sum(1 for g, _ in self.row_meta if g == group)


def build_extended_matrix(
    stalk_u: LocalStalk,
    stalk_v: LocalStalk,
    filtration: Filtration,
    k: int,
    fld: Field = Field(),
) -> ExtendedCoboundaryMatrix:
    u, v = stalk_u.vertex, stalk_v.vertex
    if (min(u, v), max(u, v)) not in filtration.index:
        raise ContractError(f"vertices {u} and {v} are not adjacent (empty intersection)")

    if stalk_u.star.filtration is not filtration or stalk_v.star.filtration is not filtration:
        raise ContractError("stalks were computed on a different filtration")
    a_ids = stalk_u.star.ids
    b_ids = stalk_v.star.ids
    d_ids = a_ids | b_ids

    rows: list[tuple[str, int]] = []
    rows += [("k", sid) for sid in d_ids if len(filtration.simplices[sid]) == k + 1]
    rows += [("A", sid) for sid in a_ids if len(filtration.simplices[sid]) == k + 2]
    rows += [("B", sid) for sid in b_ids if len(filtration.simplices[sid]) == k + 2]
    group_rank = {"k": 0, "A": 1, "B": 2}
    rows.sort(key=lambda gr: (-gr[1], group_rank[gr[0]]))
    row_pos = {gr: i for i, gr in enumerate(rows)}

    d_cols = sorted(
        (sid for sid in d_ids if len(filtration.simplices[sid]) == k),
        key=lambda sid: -sid,
    )
    ab_cols = [("A", u, pos, c) for pos, c in enumerate(stalk_u.order_cocycles(k))]
    ab_cols += [("B", v, pos, c) for pos, c in enumerate(stalk_v.order_cocycles(k))]
    ab_cols.sort(key=lambda item: (-item[3].birth, item[1], item[2]))

    entries = []
    col_meta: list[tuple] = []
    for j, sid in enumerate(d_cols):
        col_meta.append(("D", sid))
        for coface, sign in filtration.cofacets(sid):
            pos = row_pos.get(("k", coface))
            if pos is not None:
                entries.append((pos, j, sign))
    for jj, (side, owner, pos, c) in enumerate(ab_cols):
        j = len(d_cols) + jj
        col_meta.append((side, owner, pos))
        for sid, coeff in c.representative.items():
            entries.append((row_pos[("k", sid)], j, coeff))
        for sid, coeff in c.coboundary.items():
            entries.append((row_pos[(side, sid)], j, coeff))

    matrix = SparseColumnMatrix.from_entries(
        len(rows), len(d_cols) + len(ab_cols), entries, field=fld
    )
    return ExtendedCoboundaryMatrix(
        matrix=matrix,
        row_meta=rows,
        col_meta=col_meta,
        n_d_cols=len(d_cols),
        order=k,
    )


@dataclass(frozen=True)
class LaplacianAtom:
    """One rank-1 contribution v_A v_B^T valid on [start, end)."""

    start: float
    end: float  # math.inf for essential atoms
    v_a: dict[int, object]  # stalk_u order-k cocycle position -> coefficient
    v_b: dict[int, object]


@dataclass
class SheafLaplacianBlock:
    """All atoms coupling the order-k stalks of an adjacent pair (u, v)."""

    u: int
    v: int
    order: int
    atoms: list[LaplacianAtom]
    intervals_u: list[tuple[float, float]]  # (birth, death) per u stalk cocycle
    intervals_v: list[tuple[float, float]]
    horizon: float

    @property
    def dim_u(self) -> int:
        return len(self.intervals_u)

    @property
    def dim_v(self) -> int:
        return len(self.intervals_v)


def _combined_support_min(
    stalk: LocalStalk,
    k: int,
    coeffs: dict[int, object],
    filtration: Filtration,
    fld: Field,
) -> float | None:
    """Lowest filtration value in the support of the combined cochain."""
    acc: dict[int, object] = {}
    order_cocycles = stalk.order_cocycles(k)
    for pos, c in coeffs.items():
        for sid, val in order_cocycles[pos].representative.items():
            acc[sid] = acc.get(sid, 0) + c * val
    support = [(sid, val) for sid, val in acc.items()]
    support = fld.prune(sorted(support))
    if not support:
        return None
    return min(filtration.values[sid] for sid, _ in support)


def sheaf_laplacian_block(
    stalk_u: LocalStalk,
    stalk_v: LocalStalk,
    filtration: Filtration,
    k: int,
    fld: Field = Field(),
) -> SheafLaplacianBlock:
    """Reduce the extended matrix and read off interval-tagged atoms.

    Every reduced B_AB column with both stalk parts nonzero and a nonempty
    validity interval yields one atom; the interval starts at the larger
    of the two combined-cocycle births and ends at the pivot's filtration
    value (never later than any involved cocycle's death). The column's
    B_D components are coboundary corrections and are discarded.
    """
    ext = build_extended_matrix(stalk_u, stalk_v, filtration, k, fld)
    red = column_reduce(ext.matrix)
    atoms: list[LaplacianAtom] = []
    for j in range(ext.n_d_cols, ext.matrix.col_count):
        v_a: dict[int, object] = {}
        v_b: dict[int, object] = {}
        for col_idx, coeff in red.V.cols[j]:
            meta = ext.col_meta[col_idx]
            if meta[0] == "A":
                v_a[meta[2]] = coeff
            elif meta[0] == "B":
                v_b[meta[2]] = coeff
        if not v_a or not v_b:
            continue
        rcol = red.R.cols[j]
        if rcol:
            end = filtration.values[ext.row_meta[rcol[-1][0]][1]]
        else:
            end = INF
        s_a = _combined_support_min(stalk_u, k, v_a, filtration, fld)
        s_b = _combined_support_min(stalk_v, k, v_b, filtration, fld)
        if s_a is None or s_b is None:
            continue
        start = max(s_a, s_b)
        if start >= end:
            continue
        atoms.append(LaplacianAtom(start=start, end=end, v_a=v_a, v_b=v_b))
    lifespan = lambda c: (c.birth, c.death_or(INF))
    return SheafLaplacianBlock(
        u=stalk_u.vertex,
        v=stalk_v.vertex,
        order=k,
        atoms=atoms,
        intervals_u=[lifespan(c) for c in stalk_u.order_cocycles(k)],
        intervals_v=[lifespan(c) for c in stalk_v.order_cocycles(k)],
        horizon=stalk_u.horizon,
    )


def _entry_weight(mode: tuple, atom: LaplacianAtom, out_iv, in_iv, horizon: float):
    """Weight of one atom's entry at (output cocycle, input cocycle).

    The single rule behind every Laplacian entry. Slice mode ("slice", t):
    1 when t lies in the atom's interval and in both cocycle lifespans,
    else 0. Weighted mode: the overlap of atom and both lifespans divided by
    the output lifespan, with essential deaths capped at the horizon t+. A
    class born exactly at the horizon has zero nominal span; it is alive
    only at the final instant, so its weight degenerates to 1 when atom and
    partner are still alive there and to 0 otherwise.
    """
    lo = max(atom.start, out_iv[0], in_iv[0])
    hi = min(atom.end, out_iv[1], in_iv[1])
    if mode[0] == "slice":
        return 1 if lo <= mode[1] < hi else 0
    span = min(out_iv[1], horizon) - out_iv[0]
    if span <= 0:
        return 1.0 if atom.end == INF and in_iv[1] == INF else 0.0
    return max(min(hi, horizon) - lo, 0.0) / span


def laplacian_at_time(block: SheafLaplacianBlock, t: float) -> np.ndarray:
    """Sum of atoms alive at t, with dead cocycle components zeroed."""
    out = np.zeros((block.dim_u, block.dim_v))
    for atom in block.atoms:
        for a, ca in atom.v_a.items():
            for b, cb in atom.v_b.items():
                iu, iv = block.intervals_u[a], block.intervals_v[b]
                if _entry_weight(("slice", t), atom, iu, iv, block.horizon):
                    out[a, b] += float(ca) * float(cb)
    return out


@dataclass
class AssembledLaplacian:
    """Block operator over the direct sum of all order-k stalks.

    In slice mode this equals delta^T delta for the restriction maps alive
    at the slice time, hence symmetric PSD; lifespan-weighted mode rescales
    each entry by its overlap divided by the output cocycle's span.
    """

    order: int
    mode: tuple
    vertices: list[int]
    dims: dict[int, int]
    offsets: dict[int, int]
    blocks: dict[tuple[int, int], SheafLaplacianBlock]
    dense: np.ndarray
    dense_exact: list[list] | None = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.dense.shape[0]

    def kernel_dim_exact(self) -> int:
        """dim ker via exact rank; requires the exact carrier."""
        if self.dense_exact is None:
            raise ContractError("exact kernel rank needs the exact carrier")
        n = self.dimension
        if n == 0:
            return 0
        return n - dense_rank_exact(self.dense_exact)


def assemble_laplacian(
    filtration: Filtration,
    stalks: dict[int, LocalStalk],
    k: int,
    mode,
    fld: Field = Field(),
) -> AssembledLaplacian:
    """Assemble the global operator from pairwise blocks.

    mode is ("slice", t) or "weighted". Each atom of the (u, v) block
    couples its u-side and v-side components pairwise, so one pass fills
    the off-diagonal blocks, their transposes and both diagonal blocks; the
    slice operator is exactly delta^T delta. Every entry is scaled by
    `_entry_weight`, so an atom whose per-entry interval is empty
    contributes nothing in either mode.
    """
    if isinstance(mode, str):
        mode = (mode,)
    if tuple(mode[:1]) == ("weighted",) and len(mode) == 1:
        mode_t = ("weighted",)
    elif len(mode) == 2 and mode[0] == "slice":
        mode_t = ("slice", float(mode[1]))
    else:
        raise ContractError("mode must be ('slice', t) or 'weighted'")

    vertices = list(range(filtration.vertex_count))
    for v in vertices:
        if v not in stalks:
            raise ContractError(f"missing stalk for vertex {v}")
    dims = {v: len(stalks[v].order_cocycles(k)) for v in vertices}
    offsets = {}
    total = 0
    for v in vertices:
        offsets[v] = total
        total += dims[v]

    zero = fld.coerce(0)
    dense_obj = [[zero] * total for _ in range(total)]

    edge_pairs = [
        filtration.simplices[i] for i in filtration.ids_of_dim(1)
    ]
    blocks: dict[tuple[int, int], SheafLaplacianBlock] = {}
    for (u, v) in edge_pairs:
        if dims[u] == 0 or dims[v] == 0:
            continue
        block = sheaf_laplacian_block(stalks[u], stalks[v], filtration, k, fld)
        blocks[(u, v)] = block
        for atom in block.atoms:
            # (global index, coefficient, lifespan) of both sides; u != v, so
            # each dense cell gets at most one term per atom
            comps = [(offsets[u] + a, c, block.intervals_u[a]) for a, c in atom.v_a.items()]
            comps += [(offsets[v] + b, c, block.intervals_v[b]) for b, c in atom.v_b.items()]
            for i, ci, out_iv in comps:
                for j, cj, in_iv in comps:
                    w = _entry_weight(mode_t, atom, out_iv, in_iv, block.horizon)
                    if w:
                        dense_obj[i][j] += ci * cj * fld.coerce(w)

    dense = np.array(
        [[float(v) for v in row] for row in dense_obj], dtype=float
    ).reshape(total, total)
    return AssembledLaplacian(
        order=k,
        mode=mode_t,
        vertices=vertices,
        dims=dims,
        offsets=offsets,
        blocks=blocks,
        dense=dense,
        dense_exact=dense_obj if fld.kind == "exact" else None,
    )
