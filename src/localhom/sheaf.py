"""Per-node stalks of persistent local homology and sheaf Laplacian blocks.

A vertex's stalk is the persistent relative cohomology of (S_t, S_t \\ st v),
computed on the full filtration: the open star is closed under coboundary,
so its relative coboundary never leaves the star and the work per node is
the size of its star (excision, used directly). For an adjacent pair (u, v)
an extended coboundary matrix is reduced to find pairs of stalk cocycles
whose sum vanishes on st u ∪ st v modulo coboundaries of the union's
lower simplices; each surviving reduced column is a rank-1 Laplacian atom
v_A v_B^T tagged with the interval on which the identification persists.

The assembled operator is its atoms plus the cocycle lifespans: each
block is reduced once, and every slice and the weighted operator are read
from the same atoms. One rule, `_entry_weight`, weights every entry: an
atom adds coefficient products scaled by 1/0 (alive at the slice time t or
not) in slice mode, or by the lifespan overlap share in weighted mode. The
slice operator is delta^T delta of the restriction maps alive at t. The
entries are built on first read as sorted COO arrays of the cells that
received a term, and multiply sparsely; nothing on the program's path
builds a dense `dim x dim` array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .complexes import Filtration, SimplexSubset, star_of_vertices
from .errors import ContractError
from .linalg import FLOAT, Column, Field, SparseColumnMatrix, rank, reduce as column_reduce
from .persistence import (
    INF,
    PersistentCocycle,
    coboundary_block,
    persistent_relative_cohomology,
    row_of,
    sid_of,
)


@dataclass
class LocalStalk:
    """Persistent relative cocycles of one vertex's open star.

    Representatives and indices are simplex ids of the full filtration, so
    stalks from different vertices can meet inside one extended matrix;
    `star` is the open set the cohomology is relative to. Degree-0 classes
    only flag isolated components and carry no sheaf structure at the
    orders the Laplacian couples, so stalks keep orders 1..max_order, and
    `order_cocycles` groups them by order once, when the stalk is made.
    `field_kind` is the carrier the cocycles were computed on. `columns`
    caches the stalk's B_AB columns for `build_extended_matrix`.
    """

    vertex: int
    cocycles: list[PersistentCocycle]
    star: SimplexSubset
    horizon: float
    field_kind: str
    max_order: int
    _by_order: dict[int, list[PersistentCocycle]] = field(init=False, repr=False, compare=False)
    columns: dict[tuple[int, Field], tuple[list[Column], list[Column]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._by_order = {k: [] for k in range(1, self.max_order + 1)}
        for c in self.cocycles:
            self._by_order[c.order].append(c)

    @property
    def truncation(self) -> SimplexSubset:
        """Alias of `star`, kept only for the benchmark's
        `sheaf.truncation_size_mean` counter; it goes in the benchmark-only
        change that renames that counter.
        """
        return self.star

    def order_cocycles(self, k: int) -> list[PersistentCocycle]:
        if k not in self._by_order:
            raise ContractError(
                f"stalk of vertex {self.vertex} holds orders 1..{self.max_order}, not {k}"
            )
        return self._by_order[k]

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
    must be >= 1; it has no effect. A stalk holds orders >= 1 only, so
    `max_order` must be >= 1.
    """
    if not (0 <= vertex < filtration.vertex_count):
        raise ContractError(f"vertex {vertex} does not exist")
    if max_order < 1:
        raise ContractError(f"max_order must be >= 1 for a stalk, not {max_order}")
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
        max_order=max_order,
    )


@dataclass
class ExtendedCoboundaryMatrix:
    """Block matrix [B_D | B_AB] whose reduction couples two stalks.

    Rows are `persistence.row_of` rows, by decreasing filtration index. The
    even row of a simplex holds it as a k-simplex of D' = st u ∪ st v
    (carrying representatives and coboundary corrections) or as a
    (k+1)-simplex of st u (carrying A-side coboundaries); B-side
    coboundaries over (k+1)-simplices of st v shift to the odd row after
    it, so a (k+1)-simplex of the intersection takes two rows, A then B.
    B_D is the order-(k-1) coboundary block of D'. The B_AB columns sort
    by decreasing birth with ties broken by (owner vertex, position);
    `col_meta` gives (side, position) for each of them.
    """

    matrix: SparseColumnMatrix
    col_meta: list[tuple[str, int]]
    n_d_cols: int


def _stalk_columns(
    stalk: LocalStalk, filtration: Filtration, k: int, fld: Field
) -> tuple[list[Column], list[Column]]:
    """The stalk's order-k B_AB columns as side A and as side B, by position.

    Built and pruned once per (k, fld), since pruning depends on eps. The
    B copy differs from the A copy only in its coboundary entries, each
    one row down; that row is free and no row passes another, so the
    pruned A column gives the B column without a second sort or prune.
    """
    cached = stalk.columns.get((k, fld))
    if cached is None:
        a_cols, b_cols = [], []
        for c in stalk.order_cocycles(k):
            cob_rows = {row_of(filtration, sid) for sid in c.coboundary}
            col = [(row_of(filtration, sid), fld.coerce(x)) for sid, x in c.representative.items()]
            col += [(row_of(filtration, sid), fld.coerce(x)) for sid, x in c.coboundary.items()]
            # representative and coboundary are read from a reduction, so the
            # column is pruned: that is where ill-conditioning is flagged
            a_col = fld.prune(sorted(col))
            a_cols.append(a_col)
            b_cols.append([(r + 1, x) if r in cob_rows else (r, x) for r, x in a_col])
        cached = stalk.columns[(k, fld)] = (a_cols, b_cols)
    return cached


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
    if {stalk_u.field_kind, stalk_v.field_kind} != {fld.kind}:
        raise ContractError(f"stalks were computed on another carrier than {fld.kind}")
    d_ids = stalk_u.star.ids | stalk_v.star.ids
    d_matrix, d_cols = coboundary_block(filtration, k - 1, d_ids, fld)

    ab_cols = [("A", u, pos, c) for pos, c in enumerate(stalk_u.order_cocycles(k))]
    ab_cols += [("B", v, pos, c) for pos, c in enumerate(stalk_v.order_cocycles(k))]
    ab_cols.sort(key=lambda item: (-item[3].birth, item[1], item[2]))

    side_cols = {
        "A": _stalk_columns(stalk_u, filtration, k, fld)[0],
        "B": _stalk_columns(stalk_v, filtration, k, fld)[1],
    }
    cols = d_matrix.cols
    cols += [side_cols[side][pos] for side, _, pos, _ in ab_cols]
    return ExtendedCoboundaryMatrix(
        matrix=SparseColumnMatrix(d_matrix.row_count, len(cols), cols, fld),
        col_meta=[(side, pos) for side, _, pos, _ in ab_cols],
        n_d_cols=len(d_cols),
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
    """All atoms coupling the order-k stalks of an adjacent pair (u, v).

    An atom's `v_a` and `v_b` index `stalk_u.order_cocycles(k)` and
    `stalk_v.order_cocycles(k)`; the pair and the order are the keys it is
    stored under, and the cocycles' lifespans and the horizon are kept by
    the `AssembledLaplacian` that holds the block.
    """

    atoms: list[LaplacianAtom]


def sheaf_laplacian_block(
    stalk_u: LocalStalk,
    stalk_v: LocalStalk,
    filtration: Filtration,
    k: int,
    fld: Field = Field(),
) -> SheafLaplacianBlock:
    """Reduce the extended matrix and read off interval-tagged atoms.

    Every reduced B_AB column with both stalk parts nonzero and a nonempty
    validity interval yields one atom. The interval ends at the pivot's
    filtration value (never later than any involved cocycle's death) and
    starts at the later of the two combined cocycles' births, each the
    earliest birth among the cocycles it combines. That is the lowest
    value in the combined cochain's support: `linalg.reduce` keeps V unit
    upper-triangular, so a stalk cocycle's representative holds its birth
    simplex with coefficient 1 and its other support simplices have larger
    filtration ids. No other cocycle of the stalk touches the birth
    simplex of the earliest-born one, so that entry survives the sum and
    every other support simplex comes later (de Silva, Morozov &
    Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011). The
    column's B_D components are coboundary corrections and are discarded.
    """
    ext = build_extended_matrix(stalk_u, stalk_v, filtration, k, fld)
    red = column_reduce(ext.matrix)
    cocycles_u, cocycles_v = stalk_u.order_cocycles(k), stalk_v.order_cocycles(k)
    atoms: list[LaplacianAtom] = []
    for j in range(ext.n_d_cols, ext.matrix.col_count):
        v_a: dict[int, object] = {}
        v_b: dict[int, object] = {}
        for col_idx, coeff in red.V.cols[j]:
            if col_idx >= ext.n_d_cols:
                side, pos = ext.col_meta[col_idx - ext.n_d_cols]
                (v_a if side == "A" else v_b)[pos] = coeff
        if not v_a or not v_b:
            continue
        rcol = red.R.cols[j]
        if rcol:
            end = filtration.values[sid_of(filtration, rcol[-1][0])]
        else:
            end = INF
        start = max(
            min(cocycles_u[a].birth for a in v_a), min(cocycles_v[b].birth for b in v_b)
        )
        if start >= end:
            continue
        atoms.append(LaplacianAtom(start=start, end=end, v_a=v_a, v_b=v_b))
    return SheafLaplacianBlock(atoms=atoms)


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


@dataclass
class AssembledLaplacian:
    """Block operator over the direct sum of all order-k stalks, held as its atoms.

    `lifespans` maps each vertex to the (birth, death) of its order-k
    cocycles in stalk order (math.inf if essential); `vertices`, `dims` and
    `offsets` follow from it. `blocks` holds the atoms of each adjacent pair
    with two nonempty stalks. `mode`, ("slice", t) or ("weighted",), is
    checked on construction, so `dataclasses.replace(lap, mode=...)` is the
    operator of another mode on the same atoms, reducing nothing; the copy
    shares `blocks` and `lifespans`, which nothing mutates. In slice mode
    the operator is delta^T delta of the restriction maps alive at t, hence
    symmetric PSD; weighted mode scales each entry by its overlap share.

    `entries`, built from the atoms on first read, holds the cells that
    received a term as COO arrays `(rows, cols, vals)` sorted by (row, col),
    each cell once. `vals` are the sums in the carrier's scalars (an object
    array of Fractions on the exact carrier), and a sum may cancel to zero.
    `laplacian @ x` multiplies by their float image `float_vals`: each
    output row is summed from 0.0, one term at a time, in ascending column
    order, whatever the BLAS build. `dense` builds the `dim x dim` float
    image on each access; it is kept for tests and small n, and the program
    never reads it.
    """

    order: int
    mode: tuple
    lifespans: dict[int, list[tuple[float, float]]]
    blocks: dict[tuple[int, int], SheafLaplacianBlock]
    horizon: float
    field_kind: str
    vertices: list[int] = field(init=False, repr=False)
    dims: dict[int, int] = field(init=False, repr=False)
    offsets: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        mode = self.mode
        if isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "slice":
            self.mode = ("slice", _slice_time(mode[1]))
        elif not (isinstance(mode, tuple) and mode == ("weighted",)):
            raise ContractError(f"mode must be ('slice', t) or ('weighted',), not {mode!r}")
        self.vertices = list(self.lifespans)
        self.dims = {v: len(spans) for v, spans in self.lifespans.items()}
        self.offsets = dict(zip(self.vertices, accumulate(self.dims.values(), initial=0)))

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each atom couples its u-side and v-side components pairwise, so one
        pass fills the off-diagonal blocks, their transposes and both
        diagonal blocks; every entry is scaled by `_entry_weight`."""
        fld = Field(kind=self.field_kind)
        zero = fld.coerce(0)
        offsets, spans = self.offsets, self.lifespans
        entries: dict[tuple[int, int], object] = {}
        for (u, v), block in self.blocks.items():
            for atom in block.atoms:
                # (global index, coefficient, lifespan) of both sides; u != v,
                # so each cell gets at most one term per atom
                comps = [(offsets[u] + a, c, spans[u][a]) for a, c in atom.v_a.items()]
                comps += [(offsets[v] + b, c, spans[v][b]) for b, c in atom.v_b.items()]
                for i, ci, out_iv in comps:
                    for j, cj, in_iv in comps:
                        w = _entry_weight(self.mode, atom, out_iv, in_iv, self.horizon)
                        if w:
                            entries[i, j] = entries.get((i, j), zero) + ci * cj * fld.coerce(w)
        cells = sorted(entries)
        return (
            np.array([i for i, _ in cells], dtype=np.intp),
            np.array([j for _, j in cells], dtype=np.intp),
            np.array([entries[c] for c in cells], dtype=float if fld.kind == FLOAT else object),
        )

    @cached_property
    def dimension(self) -> int:
        return sum(self.dims.values())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dimension, self.dimension)

    @cached_property
    def float_vals(self) -> np.ndarray:
        return np.asarray(self.entries[2], dtype=float)

    @property
    def dense(self) -> np.ndarray:
        rows, cols, _ = self.entries
        out = np.zeros(self.shape)
        out[rows, cols] = self.float_vals
        return out

    def __matmul__(self, x) -> np.ndarray:
        """Sparse matvec of a vector or of a (dim, channels) array."""
        x = np.asarray(x, dtype=float)
        n = self.dimension
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ContractError(f"operand of shape {x.shape} does not match dimension {n}")
        rows, cols, _ = self.entries
        vals = self.float_vals
        if x.ndim == 1:
            return np.bincount(rows, weights=vals * x[cols], minlength=n)
        out = np.empty(x.shape)
        for c in range(x.shape[1]):
            out[:, c] = np.bincount(rows, weights=vals * x[cols, c], minlength=n)
        return out

    def kernel_dim_exact(self) -> int:
        """dim ker via exact rank; requires the exact carrier."""
        if self.field_kind != "exact":
            raise ContractError("exact kernel rank needs the exact carrier")
        n = self.dimension
        rows, cols, vals = self.entries
        cells = zip(rows.tolist(), cols.tolist(), vals.tolist())
        return n - rank(SparseColumnMatrix.from_entries(n, n, cells, Field()))


def _slice_time(t) -> float:
    """`t` as a float; anything but a finite real (a bool is not one) is a ContractError."""
    try:
        finite = isinstance(t, numbers.Real) and not isinstance(t, bool) and math.isfinite(t)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ContractError(f"slice time {t!r} is not a finite real")
    return float(t)


def assemble_laplacian(
    filtration: Filtration,
    stalks: dict[int, LocalStalk],
    k: int,
    mode,
    fld: Field = Field(),
) -> AssembledLaplacian:
    """Reduce the block of every adjacent pair with two nonempty order-k
    stalks, once; `mode` is ("slice", t) or ("weighted",).

    The mode and the stalks are checked before any block is reduced. The
    entries are built from the atoms when first read; another mode on the
    same atoms is `dataclasses.replace(lap, mode=...)`.
    """
    lifespans = {}
    for v in range(filtration.vertex_count):
        if v not in stalks:
            raise ContractError(f"missing stalk for vertex {v}")
        lifespans[v] = [(c.birth, c.death_or(INF)) for c in stalks[v].order_cocycles(k)]
    lap = AssembledLaplacian(
        order=k, mode=mode, lifespans=lifespans, blocks={},
        horizon=filtration.t_plus, field_kind=fld.kind,
    )
    for sid in filtration.ids_of_dim(1):
        u, v = filtration.simplices[sid]
        if lifespans[u] and lifespans[v]:
            lap.blocks[(u, v)] = sheaf_laplacian_block(stalks[u], stalks[v], filtration, k, fld)
    return lap
