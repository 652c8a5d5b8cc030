"""Per-node stalks of persistent local homology and sheaf Laplacian blocks.

A vertex's stalk is the persistent relative cohomology of (S_t, S_t \\ st v),
computed on the full filtration: the open star is closed under coboundary,
so its relative coboundary never leaves the star and the work per node is
the size of its star (excision, used directly). For an adjacent pair (u, v)
each bar of the relative persistence of the edge's own star st e = st u ∩
st v, written in both stalks, is a rank-1 Laplacian atom v_A v_B^T tagged
with the bar's interval. Both come from `persistence.star_diagram`.

The assembled operator is the bars of its edge stars plus the cocycle
lifespans: each edge star is reduced once, at assembly, and a bar is
solved into its atom the first time a read needs it, so every slice and
the weighted operator read the same atoms and a slice at t solves only the
bars alive at t. One rule, `_entry_weight`, weights every entry: an atom
adds coefficient products scaled by 1/0 (alive at the slice time t or not)
in slice mode, or by the lifespan overlap share in weighted mode. The
slice operator is delta^T delta of the restriction maps alive at t. The
entries are built on first read as sorted COO arrays of the cells that
received a term, and multiply sparsely; nothing on the program's path
builds a dense `dim x dim` array.

Carriers. Every reduction runs on ints (`linalg`), so representatives and
atom coordinates are ints, or Fractions where a division left a
remainder, and equal on both carriers. A carrier (`linalg.Field`) decides
only two things: how `AssembledLaplacian.entries` sums a cell (in floats,
or as an int numerator over an int denominator) and the type of its
`vals` (floats, or Fractions). Stalks remember the carrier they were made
for, and assembly rejects a mix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter

import numpy as np

from .complexes import Filtration, star_of_vertices
from .errors import ContractError
from .linalg import FLOAT, Column, Field, axpy, divide, reduce_integer_column
from .persistence import INF, PersistentCocycle, star_diagram


@dataclass
class LocalStalk:
    """Persistent relative cocycles of one vertex's open star.

    Representatives and indices are simplex ids of `filtration`, the full
    filtration, so an edge's classes can be written in the stalks of both
    its ends; the cohomology is relative to the vertex's open star.
    Degree-0 classes only flag isolated components and carry no sheaf
    structure at the orders the Laplacian couples, so stalks keep orders
    1..max_order, and `order_cocycles` groups them by order once, when the
    stalk is made.
    `field_kind` is the carrier the stalk was made for; its cocycles are
    the same on both, and a Laplacian takes only stalks of its own carrier.
    `coboundaries[k]`, for k in 1..max_order, holds the star's nonzero
    reduced order-(k-1) coboundary columns, indexed by simplex id.
    """

    vertex: int
    cocycles: list[PersistentCocycle]
    filtration: Filtration = field(repr=False, compare=False)
    horizon: float
    field_kind: str
    max_order: int
    coboundaries: dict[int, list[Column]] = field(repr=False, compare=False)
    _by_order: dict[int, list[PersistentCocycle]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_order = {k: [] for k in range(1, self.max_order + 1)}
        for c in self.cocycles:
            self._by_order[c.order].append(c)

    @cached_property
    def _owners(self) -> dict[int, dict[int, tuple[int | None, Column]]]:
        """Per order k, each k-simplex id -> the column whose pivot it is:
        (position, representative column) for the order-k class born there,
        else (None, coboundary column) for the one that kills it there.
        Built once, on the first solve against the stalk, so a stalk that
        no solved bar touches never pays for it (a slice solves only the
        bars alive at t); `dataclasses.replace` makes a stalk that builds
        its own. Each column is held itself, not a copy, on both carriers.
        """
        owners = {}
        for k, cocycles in self._by_order.items():
            owners[k] = {col[-1][0]: (None, col) for col in self.coboundaries.get(k, [])}
            for pos, c in enumerate(cocycles):
                owners[k][c.birth_index] = (pos, c.representative)
        return owners

    @property
    def truncation(self) -> frozenset[int]:
        """The vertex's open star, built on each read; kept only for the
        benchmark's `sheaf.truncation_size_mean` counter, it goes in the
        benchmark-only change that renames that counter.
        """
        return star_of_vertices(self.filtration, [self.vertex])

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
    `max_order` must be >= 1. `fld` only names the carrier the stalk is
    made for (`field_kind`); it changes no cocycle.
    """
    if not (0 <= vertex < filtration.vertex_count):
        raise ContractError(f"vertex {vertex} does not exist")
    if max_order < 1:
        raise ContractError(f"max_order must be >= 1 for a stalk, not {max_order}")
    if rings < 1:
        raise ContractError("rings must be >= 1")
    diagram, coboundaries = star_diagram(filtration, (vertex,), max_order)
    return LocalStalk(
        vertex=vertex,
        cocycles=[c for c in diagram.classes if c.order >= 1],
        filtration=filtration,
        horizon=filtration.t_plus,
        field_kind=fld.kind,
        max_order=max_order,
        coboundaries=coboundaries,
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


def _coordinates(stalk: LocalStalk, k: int, xi: PersistentCocycle) -> dict[int, object]:
    """The class of `xi`'s representative in the stalk, by order-k position.

    xi's representative is solved from its pivot on against the stalk's
    owner table: its representatives (each one's pivot is its birth
    simplex, with coefficient 1 up to sign) and its reduced order-(k-1)
    coboundary columns (pivot: the simplex each one kills), whose
    coefficients are dropped. It stops at the first simplex valued at or
    after xi's death: only zero-length classes own the simplices past it,
    and before it no such class gets a nonzero coefficient, since the
    representative is a cocycle on S_t for every t < death. For the same reason a class dying before xi gets
    coefficient 0, and every class reached is born no earlier than xi.

    Each quotient is `linalg.divide`'s, so a coordinate is an int, or a
    Fraction where a division left a remainder, on both carriers. A row
    that nothing in the table owns means the stalk does not match the
    filtration: a ContractError, raised on every solve that reaches it.
    """
    if not stalk.order_cocycles(k):
        return {}
    owners, values = stalk._owners[k], stalk.filtration.values
    coords: dict[int, object] = {}
    z = xi.representative
    while z and values[z[-1][0]] < xi.death:
        sid, x = z[-1]
        owner = owners.get(sid)
        if owner is None:
            raise ContractError(
                f"simplex {sid} has no owner among vertex {stalk.vertex}'s order-{k} classes "
                "and coboundaries"
            )
        pos, col = owner
        coeff = divide(x, col[-1][1])
        if pos is not None:
            coords[pos] = coeff
        z = axpy(z[:-1], col[:-1], -coeff)
    return coords


def _edge_bars(filtration: Filtration, e: tuple[int, int], k: int):
    """The order-k bars of the relative persistence of the edge's star st e."""
    return star_diagram(filtration, e, k)[0].of_order(k)


def _atom(stalk_u: LocalStalk, stalk_v: LocalStalk, k: int, xi: PersistentCocycle):
    """The bar xi as an atom: `v_a` is its class in u's stalk and `v_b`
    minus its class in v's, both empty if xi is zero in both stalks."""
    v_a = _coordinates(stalk_u, k, xi)
    v_b = {b: -x for b, x in _coordinates(stalk_v, k, xi).items()}
    return LaplacianAtom(start=xi.birth, end=xi.death, v_a=v_a, v_b=v_b)


def _check_stalk(stalk: LocalStalk, filtration: Filtration, fld: Field):
    if stalk.filtration is not filtration:
        raise ContractError("stalks were computed on a different filtration")
    if stalk.field_kind != fld.kind:
        raise ContractError(f"stalks were computed on another carrier than {fld.kind}")


def sheaf_laplacian_block(
    stalk_u: LocalStalk,
    stalk_v: LocalStalk,
    filtration: Filtration,
    k: int,
    fld: Field = Field(),
) -> SheafLaplacianBlock:
    """The relations on the edge e = uv, one atom per order-k bar of st e.

    st u ∩ st v = st e, so by Mayer-Vietoris for compact supports the
    relations between the two stalks are im(H^k_c(st e) -> H^k_c(st u) ⊕
    H^k_c(st v)), each map an extension by zero (Bott & Tu 1982, §2). A
    bar xi of the relative persistence of st e gives the atom on
    [xi.birth, xi.death) whose `v_a` is xi's class in u's stalk and whose
    `v_b` is minus its class in v's; at any t, the atoms alive restricted
    to the cocycles alive span that image. A bar zero in both stalks gives
    no atom.
    """
    u, v = stalk_u.vertex, stalk_v.vertex
    e = (min(u, v), max(u, v))
    if e not in filtration.index:
        raise ContractError(f"vertices {u} and {v} are not adjacent (empty intersection)")
    _check_stalk(stalk_u, filtration, fld)
    _check_stalk(stalk_v, filtration, fld)
    atoms = [_atom(stalk_u, stalk_v, k, xi) for xi in _edge_bars(filtration, e, k)]
    return SheafLaplacianBlock(atoms=[a for a in atoms if a.v_a or a.v_b])


@dataclass
class EdgeBars:
    """Order-k bars of edge stars, flat, by edge then bar, each solved on first read.

    `edges` holds the edges added, as (u, v). Per bar, `edge` holds its
    edge, `start` and `end` its interval and `bar` its cocycle. `atom(i)`
    solves bar i in both stalks (`_atom`, as `sheaf_laplacian_block` does)
    the first time it is read and keeps the atom in `solved`. A solve that
    raises keeps nothing, so the next read raises again.
    """

    stalks: dict[int, LocalStalk] = field(repr=False, compare=False)
    k: int
    edges: list[tuple[int, int]] = field(default_factory=list)
    edge: list[tuple[int, int]] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    bar: list[PersistentCocycle] = field(default_factory=list)
    solved: list[LaplacianAtom | None] = field(default_factory=list, repr=False, compare=False)

    def add(self, e: tuple[int, int], bars: list[PersistentCocycle]):
        self.edges.append(e)
        for xi in bars:
            self.edge.append(e)
            self.start.append(xi.birth)
            self.end.append(xi.death)
            self.bar.append(xi)
            self.solved.append(None)

    def atom(self, i: int) -> LaplacianAtom:
        atom = self.solved[i]
        if atom is None:
            u, v = self.edge[i]
            atom = _atom(self.stalks[u], self.stalks[v], self.k, self.bar[i])
            self.solved[i] = atom
        return atom

    def alive(self, t: float) -> list[int]:
        """The bars with start <= t < end. Every class a bar's atom reaches
        is born no earlier than the bar starts, so every other bar has slice
        weight 0 in every cell."""
        return [i for i, (s, e) in enumerate(zip(self.start, self.end)) if s <= t < e]

    @cached_property
    def blocks(self) -> dict[tuple[int, int], SheafLaplacianBlock]:
        """Each edge's atoms, less those zero in both stalks; every bar is solved."""
        blocks = {e: SheafLaplacianBlock(atoms=[]) for e in self.edges}
        for i, e in enumerate(self.edge):
            atom = self.atom(i)
            if atom.v_a or atom.v_b:
                blocks[e].atoms.append(atom)
        return blocks


def _entry_weight(mode: tuple, atom: LaplacianAtom, out_iv, in_iv, horizon: float):
    """Weight of one atom's entry at (output cocycle, input cocycle).

    The single rule behind every Laplacian entry. Slice mode ("slice", t):
    1 when t lies in the atom's interval and in both cocycle lifespans,
    else 0. Weighted mode: the overlap of atom and both lifespans divided by
    the output lifespan, with essential deaths capped at the horizon t+.
    Every class an atom reaches is born no earlier than the atom starts, so
    only its end bounds the overlap. A class born exactly at the horizon
    has zero nominal span; it is alive only at the final instant, so its
    weight degenerates to 1 when atom and partner are still alive there and
    to 0 otherwise.
    """
    lo = max(out_iv[0], in_iv[0])
    hi = min(atom.end, out_iv[1], in_iv[1])
    if mode[0] == "slice":
        return 1 if lo <= mode[1] < hi else 0
    span = min(out_iv[1], horizon) - out_iv[0]
    if span <= 0:
        return 1.0 if atom.end == INF and in_iv[1] == INF else 0.0
    return max(min(hi, horizon) - lo, 0.0) / span


@dataclass
class AssembledLaplacian:
    """Block operator over the direct sum of all order-k stalks, held as its bars.

    `lifespans` maps each vertex to the (birth, death) of its order-k
    cocycles in stalk order (math.inf if essential); `vertices`, `dims` and
    `offsets` follow from it. `bars` holds the bars of each adjacent pair
    with a nonempty stalk, each solved into its atom on first read; `blocks`
    is their atoms by edge, built on first read. `mode`, ("slice", t) or
    ("weighted",), is checked on construction, so
    `dataclasses.replace(lap, mode=...)` is the operator of another mode on
    the same bars, reducing nothing; the copy shares `bars`, whose solves it
    keeps and reuses, and `lifespans`. In slice mode the operator is
    delta^T delta of the restriction maps alive at t, hence symmetric PSD;
    weighted mode scales each entry by its overlap share.

    `entries`, built on first read from the atoms of the bars alive at t
    (slice) or of every bar (weighted), holds the cells that
    received a term as COO arrays `(rows, cols, vals)` sorted by (row, col),
    each cell once. `vals` are the sums in the carrier's scalars (an object
    array of Fractions on the exact carrier), and a sum may cancel to zero.
    On the exact carrier each cell is summed in ints, over the lcm of its
    terms' denominators, and makes one Fraction. `kernel_dim_exact` ranks
    these rows exactly: each row is scaled to ints and eliminated
    fraction-free, one `reduce_integer_column` step per row.
    `laplacian @ x` multiplies by their float image `float_vals`: each
    output row is summed from 0.0, one term at a time, in ascending column
    order, whatever the BLAS build. `dense` builds the `dim x dim` float
    image on each access; it is kept for tests and small n, and the program
    never reads it.
    """

    order: int
    mode: tuple
    lifespans: dict[int, list[tuple[float, float]]]
    horizon: float
    field_kind: str
    bars: EdgeBars
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

    @property
    def blocks(self) -> dict[tuple[int, int], SheafLaplacianBlock]:
        return self.bars.blocks

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each atom couples its u-side and v-side components pairwise, so one
        pass fills the off-diagonal blocks, their transposes and both
        diagonal blocks; every entry is scaled by `_entry_weight`. A slice
        solves and pairs only the bars and components alive at t, the pairs
        it weights 1; weighted mode reads every bar, in edge then bar order.

        On the exact carrier a term c_i * c_j * w is the int ratio of the
        coefficients' numerators and denominators and `w.as_integer_ratio()`
        (exact for a float weight), a cell sums its terms over the lcm of
        their denominators, and each cell makes one Fraction at the end."""
        exact = self.field_kind != FLOAT
        offsets, spans, bars = self.offsets, self.lifespans, self.bars
        t = self.mode[1] if self.mode[0] == "slice" else None
        # float: cell -> sum; exact: cell -> (numerator, denominator)
        entries: dict[tuple[int, int], object] = {}
        for bi in range(len(bars.bar)) if t is None else bars.alive(t):
            (u, v), atom = bars.edge[bi], bars.atom(bi)
            # (global index, coefficient, lifespan) of both sides; u != v,
            # so each cell gets at most one term per atom
            comps = [(offsets[u] + a, c, spans[u][a]) for a, c in atom.v_a.items()]
            comps += [(offsets[v] + b, c, spans[v][b]) for b, c in atom.v_b.items()]
            if t is not None:
                # a component not alive at t has slice weight 0 in its row and column
                comps = [comp for comp in comps if comp[2][0] <= t < comp[2][1]]
            for i, ci, out_iv in comps:
                for j, cj, in_iv in comps:
                    w = _entry_weight(self.mode, atom, out_iv, in_iv, self.horizon)
                    if not w:
                        continue
                    if not exact:
                        entries[i, j] = entries.get((i, j), 0.0) + ci * cj * float(w)
                        continue
                    wn, wd = w.as_integer_ratio()
                    tn = ci.numerator * cj.numerator * wn
                    td = ci.denominator * cj.denominator * wd
                    cell = entries.get((i, j))
                    if cell is not None:
                        n, d = cell
                        if d == td:
                            tn += n
                        else:
                            m = math.lcm(d, td)
                            tn, td = n * (m // d) + tn * (m // td), m
                    entries[i, j] = (tn, td)
        cells = sorted(entries)
        if exact:
            vals = np.array([Fraction(*entries[c]) for c in cells], dtype=object)
        else:
            vals = np.array([entries[c] for c in cells], dtype=float)
        return (
            np.array([i for i, _ in cells], dtype=np.intp),
            np.array([j for _, j in cells], dtype=np.intp),
            vals,
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
        """dim ker = dimension - rank, on the exact carrier only.

        rank L = rank L^T, and one row of the sorted `entries`, its cells
        read by decreasing column, is a column of L^T. Each row, less the
        cells whose sum cancelled to zero, is scaled to ints by the lcm of its
        denominators and eliminated fraction-free by
        `linalg.reduce_integer_column` against the rows before it; each row
        left nonzero owns one pivot, so the rank is the number of pivots.
        """
        if self.field_kind != "exact":
            raise ContractError("exact kernel rank needs the exact carrier")
        pivots: dict[int, Column] = {}
        rows, cols, vals = self.entries
        cells = zip(rows.tolist(), cols.tolist(), vals.tolist())
        for _, row in groupby(cells, key=itemgetter(0)):
            row = [(j, x) for _, j, x in row if x]
            m = math.lcm(*(x.denominator for _, x in row))
            col = [(j, x.numerator * (m // x.denominator)) for j, x in reversed(row)]
            reduce_integer_column(col, pivots)
        return self.dimension - len(pivots)


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
    """Reduce the star of every edge with a nonempty order-k stalk at either
    end, once, and keep its order-k bars; `mode` is ("slice", t) or
    ("weighted",).

    The stalks and the mode are checked before any star is reduced. No bar
    is solved here: `entries` solves the bars it reads, and `blocks` all of
    them, each once per assembly; another mode on the same bars is
    `dataclasses.replace(lap, mode=...)`. So the "no owner" ContractError
    of a solve is raised by the first read that needs that bar, on every
    such read, and a slice that reads no broken bar does not raise it.
    """
    lifespans, held = {}, {}
    for v in range(filtration.vertex_count):
        if v not in stalks:
            raise ContractError(f"missing stalk for vertex {v}")
        lifespans[v] = [(c.birth, c.death_or(INF)) for c in stalks[v].order_cocycles(k)]
        _check_stalk(stalks[v], filtration, fld)
        held[v] = stalks[v]  # a later solve reads these, whatever the caller's dict holds by then
    lap = AssembledLaplacian(
        order=k, mode=mode, lifespans=lifespans, horizon=filtration.t_plus,
        field_kind=fld.kind, bars=EdgeBars(held, k),
    )
    for sid in filtration.ids_of_dim(1):
        e = filtration.simplices[sid]
        if lifespans[e[0]] or lifespans[e[1]]:
            lap.bars.add(e, _edge_bars(filtration, e, k))
    return lap
