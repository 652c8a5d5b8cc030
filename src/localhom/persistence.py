"""Persistent cohomology of filtrations with representative cocycles.

The coboundary of each order is reduced with rows and columns sorted by
decreasing filtration order (value, then reverse tie-break). No matrix is
stored: each column is built from the simplex's cofacets when the walk
reaches it and eliminated at once against the columns before it (Bauer,
"Ripser", 2021). For a column that reduces to nonzero, the pivot row's
simplex kills the class; a zero column that was not a pivot row one order
down is an essential class. The column of a simplex that was a pivot row
one order down reduces to zero, so it is cleared without being built. The
column of the transformation V is the representative cocycle and the
reduced column R is its coboundary, so births come from the
representative's lowest-value support simplex and deaths from R's pivot.
Relative cohomology H^k(S_t, S_t \\ U_t) of an open set U reduces only U's
columns (`_diagram_from_reductions` with `keep`): openness keeps the
coboundary of a U-simplex inside U.

Order 0 of the whole complex has a closed form, the elder rule
(Edelsbrunner & Harer 2010, VII): one union-find pass over the edges by
increasing id gives the walk's order-0 classes, representatives and
pivots, as Ripser computes degree 0. `persistent_cohomology` takes it and
walks only orders >= 1. Vertex and edge stars go through the walk
(`sheaf` reads an order-1 edge-star bar off the edge's first cofacet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import Filtration
from .errors import ContractError
from .linalg import Column, Field, reduce_column

INF = math.inf


@dataclass(frozen=True)
class PersistentCocycle:
    """One persistent relative/absolute cohomology class.

    `representative` maps k-simplex ids (in the source filtration) to
    coefficients and carries the sign/scale freedom of the reduction. Its
    keys run by strictly decreasing id, as the column walk, `_elder_rule`
    and `sheaf._edge_bars` build them. Its coboundary is zero for an
    essential class; otherwise its lowest-id simplex is `death_index`.
    """

    order: int
    birth: float
    death: float
    birth_index: int
    death_index: int | None
    representative: dict[int, object]

    @property
    def essential(self) -> bool:
        return self.death_index is None

    def death_or(self, horizon: float) -> float:
        return horizon if self.essential else self.death

    def alive_at(self, t: float) -> bool:
        return self.birth <= t and (self.essential or t < self.death)


@dataclass
class Diagram:
    """Persistence diagram grouped by order, zero-length pairs excluded."""

    classes: list[PersistentCocycle]

    def of_order(self, k: int) -> list[PersistentCocycle]:
        return [c for c in self.classes if c.order == k]


def betti_at(diagram: Diagram, t: float, k: int) -> int:
    """Number of order-k classes with birth <= t < death."""
    return sum(1 for c in diagram.of_order(k) if c.alive_at(t))


def row_of(filtration: Filtration, sid: int) -> int:
    """Row of simplex `sid` in every coboundary matrix of `filtration`:
    one row per simplex, by decreasing filtration index."""
    return len(filtration.simplices) - 1 - sid


def sid_of(filtration: Filtration, row: int) -> int:
    """Simplex id of a `row_of` row."""
    return len(filtration.simplices) - 1 - row


def _check_max_order(filtration: Filtration, max_order: int) -> None:
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )


def _reduce_order(
    filtration: Filtration,
    k: int,
    col_ids: list[int],
    cleared: set[int],
    fld: Field,
    classes: list[PersistentCocycle],
) -> tuple[list[Column], set[int]]:
    """Reduce the order-k columns `col_ids` (by decreasing id), appending
    each class of positive length to `classes`: the nonzero reduced columns,
    and the (k+1)-simplices they kill, which order k+1 clears.

    Each column is built from `Filtration.cofacets` when it is reached and
    reduced at once by `linalg.reduce_column`; a simplex in `cleared` is
    skipped before anything is built. V columns are in `row_of` rows, so
    the representative is read off directly.
    """
    values = filtration.values
    top = row_of(filtration, 0)  # row_of(sid) == top - sid, and sid_of(row) == top - row
    one = fld.one
    signs = {1: one, -1: fld.coerce(-1)}  # shared, not one object per entry
    pivots: dict[int, tuple[Column, Column]] = {}
    reduced: list[Column] = []
    killed: set[int] = set()
    for sid in col_ids:
        if sid in cleared:
            continue  # a pivot row one order down has a zero column
        # cofacets run by increasing id, so read backwards by increasing row
        col = [(top - c, signs[sign]) for c, sign in reversed(filtration.cofacets(sid))]
        r, v = reduce_column(col, [(top - sid, one)], pivots, fld)
        if r:
            reduced.append(r)
            death_id = top - r[-1][0]
            death = values[death_id]
            killed.add(death_id)
        else:
            death_id, death = None, INF
        birth = values[sid]
        if birth < death:
            classes.append(
                PersistentCocycle(
                    order=k,
                    birth=birth,
                    death=death,
                    birth_index=sid,
                    death_index=death_id,
                    representative={top - row: c for row, c in v},
                )
            )
    return reduced, killed


def _diagram_from_reductions(
    filtration: Filtration,
    keep: frozenset[int],
    max_order: int,
    fld: Field,
) -> tuple[Diagram, dict[int, list[Column]]]:
    """The diagram of the open set `keep` up to `max_order` by the column
    walk, and for each k in 1..max_order the nonzero reduced order-(k-1)
    coboundary columns: each column's lowest row is the k-simplex it kills,
    so with the order-k representatives they own every k-simplex's row once.

    The columns of order k are the k-simplices of `keep` by decreasing id,
    each reduced by `_reduce_order`, so the cost is that of the set, not of
    the filtration; an open set holds every coface of its members, so no
    row is dropped.
    """
    _check_max_order(filtration, max_order)
    buckets: list[list[int]] = [[] for _ in range(max_order + 1)]
    for sid in keep:
        k = len(filtration.simplices[sid]) - 1
        if k <= max_order:
            buckets[k].append(sid)
    for bucket in buckets:
        bucket.sort(reverse=True)
    classes: list[PersistentCocycle] = []
    coboundaries: dict[int, list[Column]] = {}
    cleared: set[int] = set()
    for k, col_ids in enumerate(buckets):
        reduced, cleared = _reduce_order(filtration, k, col_ids, cleared, fld, classes)
        if k < max_order:
            coboundaries[k + 1] = reduced
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return Diagram(classes=classes), coboundaries


def _elder_rule(filtration: Filtration, fld: Field) -> tuple[list[PersistentCocycle], set[int]]:
    """Order 0 of the whole complex, and the edges that merge two components.

    Edges are taken by increasing id. An edge that joins two components
    kills the younger, whose oldest vertex has the larger id: its class is
    born there and represented by its vertices, each coefficient one, keyed
    by decreasing id, as the column walk gives it. The components left are
    essential. A merge moves as many vertices as the class it ends holds.
    """
    values, index = filtration.values, filtration.index
    oldest = {sid: sid for sid in filtration.ids_of_dim(0)}  # vertex -> its component's oldest
    members = {sid: [sid] for sid in oldest}  # oldest vertex -> the component's vertices
    merges: set[int] = set()
    bars: list[tuple[int, int | None, list[int]]] = []  # (birth id, death id, vertices)
    for eid in filtration.ids_of_dim(1):
        a, b = filtration.simplices[eid]
        elder, young = sorted((oldest[index[(a,)]], oldest[index[(b,)]]))
        if elder == young:
            continue
        merges.add(eid)
        dying = members.pop(young)
        bars.append((young, eid, dying))
        for sid in dying:
            oldest[sid] = elder
        members[elder] += dying
    bars += [(root, None, vertices) for root, vertices in members.items()]
    one = fld.one
    classes = [
        PersistentCocycle(
            order=0,
            birth=values[root],
            death=INF if death_id is None else values[death_id],
            birth_index=root,
            death_index=death_id,
            representative=dict.fromkeys(sorted(vertices, reverse=True), one),
        )
        for root, death_id, vertices in bars
        if death_id is None or values[root] < values[death_id]
    ]
    return classes, merges


def persistent_cohomology(
    filtration: Filtration,
    max_order: int,
    fld: Field = Field(),
) -> Diagram:
    """Diagram of the absolute persistent cohomology up to max_order: order
    0 by `_elder_rule`, whose merging edges order 1 clears, and orders
    1..max_order by the column walk."""
    _check_max_order(filtration, max_order)
    classes, cleared = _elder_rule(filtration, fld)
    for k in range(1, max_order + 1):
        _, cleared = _reduce_order(
            filtration, k, filtration.ids_of_dim(k)[::-1], cleared, fld, classes
        )
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return Diagram(classes=classes)
