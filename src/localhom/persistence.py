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
    coboundary is zero for an essential class; otherwise its lowest-id
    simplex is `death_index`.
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


def _diagram_from_reductions(
    filtration: Filtration,
    keep: frozenset[int] | None,
    max_order: int,
    fld: Field,
) -> tuple[Diagram, dict[int, list[Column]]]:
    """The diagram up to `max_order`, and for each k in 1..max_order the
    nonzero reduced order-(k-1) coboundary columns: each column's lowest
    row is the k-simplex it kills, so with the order-k representatives they
    own every k-simplex's row once.

    The columns of order k are the k-simplices of `keep` (all of them when
    `keep` is None) by decreasing id. Each is built from
    `Filtration.cofacets` when it is reached and reduced at once by
    `linalg.reduce_column`; a cleared simplex is skipped before anything is
    built. With `keep` set the cost is that of the set, not of the
    filtration; an open set holds every coface of its members, so no row
    is dropped. V columns are in `row_of` rows, so the representative is
    read off directly.
    """
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )
    if keep is None:
        buckets = [filtration.ids_of_dim(k)[::-1] for k in range(max_order + 1)]
    else:
        buckets = [[] for _ in range(max_order + 1)]
        for sid in keep:
            k = len(filtration.simplices[sid]) - 1
            if k <= max_order:
                buckets[k].append(sid)
        for bucket in buckets:
            bucket.sort(reverse=True)
    values = filtration.values
    top = row_of(filtration, 0)  # row_of(sid) == top - sid, and sid_of(row) == top - row
    one = fld.one
    signs = {1: one, -1: fld.coerce(-1)}  # shared, not one object per entry
    classes: list[PersistentCocycle] = []
    coboundaries: dict[int, list[Column]] = {}
    destroyers: set[int] = set()
    for k, col_ids in enumerate(buckets):
        pivots: dict[int, tuple[Column, Column]] = {}
        reduced: list[Column] = []
        next_destroyers = set()
        for sid in col_ids:
            if sid in destroyers:
                continue  # cleared: a pivot row one order down has a zero column
            # cofacets run by increasing id, so read backwards by increasing row
            col = [(top - c, signs[sign]) for c, sign in reversed(filtration.cofacets(sid))]
            r, v = reduce_column(col, [(top - sid, one)], pivots, fld)
            if r:
                reduced.append(r)
                death_id = top - r[-1][0]
                death = values[death_id]
                next_destroyers.add(death_id)
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
        if k < max_order:
            coboundaries[k + 1] = reduced
        destroyers = next_destroyers
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return Diagram(classes=classes), coboundaries


def persistent_cohomology(
    filtration: Filtration,
    max_order: int,
    fld: Field = Field(),
) -> Diagram:
    """Diagram of the absolute persistent cohomology up to max_order."""
    return _diagram_from_reductions(filtration, None, max_order, fld)[0]
