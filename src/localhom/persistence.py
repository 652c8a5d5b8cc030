"""Persistent cohomology of filtrations with representative cocycles.

The coboundary matrix of each order is reduced with rows and columns
sorted by decreasing filtration order (value, then reverse tie-break).
For a column that reduces to nonzero, the pivot row's simplex kills the
class; a zero column that was not a pivot row one order down is an
essential class. The column of a simplex that was a pivot row one order
down reduces to zero, so it is cleared without work (Bauer, "Ripser",
2021). The column of the transformation matrix V is the representative
cocycle and the reduced column R is its coboundary, so births come from
the representative's lowest-value support simplex and deaths from the
pivot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import Filtration, SimplexSubset, is_open_set
from .errors import ContractError
from .linalg import Column, Field, SparseColumnMatrix, reduce as column_reduce

INF = math.inf


@dataclass(frozen=True)
class PersistentCocycle:
    """One persistent relative/absolute cohomology class.

    `representative` maps k-simplex ids (in the source filtration) to
    coefficients; `coboundary` does the same over (k+1)-simplices. Both
    carry the sign/scale freedom of the reduction.
    """

    order: int
    birth: float
    death: float
    birth_index: int
    death_index: int | None
    representative: dict[int, object]
    coboundary: dict[int, object]

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


def coboundary_block(
    filtration: Filtration,
    k: int,
    keep: frozenset[int] | None,
    fld: Field,
) -> tuple[SparseColumnMatrix, list[int]]:
    """Order-k coboundary, columns by decreasing filtration index.

    Returns (matrix, column simplex ids); rows are `row_of` rows. With
    `keep` set, the columns are the k-simplices of that open set, read from
    `keep` itself so the cost is that of the set, not of the filtration;
    an open set holds every coface of its members, so no row is dropped.

    `Filtration.cofacets` runs by increasing id, so read backwards it runs
    by increasing row and needs no sort.
    """
    if keep is None:
        col_ids = filtration.ids_of_dim(k)[::-1]
    else:
        col_ids = sorted((i for i in keep if len(filtration.simplices[i]) == k + 1), reverse=True)
    top = row_of(filtration, 0)
    signs = {1: fld.coerce(1), -1: fld.coerce(-1)}  # shared, not one object per entry
    cols = [
        [(top - c, signs[sign]) for c, sign in reversed(filtration.cofacets(sid))]
        for sid in col_ids
    ]
    return SparseColumnMatrix(len(filtration), len(col_ids), cols, fld), col_ids


def _diagram_from_reductions(
    filtration: Filtration,
    keep: frozenset[int] | None,
    max_order: int,
    fld: Field,
) -> tuple[Diagram, dict[int, list[Column]]]:
    """The diagram up to `max_order`, and for each k in 1..max_order the
    nonzero reduced order-(k-1) coboundary columns: each column's lowest
    row is the k-simplex it kills, so with the order-k representatives they
    own every k-simplex's row once."""
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )
    classes: list[PersistentCocycle] = []
    coboundaries: dict[int, list[Column]] = {}
    destroyers: set[int] = set()
    for k in range(max_order + 1):
        matrix, col_ids = coboundary_block(filtration, k, keep, fld)
        # clearing: a simplex that was a pivot row one order down has a zero column
        skip = frozenset(j for j, sid in enumerate(col_ids) if sid in destroyers)
        red = column_reduce(matrix, skip_cols=skip)
        pivot_of_col = {j: low for low, j in red.pivots.items()}
        if k < max_order:
            coboundaries[k + 1] = [col for col in red.R.cols if col]
        next_destroyers = set()
        for j, sid in enumerate(col_ids):
            if sid in destroyers:
                continue  # cleared
            low = pivot_of_col.get(j)
            if low is None:
                death_id, death = None, INF
            else:
                death_id = sid_of(filtration, low)
                death = filtration.values[death_id]
                next_destroyers.add(death_id)
            birth = filtration.values[sid]
            if birth < death:
                # an essential class's R column is empty, so its coboundary is too
                classes.append(
                    PersistentCocycle(
                        order=k,
                        birth=birth,
                        death=death,
                        birth_index=sid,
                        death_index=death_id,
                        representative={col_ids[r]: c for r, c in red.V.cols[j]},
                        coboundary={sid_of(filtration, r): c for r, c in red.R.cols[j]},
                    )
                )
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


def persistent_relative_cohomology(
    filtration: Filtration,
    open_set: SimplexSubset,
    max_order: int,
    fld: Field = Field(),
) -> Diagram:
    """Diagram of H^k(S_t, S_t \\ U_t) for the open set U.

    Openness guarantees the coboundary of a U-simplex stays in U, so
    deleting the rows and columns of the complement yields exactly the
    relative coboundary.
    """
    if open_set.filtration is not filtration:
        raise ContractError("open_set belongs to a different filtration")
    if not is_open_set(filtration, open_set.ids):
        raise ContractError("subset is not open (not a union of stars)")
    return _diagram_from_reductions(filtration, open_set.ids, max_order, fld)[0]
