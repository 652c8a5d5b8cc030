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
from .linalg import Field, SparseColumnMatrix, reduce as column_reduce

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


def coboundary_block(
    filtration: Filtration,
    k: int,
    keep: frozenset[int] | None,
    fld: Field,
) -> tuple[SparseColumnMatrix, list[int], list[int]]:
    """Order-k coboundary with rows/cols sorted by decreasing filtration order.

    Returns (matrix, column simplex ids, row simplex ids). With `keep` set,
    rows and columns are restricted to those simplex ids (the open-set
    restriction used for relative cohomology), read from `keep` itself so
    the cost is that of the set, not of the filtration.
    """
    def ids_desc(d: int) -> list[int]:
        if keep is None:
            return filtration.ids_of_dim(d)[::-1]
        return sorted((i for i in keep if len(filtration.simplices[i]) == d + 1), reverse=True)

    col_ids, row_ids = ids_desc(k), ids_desc(k + 1)
    row_pos = {sid: r for r, sid in enumerate(row_ids)}
    entries = []
    for j, sid in enumerate(col_ids):
        for coface, sign in filtration.cofacets(sid):
            r = row_pos.get(coface)
            if r is not None:
                entries.append((r, j, sign))
    matrix = SparseColumnMatrix.from_entries(
        len(row_ids), len(col_ids), entries, field=fld
    )
    return matrix, col_ids, row_ids


def _diagram_from_reductions(
    filtration: Filtration,
    keep: frozenset[int] | None,
    max_order: int,
    fld: Field,
) -> Diagram:
    classes: list[PersistentCocycle] = []
    destroyers: set[int] = set()
    for k in range(max_order + 1):
        matrix, col_ids, row_ids = coboundary_block(filtration, k, keep, fld)
        # clearing: a simplex that was a pivot row one order down has a zero column
        skip = frozenset(j for j, sid in enumerate(col_ids) if sid in destroyers)
        red = column_reduce(matrix, skip_cols=skip)
        pivot_of_col = {j: low for low, j in red.pivots.items()}
        next_destroyers = set()
        for j, sid in enumerate(col_ids):
            low = pivot_of_col.get(j)
            if low is not None:
                death_id = row_ids[low]
                next_destroyers.add(death_id)
                birth = filtration.values[sid]
                death = filtration.values[death_id]
                if birth < death:
                    classes.append(
                        PersistentCocycle(
                            order=k,
                            birth=birth,
                            death=death,
                            birth_index=sid,
                            death_index=death_id,
                            representative={col_ids[r]: c for r, c in red.V.cols[j]},
                            coboundary={row_ids[r]: c for r, c in red.R.cols[j]},
                        )
                    )
            elif sid not in destroyers:
                classes.append(
                    PersistentCocycle(
                        order=k,
                        birth=filtration.values[sid],
                        death=INF,
                        birth_index=sid,
                        death_index=None,
                        representative={col_ids[r]: c for r, c in red.V.cols[j]},
                        coboundary={},
                    )
                )
        destroyers = next_destroyers
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return Diagram(classes=classes)


def persistent_cohomology(
    filtration: Filtration,
    max_order: int,
    fld: Field = Field(),
) -> Diagram:
    """Diagram of the absolute persistent cohomology up to max_order."""
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )
    return _diagram_from_reductions(filtration, None, max_order, fld)


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
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )
    if open_set.filtration is not filtration:
        raise ContractError("open_set belongs to a different filtration")
    if not is_open_set(filtration, open_set.ids):
        raise ContractError("subset is not open (not a union of stars)")
    return _diagram_from_reductions(filtration, open_set.ids, max_order, fld)
