"""Sparse column-major linear algebra over pluggable scalar carriers.

Two carriers share one interface: exact rationals (`fractions.Fraction`,
the correctness reference) and binary64 floats with a relative zero
tolerance (the performance path). One left-to-right elimination step,
`reduce_column`, is behind every persistence reduction in the package
and the exact Laplacian kernel rank; callers loop it over their own
sorted columns, with no matrix type. Two bars are read in closed form
without it: order 0 of the whole complex (`persistence._elder_rule`) and
the order-1 bar of an edge star (`sheaf._edge_bars`). The dense
brute-force oracle deliberately does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, IllConditionedError

EXACT = "exact"
FLOAT = "float"
DEFAULT_EPS = 1e-9

# a sparse column is a list of (row, coeff) pairs with strictly increasing rows
Column = list[tuple[int, object]]


@dataclass(frozen=True)
class Field:
    """Scalar carrier: exact rationals or floats with zero tolerance eps."""

    kind: str = EXACT
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.kind not in (EXACT, FLOAT):
            raise ContractError(f"field kind must be {EXACT!r} or {FLOAT!r}, not {self.kind!r}")
        # eps >= 1 would call every entry of a column zero next to its largest
        if not (0 < self.eps < 1):
            raise ContractError(f"eps must lie in (0, 1), not {self.eps!r}")

    def coerce(self, x):
        return Fraction(x) if self.kind == EXACT else float(x)

    @property
    def one(self):
        return Fraction(1) if self.kind == EXACT else 1.0

    def prune(self, col: Column) -> Column:
        """Drop entries indistinguishable from zero; flag ill-conditioning."""
        if self.kind == EXACT:
            return [(r, c) for r, c in col if c != 0]
        if not col:
            return col
        scale = max(abs(c) for _, c in col)
        if scale == 0.0:
            return []
        if scale > 1.0 / self.eps:
            raise IllConditionedError(
                f"entry magnitude {scale:.3e} exceeds 1/eps; retry with exact carrier"
            )
        tol = self.eps * scale
        return [(r, c) for r, c in col if abs(c) > tol]


def axpy(target: Column, source: Column, coeff) -> Column:
    """target + coeff * source, merging sorted sparse columns."""
    out: Column = []
    i = j = 0
    while i < len(target) and j < len(source):
        ri, rj = target[i][0], source[j][0]
        if ri < rj:
            out.append(target[i])
            i += 1
        elif ri > rj:
            out.append((rj, coeff * source[j][1]))
            j += 1
        else:
            s = target[i][1] + coeff * source[j][1]
            if s != 0:
                out.append((ri, s))
            i += 1
            j += 1
    out.extend(target[i:])
    out.extend((r, coeff * c) for r, c in source[j:])
    return out


def reduce_column(
    r: Column, v: Column, pivots: dict[int, tuple[Column, Column]], fld: Field
) -> tuple[Column, Column]:
    """One column of the left-to-right reduction: (R column, V column).

    A column's pivot is its lowest nonzero row; while an earlier column
    owns the same pivot, subtract the matching field multiple from R and
    V alike. `pivots` maps each owned pivot row to its owner's (R, V)
    columns, and a column that stays nonzero is entered there. Columns are
    replaced, never edited in place, so the caller's columns stay intact.
    """
    while r:
        low, x = r[-1]
        owner = pivots.get(low)
        if owner is None:
            pivots[low] = (r, v)
            break
        r_owner, v_owner = owner
        coeff = -(x / r_owner[-1][1])
        r = fld.prune(axpy(r, r_owner, coeff))
        v = fld.prune(axpy(v, v_owner, coeff))
    return r, v
