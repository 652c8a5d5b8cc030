"""Sparse column-major linear algebra over pluggable scalar carriers.

Two carriers share one interface: exact rationals (`fractions.Fraction`,
the correctness reference) and binary64 floats with a relative zero
tolerance (the performance path). One left-to-right elimination step,
`reduce_column`, is behind every persistence reduction in the package;
callers loop it over their own columns, with no matrix type. The
two lowest degrees of every star are read off its link without it
(`persistence.star_diagram`). The exact Laplacian kernel rank runs the
same step on integer columns, fraction-free (`reduce_integer_column`).
The dense brute-force oracle deliberately uses neither.

A column lists its entries by strictly decreasing index and its pivot is
the last, smallest one: a cohomology reduction walks rows by decreasing
filtration order (Bauer, "Ripser", 2021), so a coboundary column's
indices are simplex ids and its pivot is the earliest cofacet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, IllConditionedError

EXACT = "exact"
FLOAT = "float"
DEFAULT_EPS = 1e-9

# a sparse column: (index, coeff) pairs by strictly decreasing index, its
# pivot the last
Column = list[tuple[int, object]]

# each carrier's 1 and its +-1 incidence signs, built once and shared: a
# Fraction costs a microsecond to make, and neither is ever mutated
_ONE = {EXACT: Fraction(1), FLOAT: 1.0}
_SIGNS = {kind: {1: one, -1: -one} for kind, one in _ONE.items()}


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

    @property
    def one(self):
        return _ONE[self.kind]

    @property
    def signs(self) -> dict[int, object]:
        """The carrier's +1 and -1, keyed by the int incidence sign; shared, not copied."""
        return _SIGNS[self.kind]

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
    """target + coeff * source, merging two columns by decreasing index."""
    out: Column = []
    i = j = 0
    while i < len(target) and j < len(source):
        ri, rj = target[i][0], source[j][0]
        if ri > rj:
            out.append(target[i])
            i += 1
        elif ri < rj:
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

    A column's pivot is its last entry, the smallest index; while an
    earlier column owns the same pivot, subtract the matching field
    multiple from R and V alike. `pivots` maps each owned pivot to its
    owner's (R, V) columns, and a column that stays nonzero is entered
    there. Columns are replaced, never edited in place, so the caller's
    columns stay intact.
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


def reduce_integer_column(r: Column, pivots: dict[int, Column]) -> Column:
    """`reduce_column` without V, on a column of nonzero ints, fraction-free.

    While an earlier column owns r's pivot, r <- a*r - b*owner with a/b its
    pivot entry over r's, both divided by their gcd, so the pivot cancels
    in ints; r is then divided by the gcd of its entries, which keeps them
    small (Bareiss, Math. Comp. 22, 1968). Every step scales r by a nonzero
    int, so the pivots, and so the rank, are those of the rational
    elimination. A column that stays nonzero is entered in `pivots`.
    """
    while r:
        low, x = r[-1]
        owner = pivots.get(low)
        if owner is None:
            pivots[low] = r
            break
        y = owner[-1][1]
        g = math.gcd(x, y)
        a, b = y // g, x // g
        r = axpy([(i, a * c) for i, c in r], owner, -b)
        g = math.gcd(*(c for _, c in r))  # 0 for an empty r
        if g > 1:
            r = [(i, c // g) for i, c in r]
    return r
