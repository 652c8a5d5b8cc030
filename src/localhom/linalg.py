"""Sparse column-major linear algebra on Python ints.

Every reduction in the package runs on ints, whatever the carrier: each
coboundary column is +-1 and each V column starts as a unit vector, so a
coefficient stays an int until a division leaves a remainder, and only
then becomes a `fractions.Fraction` (`divide`). Nothing is rounded, so no
reduction depends on a tolerance or can break down. A carrier (`Field`)
decides only how `sheaf.AssembledLaplacian.entries` sums a cell and the
type of its values; see the `sheaf` docstring.

One left-to-right elimination step, `reduce_column`, is behind every
persistence reduction; callers loop it over their own columns, with no
matrix type. The two lowest degrees of every star are read off its link
without it (`persistence.star_diagram`). The exact Laplacian kernel rank
uses a second step, `reduce_integer_column`: fraction-free and without V.
It stays because it is faster on those rows: on 80 slice operators of
small ER and kNN-4 graphs (n 12-40, orders 1-2, on a shared 2-core host)
it took 0.16-0.21 ms per operator against 0.54-0.68 ms for the rational
elimination of `reduce_column`, with the same ranks. The dense brute-force
oracle deliberately uses neither.

A column lists its entries by strictly decreasing index and its pivot is
the last, smallest one: a cohomology reduction walks rows by decreasing
filtration order (Bauer, "Ripser", 2021), so a coboundary column's
indices are simplex ids and its pivot is the earliest cofacet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError

EXACT = "exact"
FLOAT = "float"

# a sparse column: (index, coeff) pairs by strictly decreasing index, its
# pivot the last; a coefficient is an int, or a Fraction where a division
# left a remainder
Column = list[tuple[int, object]]


@dataclass(frozen=True)
class Field:
    """Scalar carrier of the Laplacian's values: exact rationals or floats.

    Reductions do not read it: they run on ints on both carriers.
    """

    kind: str = EXACT

    def __post_init__(self):
        if self.kind not in (EXACT, FLOAT):
            raise ContractError(f"field kind must be {EXACT!r} or {FLOAT!r}, not {self.kind!r}")


def divide(x, y):
    """x / y: an int when y divides x, else a Fraction; x and y are ints or
    Fractions and y is nonzero. The one quotient rule of every reduction."""
    if type(x) is int and type(y) is int:
        q, rem = divmod(x, y)
        return Fraction(x, y) if rem else q
    q = x / y  # a Fraction, since x or y is one
    return q.numerator if q.denominator == 1 else q


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
    r: Column, v: Column, pivots: dict[int, tuple[Column, Column]]
) -> tuple[Column, Column]:
    """One column of the left-to-right reduction: (R column, V column).

    A column's pivot is its last entry, the smallest index; while an
    earlier column owns the same pivot, subtract the multiple that cancels
    it (`divide`) from R and V alike, and `axpy` drops the entries that
    cancel. `pivots` maps each owned pivot to its owner's (R, V) columns,
    and a column that stays nonzero is entered there. Columns are replaced,
    never edited in place, so the caller's columns stay intact.
    """
    while r:
        low, x = r[-1]
        owner = pivots.get(low)
        if owner is None:
            pivots[low] = (r, v)
            break
        r_owner, v_owner = owner
        coeff = -divide(x, r_owner[-1][1])
        r = axpy(r, r_owner, coeff)
        v = axpy(v, v_owner, coeff)
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
