"""The column reduction step and the field carriers, over plain column lists."""

import math
import random
from fractions import Fraction

import pytest

from conftest import reduce_columns
from localhom.errors import ContractError, IllConditionedError
from localhom.linalg import Field


def dense_rank_oracle(dense):
    """Plain fraction Gaussian elimination, written independently."""
    m = [[Fraction(x) for x in row] for row in dense]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def from_dense(dense, field=Field()):
    """Sparse columns of a row-list matrix, by decreasing row, zeros dropped."""
    nc = len(dense[0]) if dense else 0
    rows = list(enumerate(dense))[::-1]
    return [field.prune([(i, field.one * row[j]) for i, row in rows]) for j in range(nc)]


def to_dense(cols, row_count, field=Field()):
    """Row lists of sparse columns, zeros in the carrier's scalars."""
    zero = field.one * 0
    dense = [[zero] * len(cols) for _ in range(row_count)]
    for j, col in enumerate(cols):
        for r, c in col:
            dense[r][j] = c
    return dense


def matmul_dense(cols, row_count, vcols, field=Field()):
    """M @ V as row lists: column j is the sum of V[i, j] * M[:, i]."""
    zero = field.one * 0
    out = [[zero] * len(vcols) for _ in range(row_count)]
    for j, vcol in enumerate(vcols):
        for i, x in vcol:
            for r, c in cols[i]:
                out[r][j] += c * x
    return out


def boundary_1(edges):
    """Columns of the vertex-edge boundary matrix: +1 at v, -1 at u < v."""
    return [[(v, Fraction(1)), (u, Fraction(-1))] for u, v in edges]


def rank(cols, fld=Field()):
    return len(reduce_columns(cols, fld)[2])


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, eps",
    [("float", 0.0), ("float", -1.0), ("float", math.inf), ("float", math.nan),
     ("float", 1.0), ("float", 2.0), ("exact", 0.0), ("complex", 1e-9)],
)
def test_field_rejects_bad_kind_or_eps(kind, eps):
    with pytest.raises(ContractError):
        Field(kind=kind, eps=eps)


# ---------------------------------------------------------------------------
# reduce_column, looped by conftest.reduce_columns
# ---------------------------------------------------------------------------


def test_reduce_identity():
    m = from_dense([[1, 0], [0, 1]])
    rcols, vcols, pivots = reduce_columns(m, Field())
    assert rcols == m
    assert to_dense(vcols, 2) == [[1, 0], [0, 1]]
    assert pivots == {0: 0, 1: 1}


def test_reduce_single_edge_boundary():
    m = boundary_1([(0, 1)])
    rcols, vcols, pivots = reduce_columns(m, Field())
    assert rcols == m
    assert to_dense(vcols, 1) == [[1]]
    assert list(pivots) == [0]  # pivot at the smaller-index vertex row


def test_reduce_triangle_boundary_finds_the_cycle():
    m = boundary_1([(0, 1), (0, 2), (1, 2)])
    dense = to_dense(m, 3)
    assert dense_rank_oracle(dense) == 2
    rcols, vcols, pivots = reduce_columns(m, Field())
    assert len(pivots) == 2
    zero_cols = [j for j in range(3) if not rcols[j]]
    assert len(zero_cols) == 1
    cycle = dict(vcols[zero_cols[0]])
    assert len(cycle) == 3 and all(abs(c) == 1 for c in cycle.values())
    for i in range(3):
        assert sum(dense[i][j] * cycle.get(j, 0) for j in range(3)) == 0


def test_reduce_rv_identity_random_exact():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = [
            [rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(nc)] for _ in range(nr)
        ]
        m = from_dense(dense)
        rcols, vcols, _ = reduce_columns(m, Field())
        assert matmul_dense(m, nr, vcols) == to_dense(rcols, nr)
        # distinct pivots
        lows = [col[-1][0] for col in rcols if col]
        assert len(lows) == len(set(lows))


def test_reduce_rv_identity_float_tolerance():
    rng = random.Random(11)
    fld = Field(kind="float")
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        dense = [
            [rng.choice([0.0, 0.0, 1.0, -1.0, 0.5]) for _ in range(nc)]
            for _ in range(nr)
        ]
        m = from_dense(dense, fld)
        rcols, vcols, _ = reduce_columns(m, fld)
        mv = matmul_dense(m, nr, vcols, fld)
        rd = to_dense(rcols, nr, fld)
        max_mag = max((abs(x) for row in dense for x in row), default=1.0)
        for i in range(nr):
            for j in range(nc):
                assert abs(mv[i][j] - rd[i][j]) <= 8 * fld.eps * max(max_mag, 1.0)


def test_pivot_parity_exact_vs_float():
    rng = random.Random(3)
    fld = Field(kind="float")
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        dense = [
            [rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(nc)] for _ in range(nr)
        ]
        exact = reduce_columns(from_dense(dense), Field())[2]
        fl = reduce_columns(from_dense(dense, fld), fld)[2]
        assert exact == fl


def test_v_invertible_by_solving():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3)]
    _, vcols, _ = reduce_columns(boundary_1(edges), Field())
    for j, col in enumerate(vcols):
        assert col and all(r <= j for r, _ in col)
        assert col[0][0] == j and col[0][1] != 0


def test_float_ill_conditioning_detected():
    fld = Field(kind="float", eps=1e-9)
    with pytest.raises(IllConditionedError):
        fld.prune([(0, 1e10), (1, 1.0)])


def test_float_ill_conditioning_during_elimination():
    # eliminating against a tiny pivot scales the second column past 1/eps
    fld = Field(kind="float", eps=1e-6)
    m = [[(1, 1.0), (0, 1e-5)], [(0, 1e3)]]
    with pytest.raises(IllConditionedError):
        reduce_columns(m, fld)


# ---------------------------------------------------------------------------
# rank: the number of pivots
# ---------------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank([[], [], []]) == 0


def test_rank_identity():
    assert rank(from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_c4_boundary():
    m = boundary_1([(0, 1), (0, 3), (1, 2), (2, 3)])
    assert dense_rank_oracle(to_dense(m, 4)) == 3
    assert rank(m) == 3


def test_rank_equals_transpose_rank():
    rng = random.Random(13)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 1, -1]) for _ in range(nc)] for _ in range(nr)]
        transposed = [list(row) for row in zip(*dense)]
        assert rank(from_dense(dense)) == rank(from_dense(transposed)) == dense_rank_oracle(dense)
