"""Sparse column reduction, field carriers and rank."""

import math
import random
from fractions import Fraction

import pytest

from localhom.errors import ContractError, IllConditionedError
from localhom.linalg import Field, SparseColumnMatrix, rank, reduce


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


def to_dense(m):
    """Row lists of a sparse column matrix, zeros in the carrier's scalars."""
    zero = m.field.coerce(0)
    dense = [[zero] * m.col_count for _ in range(m.row_count)]
    for j, col in enumerate(m.cols):
        for r, c in col:
            dense[r][j] = c
    return dense


def from_dense(dense, field=Field()):
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    entries = [
        (i, j, dense[i][j]) for i in range(nr) for j in range(nc) if dense[i][j]
    ]
    return SparseColumnMatrix.from_entries(nr, nc, entries, field=field)


def matmul_dense(m, v):
    md, vd = to_dense(m), to_dense(v)
    out = [[sum(md[i][k] * vd[k][j] for k in range(len(vd))) for j in range(len(vd[0]))] for i in range(len(md))]
    return out


def boundary_1(edges, n_vertices, field=Field()):
    entries = []
    for j, (u, v) in enumerate(edges):
        entries.append((u, j, -1))
        entries.append((v, j, 1))
    return SparseColumnMatrix.from_entries(n_vertices, len(edges), entries, field=field)


# ---------------------------------------------------------------------------
# carriers and construction checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, eps",
    [("float", 0.0), ("float", -1.0), ("float", math.inf), ("float", math.nan),
     ("float", 1.0), ("float", 2.0), ("exact", 0.0), ("complex", 1e-9)],
)
def test_field_rejects_bad_kind_or_eps(kind, eps):
    with pytest.raises(ContractError):
        Field(kind=kind, eps=eps)


@pytest.mark.parametrize(
    "entries",
    [
        [(0, 0, 1), (0, 0, 2)],  # duplicate (row, col)
        [(2, 0, 1)],  # row past row_count
        [(-1, 0, 1)],  # negative row
        [(0, 1, 1)],  # column past col_count
        [(0, -1, 1)],  # negative column
    ],
)
def test_from_entries_rejects_bad_entries(entries):
    with pytest.raises(ContractError):
        SparseColumnMatrix.from_entries(2, 1, entries)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_identity():
    m = from_dense([[1, 0], [0, 1]])
    red = reduce(m)
    assert to_dense(red.R) == to_dense(m)
    assert to_dense(red.V) == [[1, 0], [0, 1]]
    assert red.pivots == {0: 0, 1: 1}


def test_reduce_single_edge_boundary():
    m = boundary_1([(0, 1)], 2)
    red = reduce(m)
    assert to_dense(red.R) == to_dense(m)
    assert to_dense(red.V) == [[1]]
    assert list(red.pivots) == [1]  # pivot at the larger-index vertex row


def test_reduce_triangle_boundary_finds_the_cycle():
    edges = [(0, 1), (0, 2), (1, 2)]
    m = boundary_1(edges, 3)
    assert dense_rank_oracle(to_dense(m)) == 2
    red = reduce(m)
    assert len(red.pivots) == 2
    zero_cols = [j for j in range(3) if not red.R.cols[j]]
    assert len(zero_cols) == 1
    cycle = {r: c for r, c in red.V.cols[zero_cols[0]]}
    assert len(cycle) == 3 and all(abs(c) == 1 for c in cycle.values())
    dense = to_dense(m)
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
        red = reduce(m)
        assert matmul_dense(m, red.V) == to_dense(red.R)
        # distinct pivots
        lows = [col[-1][0] for col in red.R.cols if col]
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
        m = from_dense(dense, field=fld)
        red = reduce(m)
        mv = matmul_dense(m, red.V)
        rd = to_dense(red.R)
        max_mag = max((abs(x) for row in dense for x in row), default=1.0)
        for i in range(nr):
            for j in range(nc):
                assert abs(mv[i][j] - rd[i][j]) <= 8 * fld.eps * max(max_mag, 1.0)


def test_pivot_parity_exact_vs_float():
    rng = random.Random(3)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        dense = [
            [rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(nc)] for _ in range(nr)
        ]
        exact = reduce(from_dense(dense))
        fl = reduce(from_dense([[float(x) for x in row] for row in dense], Field(kind="float")))
        assert exact.pivots == fl.pivots


def test_v_invertible_by_solving():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3)]
    red = reduce(boundary_1(edges, 4))
    for j, col in enumerate(red.V.cols):
        assert col and all(r <= j for r, _ in col)
        assert col[-1][0] == j and col[-1][1] != 0


def test_float_ill_conditioning_detected():
    fld = Field(kind="float", eps=1e-9)
    with pytest.raises(IllConditionedError):
        SparseColumnMatrix.from_entries(2, 1, [(0, 0, 1e10), (1, 0, 1.0)], field=fld)


def test_float_ill_conditioning_during_elimination():
    # eliminating against a tiny pivot scales the second column past 1/eps
    fld = Field(kind="float", eps=1e-6)
    m = SparseColumnMatrix.from_entries(
        2, 2, [(0, 0, 1.0), (1, 0, 1e-5), (1, 1, 1e3)], field=fld
    )
    with pytest.raises(IllConditionedError):
        reduce(m)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_zero_matrix():
    assert rank(SparseColumnMatrix(3, 3, [[], [], []], Field())) == 0


def test_rank_identity():
    assert rank(from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_c4_boundary():
    m = boundary_1([(0, 1), (0, 3), (1, 2), (2, 3)], 4)
    assert dense_rank_oracle(to_dense(m)) == 3
    assert rank(m) == 3


def test_rank_equals_transpose_rank():
    rng = random.Random(13)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice([0, 0, 1, -1]) for _ in range(nc)] for _ in range(nr)]
        m = from_dense(dense)
        transposed = from_dense([list(row) for row in zip(*dense)])
        assert rank(m) == rank(transposed) == dense_rank_oracle(dense)
