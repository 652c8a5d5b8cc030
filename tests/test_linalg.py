"""The column reduction step and the quotient rule, over plain column lists."""

import random
from fractions import Fraction

import pytest

from conftest import reduce_columns
from localhom.errors import ContractError
from localhom.linalg import Field, divide


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


def from_dense(dense):
    """Sparse columns of a row-list matrix, by decreasing row, zeros dropped."""
    nc = len(dense[0]) if dense else 0
    rows = list(enumerate(dense))[::-1]
    return [[(i, row[j]) for i, row in rows if row[j]] for j in range(nc)]


def to_dense(cols, row_count):
    """Row lists of sparse columns."""
    dense = [[0] * len(cols) for _ in range(row_count)]
    for j, col in enumerate(cols):
        for r, c in col:
            dense[r][j] = c
    return dense


def matmul_dense(cols, row_count, vcols):
    """M @ V as row lists: column j is the sum of V[i, j] * M[:, i]."""
    out = [[0] * len(vcols) for _ in range(row_count)]
    for j, vcol in enumerate(vcols):
        for i, x in vcol:
            for r, c in cols[i]:
                out[r][j] += c * x
    return out


def boundary_1(edges):
    """Columns of the vertex-edge boundary matrix: +1 at v, -1 at u < v."""
    return [[(v, 1), (u, -1)] for u, v in edges]


def rank(cols):
    return len(reduce_columns(cols)[2])


# ---------------------------------------------------------------------------
# carriers and the quotient rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["complex", "Float", "", None])
def test_field_rejects_bad_kind(kind):
    with pytest.raises(ContractError):
        Field(kind=kind)


def test_divide_is_an_int_when_exact_else_a_fraction():
    """`divide` gives an int whenever the quotient is integral, also from
    Fraction operands, and a Fraction otherwise; never a float."""
    cases = [
        (6, 3, 2), (-6, 3, -2), (6, -4, Fraction(-3, 2)), (1, 2, Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 2), 3), (Fraction(1, 2), 3, Fraction(1, 6)),
        (4, Fraction(2, 3), 6), (Fraction(4), 2, 2),
    ]
    for x, y, want in cases:
        got = divide(x, y)
        assert got == want and type(got) is type(want), (x, y, got)


# ---------------------------------------------------------------------------
# reduce_column, looped by conftest.reduce_columns
# ---------------------------------------------------------------------------


def test_reduce_identity():
    m = from_dense([[1, 0], [0, 1]])
    rcols, vcols, pivots = reduce_columns(m)
    assert rcols == m
    assert to_dense(vcols, 2) == [[1, 0], [0, 1]]
    assert pivots == {0: 0, 1: 1}


def test_reduce_single_edge_boundary():
    m = boundary_1([(0, 1)])
    rcols, vcols, pivots = reduce_columns(m)
    assert rcols == m
    assert to_dense(vcols, 1) == [[1]]
    assert list(pivots) == [0]  # pivot at the smaller-index vertex row


def test_reduce_triangle_boundary_finds_the_cycle():
    m = boundary_1([(0, 1), (0, 2), (1, 2)])
    dense = to_dense(m, 3)
    assert dense_rank_oracle(dense) == 2
    rcols, vcols, pivots = reduce_columns(m)
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
        rcols, vcols, _ = reduce_columns(m)
        assert matmul_dense(m, nr, vcols) == to_dense(rcols, nr)
        # distinct pivots
        lows = [col[-1][0] for col in rcols if col]
        assert len(lows) == len(set(lows))


def test_v_invertible_by_solving():
    edges = [(0, 1), (0, 2), (1, 2), (0, 3)]
    _, vcols, _ = reduce_columns(boundary_1(edges))
    for j, col in enumerate(vcols):
        assert col and all(r <= j for r, _ in col)
        assert col[0][0] == j and col[0][1] != 0


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
