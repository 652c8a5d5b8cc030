"""The sparse Laplacian operator against its dense float image.

`AssembledLaplacian @ x` sums each row from 0.0 in ascending column order.
A row with at most two nonzeros, each a power of two in magnitude, has
exact products and a single rounding whatever the order (and whether or
not the BLAS fuses multiply and add), so it must match dense `@` bit for
bit. Order-1 slices hold only the values +-1 and 2, and on the kNN clouds
at t_plus every row has at most two nonzeros. Other rows may round
differently from the BLAS, but by at most ULP_BOUND units in the last
place of the row's absolute sum, sum_j |a_ij x_j|.
"""

import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest

from conftest import reduce_columns
from localhom import formats
from localhom.complexes import build_flag_complex, graph_from_points
from localhom.errors import ContractError
from localhom.linalg import Field
from localhom.nn import FeatureBundle, diffuse, message_pass, power_iteration
from localhom.sheaf import (
    AssembledLaplacian,
    EdgeBars,
    _entry_weight,
    assemble_laplacian,
    compute_stalk,
)

ULP_BOUND = 4


def knn_cloud(n):
    return graph_from_points(np.random.default_rng(n).random((n, 2)).tolist(), knn=6)


@pytest.fixture(scope="module")
def operators(corpus, tie_free_corpus):
    """(name, Laplacian) over the corpora and kNN-6 clouds: orders 1-2,
    slices at t_plus and a middle threshold and the weighted operator,
    both carriers."""
    graphs = [(f"corpus{i}", g) for i, g in enumerate(corpus[:30])]
    graphs += [(f"tie_free{i}", g) for i, g in enumerate(tie_free_corpus[:20])]
    graphs += [(f"knn{n}", knn_cloud(n)) for n in (60, 200)]
    out = []
    for name, graph in graphs:
        filt = build_flag_complex(graph, 3)
        thresholds = filt.threshold_values()
        modes = {
            "slice t_plus": ("slice", filt.t_plus),
            "slice mid": ("slice", thresholds[len(thresholds) // 2]),
            "weighted": ("weighted",),
        }
        for fld in (Field(), Field(kind="float")):
            stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
            for k in (1, 2):
                for label, mode in modes.items():
                    lap = assemble_laplacian(filt, stalks, k, mode, fld)
                    if lap.dimension:
                        out.append((f"{name} {fld.kind} k={k} {label}", lap))
    return out


def row_nnz(lap):
    return np.bincount(lap.entries[0], minlength=lap.dimension)


def exact_rows(lap):
    """Rows with at most two nonzeros, all powers of two in magnitude."""
    rows, _, _ = lap.entries
    mantissa, _ = np.frexp(np.abs(lap.float_vals))
    odd = np.bincount(rows, weights=(mantissa != 0.5), minlength=lap.dimension)
    return (row_nnz(lap) <= 2) & (odd == 0)


def assert_rows_match(lap, got, want, x, name):
    """Exact rows equal bit for bit, all rows within ULP_BOUND."""
    dense = lap.dense
    absolute = np.abs(dense) @ np.abs(x)
    assert np.all(np.abs(got - want) <= ULP_BOUND * np.spacing(absolute)), name
    exact = exact_rows(lap)
    assert np.array_equal(got[exact], want[exact]), name


def test_operator_sample_covers_every_case(operators):
    """The sample holds rows where only the ulp bound holds, and its
    order-1 slices hold only the values +-1 and 2."""
    names = " | ".join(name for name, _ in operators)
    for part in ("corpus", "tie_free", "knn60", "knn200", "exact", "float", "k=1", "k=2",
                 "weighted", "slice"):
        assert part in names
    assert any(row_nnz(lap).max() >= 3 for _, lap in operators)
    assert any(not exact_rows(lap).all() for _, lap in operators)
    for name, lap in operators:
        if "k=1" in name and "slice" in name:
            assert set(lap.float_vals.tolist()) <= {1.0, -1.0, 2.0}, name


def test_matvec_matches_dense(operators):
    rng = np.random.default_rng(11)
    for name, lap in operators:
        for shape in ((lap.dimension,), (lap.dimension, 3)):
            x = rng.standard_normal(shape)
            assert_rows_match(lap, lap @ x, lap.dense @ x, x, name)


def test_matvec_sums_rows_in_ascending_column_order(operators):
    """The documented order, bit for bit: each row from 0.0, one product at
    a time, by ascending column."""
    rng = np.random.default_rng(13)
    for name, lap in operators:
        x = rng.standard_normal(lap.dimension)
        want = [0.0] * lap.dimension
        for i, j, a in zip(*(v.tolist() for v in lap.entries)):
            want[i] += float(a) * float(x[j])
        assert (lap @ x).tolist() == want, name


def test_order1_knn_slices_match_dense_bit_for_bit(operators):
    """Every row of the order-1 slice at t_plus on the kNN clouds has at
    most two nonzeros, so the whole product is bit-identical."""
    rng = np.random.default_rng(12)
    slices = [(name, lap) for name, lap in operators
              if name.startswith("knn") and name.endswith("k=1 slice t_plus")]
    assert len(slices) == 4  # both clouds, both carriers
    for name, lap in slices:
        assert exact_rows(lap).all(), name
        x = rng.standard_normal((lap.dimension, 2))
        assert np.array_equal(lap @ x, lap.dense @ x), name


def test_dirichlet_energy_and_message_pass_match_dense(operators):
    for name, lap in operators:
        feats = FeatureBundle.random(lap, lap.order, channels=2, seed=3)
        x = feats.stacked(lap)
        want = lap.dense @ x
        assert_rows_match(lap, message_pass(feats, lap).stacked(lap), want, x, name)
        energy = diffuse(feats, lap, None, 0)[1][0]
        assert energy == pytest.approx(float(np.sum(x * want)), rel=1e-13, abs=1e-13), name
        if exact_rows(lap).all():
            assert energy == float(np.sum(x * want)), name


def dense_diffuse(lap, x, alpha, steps):
    """Explicit Euler diffusion by dense `@`, the loop `diffuse` runs."""
    dense = lap.dense
    lx = dense @ x
    energies = [float(np.sum(x * lx))]
    for _ in range(steps):
        x = x - alpha * lx
        lx = dense @ x
        energies.append(float(np.sum(x * lx)))
    return x, energies


def test_diffuse_matches_dense(operators):
    for name, lap in operators:
        if lap.mode[0] != "slice":
            continue
        lam = power_iteration(lap)
        assert lam == pytest.approx(power_iteration(lap.dense), rel=1e-12, abs=1e-12), name
        alpha = 0.9 / lam if lam > 0 else 0.5
        feats = FeatureBundle.random(lap, lap.order, channels=2, seed=4)
        out, energies = diffuse(feats, lap, alpha, 30)
        want_x, want_energies = dense_diffuse(lap, feats.stacked(lap), alpha, 30)
        got_x = out.stacked(lap)
        if exact_rows(lap).all():
            assert np.array_equal(got_x, want_x), name
            assert energies == want_energies, name
        else:
            scale = np.abs(feats.stacked(lap)).max()
            assert np.allclose(got_x, want_x, rtol=0, atol=1e-12 * scale), name
            assert energies == pytest.approx(want_energies, rel=1e-12, abs=1e-12), name


def test_matvec_shape_mismatch_is_contract_error(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    lap = assemble_laplacian(c4_filt, stalks, 1, ("slice", 1.0))
    assert lap.shape == (4, 4)
    for bad in (np.ones(3), np.ones((5, 1)), np.ones((4, 1, 1))):
        with pytest.raises(ContractError):
            lap @ bad


def test_entries_are_sorted_coo(operators):
    for name, lap in operators:
        rows, cols, vals = lap.entries
        assert len(rows) == len(cols) == len(vals), name
        keys = list(zip(rows.tolist(), cols.tolist()))
        assert keys == sorted(set(keys)), name
        assert all(0 <= i < lap.dimension and 0 <= j < lap.dimension for i, j in keys), name
        assert vals.dtype == (object if lap.field_kind == "exact" else float), name


def exact_operators(operators):
    return [(name, lap) for name, lap in operators if lap.field_kind == "exact"]


def fraction_entries(lap):
    """The exact `entries` loop as it was, one Fraction per term: the
    reference for the integer sums. Lists of rows, cols and vals."""
    entries = {}
    for (u, v), block in lap.blocks.items():
        for atom in block.atoms:
            comps = [(lap.offsets[u] + a, c, lap.lifespans[u][a]) for a, c in atom.v_a.items()]
            comps += [(lap.offsets[v] + b, c, lap.lifespans[v][b]) for b, c in atom.v_b.items()]
            for i, ci, out_iv in comps:
                for j, cj, in_iv in comps:
                    w = _entry_weight(lap.mode, atom, out_iv, in_iv, lap.horizon)
                    if w:
                        entries[i, j] = entries.get((i, j), Fraction(0)) + ci * cj * Fraction(w)
    cells = sorted(entries)
    return [i for i, _ in cells], [j for _, j in cells], [entries[c] for c in cells]


def test_exact_entries_match_term_by_term_fraction_sums(operators):
    """Integer sums with one Fraction per cell give every value and repr,
    cells that cancel to Fraction(0) included."""
    for name, lap in exact_operators(operators):
        got = tuple(a.tolist() for a in lap.entries)
        assert repr(got) == repr(fraction_entries(lap)), name


def test_kernel_dim_exact_matches_fraction_elimination(operators):
    """The fraction-free rank equals `reduce_column`'s over the same rows,
    and the sample holds rows whose scaling to ints is not trivial."""
    scaled = 0
    for name, lap in exact_operators(operators):
        cells = zip(*(a.tolist() for a in lap.entries))
        groups = groupby(cells, key=itemgetter(0))
        rows = [[(j, x) for _, j, x in row if x][::-1] for _, row in groups]
        scaled += any(x.denominator > 1 for row in rows for _, x in row)
        _, _, pivots = reduce_columns(rows)
        assert lap.kernel_dim_exact() == lap.dimension - len(pivots), name
    assert scaled


def test_values_follow_the_carrier_and_atom_coefficients_are_rationals(operators):
    """The carrier sets only the type of `vals`: Fractions on the exact
    carrier, integral ones included, and floats on the float one. An atom
    coefficient is an int or a Fraction on both carriers."""
    for name, lap in operators:
        vals = lap.entries[2]
        if lap.field_kind == "exact":
            assert all(type(x) is Fraction for x in vals.tolist()), name
        else:
            assert vals.dtype == float, name
        for block in lap.blocks.values():
            for atom in block.atoms:
                coeffs = [*atom.v_a.values(), *atom.v_b.values()]
                assert all(type(c) in (int, Fraction) for c in coeffs), name


def dense_matrixmarket(matrix):
    """The writer as it was: the nonzeros of the dense image, row-major."""
    n, m = matrix.shape
    rows, cols = np.nonzero(matrix)
    values = matrix[rows, cols].tolist()
    lines = ["%%MatrixMarket matrix coordinate real general", f"{n} {m} {len(values)}"]
    lines += [f"{i + 1} {j + 1} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), values)]
    return "\n".join(lines) + "\n"


def test_matrixmarket_from_coo_matches_dense_writer(operators):
    for name, lap in operators:
        assert formats.laplacian_to_matrixmarket(lap) == dense_matrixmarket(lap.dense), name


def test_matrixmarket_skips_cells_that_cancel_to_zero():
    """A cell whose sum is +0.0 or -0.0 is left out, as np.nonzero does."""
    lap = AssembledLaplacian(
        order=1,
        mode=("slice", 0.0),
        lifespans={0: [(0.0, 1.0), (0.0, 1.0)], 1: [(0.0, 1.0)]},
        horizon=1.0,
        field_kind="float",
        bars=EdgeBars({}, 1),
    )
    lap.entries = (
        np.array([0, 0, 1, 2, 2], dtype=np.intp),
        np.array([0, 2, 1, 0, 2], dtype=np.intp),
        np.array([1.5, 0.0, -0.0, -2.0, math.pi]),
    )
    text = formats.laplacian_to_matrixmarket(lap)
    assert text == dense_matrixmarket(lap.dense)
    assert text.splitlines()[1:] == ["3 3 3", "1 1 1.5", "3 1 -2.0", f"3 3 {math.pi!r}"]


def test_kernel_dim_exact_drops_cells_that_cancel_to_zero():
    """A cell whose exact sum cancelled to 0 is no pivot: L = 2I with two
    stored zeros off the diagonal has rank 2, so an empty kernel. Rows over
    denominators 3 and 6 are each scaled to ints by their own lcm:
    [[2/3, 4/3], [1/6, 1/3]] has rank 1, so a 1-dim kernel, though its
    numerators alone would have rank 2."""
    def lap_of(cells):
        lap = AssembledLaplacian(
            order=1,
            mode=("slice", 0.0),
            lifespans={0: [(0.0, 1.0)], 1: [(0.0, 1.0)]},
            horizon=1.0,
            field_kind="exact",
            bars=EdgeBars({}, 1),
        )
        lap.entries = (
            np.array([i for i, _, _ in cells], dtype=np.intp),
            np.array([j for _, j, _ in cells], dtype=np.intp),
            np.array([x for _, _, x in cells], dtype=object),
        )
        return lap

    f = Fraction
    assert lap_of([(0, 0, f(2)), (0, 1, f(0)), (1, 0, f(0)), (1, 1, f(2))]).kernel_dim_exact() == 0
    thirds_sixths = [(0, 0, f(2, 3)), (0, 1, f(4, 3)), (1, 0, f(1, 6)), (1, 1, f(1, 3))]
    assert lap_of(thirds_sixths).kernel_dim_exact() == 1
