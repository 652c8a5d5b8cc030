"""Diffusion, the sign-equivariant layer, hypernetwork and gradients."""

import itertools
import math

import numpy as np
import pytest

from conftest import sign_equivariant_jvp
from localhom import oracle
from localhom.complexes import build_flag_complex, graph_from_points
from localhom.errors import ContractError
from localhom.nn import (
    FeatureBundle,
    MLPParams,
    diffuse,
    filtration_gradient,
    hypernet_weights,
    message_pass,
    mlp_forward,
    node_gain_network,
    power_iteration,
    sign_equivariant_layer,
)
from localhom.persistence import persistent_cohomology
from localhom.sheaf import assemble_laplacian, compute_stalk


def c4_laplacian(c4_filt, t=1.0):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    return assemble_laplacian(c4_filt, stalks, 1, ("slice", t)), stalks


def energy(features, lap):
    """x^T L x summed over channels: the first entry of `diffuse`'s trace."""
    return diffuse(features, lap, None, 0)[1][0]


# ---------------------------------------------------------------------------
# Dirichlet energy and diffusion
# ---------------------------------------------------------------------------


def test_energy_zero_on_kernel_and_zero_features(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    w, vecs = np.linalg.eigh(lap.dense)
    kernel = FeatureBundle.from_stacked(lap, vecs[:, :1], 1)
    assert abs(energy(kernel, lap)) < 1e-12
    zero = FeatureBundle.from_stacked(lap, np.zeros((4, 1)), 1)
    assert energy(zero, lap) == 0.0


def test_energy_positive_on_indicator(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    x = np.zeros((4, 1))
    x[0, 0] = 1.0
    ind = FeatureBundle.from_stacked(lap, x, 1)
    assert energy(ind, lap) == pytest.approx(lap.dense[0, 0])
    assert energy(ind, lap) > 0.0


def test_energy_dimension_mismatch(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    bad = FeatureBundle(order=1, channels=1, values={0: np.zeros((3, 1))})
    with pytest.raises(ContractError):
        bad.stacked(lap)


@pytest.mark.parametrize(
    "order, values",
    [
        (1, {0: np.zeros(())}),
        (1, {0: np.ones((1, 1, 1))}),
        (1, {9: np.zeros((0, 1))}),
        (2, {v: np.ones((1, 1)) for v in range(4)}),
    ],
    ids=["0d_array", "3d_array", "vertex_not_in_laplacian", "order_mismatch"],
)
def test_malformed_bundle_is_contract_error(order, values, c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    with pytest.raises(ContractError):
        FeatureBundle(order=order, channels=1, values=values).stacked(lap)


def test_bundle_leaves_the_callers_values_alone():
    values = {0: [1.0, 2.0]}
    bundle = FeatureBundle(order=1, channels=1, values=values)
    assert bundle.values[0].shape == (2, 1)
    assert type(values[0]) is list and values[0] == [1.0, 2.0]


def test_non_finite_bundle_names_its_first_vertex():
    values = {0: np.ones((2, 1)), 1: np.array([[0.0], [math.nan]]), 2: np.array([[math.inf]])}
    with pytest.raises(ContractError, match="vertex 1: non-finite"):
        FeatureBundle(order=1, channels=1, values=values)


def cloud_laplacian():
    """Order-1 slice on a 40-point kNN-6 cloud, whose stalk dimensions run 0..3."""
    points = np.random.default_rng(40).random((40, 2)).tolist()
    filt = build_flag_complex(graph_from_points(points, knn=6), 2)
    stalks = {v: compute_stalk(filt, v, 1) for v in range(filt.vertex_count)}
    return assemble_laplacian(filt, stalks, 1, ("slice", filt.t_plus))


@pytest.mark.parametrize("channels", [1, 3, 4])
def test_random_bundle_is_the_per_vertex_draw(channels):
    """One stacked draw equals drawing each vertex's block in turn from the
    same stream."""
    lap = cloud_laplacian()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        want = {v: rng.standard_normal((lap.dims[v], channels)) for v in lap.vertices}
        got = FeatureBundle.random(lap, 1, channels=channels, seed=seed).values
        assert list(got) == list(want)
        assert all(np.array_equal(got[v], want[v]) for v in want), seed


def test_bundle_arrays_are_views_of_one_array():
    """`random` and `from_stacked` hold every vertex's rows as a view of one
    stacked array; `from_stacked` copies its input once and keeps no view of it."""
    lap = cloud_laplacian()
    x = np.arange(2.0 * lap.dimension).reshape(lap.dimension, 2)
    for bundle in (FeatureBundle.random(lap, 1, channels=2, seed=1),
                   FeatureBundle.from_stacked(lap, x, 1)):
        arrays = list(bundle.values.values())
        base = arrays[0].base
        assert base is not None and all(arr.base is base for arr in arrays)
        assert base.shape == (lap.dimension, 2) and not np.shares_memory(base, x)
    stacked = FeatureBundle.from_stacked(lap, x, 1).stacked(lap)
    assert np.array_equal(stacked, x)


def test_diffuse_kernel_fixed_point(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    w, vecs = np.linalg.eigh(lap.dense)
    kernel = FeatureBundle.from_stacked(lap, vecs[:, :1], 1)
    out, energies = diffuse(kernel, lap, 0.3, 50)
    assert np.allclose(out.stacked(lap), kernel.stacked(lap), atol=1e-12)


def test_diffuse_c4_converges_to_kernel(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    feats = FeatureBundle.random(lap, 1, seed=3)
    out, energies = diffuse(feats, lap, 0.3, 500)
    x = out.stacked(lap)
    assert np.linalg.norm(lap.dense @ x) < 1e-6
    assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
    # limit spans the one-dimensional kernel
    w, vecs = np.linalg.eigh(lap.dense)
    kernel_vec = vecs[:, 0]
    coef = kernel_vec @ x[:, 0]
    assert np.allclose(x[:, 0], coef * kernel_vec, atol=1e-8)


def test_diffuse_two_cycles_limit_space_dimension(two_c4_filt):
    stalks = {v: compute_stalk(two_c4_filt, v, 1) for v in range(8)}
    lap = assemble_laplacian(two_c4_filt, stalks, 1, ("slice", 1.0))
    feats = FeatureBundle.random(lap, 1, channels=4, seed=9)
    out, _ = diffuse(feats, lap, 0.3, 800)
    limits = out.stacked(lap)
    rank = np.linalg.matrix_rank(limits, tol=1e-8)
    assert rank == 2 == oracle.betti_dense(two_c4_filt, 1.0, 1)


def test_diffuse_alpha_out_of_range(c4_filt):
    lap, _ = c4_laplacian(c4_filt)
    feats = FeatureBundle.random(lap, 1, seed=0)
    lam = power_iteration(lap.dense)
    for alpha in (0.0, -0.1, 2.0 / lam + 0.01):
        with pytest.raises(ContractError):
            diffuse(feats, lap, alpha, 5)


@pytest.mark.parametrize("t, expected_alpha", [(1.0, None), (0.0, 0.5)])
def test_diffuse_default_alpha(c4_filt, t, expected_alpha):
    """alpha=None steps at 0.9 / lambda_max, or 0.5 on the zero operator."""
    lap, _ = c4_laplacian(c4_filt, t)
    feats = FeatureBundle.random(lap, 1, seed=0)
    lam = power_iteration(lap.dense)
    alpha = 0.9 / lam if expected_alpha is None else expected_alpha
    assert (lam == 0.0) == (expected_alpha is not None)
    out, energies = diffuse(feats, lap, None, 20)
    out_explicit, energies_explicit = diffuse(feats, lap, alpha, 20)
    assert energies == energies_explicit
    for v in out.values:
        assert np.array_equal(out.values[v], out_explicit.values[v])


# ---------------------------------------------------------------------------
# sign-equivariant layer
# ---------------------------------------------------------------------------


def test_layer_zero_input():
    rho = MLPParams.init([3, 5, 3], seed=0)
    assert np.array_equal(sign_equivariant_layer(np.zeros(3), rho), np.zeros(3))


def test_layer_identity_when_rho_is_one():
    rho = MLPParams(weights=[np.zeros((3, 3))], biases=[np.ones(3)])
    x = np.array([0.4, -2.0, 1.5])
    assert np.array_equal(sign_equivariant_layer(x, rho), x)


def test_layer_odd_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = MLPParams.init([4, 6, 4], seed=int(rng.integers(1000)))
        x = rng.standard_normal(4)
        assert np.allclose(
            sign_equivariant_layer(-x, rho), -sign_equivariant_layer(x, rho)
        )


def test_layer_equivariance_all_sign_patterns():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3, 5, 8):
        rho = MLPParams.init([dim, 7, dim], seed=dim)
        x = rng.standard_normal(dim)
        base = sign_equivariant_layer(x, rho)
        for signs in itertools.product((-1.0, 1.0), repeat=dim):
            d = np.array(signs)
            assert np.allclose(
                sign_equivariant_layer(d * x, rho), d * base, atol=1e-12
            )


def test_layer_shape_mismatch():
    rho = MLPParams.init([3, 3], seed=0)
    with pytest.raises(ContractError):
        sign_equivariant_layer(np.zeros(4), rho)


# ---------------------------------------------------------------------------
# hypernetwork
# ---------------------------------------------------------------------------


def test_hypernet_zero_psi(square_filt):
    stalk = compute_stalk(square_filt, 0, 1)
    psi = MLPParams(weights=[np.zeros((1, 6))], biases=[np.zeros(1)])
    assert np.array_equal(hypernet_weights(stalk, psi), np.zeros((1, 1)))


class _FixedStalk:
    def descriptors(self):
        return [(1, 0.0, 1.0), (2, 0.0, 1.0)]


def test_hypernet_closed_form_sum():
    """A one-layer Psi reading k_i + k_j on descriptors (1,.,.),(2,.,.)."""
    psi = MLPParams(weights=[np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])], biases=[np.zeros(1)])
    w = hypernet_weights(_FixedStalk(), psi)
    assert np.array_equal(w, np.array([[2.0, 3.0], [3.0, 4.0]]))


def test_hypernet_rejects_callable_psi():
    with pytest.raises(ContractError):
        hypernet_weights(_FixedStalk(), lambda k1, s1, t1, k2, s2, t2: k1 * k2)


def test_hypernet_identical_descriptors_share_weights(c4_filt):
    psi = MLPParams.init([6, 16, 16, 1], seed=11)
    stalks = [compute_stalk(c4_filt, v, 1) for v in range(4)]
    mats = [hypernet_weights(s, psi) for s in stalks]
    for m in mats[1:]:
        assert np.array_equal(m, mats[0])


def test_hypernet_permutation_locality():
    """Permuting the cocycle order permutes W's rows and columns alike."""

    class FakeStalk:
        def __init__(self, desc):
            self._desc = desc

        def descriptors(self):
            return self._desc

    psi = MLPParams.init([6, 8, 1], seed=3)
    desc = [(1, 0.0, 1.0), (1, 0.5, 2.0), (2, 1.0, 3.0)]
    w = hypernet_weights(FakeStalk(desc), psi)
    perm = [2, 0, 1]
    w_perm = hypernet_weights(FakeStalk([desc[i] for i in perm]), psi)
    assert np.allclose(w_perm, w[np.ix_(perm, perm)])


def test_hypernet_matches_the_per_pair_loop(corpus):
    """The one batched Psi call equals Psi on each descriptor pair, the
    loop it replaced, up to the rounding of another summation order."""
    psi = MLPParams.init([6, 8, 1], seed=27)
    for graph in corpus[:20]:
        filt = build_flag_complex(graph, 3)
        for v in range(filt.vertex_count):
            stalk = compute_stalk(filt, v, 2)
            desc = stalk.descriptors()
            want = np.zeros((len(desc), len(desc)))
            for i, a in enumerate(desc):
                for j, b in enumerate(desc):
                    want[i, j] = mlp_forward(psi, np.array(a + b, dtype=float)).item()
            got = hypernet_weights(stalk, psi)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps), v


def test_hypernet_empty_stalk(k3_filt):
    stalk = compute_stalk(k3_filt, 0, 2)
    psi = MLPParams.init([6, 8, 1], seed=0)
    assert hypernet_weights(stalk, psi).shape == (0, 0)


def test_hypernet_input_validation(square_filt):
    stalk = compute_stalk(square_filt, 0, 1)
    with pytest.raises(ContractError):
        hypernet_weights(stalk, MLPParams.init([5, 1], seed=0))


# ---------------------------------------------------------------------------
# filtration gradients
# ---------------------------------------------------------------------------


def test_square_h1_gradients(square_filt):
    d = persistent_cohomology(square_filt, 1)
    pair = next(c for c in d.classes if c.order == 1)
    grad = filtration_gradient(square_filt, pair)
    # birth simplex is the tie-broken last unit side (2,3); death simplex is
    # the first sqrt2 triangle (0,1,2) whose max edge is the diagonal (0,2)
    assert grad.birth == {(2, 3): 1.0}
    assert grad.death == {(0, 2): 1.0}


def test_vertex_born_class_zero_birth_gradient(square_filt):
    d = persistent_cohomology(square_filt, 1)
    k0 = next(c for c in d.classes if c.order == 0 and not c.essential)
    grad = filtration_gradient(square_filt, k0)
    assert grad.birth == {}
    assert grad.death  # killed by an edge: its own weight is the argmax


def test_essential_death_gradient_signal(square_filt):
    d = persistent_cohomology(square_filt, 1)
    essential = next(c for c in d.classes if c.essential)
    grad = filtration_gradient(square_filt, essential)
    assert grad.essential and grad.death is None


def finite_difference_birth_death(graph, edge, k, match, step=1e-5):
    """Central differences of (birth, death) of the matched class."""
    from localhom.complexes import WeightedGraph

    out = []
    for sign in (+1.0, -1.0):
        edges = tuple(
            (u, v, w + sign * step if (u, v) == edge else w) for u, v, w in graph.edges
        )
        filt = build_flag_complex(WeightedGraph(graph.vertex_count, edges), 3)
        d = persistent_cohomology(filt, k)
        found = [
            c
            for c in d.classes
            if c.order == k
            and filt.simplices[c.birth_index] == match[0]
            and (c.death_index is None or filt.simplices[c.death_index] == match[1])
        ]
        assert len(found) == 1
        out.append((found[0].birth, found[0].death))
    db = (out[0][0] - out[1][0]) / (2 * step)
    dd = (out[0][1] - out[1][1]) / (2 * step)
    return db, dd


def test_gradient_matches_finite_differences_tie_free_square():
    """Perturbed square with all-distinct weights: slopes are exactly 0/1."""
    from localhom.complexes import WeightedGraph

    graph = WeightedGraph(
        4,
        (
            (0, 1, 1.0),
            (1, 2, 1.01),
            (2, 3, 1.02),
            (0, 3, 1.03),
            (0, 2, 1.5),
            (1, 3, 1.51),
        ),
    )
    filt = build_flag_complex(graph, 3)
    d = persistent_cohomology(filt, 1)
    pair = next(c for c in d.classes if c.order == 1)
    grad = filtration_gradient(filt, pair)
    assert grad.birth == {(0, 3): 1.0}
    assert grad.death == {(0, 2): 1.0}
    match = (filt.simplices[pair.birth_index], filt.simplices[pair.death_index])
    db, dd = finite_difference_birth_death(graph, (0, 3), 1, match)
    assert db == pytest.approx(1.0, rel=1e-6) and dd == pytest.approx(0.0, abs=1e-6)
    db, dd = finite_difference_birth_death(graph, (0, 2), 1, match)
    assert db == pytest.approx(0.0, abs=1e-6) and dd == pytest.approx(1.0, rel=1e-6)
    # non-critical edge moves nothing
    db, dd = finite_difference_birth_death(graph, (0, 1), 1, match)
    assert db == pytest.approx(0.0, abs=1e-6) and dd == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# message passing
# ---------------------------------------------------------------------------


def test_message_pass_empty_stalks(k3_filt):
    stalks = {v: compute_stalk(k3_filt, v, 2) for v in range(3)}
    lap = assemble_laplacian(k3_filt, stalks, 1, ("weighted",))
    feats = FeatureBundle(order=1, channels=1, values={v: np.zeros((0, 1)) for v in range(3)})
    out = message_pass(feats, lap)
    assert all(arr.shape == (0, 1) for arr in out.values.values())


def test_message_pass_c4_matches_explicit_multiply(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    weighted = assemble_laplacian(c4_filt, stalks, 1, ("weighted",))
    feats = FeatureBundle(
        order=1, channels=1, values={v: np.ones((1, 1)) for v in range(4)}
    )
    out = message_pass(feats, weighted)
    explicit = weighted.dense @ feats.stacked(weighted)
    assert np.array_equal(out.stacked(weighted), explicit)
    # unit weights: the weighted operator coincides with the slice at t=1
    sliced = assemble_laplacian(c4_filt, stalks, 1, ("slice", 1.0))
    assert np.allclose(weighted.dense, sliced.dense)


def test_message_pass_channel_independence(c4_filt):
    stalks = {v: compute_stalk(c4_filt, v, 1) for v in range(4)}
    lap = assemble_laplacian(c4_filt, stalks, 1, ("weighted",))
    single = FeatureBundle.random(lap, 1, channels=1, seed=5)
    double = FeatureBundle(
        order=1,
        channels=2,
        values={v: np.hstack([arr, arr]) for v, arr in single.values.items()},
    )
    out = message_pass(double, lap)
    for arr in out.values.values():
        assert np.array_equal(arr[:, 0], arr[:, 1])


# ---------------------------------------------------------------------------
# layer JVP
# ---------------------------------------------------------------------------


def test_hypernet_layer_jvp_matches_forward_perturbation(square_filt):
    stalk = compute_stalk(square_filt, 0, 1)
    psi = MLPParams.init([6, 16, 16, 1], seed=13)
    rho = node_gain_network(stalk, psi)
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.standard_normal(1) + 0.5
        dx = rng.standard_normal(1)
        analytic = sign_equivariant_jvp(x, dx, rho)
        eps = 1e-6
        numeric = (
            sign_equivariant_layer(x + eps * dx, rho)
            - sign_equivariant_layer(x - eps * dx, rho)
        ) / (2 * eps)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
