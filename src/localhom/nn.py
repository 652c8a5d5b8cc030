"""Sheaf diffusion, the sign-equivariant layer and filtration gradients.

Everything here is a forward pass (plus exact/numeric derivatives);
training loops and optimizers live outside the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import Filtration
from .errors import ContractError
from .persistence import PersistentCocycle
from .sheaf import AssembledLaplacian, LocalStalk

POWER_ITERATIONS = 200


@dataclass
class FeatureBundle:
    """Per-vertex feature vectors indexed by order-k stalk cocycles.

    values[v] has shape (stalk_dim(v), channels); channels are independent
    copies of the stalk vector space. `from_stacked` copies its array once,
    and `random` draws one, the stream of a vertex-by-vertex draw; either
    way every values[v] is a view of one (dimension, channels) array.
    """

    order: int
    channels: int
    values: dict[int, np.ndarray]

    def __post_init__(self):
        checked = {}
        for v, arr in self.values.items():
            arr = np.asarray(arr, dtype=float)
            if arr.ndim not in (1, 2):
                raise ContractError(f"vertex {v}: feature array is {arr.ndim}-d, not 1-d or 2-d")
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.shape[1] != self.channels:
                raise ContractError(f"vertex {v}: expected {self.channels} channels")
            checked[v] = arr
        self.values = checked
        if checked and not np.isfinite(np.concatenate(list(checked.values()))).all():
            v = next(v for v, arr in checked.items() if not np.isfinite(arr).all())
            raise ContractError(f"vertex {v}: non-finite feature entries")

    def stacked(self, laplacian: AssembledLaplacian) -> np.ndarray:
        """Concatenate vertex vectors in the Laplacian's layout.

        The bundle's order must be the Laplacian's, and each of its vertices
        one of the Laplacian's.
        """
        if self.order != laplacian.order:
            raise ContractError(
                f"feature order {self.order} != Laplacian order {laplacian.order}"
            )
        x = np.zeros((laplacian.dimension, self.channels))
        for v, arr in self.values.items():
            if v not in laplacian.dims:
                raise ContractError(f"vertex {v} is not in the Laplacian")
            dim = laplacian.dims[v]
            if arr.shape[0] != dim:
                raise ContractError(
                    f"vertex {v}: feature dim {arr.shape[0]} != stalk dim {dim}"
                )
            off = laplacian.offsets[v]
            x[off : off + dim] = arr
        return x

    @classmethod
    def from_stacked(cls, laplacian: AssembledLaplacian, x: np.ndarray, order: int):
        channels = x.shape[1] if x.ndim == 2 else 1
        x = np.array(x, dtype=float).reshape(laplacian.dimension, channels)
        offsets, dims = laplacian.offsets, laplacian.dims
        values = {v: x[offsets[v] : offsets[v] + dims[v]] for v in laplacian.vertices}
        return cls(order=order, channels=channels, values=values)

    @classmethod
    def random(cls, laplacian: AssembledLaplacian, order, channels=1, seed=0):
        x = np.random.default_rng(seed).standard_normal((laplacian.dimension, channels))
        return cls.from_stacked(laplacian, x, order)


def power_iteration(matrix) -> float:
    """Largest-magnitude eigenvalue estimate after `POWER_ITERATIONS` steps
    from a deterministic start vector.

    `matrix` is any square operator with `@` and `.shape`: an ndarray or
    an `AssembledLaplacian`, which multiplies sparsely.
    """
    n = matrix.shape[0]
    if n == 0:
        return 0.0
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = matrix @ v
    for _ in range(POWER_ITERATIONS):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matrix @ v  # gives lambda now and is the next iteration's product
        lam = float(v @ w)
    return lam


def diffuse(
    features: FeatureBundle,
    laplacian: AssembledLaplacian,
    alpha: float | None,
    steps: int,
) -> tuple[FeatureBundle, list[float]]:
    """Explicit Euler diffusion x <- x - alpha * Delta x.

    Requires 0 < alpha < 2 / lambda_max (power-iteration estimate), which
    makes the Dirichlet energy non-increasing; the iterates converge to
    the projection of x onto ker Delta. alpha=None takes 0.9 / lambda_max,
    or 0.5 when lambda_max is 0. Returns (features, energy trace with one
    entry per step including the initial energy).
    """
    lam = power_iteration(laplacian)
    if alpha is None:
        alpha = 0.9 / lam if lam > 0 else 0.5
    limit = 2.0 / lam if lam > 0 else math.inf
    if not (0.0 < alpha < limit):
        raise ContractError(f"alpha={alpha} outside (0, 2/lambda_max={limit:.6g})")
    x = features.stacked(laplacian)
    lx = laplacian @ x
    energies = [float((x * lx).sum())]
    for _ in range(steps):
        x = x - alpha * lx
        lx = laplacian @ x
        energies.append(float((x * lx).sum()))
    return FeatureBundle.from_stacked(laplacian, x, features.order), energies


@dataclass
class MLPParams:
    """Dense MLP with tanh between layers and a linear last layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, widths: list[int], seed: int = 0) -> "MLPParams":
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(weights=weights, biases=biases)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]


def mlp_forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    """The MLP on a vector, or on each column of an (in_dim, m) batch."""
    h = np.asarray(x, dtype=float)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ h + (b[:, None] if h.ndim == 2 else b)
        if i < last:
            h = np.tanh(h)
    return h


def sign_equivariant_layer(x: np.ndarray, rho: MLPParams) -> np.ndarray:
    """psi(x) = x * rho(|x|); satisfies psi(Dx) = D psi(x) for diagonal +-1 D."""
    x = np.asarray(x, dtype=float)
    if rho.in_dim != x.shape[0] or rho.out_dim != x.shape[0]:
        raise ContractError(
            f"rho maps {rho.in_dim}->{rho.out_dim}, need {x.shape[0]}->{x.shape[0]}"
        )
    return x * mlp_forward(rho, np.abs(x))


def hypernet_weights(stalk: LocalStalk, psi: MLPParams) -> np.ndarray:
    """Per-node weight matrix W[i,j] = Psi(k_i, s_i, t_i, k_j, s_j, t_j).

    Psi is an MLPParams with 6 inputs and 1 output. W depends only on the
    stalk's cocycle descriptors, so nodes with identical descriptor lists
    share weights; an empty stalk yields a 0x0 matrix. Psi runs once, on
    the n^2 descriptor pairs as the columns of one batch, (i, j) row-major;
    each entry equals Psi on its own pair up to rounding, since the matrix
    product may sum in another order.
    """
    if not isinstance(psi, MLPParams) or psi.in_dim != 6 or psi.out_dim != 1:
        raise ContractError("Psi must be an MLPParams mapping 6 descriptor inputs to 1 output")
    desc = np.array(stalk.descriptors(), dtype=float).reshape(-1, 3)
    n = len(desc)
    pairs = np.hstack([np.repeat(desc, n, axis=0), np.tile(desc, (n, 1))])
    return mlp_forward(psi, pairs.T).reshape(n, n)


def node_gain_network(stalk: LocalStalk, psi: MLPParams) -> MLPParams:
    """The stalk's rho as the single linear layer produced by the hypernetwork."""
    w = hypernet_weights(stalk, psi)
    return MLPParams(weights=[w], biases=[np.zeros(w.shape[0])])


@dataclass(frozen=True)
class FiltrationGradient:
    """Sparse d(birth)/d(weights) and d(death)/d(weights) of one cocycle.

    death is None for essential classes (querying it is the explicit
    "essential" signal). Keys are undirected edges (u, v) with u < v.
    """

    birth: dict[tuple[int, int], float]
    death: dict[tuple[int, int], float] | None

    @property
    def essential(self) -> bool:
        return self.death is None


def _critical_edge(filtration: Filtration, sid: int) -> tuple[int, int] | None:
    """Max-weight edge of a simplex; lexicographic tie-break; None for vertices."""
    simplex = filtration.simplices[sid]
    if len(simplex) < 2:
        return None
    best = None
    best_w = -math.inf
    for i in range(len(simplex)):
        for j in range(i + 1, len(simplex)):
            e = (simplex[i], simplex[j])
            w = filtration.values[filtration.id_of(e)]
            if w > best_w or (w == best_w and e < best):
                best, best_w = e, w
    return best


def filtration_gradient(
    filtration: Filtration, cocycle: PersistentCocycle
) -> FiltrationGradient:
    """Route d(birth)/dw and d(death)/dw to the critical edges.

    A simplex's filtration value is the max of its edge weights, so the
    subgradient is the indicator of the argmax edge (under the
    deterministic tie-break); vertex values are constant 0.
    """
    birth_edge = _critical_edge(filtration, cocycle.birth_index)
    birth = {} if birth_edge is None else {birth_edge: 1.0}
    if cocycle.essential:
        return FiltrationGradient(birth=birth, death=None)
    death_edge = _critical_edge(filtration, cocycle.death_index)
    death = {} if death_edge is None else {death_edge: 1.0}
    return FiltrationGradient(birth=birth, death=death)


def message_pass(
    features: FeatureBundle, laplacian: AssembledLaplacian
) -> FeatureBundle:
    """Apply the assembled (typically lifespan-weighted) Laplacian channelwise.

    This is the embed / apply / project message passing: features embed
    into the persistent module, the sheaf Laplacian acts per time step,
    and lifespan averaging projects back; the weighted assembly implements
    the composition in closed form.
    """
    x = features.stacked(laplacian)
    return FeatureBundle.from_stacked(laplacian, laplacian @ x, features.order)

