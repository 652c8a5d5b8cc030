import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from localhom.complexes import (
    Filtration,
    WeightedGraph,
    build_flag_complex,
    facets,
    graph_from_points,
)
from localhom.golden import c4, k3, k4, octahedron, two_c4, unit_square_points
from localhom.linalg import reduce_column
from localhom.nn import mlp_forward

DATA = Path(__file__).parent / "data"


def load_corpus(name="random_corpus.json"):
    with open(DATA / name) as fh:
        entries = json.load(fh)
    return [
        WeightedGraph(g["vertices"], tuple((u, v, w) for u, v, w in g["edges"]))
        for g in entries
    ]


def unit_square_graph():
    """Complete graph on the unit square: sides 1, diagonals sqrt(2)."""
    pts = unit_square_points()
    edges = tuple((i, j, math.dist(pts[i], pts[j])) for i, j in combinations(range(4), 2))
    return WeightedGraph(vertex_count=4, edges=edges)


def mlp_jvp(params, x, dx):
    """Forward-mode directional derivative of `nn.mlp_forward` at x along dx."""
    h = np.asarray(x, dtype=float)
    dh = np.asarray(dx, dtype=float)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = w @ h + b
        dh = w @ dh
        if i < last:
            t = np.tanh(h)
            dh = (1.0 - t * t) * dh
            h = t
    return dh


def sign_equivariant_jvp(x, dx, rho):
    """Directional derivative of `nn.sign_equivariant_layer` at x along dx."""
    x = np.asarray(x, dtype=float)
    dx = np.asarray(dx, dtype=float)
    gate = mlp_forward(rho, np.abs(x))
    dgate = mlp_jvp(rho, np.abs(x), np.sign(x) * dx)
    return dx * gate + x * dgate


def shuffled_filtrations(count, seed, max_dim=3):
    """Flag filtrations whose vertices enter at nonzero values, in an order
    shuffled within each value, with weight-0 edges: an edge enters with its
    later vertex or its weight, and a clique with its last facet, so
    zero-length classes occur at every order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 9)
        value = {(v,): rng.choice((0.5, 1.0, 1.5, 2.0)) for v in range(n)}
        for u, v in combinations(range(n), 2):
            if rng.random() < 0.5:
                weight = rng.choice((0.0, 0.0, 1.0, 1.5, 2.5))
                value[u, v] = max(value[(u,)], value[(v,)], weight)
        for d in range(2, max_dim + 1):
            for s in combinations(range(n), d + 1):
                faces = [face for face, _ in facets(s)]
                if all(face in value for face in faces):
                    value[s] = max(value[face] for face in faces)
        order = sorted(value, key=lambda s: (value[s], len(s), rng.random()))
        out.append(Filtration(order, [value[s] for s in order], n, max_dim))
    return out


def sixteen_cell_graphs(count, seed):
    """Weighted 16-cell graphs: K8 less the pairs (0, 4), (1, 5), (2, 6) and
    (3, 7), so every vertex link is an octahedron and stalks hold order-3
    classes. The first half keep all 24 edges, the rest drop about 10%;
    weights have two decimals, so a few tie."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if v - u != 4]
    graphs = []
    for i in range(count):
        kept = edges if i < count // 2 else [e for e in edges if rng.random() >= 0.1]
        weighted = tuple((u, v, round(rng.uniform(1.0, 3.0), 2)) for u, v in kept)
        graphs.append(WeightedGraph(8, weighted))
    return graphs


# the triangles of the 6-vertex projective plane (Munkres 1984, §6)
RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
)


def rp2_cone_graph(seed):
    """The cone over the barycentric subdivision of the 6-vertex RP²: its
    vertices are the 31 faces and an apex (vertex 31), two faces are joined
    when one contains the other and the apex is joined to every face, with
    seeded random weights. Its flag complex is the cone itself, whose apex
    link has 2-torsion, so reductions meet coefficients other than ±1."""
    faces = sorted(
        {face for t in RP2_TRIANGLES for r in (1, 2, 3) for face in combinations(sorted(t), r)},
        key=lambda face: (len(face), face),
    )
    apex = len(faces)
    edges = [
        (i, j) for i, j in combinations(range(apex), 2)
        if set(faces[i]) < set(faces[j]) or set(faces[j]) < set(faces[i])
    ]
    edges += [(i, apex) for i in range(apex)]
    rng = random.Random(seed)
    return WeightedGraph(apex + 1, tuple((u, v, round(rng.uniform(1.0, 3.0), 2)) for u, v in edges))


def reduce_columns(cols):
    """`reduce_column` over columns by decreasing index, left to right, with
    V starting as the identity: (R columns, V columns, pivot -> column)."""
    owners, rcols, vcols = {}, [], []
    for j, col in enumerate(cols):
        r, v = reduce_column(col, [(j, 1)], owners)
        rcols.append(r)
        vcols.append(v)
    return rcols, vcols, {r[-1][0]: j for j, r in enumerate(rcols) if r}


@pytest.fixture(scope="session")
def c4_filt():
    return build_flag_complex(c4(), 2)


@pytest.fixture(scope="session")
def k3_filt():
    return build_flag_complex(k3(), 3)


@pytest.fixture(scope="session")
def k4_filt():
    return build_flag_complex(k4(), 3)


@pytest.fixture(scope="session")
def oct_filt():
    return build_flag_complex(octahedron(), 3)


@pytest.fixture(scope="session")
def two_c4_filt():
    return build_flag_complex(two_c4(), 2)


@pytest.fixture(scope="session")
def square_filt():
    return build_flag_complex(unit_square_graph(), 3)


@pytest.fixture(scope="session")
def rp2_cone_filt():
    """`rp2_cone_graph(33)` with max_dim 4: its apex stalk's order-3
    coboundary column, its order-2 representatives and its order-2 block
    coordinates hold coefficient 2."""
    return build_flag_complex(rp2_cone_graph(33), 4)


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def tie_free_corpus():
    return load_corpus("tie_free_corpus.json")


@pytest.fixture(scope="session")
def closed_form_filtrations(corpus, tie_free_corpus):
    """Both corpora, the 60-point kNN-6 cloud and 300 shuffled filtrations,
    all with max_dim 3: the inputs on which each closed-form bar is checked
    against the column walk."""
    rng = random.Random(60)
    cloud = graph_from_points([(rng.random(), rng.random()) for _ in range(60)], knn=6)
    graphs = corpus + tie_free_corpus + [cloud]
    return [build_flag_complex(g, 3) for g in graphs] + shuffled_filtrations(300, seed=7)
