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


def reduce_columns(cols, fld):
    """`reduce_column` over columns by decreasing index, left to right, with
    V starting as the identity: (R columns, V columns, pivot -> column)."""
    owners, rcols, vcols = {}, [], []
    for j, col in enumerate(cols):
        r, v = reduce_column(col, [(j, fld.one)], owners, fld)
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
