import json
from pathlib import Path

import pytest

from localhom.complexes import WeightedGraph, build_flag_complex
from localhom.golden import c4, k3, k4, octahedron, two_c4, unit_square_graph
from localhom.linalg import reduce_column

DATA = Path(__file__).parent / "data"


def load_corpus(name="random_corpus.json"):
    with open(DATA / name) as fh:
        entries = json.load(fh)
    return [
        WeightedGraph(g["vertices"], tuple((u, v, w) for u, v, w in g["edges"]))
        for g in entries
    ]


def reduce_columns(cols, fld):
    """`reduce_column` over sorted sparse columns, left to right, with V
    starting as the identity: (R columns, V columns, pivot row -> column)."""
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
