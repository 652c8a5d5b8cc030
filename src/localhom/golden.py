"""Small reference graphs with hand-checked homology, shared by tests and
the CLI `verify` command."""

from __future__ import annotations

from .complexes import WeightedGraph


def cycle_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = tuple((i, (i + 1) % n, weight) for i in range(n))
    return WeightedGraph(vertex_count=n, edges=edges)


def c4() -> WeightedGraph:
    return cycle_graph(4)


def k3() -> WeightedGraph:
    return complete_graph(3)


def k4() -> WeightedGraph:
    return complete_graph(4)


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    edges = tuple((i, j, weight) for i in range(n) for j in range(i + 1, n))
    return WeightedGraph(vertex_count=n, edges=edges)


def octahedron() -> WeightedGraph:
    """K_{2,2,2}: all pairs except the three antipodal ones (0,5),(1,3),(2,4)."""
    missing = {(0, 5), (1, 3), (2, 4)}
    edges = tuple(
        (i, j, 1.0)
        for i in range(6)
        for j in range(i + 1, 6)
        if (i, j) not in missing
    )
    return WeightedGraph(vertex_count=6, edges=edges)


def two_c4() -> WeightedGraph:
    edges = tuple((i, (i + 1) % 4, 1.0) for i in range(4)) + tuple(
        (4 + i, 4 + (i + 1) % 4, 1.0) for i in range(4)
    )
    return WeightedGraph(vertex_count=8, edges=edges)


def unit_square_points() -> list[tuple[float, float]]:
    return [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# (graph builder, max_dim, expected Betti numbers beta_0.. of the final complex)
GOLDEN_BETTI = [
    ("c4", c4, 2, (1, 1)),
    ("two_c4", two_c4, 2, (2, 2)),
    ("octahedron", octahedron, 3, (1, 0, 1)),
    ("k4", k4, 3, (1, 0, 0)),
]
