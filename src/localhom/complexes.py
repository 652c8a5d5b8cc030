"""Flag complexes, Vietoris-Rips filtrations and combinatorial topology.

Simplices are canonically represented as strictly increasing tuples of
vertex ids; that ascending order is the chosen orientation everywhere.
A filtration keeps its simplices in the total order
(value, dimension, lexicographic vertices), which makes every output of
this module deterministic and face-monotone by construction.

Every `Filtration` keeps each simplex's cofacets. A vertex's open star
is the vertex closed under cofacets, so a star lookup costs the size of
the star, not the size of the filtration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, ContractError, UnknownSimplexError

DEFAULT_SIMPLEX_BUDGET = 5_000_000

# kNN ingestion ranks candidates from approximate distances computed this
# many rows at a time, so its largest temporary holds KNN_BLOCK_ROWS * n floats
KNN_BLOCK_ROWS = 256

Simplex = tuple[int, ...]


def facets(simplex: Simplex) -> list[tuple[Simplex, int]]:
    """Codimension-1 faces with the sign (-1)^i of the dropped vertex."""
    out = []
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1:]
        out.append((face, -1 if i % 2 else 1))
    return out


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with nonnegative finite edge weights."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ContractError("vertex_count must be nonnegative")
        seen = set()
        canon = []
        for u, v, w in self.edges:
            if u == v:
                raise ContractError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ContractError(f"edge ({u},{v}) references unknown vertex")
            if not (math.isfinite(w) and w >= 0):
                raise ContractError(f"edge ({u},{v}) has invalid weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ContractError(f"duplicate undirected edge {key}")
            seen.add(key)
            canon.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(canon))


@dataclass
class Filtration:
    """Ordered simplex stream of a flag complex.

    `simplices[i]` enters at `values[i]`; the list index is the global
    filtration order. `max_dim` records the clique-scan cap used at
    construction time (dimensions above it were never enumerated).
    """

    simplices: list[Simplex]
    values: list[float]
    vertex_count: int
    max_dim: int
    index: dict[Simplex, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.simplices)}
        self._by_dim: dict[int, list[int]] = {}
        self._cofacets: list[list[tuple[int, int]]] = [[] for _ in self.simplices]
        by_dim, cofacets, index = self._by_dim, self._cofacets, self.index
        for j, s in enumerate(self.simplices):
            by_dim.setdefault(len(s) - 1, []).append(j)
            if len(s) >= 2:
                for i in range(len(s)):  # the facet without s[i], sign (-1)^i
                    cofacets[index[s[:i] + s[i + 1:]]].append((j, -1 if i % 2 else 1))
        self._t_plus = max(self.values) if self.values else 0.0

    def __len__(self) -> int:
        return len(self.simplices)

    @property
    def t_plus(self) -> float:
        return self._t_plus

    def ids_of_dim(self, k: int) -> list[int]:
        """Simplex ids of dimension k, in filtration order."""
        return self._by_dim.get(k, [])

    def id_of(self, simplex: Simplex) -> int:
        try:
            return self.index[tuple(simplex)]
        except KeyError:
            raise UnknownSimplexError(f"simplex {simplex} not in filtration") from None

    def threshold_values(self) -> list[float]:
        return sorted(set(self.values))

    def cofacets(self, sid: int) -> list[tuple[int, int]]:
        """(coface id, incidence sign) for codimension-1 cofaces of sid,
        by increasing coface id."""
        return self._cofacets[sid]


def is_open_set(filtration: Filtration, ids: frozenset[int]) -> bool:
    """A set is open iff it contains the star of each of its members.

    In a face-closed complex every coface of a simplex is reached through
    a chain of cofacets, so containing each member's cofacets suffices.
    """
    return all(c in ids for i in ids for c, _ in filtration.cofacets(i))


def build_flag_complex(
    graph: WeightedGraph,
    max_dim: int,
    budget: int = DEFAULT_SIMPLEX_BUDGET,
) -> Filtration:
    """Vietoris-Rips filtration of the flag complex up to dimension max_dim.

    Vertices get value 0; any higher simplex gets the maximum weight among
    its edges. Cliques are enumerated by ordered neighbor intersection, so
    only actual simplices are ever materialized.
    """
    if max_dim < 0:
        raise ContractError("max_dim must be nonnegative")
    if graph.vertex_count > budget:
        raise BudgetExceededError(
            f"{graph.vertex_count} vertices exceed the simplex budget {budget}"
        )
    # vertex -> {higher neighbour: edge weight}; edges are stored with u < v
    higher: list[dict[int, float]] = [{} for _ in range(graph.vertex_count)]
    for u, v, w in graph.edges:
        higher[u][v] = w
    entries: list[tuple[float, int, Simplex]] = [(0.0, 0, (v,)) for v in range(graph.vertex_count)]

    # grow cliques by appending common higher neighbours, in increasing order;
    # the clique value is max over its edges, updated incrementally
    def grow(clique: Simplex, candidates: list[int], value: float):
        if len(clique) - 1 >= max_dim:
            return
        for i, u in enumerate(candidates):
            w = max(value, max(higher[c][u] for c in clique))
            bigger = clique + (u,)
            if len(entries) >= budget:
                raise BudgetExceededError(
                    f"simplex budget {budget} exceeded while enumerating cliques"
                )
            entries.append((w, len(bigger) - 1, bigger))
            neighbours = higher[u]
            grow(bigger, [x for x in candidates[i + 1:] if x in neighbours], w)

    if max_dim >= 1:
        for v in range(graph.vertex_count):
            grow((v,), sorted(higher[v]), 0.0)

    entries.sort()
    return Filtration(
        simplices=[s for _, _, s in entries],
        values=[val for val, _, _ in entries],
        vertex_count=graph.vertex_count,
        max_dim=max_dim,
    )


def star_of_vertices(filtration: Filtration, vertices) -> frozenset[int]:
    """Union of the open stars of the given vertices: each vertex closed
    under cofacets, since every simplex containing it is reached from it
    through a chain of cofacets."""
    ids: set[int] = set()
    for v in vertices:
        todo = [filtration.id_of((v,))]  # an unknown vertex is an UnknownSimplexError
        while todo:
            sid = todo.pop()
            if sid not in ids:
                ids.add(sid)
                todo += [c for c, _ in filtration.cofacets(sid) if c not in ids]
    return frozenset(ids)


def graph_from_points(
    points,
    metric: str = "euclidean",
    knn: int | None = None,
) -> WeightedGraph:
    """Complete weighted graph on a point cloud, optionally kNN-sparsified.

    With knn=k an edge survives iff either endpoint is among the other's k
    nearest neighbors, ties going to the lower vertex id. Coordinates must
    be finite, and an edge whose length overflows a float is a
    ContractError naming its two points.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    if any(len(p) != len(pts[0]) for p in pts):
        raise ContractError("points must share a dimension")
    for i, p in enumerate(pts):
        if not all(math.isfinite(c) for c in p):
            raise ContractError(f"point {i} has a non-finite coordinate")
    if metric == "euclidean":
        dist = lambda a, b: math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    elif metric == "manhattan":
        dist = lambda a, b: sum(abs(x - y) for x, y in zip(a, b))
    else:
        raise ContractError(f"unknown metric {metric!r}")
    if knn is not None and knn < 1:
        raise ContractError("knn must be >= 1")

    weights: dict[tuple[int, int], float] = {}

    def weight(i: int, j: int) -> float:
        """Exact length of edge (i, j), i < j, computed once."""
        w = weights.get((i, j))
        if w is None:
            try:
                w = dist(pts[i], pts[j])
            except OverflowError:
                w = math.inf
            if not math.isfinite(w):
                raise ContractError(f"distance between points {i} and {j} overflows")
            weights[(i, j)] = w
        return w

    if knn is None:
        pairs = itertools.combinations(range(n), 2)
    else:
        pairs = sorted(_knn_pairs(pts, metric, knn, weight))
    edges = tuple((i, j, weight(i, j)) for i, j in pairs)
    return WeightedGraph(vertex_count=n, edges=edges)


def _knn_pairs(pts, metric: str, knn: int, weight) -> set[tuple[int, int]]:
    """Pairs (i, j), i < j, with one endpoint among the other's knn nearest.

    numpy computes approximate distances one block of rows at a time and
    keeps a few candidates per row; Python ranks only those candidates, by
    the exact `weight` and then the vertex id.
    """
    n = len(pts)
    keep: set[tuple[int, int]] = set()
    if n < 2:
        return keep
    coords = np.array(pts, dtype=float).reshape(n, len(pts[0]))
    rank = min(knn, n - 1)
    for lo in range(0, n, KNN_BLOCK_ROWS):
        hi = min(lo + KNN_BLOCK_ROWS, n)
        rows = np.arange(hi - lo)
        approx = np.zeros((hi - lo, n))
        with np.errstate(over="ignore"):  # an overflowing distance is +inf
            for c in range(coords.shape[1]):
                diff = coords[lo:hi, c, None] - coords[None, :, c]
                approx += diff * diff if metric == "euclidean" else np.abs(diff)
            approx[rows, lo + rows] = np.inf
            kth = np.partition(approx, rank - 1, axis=1)[:, rank - 1]
            # approx (squared, for euclidean) and the exact Python sum it
            # stands for each have relative error at most d * 2**-52 on these
            # non-negative sums, far inside the 1e-9 margin; the 1e-300 floor
            # covers the absolute error of terms that underflow. A j past the
            # bound is therefore strictly farther, exactly, than all k
            # approximate nearest, so the exact top k (ties included) is kept.
            bound = kth * (1.0 + 1e-9) + 1e-300
        mask = approx <= bound[:, None]
        mask[rows, lo + rows] = False
        counts = np.count_nonzero(mask, axis=1).tolist()
        cols = np.nonzero(mask)[1].tolist()
        start = 0
        for i, count in zip(range(lo, hi), counts):
            cand = cols[start:start + count]
            start += count
            ranked = sorted((weight(min(i, j), max(i, j)), j) for j in cand)
            for _, j in ranked[:knn]:
                keep.add((min(i, j), max(i, j)))
    return keep
