"""Flag complexes, Vietoris-Rips filtrations and combinatorial topology.

Simplices are canonically represented as strictly increasing tuples of
vertex ids; that ascending order is the chosen orientation everywhere.
A filtration keeps its simplices in the total order
(value, dimension, lexicographic vertices), which makes every output of
this module deterministic and face-monotone by construction.

Every `Filtration` also keeps a posting index: vertex id -> ids of the
simplices containing that vertex, in filtration order. The star of a
simplex is read off the posting list of its rarest vertex, so a star
lookup costs the length of that list, not the size of the filtration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BudgetExceededError, ContractError, UnknownSimplexError

DEFAULT_SIMPLEX_BUDGET = 5_000_000

Simplex = tuple[int, ...]


def dimension(simplex: Simplex) -> int:
    return len(simplex) - 1


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

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(u, v): w for u, v, w in self.edges}


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
    index: dict[Simplex, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.simplices)}
        self._by_dim: dict[int, list[int]] = {}
        # vertex -> ids of the simplices containing it, in filtration order;
        # a dict, so a truncation indexes only the vertices it keeps
        self._postings: dict[int, list[int]] = {}
        for i, s in enumerate(self.simplices):
            self._by_dim.setdefault(dimension(s), []).append(i)
            for v in s:
                self._postings.setdefault(v, []).append(i)
        self._cofacets: list[list[tuple[int, int]]] = [[] for _ in self.simplices]
        for j, s in enumerate(self.simplices):
            if len(s) >= 2:
                for face, sign in facets(s):
                    self._cofacets[self.index[face]].append((j, sign))
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
        """(coface id, incidence sign) for codimension-1 cofaces of sid."""
        return self._cofacets[sid]

    def subfiltration(self, ids: set[int]) -> tuple["Filtration", dict[int, int]]:
        """Filtration induced on a closed id set, plus old-id -> new-id map.

        The relative order of retained simplices is preserved, so the
        result satisfies the same total-order invariant.
        """
        kept = sorted(ids)
        for i in kept:
            for face, _ in facets(self.simplices[i]):
                if len(face) >= 1 and self.index[face] not in ids:
                    raise ContractError("subfiltration ids are not face-closed")
        sub = Filtration(
            simplices=[self.simplices[i] for i in kept],
            values=[self.values[i] for i in kept],
            vertex_count=self.vertex_count,
            max_dim=self.max_dim,
        )
        return sub, {old: new for new, old in enumerate(kept)}


@dataclass(frozen=True)
class SimplexSubset:
    """Set of simplex ids inside a parent filtration, flagged open or closed."""

    filtration: Filtration
    ids: frozenset[int]
    is_open: bool

    def __len__(self) -> int:
        return len(self.ids)

    def simplices(self) -> list[Simplex]:
        return [self.filtration.simplices[i] for i in sorted(self.ids)]


def _validate_ids(filtration: Filtration, ids) -> frozenset[int]:
    ids = frozenset(ids)
    for i in ids:
        if not (0 <= i < len(filtration)):
            raise ContractError(f"simplex id {i} out of range")
    return ids


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
    adj = graph.adjacency()
    wmap = graph.weight_map()

    entries: list[tuple[float, int, Simplex]] = []
    count = 0

    def push(simplex: Simplex, value: float):
        nonlocal count
        count += 1
        if count > budget:
            raise BudgetExceededError(
                f"simplex budget {budget} exceeded while enumerating cliques"
            )
        entries.append((value, len(simplex) - 1, simplex))

    for v in range(graph.vertex_count):
        push((v,), 0.0)

    # grow cliques by appending common higher neighbors; the clique value is
    # max over its edges, updated incrementally
    def grow(clique: Simplex, candidates: set[int], value: float):
        if len(clique) - 1 >= max_dim:
            return
        for u in sorted(candidates):
            w = max(value, max(wmap[(min(c, u), max(c, u))] for c in clique))
            bigger = clique + (u,)
            push(bigger, w)
            grow(bigger, {x for x in candidates if x > u and x in adj[u]}, w)

    if max_dim >= 1:
        for v in range(graph.vertex_count):
            grow((v,), {u for u in adj[v] if u > v}, 0.0)

    entries.sort()
    return Filtration(
        simplices=[s for _, _, s in entries],
        values=[val for val, _, _ in entries],
        vertex_count=graph.vertex_count,
        max_dim=max_dim,
    )


def _star_ids(filtration: Filtration, seed_ids) -> frozenset[int]:
    """Ids of every simplex having some seed simplex as a face."""
    simplices, postings = filtration.simplices, filtration._postings
    out: set[int] = set()
    for i in seed_ids:
        seed = simplices[i]
        posting = min((postings[v] for v in seed), key=len)
        if len(seed) == 1:  # a vertex's posting list is its star
            out.update(posting)
        else:
            out.update(j for j in posting if all(v in simplices[j] for v in seed))
    return frozenset(out)


def star(filtration: Filtration, simplex: Simplex) -> SimplexSubset:
    """Open star {tau : simplex is a face of tau}, including simplex itself."""
    sid = filtration.id_of(simplex)
    return SimplexSubset(filtration, _star_ids(filtration, {sid}), is_open=True)


def star_of_vertices(filtration: Filtration, vertices) -> SimplexSubset:
    """Union of the stars of the given vertices."""
    ids = {filtration.id_of((v,)) for v in vertices}
    return SimplexSubset(filtration, _star_ids(filtration, ids), is_open=True)


def closure(subset: SimplexSubset) -> SimplexSubset:
    """Smallest subcomplex containing the subset (add all faces)."""
    filt = subset.filtration
    ids = _validate_ids(filt, subset.ids)
    out = set(ids)
    for i in ids:
        s = filt.simplices[i]
        for r in range(1, len(s)):
            for face in itertools.combinations(s, r):
                out.add(filt.index[face])
    return SimplexSubset(filt, frozenset(out), is_open=False)


def frontier(subset: SimplexSubset) -> SimplexSubset:
    """closure(A) minus A, defined for open A only."""
    if not subset.is_open or not is_open_set(subset.filtration, subset.ids):
        raise ContractError("frontier requires an open subset")
    cl = closure(subset)
    return SimplexSubset(subset.filtration, cl.ids - subset.ids, is_open=False)


def interior(subset: SimplexSubset) -> SimplexSubset:
    """Largest open set inside the subset: keep simplices whose whole star fits."""
    filt = subset.filtration
    ids = _validate_ids(filt, subset.ids)
    keep = {i for i in ids if _star_ids(filt, {i}) <= ids}
    return SimplexSubset(filt, frozenset(keep), is_open=True)


def truncate_neighborhood(
    filtration: Filtration,
    vertices,
    rings: int,
) -> tuple[Filtration, dict[int, int], SimplexSubset]:
    """Sub-filtration induced by the rings-fold closed-star closure of vertices.

    Returns (truncation, old->new id map, image of the open set
    union-of-stars inside the truncation). Relative cohomology against the
    complement of that open set is identical on the truncation and on the
    full filtration at every threshold (excision); stalks use the full
    filtration, and this is the reference the tests compare them against.
    """
    if rings < 1:
        raise ContractError("rings must be >= 1")
    current = frozenset(filtration.id_of((v,)) for v in vertices)
    for _ in range(rings):
        grown = _star_ids(filtration, set(current))
        current = closure(SimplexSubset(filtration, grown, is_open=True)).ids
    sub, idmap = filtration.subfiltration(set(current))
    open_ids = frozenset(
        idmap[i] for i in star_of_vertices(filtration, vertices).ids
    )
    return sub, idmap, SimplexSubset(sub, open_ids, is_open=True)


def graph_from_points(
    points,
    metric: str = "euclidean",
    knn: int | None = None,
) -> WeightedGraph:
    """Complete weighted graph on a point cloud, optionally kNN-sparsified.

    With knn=k an edge survives iff either endpoint is among the other's k
    nearest neighbors.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    if any(len(p) != len(pts[0]) for p in pts):
        raise ContractError("points must share a dimension")
    if metric == "euclidean":
        dist = lambda a, b: math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    elif metric == "manhattan":
        dist = lambda a, b: sum(abs(x - y) for x, y in zip(a, b))
    else:
        raise ContractError(f"unknown metric {metric!r}")
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            weights[(i, j)] = dist(pts[i], pts[j])
    if knn is not None:
        if knn < 1:
            raise ContractError("knn must be >= 1")
        keep = set()
        for i in range(n):
            ranked = sorted(
                (weights[(min(i, j), max(i, j))], j) for j in range(n) if j != i
            )
            for _, j in ranked[:knn]:
                keep.add((min(i, j), max(i, j)))
        weights = {e: w for e, w in weights.items() if e in keep}
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedGraph(vertex_count=n, edges=edges)
