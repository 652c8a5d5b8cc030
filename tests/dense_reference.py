"""Dense references that only tests read.

Like `localhom.oracle`, everything here works by scans over simplex
tuples and shares no code with the fast path: star lookups, excision
truncations and their sub-filtrations, relative Betti numbers against a
closed subset, kNN ingestion by ranking every pair, and a null-space basis
by rational RREF.
"""

import itertools
import math
from fractions import Fraction

from localhom.complexes import Filtration
from localhom.errors import ContractError
from localhom.oracle import _relative_betti, ids_at


def star_ids_scan(filtration: Filtration, seed_ids) -> frozenset[int]:
    """Union of the stars of the seed simplices, by a scan of every simplex."""
    seeds = [frozenset(filtration.simplices[i]) for i in seed_ids]
    out = set()
    for j, tau in enumerate(filtration.simplices):
        tset = frozenset(tau)
        if any(s <= tset for s in seeds):
            out.add(j)
    return frozenset(out)


def subfiltration(filtration: Filtration, ids: set[int]) -> tuple[Filtration, dict[int, int]]:
    """Filtration induced on a face-closed id set, plus old-id -> new-id map.

    The relative order of retained simplices is preserved, so the result
    satisfies the same total-order invariant.
    """
    _check_closed(filtration, ids)
    kept = sorted(ids)
    sub = Filtration(
        simplices=[filtration.simplices[i] for i in kept],
        values=[filtration.values[i] for i in kept],
        vertex_count=filtration.vertex_count,
        max_dim=filtration.max_dim,
    )
    return sub, {old: new for new, old in enumerate(kept)}


def truncate_neighborhood(
    filtration: Filtration, vertices, rings: int
) -> tuple[Filtration, dict[int, int], frozenset[int]]:
    """Sub-filtration induced by the rings-fold closed-star closure of vertices.

    Returns (truncation, old->new id map, image of the open set
    union-of-stars inside the truncation). Relative cohomology against the
    complement of that open set is identical on the truncation and on the
    full filtration at every threshold (excision). Stalks use the full
    filtration; this is the reference tests compare them against, built by
    scans over simplex tuples so that it shares no star code with them.
    """
    if rings < 1:
        raise ContractError("rings must be >= 1")
    seeds = set(vertices)
    for v in seeds:
        filtration.id_of((v,))  # an unknown vertex is an UnknownSimplexError
    reach = seeds
    for _ in range(rings):
        # every face of every simplex that meets reach: its closed star
        ids = {
            filtration.index[face]
            for tau in filtration.simplices
            if not reach.isdisjoint(tau)
            for r in range(1, len(tau) + 1)
            for face in itertools.combinations(tau, r)
        }
        reach = {v for i in ids for v in filtration.simplices[i]}
    sub, idmap = subfiltration(filtration, ids)
    open_ids = frozenset(
        idmap[i] for i, s in enumerate(filtration.simplices) if not seeds.isdisjoint(s)
    )
    return sub, idmap, open_ids


def _check_closed(filtration: Filtration, ids: set[int]) -> None:
    for i in ids:
        s = filtration.simplices[i]
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            if face and filtration.id_of(face) not in ids:
                raise ContractError("subset is not closed (missing a face)")


def relative_betti_dense(
    filtration: Filtration, t: float, closed_subset: frozenset[int], k: int
) -> int:
    """dim H_k(S_t, A_t) for a closed id set A."""
    present = ids_at(filtration, t)
    excluded = set(closed_subset) & present
    _check_closed(filtration, excluded)
    return _relative_betti(filtration, present - excluded, k)


def knn_graph_scan(points, metric: str = "euclidean", knn: int | None = None):
    """Edges of `complexes.graph_from_points`, by ranking every pair in Python.

    Returns the sorted (u, v, weight) tuples with u < v.
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
    return tuple((u, v, w) for (u, v), w in sorted(weights.items()))


def kernel_basis(rows, ncols: int) -> list[dict[int, int]]:
    """Integer basis of {x : row . x = 0 for all rows}, via rational RREF."""
    ech: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows:
        r = {c: Fraction(v) for c, v in row.items() if v}
        for pc, prow in ech:
            f = r.get(pc)
            if f:
                for c2, v2 in prow.items():
                    nv = r.get(c2, Fraction(0)) - f * v2
                    if nv:
                        r[c2] = nv
                    elif c2 in r:
                        del r[c2]
        if r:
            pc = min(r)
            pv = r[pc]
            ech.append((pc, {c: v / pv for c, v in r.items()}))
    ech.sort(key=lambda e: e[0])
    for i in range(len(ech) - 1, -1, -1):
        pc, prow = ech[i]
        for j in range(i):
            f = ech[j][1].get(pc)
            if f:
                target = ech[j][1]
                for c2, v2 in prow.items():
                    nv = target.get(c2, Fraction(0)) - f * v2
                    if nv:
                        target[c2] = nv
                    elif c2 in target:
                        del target[c2]
    pivot_cols = {pc for pc, _ in ech}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = {free: Fraction(1)}
        for pc, prow in ech:
            coeff = prow.get(free)
            if coeff:
                vec[pc] = -coeff
        den = 1
        for v in vec.values():
            den = den * v.denominator // math.gcd(den, v.denominator)
        basis.append({c: int(v * den) for c, v in vec.items()})
    return basis
