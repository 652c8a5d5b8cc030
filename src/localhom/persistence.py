"""Persistent cohomology of the star of a simplex, with representative cocycles.

`star_diagram` gives the persistent relative cohomology H^k(S_t, S_t \\ st σ)
of the open star of σ: the whole complex (σ = (), the star of the empty
simplex), a vertex (a stalk) or an edge (a Laplacian block). With d = dim σ
it is the reduced cohomology of the link in degree k - d - 1 (Munkres 1984,
§63), so the two lowest degrees are read off the link: degree d is σ's one
bar, killed by σ's first cofacet, and degree d + 1 is the elder rule on the
link graph (Edelsbrunner & Harer 2010, VII), the union-find pass Ripser
uses for degree 0.

Degrees d + 2 and up are walked. Each coboundary is reduced with rows and
columns by decreasing filtration order, and no matrix is stored: each column
is built from the simplex's cofacets when the walk reaches it and eliminated
at once against the columns before it (Bauer, "Ripser", 2021). A nonzero
reduced column's pivot kills its class; a zero column is an essential
class, unless its simplex was a pivot one order down, whose column is
cleared without being built. The V column is the representative cocycle and
R its coboundary. A star is open, so a star simplex's coboundary stays in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import Filtration, Simplex
from .errors import ContractError
from .linalg import Column, Field, reduce_column

INF = math.inf


@dataclass(frozen=True)
class PersistentCocycle:
    """One persistent relative/absolute cohomology class.

    `representative` is a `linalg.Column` of (k-simplex id in the source
    filtration, coefficient) pairs by strictly decreasing id, whose pivot is
    `birth_index`; it carries the sign/scale freedom of the reduction. A
    coefficient is an int, or a Fraction where a division left a remainder,
    on either carrier. Its coboundary is zero for an essential class;
    otherwise its lowest-id simplex is `death_index`.
    """

    order: int
    birth: float
    death: float
    birth_index: int
    death_index: int | None
    representative: Column

    @property
    def essential(self) -> bool:
        return self.death_index is None

    def death_or(self, horizon: float) -> float:
        return horizon if self.essential else self.death

    def alive_at(self, t: float) -> bool:
        return self.birth <= t and (self.essential or t < self.death)


@dataclass
class Diagram:
    """Persistence diagram grouped by order, zero-length pairs excluded."""

    classes: list[PersistentCocycle]

    def of_order(self, k: int) -> list[PersistentCocycle]:
        return [c for c in self.classes if c.order == k]


def betti_at(diagram: Diagram, t: float, k: int) -> int:
    """Number of order-k classes with birth <= t < death."""
    return sum(1 for c in diagram.of_order(k) if c.alive_at(t))


def _reduce_order(
    filtration: Filtration,
    k: int,
    col_ids: list[int],
    cleared: set[int],
    classes: list[PersistentCocycle],
) -> tuple[list[Column], set[int]]:
    """Reduce the order-k columns `col_ids` (by decreasing id), appending
    each class of positive length to `classes`: the nonzero reduced columns,
    and the (k+1)-simplices they kill, which order k+1 clears.

    Each column is built from `Filtration.cofacets` when it is reached and
    reduced at once by `linalg.reduce_column`; a simplex in `cleared` is
    skipped before anything is built. Rows are simplex ids, so a nonzero
    column's pivot is the simplex that kills its class and the V column is
    the representative.
    """
    values = filtration.values
    pivots: dict[int, tuple[Column, Column]] = {}
    reduced: list[Column] = []
    killed: set[int] = set()
    for sid in col_ids:
        if sid in cleared:
            continue  # a pivot one order down has a zero column
        # cofacets run by increasing id, so read backwards
        r, v = reduce_column(filtration.cofacets(sid)[::-1], [(sid, 1)], pivots)
        if r:
            reduced.append(r)
            death_id = r[-1][0]
            death = values[death_id]
            killed.add(death_id)
        else:
            death_id, death = None, INF
        if values[sid] < death:
            classes.append(PersistentCocycle(k, values[sid], death, sid, death_id, v))
    return reduced, killed


def star_diagram(
    filtration: Filtration, sigma: Simplex, max_order: int
) -> tuple[Diagram, dict[int, list[Column]]]:
    """The diagram of st σ up to `max_order` (σ = () for the whole complex)
    and, for a vertex star only, its nonzero reduced coboundary columns:
    for k in 1..max_order the order-(k-1) columns, indexed by simplex id,
    whose pivots are the k-simplices they kill; with the order-k
    representatives they own every k-simplex once, for the stalk's owner
    table.

    Degree d = dim σ is σ's bar. Degree d + 1 is the elder rule on the link
    graph, whose vertices are σ's cofacets τ and whose edges are the
    (d+2)-simplices over σ, by increasing id: a merge kills the younger
    component, represented by its τs by decreasing id, each with
    coefficient sign(σ in τ) * sign(σ in its oldest τ), as the walk's V is;
    σ's own column kills the component of σ's first cofacet. Degrees d + 2
    and up are walked over st σ, cleared by the merging simplices.
    """
    if max_order < 0:
        raise ContractError("max_order must be nonnegative")
    if max_order + 1 > filtration.max_dim:
        raise ContractError(
            "filtration was built with max_dim "
            f"{filtration.max_dim}; order {max_order} needs max_dim >= {max_order + 1}"
        )
    d = len(sigma) - 1
    values = filtration.values
    classes: list[PersistentCocycle] = []
    coboundaries: dict[int, list[Column]] = {}
    keep = d == 0  # only a stalk's owner table reads columns
    up, death_id = [], None
    if sigma:
        sid = filtration.id_of(sigma)
        up = filtration.cofacets(sid)
        death_id = up[0][0] if up else None
        death = INF if death_id is None else values[death_id]
        if d <= max_order and values[sid] < death:
            bar = PersistentCocycle(d, values[sid], death, sid, death_id, [(sid, 1)])
            classes.append(bar)
    if d < max_order:
        # link vertex τ -> sign of σ in τ
        sign = dict(up) if sigma else dict.fromkeys(filtration.ids_of_dim(0), 1)
        if keep:
            coboundaries[1] = [up[::-1]] if up else []
        # each link edge's two link vertices, in int dicts: a container per
        # edge would add collector work on a large complex
        first: dict[int, int] = {}
        second: dict[int, int] = {}
        for tau in sign:
            for rho, _ in filtration.cofacets(tau):
                if rho in first:
                    second[rho] = tau
                else:
                    first[rho] = tau
        oldest = {tau: tau for tau in sign}  # link vertex -> its component's oldest
        members = {tau: [tau] for tau in sign}  # oldest -> the component's link vertices
        bars: list[tuple[int, int | None, list[int]]] = []  # (oldest, death id, members)
        level = sorted(second)
        for rho in level:
            elder, young = oldest[first[rho]], oldest[second[rho]]
            if elder > young:
                elder, young = young, elder
            if elder != young:
                dying = members.pop(young)
                bars.append((young, rho, dying))
                for tau in dying:
                    oldest[tau] = elder
                members[elder] += dying
        cleared = {rho for _, rho, _ in bars}
        if keep and d + 1 < max_order:
            # the walk's nonzero columns come by decreasing column id
            coboundaries[d + 2] = []
            for root, _, dying in sorted(bars, reverse=True):
                delta: dict[int, int] = {}
                for tau in dying:
                    for rho, x in filtration.cofacets(tau):
                        delta[rho] = delta.get(rho, 0) + x * sign[tau] * sign[root]
                coboundaries[d + 2].append(
                    [(rho, x) for rho, x in sorted(delta.items(), reverse=True) if x]
                )
        # σ's own column kills the component of its first cofacet
        bars += [(root, None, m) for root, m in members.items() if root != death_id]
        for root, rho, dying in bars:
            death = INF if rho is None else values[rho]
            if values[root] < death:
                s = sign[root]
                rep = [(tau, sign[tau] * s) for tau in sorted(dying, reverse=True)]
                classes.append(PersistentCocycle(d + 1, values[root], death, root, rho, rep))
        for k in range(d + 2, max_order + 1):
            if k > d + 2:  # the k-simplices over σ, each a cofacet of one below
                level = filtration.ids_of_dim(k) if not sigma else sorted(
                    {c for t in level for c, _ in filtration.cofacets(t)}
                )
            reduced, cleared = _reduce_order(filtration, k, level[::-1], cleared, classes)
            if keep and k < max_order:
                coboundaries[k + 1] = reduced
    classes.sort(key=lambda c: (c.order, c.birth, c.birth_index))
    return Diagram(classes=classes), coboundaries


def persistent_cohomology(
    filtration: Filtration,
    max_order: int,
    fld: Field = Field(),
) -> Diagram:
    """Diagram of the absolute persistent cohomology up to max_order: the
    star of the empty simplex. Every carrier gives the same diagram, whose
    coefficients are ints, or Fractions where a division left a remainder
    (`linalg`); `fld` is kept for callers that pass it."""
    return star_diagram(filtration, (), max_order)[0]
