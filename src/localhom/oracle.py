"""Dense brute-force homology oracle.

Everything here recomputes boundary matrices from simplex tuples and
eliminates them with its own exact integer routine; none of the sparse
reduction machinery of the fast path is used. Tests and the CLI `verify`
command treat these answers as ground truth.

One builder, `_boundary_rows`, makes every incidence matrix from one id
set, reading only the simplices of that set and dropping the faces outside
it. On member - excluded, for a closed pair, it is the boundary map of the
quotient chain complex. On an open set U of S_t its rows are the
coboundary of U's cochains: the cochain complex of the pair
(S_t, S_t \\ U), whose cohomology is the paper's local cohomology when U
is a vertex star; `local_betti` is its homology on st v ∩ S_t.

One elimination, `rank_int_rows`, gives every dimension. No basis of a
cocycle space is written out: the image of the cocycles under a map φ is
counted by dim φ(ker δ) = rank [φ; δ] - rank δ (`_beside`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import Filtration, is_open_set
from .errors import ContractError

# ---------------------------------------------------------------------------
# exact linear algebra on sparse integer rows
# ---------------------------------------------------------------------------


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rank_int_rows(rows) -> int:
    """Rank of a matrix given as sparse integer rows (dicts col->coeff).

    Columns are ints of any sign; each row pivots on its least column."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            pr = pivots.get(c)
            if pr is None:
                pivots[c] = _gcd_normalize(r)
                rank += 1
                break
            a, p = r[c], pr[c]
            new = {}
            for k in r.keys() | pr.keys():
                val = p * r.get(k, 0) - a * pr.get(k, 0)
                if val:
                    new[k] = val
            r = _gcd_normalize(new)
    return rank


# ---------------------------------------------------------------------------
# boundary matrices of subcomplexes, rebuilt from simplex tuples
# ---------------------------------------------------------------------------


def ids_at(filtration: Filtration, t: float) -> set[int]:
    return {i for i, v in enumerate(filtration.values) if v <= t}


def _boundary_rows(
    filtration: Filtration, ids: set[int], k: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Rows of the k-th boundary map on the id set `ids`, one row per
    (k-1)-simplex of `ids`, and the ids of its columns (the k-simplices of
    `ids`), both in filtration order.

    Faces outside `ids` are dropped. With ids = member - excluded, member
    closed and excluded closed within it, this is the boundary map of the
    quotient chain complex C(member)/C(excluded). Row r is also the
    coboundary of the r-th (k-1)-simplex, so with `ids` an open set U of
    S_t the rows are the coboundary map of the cochain complex of U: the
    cochains of (S_t, S_t \\ U). Returns (rows over column positions,
    column ids).
    """
    cols = sorted(i for i in ids if len(filtration.simplices[i]) == k + 1)
    rows_ids = sorted(i for i in ids if len(filtration.simplices[i]) == k)
    cpos = {sid: c for c, sid in enumerate(cols)}
    rpos = {sid: r for r, sid in enumerate(rows_ids)}
    rows: list[dict[int, int]] = [dict() for _ in rows_ids]
    for sid in cols:
        s = filtration.simplices[sid]
        if len(s) < 2:
            continue
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            r = rpos.get(filtration.id_of(face))
            if r is not None:
                rows[r][cpos[sid]] = -1 if j % 2 else 1
    return rows, cols


def _relative_betti(filtration: Filtration, ids: set[int], k: int) -> int:
    """dim H_k of the chains on `ids` under `_boundary_rows`: with
    ids = member - excluded, of the quotient C(member)/C(excluded)."""
    rows_k, cols_k = _boundary_rows(filtration, ids, k)
    rows_k1, _ = _boundary_rows(filtration, ids, k + 1)
    return len(cols_k) - rank_int_rows(rows_k) - rank_int_rows(rows_k1)


def betti_dense(filtration: Filtration, t: float, k: int) -> int:
    """dim H_k(S_t) by exact dense elimination of the boundary maps."""
    return _relative_betti(filtration, ids_at(filtration, t), k)


def local_betti(filtration: Filtration, vertex: int, t: float, k: int) -> int:
    """dim H_k(S_t, S_t \\ st v), the local homology of S_t at `vertex`."""
    return local_bettis(filtration, vertex, [t], [k])[t, k]


def local_bettis(filtration: Filtration, vertex: int, times, orders) -> dict:
    """{(t, k): `local_betti`} for each time t in `times` and k in `orders`.

    The quotient keeps the chains of st v ∩ S_t, the simplices of S_t that
    contain the vertex; st v is found once, by a scan of every simplex.
    """
    filtration.id_of((vertex,))  # an unknown vertex is an UnknownSimplexError
    star = [i for i, s in enumerate(filtration.simplices) if vertex in s]
    return {
        (t, k): _relative_betti(filtration, {i for i in star if filtration.values[i] <= t}, k)
        for t in times
        for k in orders
    }


# ---------------------------------------------------------------------------
# relative cohomology over designated open sets, counted by rank
# ---------------------------------------------------------------------------


def _open_cochains(
    filtration: Filtration, present: set[int], open_ids: set[int], k: int
):
    """(coboundaries, coboundary map, columns) of the k-cochains of
    (S, S \\ U), S the complex on `present` and U = open_ids & present.

    Vectors live over the k-simplices of U, the columns. The coboundary
    space is spanned by the nonempty rows of `_boundary_rows` on U in
    degree k. Row c of the coboundary map is δ of the c-th k-simplex over
    the (k+1)-simplices of U: row c of `_boundary_rows` on U in degree
    k + 1. So dim Z = len(columns) - rank(coboundary map).
    """
    u = open_ids & present
    cob, cols = _boundary_rows(filtration, u, k)
    delta, _ = _boundary_rows(filtration, u, k + 1)
    return [v for v in cob if v], delta, cols


def _beside(maps) -> list[dict[int, int]]:
    """One row (φ(c), δc) per cochain c of each (φ rows, δ rows) pair in
    `maps`, for the identity dim φ(ker δ) = rank [φ; δ] - rank δ.

    φ's coordinates are nonnegative; each δ's go in a negative range of
    their own, so the joint δ is block diagonal and its rank is the sum of
    the ranks of the δs. With rows E over φ's coordinates stacked on top,
    dim(Σ φ(ker δ) + span E) = rank of them all - Σ rank δ. As
    `rank_int_rows` pivots on the least coordinate, a row with δc ≠ 0
    pivots in its own range, and only cocycles reach φ's coordinates.
    """
    out, base = [], -1
    for phi, delta in maps:
        out += [{**p, **{base - c: x for c, x in d.items()}} for p, d in zip(phi, delta)]
        base -= 1 + max((c for d in delta for c in d), default=-1)
    return out


def global_sections_dim(filtration: Filtration, t: float, k: int) -> int:
    """dim of the global sections of the cosheaf σ ↦ H^k_c(st σ) on S_t.

    That is the cokernel of ⊕_e H^k(S_t, S_t \\ st e) -> ⊕_v H^k(S_t,
    S_t \\ st v), each edge class ξ of e = uv mapped to (ext_u ξ, -ext_v ξ)
    by extension by zero: the E²_{0,k} term of the Mayer-Vietoris spectral
    sequence of the cover by vertex stars (Curry 2014; Hansen & Ghrist
    2019). The slice Laplacian's kernel on the cocycles alive at t counts
    it; it is not β_k in general. With Z and B the vertex cocycles and
    coboundaries and R the edge cocycles' image, all in the vertex stalks'
    joint coordinates, it is dim Z - rank(R + B), as B and R lie in Z.
    R + B is counted with no basis of a cocycle space: with φ the map
    s ↦ (ext_u s, -ext_v s) of each edge star's cochains and δ_e its
    coboundary, rank(R + B) = rank [B; φ, δ_e] - Σ_e rank δ_e.
    """
    present = ids_at(filtration, t)
    stars: dict[int, set[int]] = {}
    for i in present:
        for v in filtration.simplices[i]:
            stars.setdefault(v, set()).add(i)
    dim_z, b, place = 0, [], {}
    for v, star in sorted(stars.items()):
        b_v, delta_v, cols_v = _open_cochains(filtration, present, star, k)
        dim_z += len(cols_v) - rank_int_rows(delta_v)
        offset = len(place)
        place.update({(v, sid): offset + i for i, sid in enumerate(cols_v)})
        b += [{offset + c: x for c, x in row.items()} for row in b_v]
    maps, rank_delta = [], 0
    for eid in sorted(i for i in present if len(filtration.simplices[i]) == 2):
        u, v = filtration.simplices[eid]
        _, delta_e, cols_e = _open_cochains(filtration, present, stars[u] & stars[v], k)
        maps.append(([{place[u, s]: 1, place[v, s]: -1} for s in cols_e], delta_e))
        rank_delta += rank_int_rows(delta_e)
    return dim_z - rank_int_rows(b + _beside(maps)) + rank_delta


@dataclass
class ExactnessReport:
    order: int
    positions: list[dict]

    @property
    def exact(self) -> bool:
        return all(p["im_rank"] == p["ker_dim"] for p in self.positions)


def check_mayer_vietoris(
    filtration: Filtration,
    open_a: frozenset[int],
    open_b: frozenset[int],
    k: int,
) -> ExactnessReport:
    """Exactness at H^k(A)+H^k(B) in the open-set Mayer-Vietoris sequence,
    on the whole complex S_{t_plus}, for open id sets A and B.

    Verifies im(H^k(A cap B) -> H^k(A) + H^k(B)) has the same rank as the
    kernel of the map onto H^k(A cup B), all computed densely from
    extension-by-zero cochain maps. Every dimension is a rank: dim H^k(U)
    = len(columns) - rank δ_U - rank B_U, as B_U lies in Z_U, and a map's
    rank on cohomology is dim(φ(ker δ) + B) - rank B, where dim(φ(ker δ)
    + B) = rank [B; φ, δ] - rank δ.
    """
    for ids in (open_a, open_b):
        if not is_open_set(filtration, ids):
            raise ContractError("Mayer-Vietoris inputs must be open")
    present = ids_at(filtration, filtration.t_plus)
    _, delta_c, cols_c = _open_cochains(filtration, present, open_a & open_b, k)
    b_a, delta_a, cols_a = _open_cochains(filtration, present, open_a, k)
    b_b, delta_b, cols_b = _open_cochains(filtration, present, open_b, k)
    b_d, _, cols_d = _open_cochains(filtration, present, open_a | open_b, k)

    pos_a = {sid: i for i, sid in enumerate(cols_a)}
    pos_b = {sid: len(cols_a) + i for i, sid in enumerate(cols_b)}
    pos_d = {sid: i for i, sid in enumerate(cols_d)}
    rank_a, rank_b = rank_int_rows(delta_a), rank_int_rows(delta_b)
    rank_ba, rank_bb = rank_int_rows(b_a), rank_int_rows(b_b)
    dim_ha = len(cols_a) - rank_a - rank_ba
    dim_hb = len(cols_b) - rank_b - rank_bb

    # image of map1: xi |-> (ext_A xi, -ext_B xi) modulo B_A + B_B, in the
    # product coordinates
    b_prod = b_a + [{len(cols_a) + c: x for c, x in row.items()} for row in b_b]
    map1 = [{pos_a[s]: 1, pos_b[s]: -1} for s in cols_c]
    im_rank = (
        rank_int_rows(b_prod + _beside([(map1, delta_c)]))
        - rank_int_rows(delta_c)
        - rank_ba
        - rank_bb
    )

    # rank of map2: (alpha, beta) |-> ext_D alpha + ext_D beta modulo B_D
    map2 = [([{pos_d[s]: 1} for s in cols_a], delta_a), ([{pos_d[s]: 1} for s in cols_b], delta_b)]
    rank2 = rank_int_rows(b_d + _beside(map2)) - rank_a - rank_b - rank_int_rows(b_d)
    ker_dim = dim_ha + dim_hb - rank2

    return ExactnessReport(
        order=k,
        positions=[{"position": "middle", "im_rank": im_rank, "ker_dim": ker_dim}],
    )
