"""Dense brute-force homology oracle.

Everything here recomputes boundary matrices from simplex tuples and
eliminates them with its own exact integer/rational routines; none of the
sparse reduction machinery of the fast path is used. Tests and the CLI
`verify` command treat these answers as ground truth.

One builder, `_boundary_rows`, makes every incidence matrix from one id
set, reading only the simplices of that set and dropping the faces outside
it. On member - excluded, for a closed pair, it is the boundary map of the
quotient chain complex. On an open set U of S_t its rows are the
coboundary of U's cochains: the cochain complex of the pair
(S_t, S_t \\ U), whose cohomology is the paper's local cohomology when U
is a vertex star; `local_betti` is its homology on st v ∩ S_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexes import Filtration, SimplexSubset, is_open_set
from .errors import ContractError

# ---------------------------------------------------------------------------
# exact linear algebra on sparse integer/rational rows
# ---------------------------------------------------------------------------


def _gcd_normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rank_int_rows(rows) -> int:
    """Rank of a matrix given as sparse integer rows (dicts col->coeff)."""
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
# relative cohomology subspaces over designated open sets
# ---------------------------------------------------------------------------


def _open_cochains(
    filtration: Filtration, present: set[int], open_ids: set[int], k: int
):
    """(cocycle constraints, coboundary rows, columns) of the k-cochains of
    (S, S \\ U), S the complex on `present` and U = open_ids & present.

    Vectors live over the k-simplices of U. A cocycle x has (delta x)(s) = 0
    for each (k+1)-simplex s of U: that constraint is column s of
    `_boundary_rows` on U in degree k + 1. The coboundary space is spanned
    by the nonempty rows of `_boundary_rows` on U in degree k.
    """
    u = open_ids & present
    cob, cols = _boundary_rows(filtration, u, k)
    rows, cofaces = _boundary_rows(filtration, u, k + 1)
    constraints: list[dict[int, int]] = [{} for _ in cofaces]
    for r, row in enumerate(rows):
        for c, v in row.items():
            constraints[c][r] = v
    return constraints, [v for v in cob if v], cols


def _open_cohomology_spaces(
    filtration: Filtration, present: set[int], open_ids: set[int], k: int
):
    """(cocycle kernel basis, coboundary rows, columns) of H^k(S, S \\ U).

    The relative cochains of (S, S \\ U) are the cochains on U's simplices,
    and their coboundary is `_boundary_rows` on the open set U, which drops
    the faces outside U; `_open_cochains` reads the cocycle constraints and
    the coboundaries from it.
    """
    constraints, cob, cols = _open_cochains(filtration, present, open_ids, k)
    return kernel_basis(constraints, len(cols)), cob, cols


def _embed(vec: dict[int, int], src_cols: list[int], dst_pos: dict[int, int], offset=0):
    return {dst_pos[src_cols[c]] + offset: v for c, v in vec.items()}


def global_sections_dim(filtration: Filtration, t: float, k: int) -> int:
    """dim of the global sections of the cosheaf σ ↦ H^k_c(st σ) on S_t.

    That is the cokernel of ⊕_e H^k(S_t, S_t \\ st e) -> ⊕_v H^k(S_t,
    S_t \\ st v), each edge class ξ of e = uv mapped to (ext_u ξ, -ext_v ξ)
    by extension by zero: the E²_{0,k} term of the Mayer-Vietoris spectral
    sequence of the cover by vertex stars (Curry 2014; Hansen & Ghrist
    2019). The slice Laplacian's kernel on the cocycles alive at t counts
    it; it is not β_k in general. With Z and B the vertex cocycles and
    coboundaries and R the edge rows, all in the vertex stalks' joint
    coordinates, it is rank(Z+B) - rank(B) minus rank(R+B) - rank(B); as
    B and R lie in Z, that is dim Z - rank(R+B), and dim Z needs no basis.
    """
    present = ids_at(filtration, t)
    stars: dict[int, set[int]] = {}
    for i in present:
        for v in filtration.simplices[i]:
            stars.setdefault(v, set()).add(i)
    dim_z, b, place = 0, [], {}
    for v, star in sorted(stars.items()):
        constraints, b_v, cols_v = _open_cochains(filtration, present, star, k)
        dim_z += len(cols_v) - rank_int_rows(constraints)
        offset = len(place)
        place.update({(v, sid): offset + i for i, sid in enumerate(cols_v)})
        b += [{offset + c: x for c, x in row.items()} for row in b_v]
    r = []
    for eid in sorted(i for i in present if len(filtration.simplices[i]) == 2):
        u, v = filtration.simplices[eid]
        n_e, _, cols_e = _open_cohomology_spaces(filtration, present, stars[u] & stars[v], k)
        for x in n_e:
            row = {place[u, cols_e[c]]: val for c, val in x.items()}
            row.update({place[v, cols_e[c]]: -val for c, val in x.items()})
            r.append(row)
    return dim_z - rank_int_rows(b + r)


@dataclass
class ExactnessReport:
    order: int
    positions: list[dict]

    @property
    def exact(self) -> bool:
        return all(p["im_rank"] == p["ker_dim"] for p in self.positions)


def check_mayer_vietoris(
    filtration: Filtration,
    open_a: SimplexSubset,
    open_b: SimplexSubset,
    k: int,
) -> ExactnessReport:
    """Exactness at H^k(A)+H^k(B) in the open-set Mayer-Vietoris sequence,
    on the whole complex S_{t_plus}.

    Verifies im(H^k(A cap B) -> H^k(A) + H^k(B)) has the same rank as the
    kernel of the map onto H^k(A cup B), all computed densely from
    extension-by-zero cochain maps.
    """
    for subset in (open_a, open_b):
        if not is_open_set(filtration, subset.ids):
            raise ContractError("Mayer-Vietoris inputs must be open")
    present = ids_at(filtration, filtration.t_plus)
    a_ids, b_ids = set(open_a.ids), set(open_b.ids)
    c_ids = a_ids & b_ids
    d_ids = a_ids | b_ids

    n_c, _, cols_c = _open_cohomology_spaces(filtration, present, c_ids, k)
    n_a, b_a, cols_a = _open_cohomology_spaces(filtration, present, a_ids, k)
    n_b, b_b, cols_b = _open_cohomology_spaces(filtration, present, b_ids, k)
    _, b_d, cols_d = _open_cochains(filtration, present, d_ids, k)  # no basis of A cup B is read

    pos_a = {sid: i for i, sid in enumerate(cols_a)}
    pos_b = {sid: i for i, sid in enumerate(cols_b)}
    pos_d = {sid: i for i, sid in enumerate(cols_d)}

    # H^k(A) + H^k(B) boundary space inside the product coordinates
    b_prod = [_embed(v, cols_a, pos_a) for v in b_a]
    b_prod += [_embed(v, cols_b, pos_b, offset=len(cols_a)) for v in b_b]

    dim_va = rank_int_rows(n_a + b_a) - rank_int_rows(b_a)
    dim_vb = rank_int_rows(n_b + b_b) - rank_int_rows(b_b)

    # image of map1: xi |-> (ext_A xi, -ext_B xi) modulo boundaries
    img1 = []
    for vec in n_c:
        row = _embed(vec, cols_c, pos_a)
        for c, v in _embed(vec, cols_c, pos_b, offset=len(cols_a)).items():
            row[c] = -v
        img1.append(row)
    im_rank = rank_int_rows(img1 + b_prod) - rank_int_rows(b_prod)

    # rank of map2: (alpha, beta) |-> ext_D alpha + ext_D beta modulo B_D
    img2 = [_embed(v, cols_a, pos_d) for v in n_a]
    img2 += [_embed(v, cols_b, pos_d) for v in n_b]
    rank2 = rank_int_rows(img2 + b_d) - rank_int_rows(b_d)
    ker_dim = dim_va + dim_vb - rank2

    return ExactnessReport(
        order=k,
        positions=[{"position": "middle", "im_rank": im_rank, "ker_dim": ker_dim}],
    )
