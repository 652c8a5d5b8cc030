"""File formats: the one module that turns objects into bytes and input
files into objects.

`dumps` is `json.dumps` without NaN or infinities: floats are written
with repr(), the shortest text that round-trips binary64 exactly. An
essential death and an essential atom end are written as the string
"inf" where their records are built; any other non-finite float is a
ContractError. The readers turn a file that cannot be opened or is not
text into a ConfigError naming the path.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .complexes import Filtration, WeightedGraph, facets, graph_from_points
from .errors import ConfigError, ContractError
from .persistence import Diagram, PersistentCocycle


def dumps(obj) -> str:
    """`obj` as one line of JSON; a NaN or an infinity in it is a ContractError."""
    try:
        return json.dumps(obj, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ContractError(f"cannot write JSON: {exc}") from None


def _lines(path):
    """(line number, stripped line) of each line of `path` that is neither
    blank nor a `#` comment, read lazily."""
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid {what} JSON ({exc})") from None


# ---------------------------------------------------------------------------
# graph / point-cloud ingestion
# ---------------------------------------------------------------------------


def read_edge_csv(path) -> WeightedGraph:
    """CSV rows `u,v,w` with 0-based integer ids and decimal weights."""
    edges = []
    max_vertex = -1
    for lineno, line in _lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 'u,v,w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        edges.append((u, v, w))
        max_vertex = max(max_vertex, u, v)
    return WeightedGraph(vertex_count=max_vertex + 1, edges=tuple(edges))


def read_points_csv(path, metric: str, knn: int | None) -> WeightedGraph:
    """CSV rows of d coordinates, expanded to a complete weighted graph."""
    points = []
    for lineno, line in _lines(path):
        try:
            points.append([float(p) for p in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not points:
        raise ConfigError(f"{path}: no points found")
    return graph_from_points(points, metric=metric, knn=knn)


# ---------------------------------------------------------------------------
# filtration dump / re-ingestion
# ---------------------------------------------------------------------------


def filtration_to_obj(filtration: Filtration) -> list[dict]:
    return [
        {"vertices": list(s), "value": filtration.values[i], "index": i}
        for i, s in enumerate(filtration.simplices)
    ]


def filtration_from_obj(obj, max_dim: int | None = None) -> Filtration:
    """Filtration from dump records, taken in `index` order.

    The records must form a filtration: strictly increasing nonnegative
    vertex ids, no simplex twice, finite values nondecreasing in index
    order, every facet recorded earlier (so all faces are present and
    valued no higher) and a record for every vertex id below the largest.
    An index is a JSON integer and a value a JSON number, neither a
    boolean. A record that breaks this raises ConfigError naming its index.
    """
    try:
        for r in obj:
            index, value = r["index"], r["value"]
            if type(index) is not int:
                raise ConfigError(f"filtration record {index!r}: index is not an integer")
            if type(value) not in (int, float):
                raise ConfigError(f"filtration record {index}: value {value!r} is not a number")
        records = sorted(obj, key=lambda r: r["index"])
        simplices = [tuple(r["vertices"]) for r in records]
        values = [float(r["value"]) for r in records]
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"filtration dump must list records with vertices, value and index ({exc!r})"
        ) from None
    seen: set[tuple[int, ...]] = set()
    for i, s in enumerate(simplices):
        where = f"filtration record {records[i]['index']}"
        if not (s and all(type(x) is int and x >= 0 for x in s) and list(s) == sorted(set(s))):
            raise ConfigError(f"{where}: vertices {list(s)} are not strictly increasing ids >= 0")
        if s in seen:
            raise ConfigError(f"{where}: simplex {list(s)} appears twice")
        if not math.isfinite(values[i]):
            raise ConfigError(f"{where}: value {values[i]!r} is not finite")
        if i and values[i] < values[i - 1]:
            raise ConfigError(
                f"{where}: value {values[i]!r} is below the previous record's {values[i - 1]!r}"
            )
        for face, _ in facets(s) if len(s) > 1 else ():
            if face not in seen:
                raise ConfigError(f"{where}: face {list(face)} of {list(s)} has no earlier record")
        seen.add(s)
    vertex_count = max((s[-1] for s in simplices), default=-1) + 1
    # each vertex needs its own record, so a gap shows among those records
    recorded = sorted(s[0] for s in simplices if len(s) == 1)
    if len(recorded) < vertex_count:
        missing = next((v for v, r in enumerate(recorded) if v != r), len(recorded))
        raise ConfigError(f"filtration dump has no record for vertex {missing}")
    dim = max((len(s) - 1 for s in simplices), default=0)
    return Filtration(
        simplices=simplices,
        values=values,
        vertex_count=vertex_count,
        max_dim=max(dim, max_dim) if max_dim is not None else dim,
    )


def read_filtration_json(path, max_dim: int | None = None) -> Filtration:
    """Re-ingest a filtration dump.

    The dump schema carries no construction depth, so callers may assert
    the clique-scan cap via max_dim (the deepest simplex present is used
    otherwise).
    """
    return filtration_from_obj(_load_json(path, "filtration"), max_dim=max_dim)


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def cocycle_to_obj(c: PersistentCocycle) -> dict:
    return {
        "k": c.order,
        "birth": c.birth,
        "death": "inf" if c.essential else c.death,
        "birth_index": c.birth_index,
        "death_index": c.death_index,
        "representative": [
            {"simplex_index": i, "coeff": float(v)}
            for i, v in reversed(c.representative)
        ],
    }


def diagram_to_obj(diagram: Diagram) -> list[dict]:
    return [cocycle_to_obj(c) for c in diagram.classes]


def diagram_to_csv(diagram: Diagram) -> str:
    lines = ["k,birth,death"]
    for c in diagram.classes:
        death = "inf" if c.essential else repr(c.death)
        lines.append(f"{c.order},{repr(c.birth)},{death}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stalks, Laplacian blocks, features
# ---------------------------------------------------------------------------


def stalk_to_obj(stalk) -> dict:
    return {
        "vertex": stalk.vertex,
        "horizon": stalk.horizon,
        "cocycles": [cocycle_to_obj(c) for c in stalk.cocycles],
    }


def laplacian_to_obj(assembled) -> dict:
    blocks = []
    for (u, v), block in sorted(assembled.blocks.items()):
        atoms = []
        for atom in block.atoms:
            atoms.append(
                {
                    "interval": [atom.start, "inf" if atom.end == math.inf else atom.end],
                    "vA": [float(atom.v_a.get(i, 0.0)) for i in range(assembled.dims[u])],
                    "vB": [float(atom.v_b.get(i, 0.0)) for i in range(assembled.dims[v])],
                }
            )
        blocks.append({"u": u, "v": v, "atoms": atoms})
    return {
        "order": assembled.order,
        "stalk_dims": {str(v): assembled.dims[v] for v in assembled.vertices},
        "blocks": blocks,
    }


def features_to_obj(features) -> dict:
    channels = []
    for c in range(features.channels):
        channels.append(
            {
                str(v): {str(i): float(arr[i, c]) for i in range(arr.shape[0])}
                for v, arr in sorted(features.values.items())
            }
        )
    return {"order": features.order, "channels": channels}


def features_from_obj(obj, laplacian):
    """Features from a `features_to_obj` dump, laid out on `laplacian`.

    The dump must carry the Laplacian's order and a list of channels,
    each mapping vertex ids of the Laplacian to {cocycle index: value}
    with indices below that vertex's stalk dimension to a finite real (a
    number or a decimal string; not a boolean). A dump that breaks this
    raises ConfigError.
    """
    from .nn import FeatureBundle

    try:
        order, channels = obj["order"], obj["channels"]
    except (KeyError, TypeError):
        raise ConfigError("feature JSON must be an object with 'order' and 'channels'") from None
    if type(order) is not int or order != laplacian.order:
        raise ConfigError(
            f"feature order {order!r} does not match the Laplacian's {laplacian.order}"
        )
    if not (isinstance(channels, list) and channels
            and all(isinstance(ch, dict) for ch in channels)):
        raise ConfigError("feature 'channels' must be a non-empty list of objects")
    values = {v: np.zeros((laplacian.dims[v], len(channels))) for v in laplacian.vertices}
    vertex_of = {str(v): v for v in laplacian.vertices}
    for c, chan in enumerate(channels):
        for v_str, entries in chan.items():
            v = vertex_of.get(v_str)
            if v is None:
                raise ConfigError(f"feature channel {c}: vertex {v_str!r} is not in the Laplacian")
            if not isinstance(entries, dict):
                raise ConfigError(f"feature channel {c}, vertex {v}: entries must be an object")
            dim = laplacian.dims[v]
            index_of = {str(i): i for i in range(dim)}
            for i_str, val in entries.items():
                i = index_of.get(i_str)
                if i is None:
                    raise ConfigError(
                        f"feature channel {c}, vertex {v}: cocycle index {i_str!r} "
                        f"is not below the stalk dimension {dim}"
                    )
                try:
                    x = float(val)
                    ok = math.isfinite(x) and not isinstance(val, bool)
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise ConfigError(
                        f"feature channel {c}, vertex {v}, index {i}: value {val!r} is not "
                        "a number: a feature is a finite real, not a boolean"
                    )
                values[v][i, c] = x
    return FeatureBundle(order=order, channels=len(channels), values=values)


def read_features_json(path, laplacian):
    """Re-ingest a `features_to_obj` dump for `laplacian`."""
    return features_from_obj(_load_json(path, "feature"), laplacian)


def energy_trace_csv(energies) -> str:
    lines = ["step,energy"]
    for i, e in enumerate(energies):
        lines.append(f"{i},{repr(e)}")
    return "\n".join(lines) + "\n"


def laplacian_to_matrixmarket(assembled) -> str:
    """Slice export in MatrixMarket coordinate format, read from the COO
    entries in (row, col) order. A cell whose float value is +-0.0 is left
    out, so the file lists exactly the nonzeros of the float image."""
    n = assembled.dimension
    rows, cols, _ = assembled.entries
    nonzero = assembled.float_vals != 0
    # tolist() gives Python floats, whose repr round-trips without a type tag
    values = assembled.float_vals[nonzero].tolist()
    lines = ["%%MatrixMarket matrix coordinate real general", f"{n} {n} {len(values)}"]
    lines += [
        f"{i + 1} {j + 1} {v!r}"
        for i, j, v in zip(rows[nonzero].tolist(), cols[nonzero].tolist(), values)
    ]
    return "\n".join(lines) + "\n"
