"""One sha256 over the pipeline's outputs on a fixed set of inputs.

    PYTHONPATH=src python3 tools/digest.py

The inputs are the first 60 graphs of `tests/data/random_corpus.json`, the
first 20 of `tests/data/tie_free_corpus.json` and kNN-6 clouds of n uniform
points in the unit square (numpy `default_rng(n)`, n in CLOUD_SIZES). Each
is built with max_dim 3 and run on both carriers: the diagram up to order
2, every stalk cocycle (max_order 2), and, for orders 1 and 2 and the
modes slice at t_plus, slice at the middle threshold and weighted, every
block atom, every `entries` item and, on the exact carrier,
`kernel_dim_exact`. Each item enters the hash as its `repr`, so a change
of value, type, order or dict order changes the hash. A change meant to
keep outputs identical prints the same line before and after it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
CLOUD_SIZES = (30, 60, 120, 200)


def corpus(name: str, count: int):
    from localhom.complexes import WeightedGraph

    entries = json.loads((DATA / name).read_text())[:count]
    return [WeightedGraph(g["vertices"], tuple(map(tuple, g["edges"]))) for g in entries]


def graphs():
    from localhom import graph_from_points

    clouds = [
        graph_from_points(np.random.default_rng(n).random((n, 2)).tolist(), knn=6)
        for n in CLOUD_SIZES
    ]
    return corpus("random_corpus.json", 60) + corpus("tie_free_corpus.json", 20) + clouds


def items(graph, fld):
    """repr of every output of the pipeline on one graph and carrier."""
    from localhom import assemble_laplacian, build_flag_complex, compute_stalk
    from localhom import persistent_cohomology

    filt = build_flag_complex(graph, 3)
    yield repr(persistent_cohomology(filt, 2, fld).classes)
    stalks = {v: compute_stalk(filt, v, 2, fld=fld) for v in range(filt.vertex_count)}
    for v in sorted(stalks):
        yield repr(stalks[v].cocycles)
    thresholds = filt.threshold_values()
    modes = [("slice", filt.t_plus), ("slice", thresholds[len(thresholds) // 2]), "weighted"]
    for k in (1, 2):
        for mode in modes:
            lap = assemble_laplacian(filt, stalks, k, mode, fld)
            for edge, block in sorted(lap.blocks.items()):
                yield repr((edge, block.atoms))
            yield repr(list(zip(*(a.tolist() for a in lap.entries))))
            if fld.kind == "exact":
                yield repr(lap.kernel_dim_exact())


def main() -> int:
    from localhom import Field

    digest = hashlib.sha256()
    for graph in graphs():
        for fld in (Field(), Field(kind="float")):
            for item in items(graph, fld):
                digest.update(item.encode())
                digest.update(b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
