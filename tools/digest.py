"""One sha256 over the pipeline's outputs on a fixed set of inputs.

    PYTHONPATH=src python3 tools/digest.py

The inputs are the first 60 graphs of `tests/data/random_corpus.json`, the
first 20 of `tests/data/tie_free_corpus.json` and kNN-6 clouds of n uniform
points in the unit square (numpy `default_rng(n)`, n in CLOUD_SIZES). Each
is built with max_dim 3 and run on both carriers: the diagram up to order
2, every stalk cocycle (max_order 2), and, for orders 1 and 2 and the
modes slice at t_plus, slice at the middle threshold and weighted, every
block atom, every `entries` item and, on the exact carrier,
`kernel_dim_exact`. Each order's blocks are reduced once, by the first
mode's `assemble_laplacian`; the other modes are `dataclasses.replace`
copies of that operator.

The hash then covers the dense oracle on the first 20 graphs of each
corpus, built with max_dim 3: for vertex `gi % n` (gi the graph's position
in its corpus), `local_betti` at k = 0, 1 and 2 and every threshold,
`check_mayer_vietoris(...).positions` for the stars of the first edge's
ends at k = 0, 1 and 2, and `global_sections_dim` at k = 1 and 2 and every
threshold.

The same hash then covers the CLI: `localhom.cli.main` runs `filtration`,
`persistence`, `stalks`, `laplacian` (weighted and slice at t_plus) and
`diffuse` on c4, the octahedron, the unit-square points, the first
random-corpus graph and a kNN-6 cloud of 60 points, on both carriers
(`--field` goes to every command but `filtration`) at max orders 1 and 2.
Each filtration dump is read back by `persistence --format filtration`,
and each `diffuse` output by `diffuse --features`. `verify` runs once on
the golden fixtures and, at max orders 1 and 2, on every input but the
60-point cloud (VERIFY_SKIP). Every exit code, everything written to
stdout and every file written (by path under the run's output directory)
enters the hash.

Each item enters the hash as its `repr`, so a change of value, type,
order or dict order changes the hash. A change meant to keep outputs
identical prints the same line before and after it. Since cocycles
stopped carrying a `coboundary` field, a cocycle's `repr` has no
`coboundary=`, so the hash moved then with no output change; CHANGES.md
says how that was checked. The hash moved once more, from 3ee2e9de... to
70e802a8..., when a representative became a list of (id, coefficient)
pairs instead of a dict: only a cocycle's `repr` changed. The code before
that change, with only `PersistentCocycle.__repr__` made to print
`representative=list(representative.items())`, prints 70e802a8... too.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
CLOUD_SIZES = (30, 60, 120, 200)
# CLI inputs that `verify` skips: it takes about 1.6-1.9 s at max order 1 and 4.2-5.3 s
# at max order 2 on the 60-point cloud (CPU time, shared 2-core host), most of it in
# `oracle.global_sections_dim`, against about 1.6 s for this whole digest
VERIFY_SKIP = ("knn6_cloud_60",)


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
    modes = [("slice", filt.t_plus), ("slice", thresholds[len(thresholds) // 2]), ("weighted",)]
    for k in (1, 2):
        first = assemble_laplacian(filt, stalks, k, modes[0], fld)
        for mode in modes:
            lap = replace(first, mode=mode)
            for edge, block in sorted(lap.blocks.items()):
                yield repr((edge, block.atoms))
            yield repr(list(zip(*(a.tolist() for a in lap.entries))))
            if fld.kind == "exact":
                yield repr(lap.kernel_dim_exact())


def oracle_items(gi, graph):
    """repr of the oracle's local Betti numbers, Mayer-Vietoris answers and
    global sections counts on one corpus graph."""
    from localhom import build_flag_complex, oracle, star_of_vertices

    filt = build_flag_complex(graph, 3)
    v = gi % graph.vertex_count
    for k in (0, 1, 2):
        yield repr([oracle.local_betti(filt, v, t, k) for t in filt.threshold_values()])
    edges = filt.ids_of_dim(1)
    if edges:
        a, b = (star_of_vertices(filt, [u]) for u in filt.simplices[edges[0]])
        for k in (0, 1, 2):
            yield repr(oracle.check_mayer_vietoris(filt, a, b, k).positions)
    for k in (1, 2):
        yield repr([oracle.global_sections_dim(filt, t, k) for t in filt.threshold_values()])


def cli_inputs(tmp: Path):
    """(name, input flags, t_plus) of each CLI input, written under `tmp`."""
    from localhom import build_flag_complex, golden
    from localhom.formats import read_edge_csv, read_points_csv

    def edges(name, graph):
        path = tmp / f"{name}.csv"
        path.write_text("".join(f"{u},{v},{w!r}\n" for u, v, w in graph.edges))
        return name, ["--input", str(path)], read_edge_csv(path)

    def points(name, coords, knn):
        path = tmp / f"{name}.csv"
        path.write_text("".join(",".join(map(repr, p)) + "\n" for p in coords))
        flags = ["--input", str(path), "--format", "points"]
        if knn is not None:
            flags += ["--knn", str(knn)]
        return name, flags, read_points_csv(path, "euclidean", knn)

    cloud = np.random.default_rng(60).random((60, 2)).tolist()
    for name, flags, graph in (
        edges("c4", golden.c4()),
        edges("octahedron", golden.octahedron()),
        points("unit_square", golden.unit_square_points(), None),
        edges("random_corpus_0", corpus("random_corpus.json", 1)[0]),
        points("knn6_cloud_60", cloud, 6),
    ):
        yield name, flags, build_flag_complex(graph, 1).t_plus


def cli_items(tmp: Path):
    """repr of every exit code, stdout and output file of the CLI runs."""
    from localhom.cli import main as cli_main

    runs = itertools.count(1)

    def run(label, argv, out_name="out.json"):
        """(--out path, items) of one run, written under a fresh directory."""
        outdir = tmp / f"run{next(runs)}"
        out = outdir / out_name
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli_main([*argv, "--out", str(out)])
        items = [repr((*label, code)), repr(stdout.getvalue())]
        items += [
            repr((path.relative_to(outdir).as_posix(), path.read_bytes()))
            for path in sorted(p for p in outdir.rglob("*") if p.is_file())
        ]
        return out, items

    yield from run(("verify",), ["verify"])[1]
    for name, flags, t_plus in cli_inputs(tmp):
        if name not in VERIFY_SKIP:
            for order in (1, 2):
                label = (name, order, "verify")
                yield from run(label, ["verify", *flags, "--max-order", str(order)])[1]
        for field in ("exact", "float"):
            for order in (1, 2):
                common = [*flags, "--max-order", str(order)]
                for command, extra in (
                    ("filtration", []),
                    ("persistence", []),
                    ("stalks", []),
                    ("laplacian", ["--mode", "weighted"]),
                    ("laplacian", ["--mode", f"slice={t_plus!r}"]),
                    ("diffuse", []),
                ):
                    # filtration reads no --field: its runs on both carriers match
                    carrier = [] if command == "filtration" else ["--field", field]
                    out, items = run(
                        (name, field, order, command, extra),
                        [command, *common, *carrier, *extra],
                        "stalks" if command == "stalks" else "out.json",
                    )
                    yield from items
                    # read back what was written: the dump, and the diffused features
                    if command == "filtration":
                        again = ["persistence", "--input", str(out), "--format", "filtration",
                                 "--max-order", str(order), "--field", field]
                    elif command == "diffuse":
                        again = [command, *common, *carrier, "--features", str(out)]
                    else:
                        continue
                    yield from run((name, field, order, *again[:1], "reread"), again)[1]


def main() -> int:
    from localhom import Field

    digest = hashlib.sha256()

    def add(item):
        digest.update(item.encode())
        digest.update(b"\n")

    for graph in graphs():
        for fld in (Field(), Field(kind="float")):
            for item in items(graph, fld):
                add(item)
    for name in ("random_corpus.json", "tie_free_corpus.json"):
        for gi, graph in enumerate(corpus(name, 20)):
            for item in oracle_items(gi, graph):
                add(item)
    with tempfile.TemporaryDirectory() as tmp:
        for item in cli_items(Path(tmp)):
            add(item)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
