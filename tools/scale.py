"""Per-stage wall time and peak RSS of the pipeline on one kNN cloud.

    PYTHONPATH=src python3 tools/scale.py --n 1600 --seed 1
    PYTHONPATH=src python3 tools/scale.py --n 400 --seed 1 --field exact --order 2
    PYTHONPATH=src python3 tools/scale.py --n 6400 --seed 1 --cli

Each call is one fresh process and one cloud: n uniform points in the unit
square (numpy `default_rng(seed)`), kNN 6, order `--order` (1 or 2, default
1) with max_dim = order + 1, on the `--field` carrier (float or exact,
default float). The default runs the library stages in CLI order: graph, flag
complex, persistence, stalks, slice Laplacian at t_plus (its blocks
reduced and its entries built), weighted Laplacian (the entries of
`dataclasses.replace(lap, mode=("weighted",))`, read from the slice's
atoms: no block is reduced again), power iteration and 500 diffusion
steps at alpha = 0.9 / lambda_max. `--cli` instead times `localhom
diffuse` end to end on the same cloud written as a points CSV. The last
line of stdout is one JSON object; `peak_rss_mb` is this process's own
peak resident set. `peak_rss_mb_after` gives that peak after each stage,
which the graph stage's numpy temporaries set at large n, and
`rss_mb_after` the resident set after each stage (Linux `/proc/self/statm`),
where a later stage's memory shows.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

KNN = 6
STEPS = 500


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def cloud(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2))


def run_stages(points: np.ndarray, kind: str, order: int) -> dict:
    from localhom import (
        FeatureBundle,
        Field,
        assemble_laplacian,
        build_flag_complex,
        compute_stalk,
        diffuse,
        graph_from_points,
        persistent_cohomology,
    )
    from localhom.nn import power_iteration

    fld = Field(kind=kind)
    stages: dict[str, float] = {}
    peak: dict[str, float] = {}
    rss: dict[str, float] = {}

    def timed(name, fn):
        begin = time.perf_counter()
        out = fn()
        stages[name] = time.perf_counter() - begin
        peak[name] = peak_rss_mb()
        rss[name] = rss_mb()
        return out

    graph = timed("graph", lambda: graph_from_points(points.tolist(), knn=KNN))
    filt = timed("flag", lambda: build_flag_complex(graph, order + 1))
    timed("persistence", lambda: persistent_cohomology(filt, order, fld))
    stalks = timed("stalks", lambda: {
        v: compute_stalk(filt, v, order, 1, fld) for v in range(filt.vertex_count)
    })

    def slice_operator():
        lap = assemble_laplacian(filt, stalks, order, ("slice", filt.t_plus), fld)
        lap.entries  # built on first read: the stage times reduction and emission
        return lap

    lap = timed("slice", slice_operator)
    timed("weighted", lambda: replace(lap, mode=("weighted",)).entries)
    lam = timed("power_iteration", lambda: power_iteration(lap))
    features = FeatureBundle.random(lap, order, seed=0)
    timed("diffuse", lambda: diffuse(features, lap, 0.9 / lam if lam > 0 else 0.5, STEPS))
    atoms = sum(len(b.atoms) for b in lap.blocks.values())
    return {
        "stages_s": stages,
        "peak_rss_mb_after": peak,
        "rss_mb_after": rss,
        "counts": {
            "simplices": len(filt),
            "edges": len(filt.ids_of_dim(1)),
            "laplacian_dim": lap.dimension,
            "slice_cells": len(lap.entries[0]),
            "blocks": len(lap.blocks),
            "atoms": atoms,
        },
    }


def run_cli(points: np.ndarray, kind: str, order: int) -> dict:
    from localhom.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
        argv = ["diffuse", "--input", str(path), "--format", "points", "--knn", str(KNN),
                "--field", kind, "--max-order", str(order), "--max-dim", str(order + 1),
                "--steps", str(STEPS), "--out", str(Path(tmp) / "out")]
        begin = time.perf_counter()
        code = cli_main(argv)
        seconds = time.perf_counter() - begin
    return {"argv": ["localhom"] + argv[:2] + ["points.csv"] + argv[3:-1] + ["diffused"],
            "exit_code": code, "cli_diffuse_s": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--field", choices=["float", "exact"], default="float")
    parser.add_argument("--order", type=int, choices=[1, 2], default=1)
    parser.add_argument("--cli", action="store_true", help="time `localhom diffuse` instead")
    args = parser.parse_args(argv)
    points = cloud(args.n, args.seed)
    record = {"n": args.n, "seed": args.seed, "knn": KNN, "max_dim": args.order + 1,
              "order": args.order, "field": args.field, "diffuse_steps": STEPS}
    run = run_cli if args.cli else run_stages
    record.update(run(points, args.field, args.order))
    record["peak_rss_mb"] = peak_rss_mb()
    record["python"] = sys.version.split()[0]
    record["numpy"] = np.__version__
    record["nproc"] = len(os.sched_getaffinity(0))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
