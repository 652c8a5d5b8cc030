"""Seeded input generator for the benchmark.

Every input is a pure function of (workload seed, op index), so two runs
with one seed hand the program byte-identical files. Files are written in
the formats the CLI reads: point clouds as `x,y` rows (`--format points`)
and graphs as `u,v,w` rows (`--format edges`). Floats are written with
repr(), which round-trips binary64 exactly.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int, *index: int) -> np.random.Generator:
    """Independent stream for the run seeded with `seed` and an op index path."""
    return np.random.default_rng([seed, *index])


def uniform_points(rng: np.random.Generator, n: int, dim: int = 2) -> np.ndarray:
    return rng.random((n, dim))


def knn_edges(points: np.ndarray, k: int) -> list[tuple[int, int, float]]:
    """Euclidean edges kept when either endpoint is among the other's k nearest."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    keep = set()
    for i, row in enumerate(dist):
        for j in np.argsort(row, kind="stable")[:k]:
            keep.add((min(i, int(j)), max(i, int(j))))
    return [(u, v, float(dist[u, v])) for u, v in sorted(keep)]


def er_edges(
    rng: np.random.Generator, n: int, p: float, lo: float, hi: float
) -> list[tuple[int, int, float]]:
    """Erdős–Rényi G(n, p) with weights uniform in [lo, hi]; never empty."""
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.append((u, v, float(rng.uniform(lo, hi))))
        if edges:
            return edges


def write_points_csv(path, points: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in points:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_edge_csv(path, edges) -> None:
    with open(path, "w") as fh:
        for u, v, w in edges:
            fh.write(f"{u},{v},{w!r}\n")
